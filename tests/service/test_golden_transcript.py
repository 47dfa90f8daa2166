"""Golden served transcript: the scripted replay pinned to committed bytes.

Two replays of one commit always agree, so comparing them cannot see a
change that moves every served decision or distance the same way.  This
test pins the transcript that::

    python -m repro bench-service --modules 64 --requests 128 \\
        --no-store --transcript first.jsonl

writes (CI's service smoke ``cmp``s that file against the same golden).
An intentional change regenerates it with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src \\
        python -m pytest tests/service/test_golden_transcript.py

and commits the diff.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.__main__ import main

GOLDEN = Path(__file__).parent / "golden" / "bench_service_64x128.jsonl"


def test_scripted_replay_matches_golden_transcript(tmp_path, capsys):
    transcript = tmp_path / "first.jsonl"
    status = main(["bench-service", "--modules", "64", "--requests", "128",
                   "--no-store", "--transcript", str(transcript)])
    capsys.readouterr()
    assert status == 0
    fresh = transcript.read_bytes()
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_bytes(fresh)
    assert GOLDEN.exists(), (
        f"golden transcript {GOLDEN} missing; regenerate with "
        "REPRO_REGEN_GOLDEN=1")
    assert fresh == GOLDEN.read_bytes(), (
        "served transcript drifted from the golden; if the change is "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and commit "
        "the diff")
