"""Re-record ``digests.json`` from fresh sweep runs.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Runs one repetition of both sweeps at every recorded seed (the default
``ExperimentConfig.master_seed`` and seeds 0-10), each in a fresh
process, and stores the SHA-256 of every experiment's ``export_json``
bytes.  Results are byte-identical across engines, so the record only
changes when a change is meant to change results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The default master seed and the small seeds runs are usually given.
RECORDED_SEEDS = (2022, *range(11))


def main() -> int:
    from perfbench.layers import EXPERIMENTS
    from perfbench.sweeps import DIGESTS_PATH, child_rep

    record: dict[str, dict[str, str]] = {}
    for seed in RECORDED_SEEDS:
        digests = record.setdefault(str(seed), {})
        for workload in EXPERIMENTS:
            out_dir = ROOT / ".perfbench" / f"{workload}-seed{seed}"
            rep = child_rep(workload, seed, out_dir, timeout_s=300.0)
            if rep.errors:
                raise SystemExit(f"{workload} seed {seed}: {rep.errors}")
            digests.update(rep.digests)
    DIGESTS_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
    print(f"recorded {sum(map(len, record.values()))} digests in "
          f"{DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.path[0] = str(ROOT)
    sys.exit(main())
