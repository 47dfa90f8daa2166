"""Structured event tracing: one JSON object per line.

The trace is the software analogue of DRAM Bender / SoftMC's command-bus
visibility: every command the controller issues (with its JEDEC-violation
flags) and every electrical event the DRAM model resolves (sense-amp
firings, fractional freezes, decoder glitches, drops, faults, leakage
steps) lands in one append-only JSON-lines file.

Determinism contract: events carry a monotonically increasing ``seq``
number and **no wall-clock timestamps**, so two serial runs of the same
(experiment, config, seed) produce byte-identical traces.  The file
starts with a ``trace_start`` header and ends with a ``trace_end`` footer
recording the event count, which doubles as a truncation check.

The format is documented in ``docs/telemetry.md`` and validated by
:mod:`repro.telemetry.schema`.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import IO, Any, Mapping

from ..errors import ConfigurationError

__all__ = ["SCHEMA_VERSION", "TraceWriter", "claim_trace_path",
           "events_by_kind", "read_trace"]

#: Bumped whenever an event kind or field changes incompatibly.
SCHEMA_VERSION = "repro-trace/1"


def claim_trace_path(path: str | Path) -> IO[str]:
    """Create the trace's directory and open the trace for writing.

    A path that cannot be written (under a regular file, or naming a
    directory) raises :class:`~repro.errors.ConfigurationError` naming
    it, so a command can refuse ``--trace-out`` before anything runs.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("w", encoding="utf-8")
    except OSError as error:
        raise ConfigurationError(
            f"cannot write trace {path}: {error.strerror}") from None


class TraceWriter:
    """Append-only JSON-lines trace file with deterministic encoding."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = claim_trace_path(self.path)
        self._seq = 0
        self._closed = False
        self._write({"kind": "trace_start", "schema": SCHEMA_VERSION})

    def _write(self, event: dict[str, Any]) -> None:
        event["seq"] = self._seq
        self._file.write(json.dumps(event, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        self._seq += 1

    def emit(self, kind: str, fields: Mapping[str, Any]) -> None:
        if self._closed:
            raise ValueError(f"trace {self.path} already closed")
        event = dict(fields)
        event["kind"] = kind
        self._write(event)

    def close(self) -> None:
        if self._closed:
            return
        self._write({"kind": "trace_end", "events": self._seq + 1})
        self._file.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace(path: str | Path) -> list[dict[str, Any]]:
    """Parse a JSON-lines trace file into a list of event dicts.

    A line that is not JSON, or not an object with ``seq`` and ``kind``,
    raises ``ValueError`` naming ``path:line``.
    """
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number + 1}: not valid JSON: {error}"
                ) from error
            if not (isinstance(event, dict) and "seq" in event
                    and "kind" in event):
                raise ValueError(
                    f"{path}:{line_number + 1}: not a trace event (an "
                    f"object with seq and kind)")
            events.append(event)
    return events


def events_by_kind(path: str | Path) -> dict[str, Counter]:
    """A trace's events as per-kind multisets, ``seq`` dropped.

    The writer sorts keys, so an event's ``repr`` is canonical: two
    traces hold the same events of a kind, in any order, exactly when
    their multisets for that kind are equal.
    """
    out: dict[str, Counter] = {}
    for event in read_trace(path):
        del event["seq"]
        out.setdefault(event["kind"], Counter())[repr(event)] += 1
    return out
