"""What every workload returns, and the end-to-end metric list."""

from __future__ import annotations

import resource
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager

from .tracing import Recorder

__all__ = ["END_TO_END", "Outcome", "peak_rss_mib", "span"]

#: Every end-to-end metric: (name, unit).  Each workload reports all of
#: them; README.md gives the per-workload definitions.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("job_s", "s"),
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("capacity_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Outcome:
    """One workload run: operations, metrics and what the trace needs."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Human-readable lines printed before the JSON result.
    notes: list[str] = field(default_factory=list)
    #: Per-layer metrics the workload derives itself.
    layer_extra: dict[str, float] = field(default_factory=dict)


def peak_rss_mib() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(recorder: Recorder | None, name: str) -> ContextManager[None]:
    """``recorder.span(name)``, or nothing on an untraced run."""
    return recorder.span(name) if recorder is not None else nullcontext()
