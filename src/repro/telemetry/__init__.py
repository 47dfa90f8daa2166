"""``repro.telemetry`` — unified tracing and metrics for the simulator.

Three pieces, one activation switch:

* :mod:`repro.telemetry.registry` — a process-wide registry of counters
  (deterministic work metrics), histograms and phase timers (wall-clock),
  and notes (execution-shape metadata), with a zero-overhead null sink
  when nothing is activated;
* :mod:`repro.telemetry.tracer` — a deterministic JSON-lines event trace
  of everything the controller puts on the bus (with JEDEC-violation
  flags) and everything the DRAM model resolves electrically;
* :mod:`repro.telemetry.schema` — the ``repro-trace/1`` event schema and
  a strict validator (also ``python -m repro validate-trace``).

Two traces of one run on different engines are compared kind by kind
with :func:`events_by_kind` (also ``python -m repro trace-diff``).

Quickstart::

    from repro.telemetry import session

    with session(trace_path="trace.jsonl") as tel:
        fd.frac(bank=0, row=1, n_frac=5)        # instrumented call sites
        print(tel.counters["controller.act"].value)
        print(tel.format_summary(deterministic=True))

Instrumented modules (controller, DRAM model, experiments, fleet) guard
every emission with ``active()``; with no session active the entire
subsystem costs one predicate per event.  The counter catalog and trace
format live in ``docs/telemetry.md``.
"""

from .registry import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Histogram,
    PhaseStats,
    Telemetry,
    activate,
    active,
    deactivate,
    session,
)
from .schema import (
    EVENT_SPECS,
    TraceSchemaError,
    validate_event,
    validate_trace,
    validate_trace_file,
)
from .tracer import SCHEMA_VERSION, TraceWriter, events_by_kind, read_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKET_BOUNDS",
    "EVENT_SPECS",
    "Histogram",
    "PhaseStats",
    "SCHEMA_VERSION",
    "Telemetry",
    "TraceSchemaError",
    "TraceWriter",
    "activate",
    "active",
    "deactivate",
    "events_by_kind",
    "read_trace",
    "session",
    "validate_event",
    "validate_trace",
    "validate_trace_file",
]
