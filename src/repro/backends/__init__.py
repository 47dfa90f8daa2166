"""``repro.backends`` — the two conformance-gated execution engines.

* ``scalar`` — the cycle-accurate ``SoftMC`` + ``DramChip`` reference,
* ``fused`` — every device a lane of the vectorized NumPy engine; the
  lane experiments' hot loops run as xir-compiled whole-batch phase
  kernels (:mod:`repro.xir`).

:func:`execute_program` runs an assembled SoftMC program over a
deterministic device fleet on either engine; experiments pick theirs
through ``ExperimentConfig.backend``, which every lane stage reads.
The differential conformance suite (``tests/backends/``) pins ``fused``
byte-identical — results *and* telemetry counters — to the scalar
reference across all experiments, a program corpus, and
hypothesis-fuzzed programs.  See ``docs/backends.md``.

Quickstart::

    from repro.backends import ProgramRequest, execute_program
    from repro.controller import assemble_program

    program = assemble_program(open("prog.sfc").read())
    outcome = execute_program(
        ProgramRequest(program=program, devices=(("B", 0), ("C", 0))),
        "fused")
    print(outcome.render())
"""

from ..backend_names import (
    BACKENDS,
    DEFAULT_BACKEND,
    BackendError,
    check_backend,
)
from ..telemetry import registry as _registry
from .base import (
    DeviceResult,
    ProgramOutcome,
    ProgramRequest,
    chip_state_digest,
    lane_state_digest,
    validate_request,
)
from .fused import execute_fused
from .scalar import execute_scalar

__all__ = [
    "BACKENDS",
    "BackendError",
    "DEFAULT_BACKEND",
    "DeviceResult",
    "ProgramOutcome",
    "ProgramRequest",
    "chip_state_digest",
    "check_backend",
    "execute_program",
    "lane_state_digest",
    "validate_request",
]


def execute_program(request: ProgramRequest, backend: str, *,
                    trace_path=None) -> ProgramOutcome:
    """Validate ``request``, run it on ``backend``, collect its counters.

    Runs under a nested telemetry registry so the returned ``counters``
    reflect exactly this program execution; counts are folded back into
    any enclosing registry afterwards.  ``trace_path`` additionally
    writes a ``repro-trace/1`` JSON-lines event trace of the execution.
    An unknown engine name or an invalid request raises
    :class:`BackendError` before anything runs.
    """
    check_backend(backend)
    validate_request(request)
    execute = execute_scalar if backend == "scalar" else execute_fused
    with _registry.session(trace_path=trace_path) as telemetry:
        devices = execute(request)
        snapshot = telemetry.snapshot()
    enclosing = _registry.active()
    if enclosing is not None:
        enclosing.merge_snapshot(snapshot)
    counters = {name: int(value)
                for name, value in snapshot["counters"].items()}
    return ProgramOutcome(label=request.program.label,
                          devices=tuple(devices), counters=counters)
