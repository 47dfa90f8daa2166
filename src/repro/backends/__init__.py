"""``repro.backends`` — pluggable, conformance-gated execution engines.

The registry (:mod:`repro.backends.registry`) maps names to
interchangeable :class:`~repro.backends.base.Backend` engines:

* ``scalar`` — the cycle-accurate ``SoftMC`` + ``DramChip`` reference,
* ``fused`` — every device a lane of the vectorized NumPy engine; the
  lowered experiments' hot loops run as xir-compiled whole-batch phase
  kernels (:mod:`repro.xir`).

Each backend executes assembled SoftMC programs over a deterministic
device fleet (:meth:`~repro.backends.base.Backend.execute_program`) and
drives experiment dispatch via ``ExperimentConfig.backend``: its lane
width is the only engine choice an experiment makes.
The differential conformance suite (``tests/backends/``) pins every
registered backend byte-identical — results *and* telemetry counters —
to the scalar reference across all experiments, a program corpus, and
hypothesis-fuzzed programs, so a new engine plugs in against an existing
gate.  See ``docs/backends.md``.

Quickstart::

    from repro.backends import get_backend, ProgramRequest
    from repro.controller import assemble_program

    program = assemble_program(open("prog.sfc").read())
    outcome = get_backend("fused").execute_program(
        ProgramRequest(program=program, devices=(("B", 0), ("C", 0))))
    print(outcome.render())
"""

from .base import (
    Backend,
    DeviceResult,
    ProgramOutcome,
    ProgramRequest,
    chip_state_digest,
    lane_state_digest,
    validate_request,
)
from .registry import (
    DEFAULT_BACKEND,
    BackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)

# Importing the engine modules registers the built-in backends.
from . import fused as _fused  # noqa: F401  (registration side effect)
from . import scalar as _scalar  # noqa: F401

__all__ = [
    "Backend",
    "BackendError",
    "DEFAULT_BACKEND",
    "DeviceResult",
    "ProgramOutcome",
    "ProgramRequest",
    "available_backends",
    "chip_state_digest",
    "get_backend",
    "lane_state_digest",
    "register_backend",
    "resolve_backend",
    "validate_request",
]
