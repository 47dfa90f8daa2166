"""The fused backend: xir-compiled experiment programs over batched lanes.

``fused`` layers the :mod:`repro.xir` pipeline on top of the batched
engine by overriding the three driver factories of
:class:`~repro.backends.base.Backend`:
:class:`~repro.xir.FusedFracDram`, :class:`~repro.xir.FusedFracPuf` and
:class:`~repro.xir.FusedRetentionProfiler` replay one compiled phase-op
schedule per program *shape* instead of dispatching per command.  The
experiments that build their drivers through those factories are
:data:`repro.xir.XIR_LOWERED_EXPERIMENTS` (fig6 retention, fig9 fMAJ
coverage, fig10 fMAJ stability, fig11 PUF HD, nist randomness).
Everything else — lane-width policy, assembled-program execution, fleet
sharding — inherits the batched engine unchanged, so the backend is a
strict superset: same bytes, same counters, less Python.  The serving
stack's ``VerificationEngine`` always evaluates through
:class:`~repro.xir.FusedFracPuf`.

The conformance suite (``tests/backends``) holds ``fused`` to the same
gate as every other backend: byte-identical results and deterministic
telemetry counter snapshots against the scalar reference, serially and
under fleet workers.
"""

from __future__ import annotations

from ..core.batched_ops import BatchedFracDram
from ..dram.batched import BatchedChip
from ..puf.frac_puf import PUF_N_FRAC
from ..xir import FusedFracDram, FusedFracPuf, FusedRetentionProfiler
from .batched import BatchedBackend
from .registry import register_backend

__all__ = ["FusedBackend"]


@register_backend
class FusedBackend(BatchedBackend):
    """Batched lanes plus xir-compiled experiment hot loops."""

    name = "fused"
    description = ("xir-compiled experiment programs on batched lanes "
                   "(fig6/fig9/fig10/fig11/nist fused hot paths)")

    def fracdram(self, device: BatchedChip) -> FusedFracDram:
        return FusedFracDram(device)

    def puf(self, device: BatchedChip, *,
            n_frac: int = PUF_N_FRAC) -> FusedFracPuf:
        return FusedFracPuf(device, n_frac=n_frac)

    def retention_profiler(self, bfd: BatchedFracDram
                           ) -> FusedRetentionProfiler:
        return FusedRetentionProfiler(bfd)
