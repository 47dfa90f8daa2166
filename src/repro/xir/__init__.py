"""``repro.xir``: experiment-level IR, compiler and fused executor.

The pipeline (see ``docs/performance.md``):

1. **IR** (:mod:`repro.xir.ir`) — an experiment pass as a small program
   of whole-physics ops (``WriteRow``/``WriteData``/``Frac``/
   ``ReadRow``/``RefreshRow``/``PrechargeAll``/``Leak``/``RowCopy``/
   ``MultiRow``/``HalfM``), rows and durations as named parameters, or
   a SoftMC program's literal command stream (``Commands``).
2. **Compiler** (:mod:`repro.xir.compile`) — lowers a program through a
   symbolic replica of the sub-array state machine into a flat phase-op
   schedule, hoisting plan compilation, lane-uniform counter deltas,
   trace-event shapes, spacing predictions, glitch-opened row sets and
   the RNG draw regions.  Memoized per program shape.  A program whose
   physics it cannot reproduce exactly (an ACT of a second row while
   one is open, a program that leaves a bank open) raises
   :class:`XirLoweringError` naming the op and ``--backend scalar``.
3. **Executor** (:mod:`repro.xir.executor`) — replays a compiled
   program on :class:`~repro.dram.batched.BatchedSubArray`'s phase
   kernels, with per-region merged RNG pre-advancement and store
   collapse for non-enforce lanes.  It is the lane engine's only
   walker.

The lane drivers run the experiments in :data:`XIR_LOWERED_EXPERIMENTS`
through the executor: ``BatchedFracDram`` (fMAJ), the MAJ3 verification
and table1's black-box probes (``repro.core.verify``,
``repro.analysis.reverse_engineering``), ``BatchedRetentionProfiler``
(fig6) and :class:`repro.xir.puf.FusedFracPuf` (fig11, fig12, nist).
``BatchedSoftMC``'s wrappers each build one op and run it here, and
``run-program --backend fused`` compiles a whole SoftMC program.
Everything stays byte-identical to the ``scalar`` engine
(conformance-gated in ``tests/backends``).  The package root holds only
the IR, compiler and executor, because ``repro.core.batched_ops`` and
``repro.controller.batched`` import it.
"""

from . import ir
from .compile import (
    XirLoweringError,
    clear_xir_cache,
    compile_program,
    xir_cache_info,
)
from .executor import FusedRunner

#: Experiments whose hot loops run through the fused xir executor when
#: ``--backend fused`` is selected: exactly these run xir programs, every
#: lane-driven experiment among them (same results — the fused path is
#: a perf lane, not a different model).
#: Pinned by ``tests/xir/test_registry.py`` and the fused leg of
#: ``tests/backends/test_conformance_experiments.py``.
XIR_LOWERED_EXPERIMENTS = ("fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
                           "fig12", "nist", "table1")

__all__ = [
    "FusedRunner",
    "XIR_LOWERED_EXPERIMENTS",
    "XirLoweringError",
    "clear_xir_cache",
    "compile_program",
    "ir",
    "xir_cache_info",
]
