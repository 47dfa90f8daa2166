"""Lowering: experiment programs -> fused phase-op schedules.

The compiler walks an IR program (:mod:`repro.xir.ir`) through a
symbolic replica of the batched engine's per-bank state machine —
pending precharges, sense-enable windows, the close-abort glitch window,
command-spacing drops — and emits the flat list of *phase ops* the
executor (:mod:`repro.xir.executor`) later runs as whole-batch NumPy
kernels.  Everything the batched engine derives per issue is resolved
here once per program *shape*:

* **Counter deltas** — every lane-uniform telemetry counter increment
  (``controller.*`` including the JEDEC annotations from
  :func:`repro.controller.plan.plan_for`) collapses to one
  ``(name, delta)`` table applied once per run, multiplied by the lane
  count — the whole-program extension of :class:`CompiledPlan`.
* **Command events** — trace event shapes (kind, bank, row parameter,
  shared violation lists) are frozen per command.
* **Spacing predictions** — for lanes whose decoder enforces command
  spacing, each ACT/PRE is pre-classified allowed/dropped.  The executor
  *mirrors* the real per-lane bookkeeping at run time and raises if a
  lane ever diverges from the prediction, so the fast path is checked,
  never trusted.
* **Draw regions** — the RNG consumption schedule (charge-share jitter,
  sense noise), split at :class:`~repro.xir.ir.Leak` boundaries so the
  executor can pre-draw each region in one merged ``normal`` call per
  lane without reordering any stream relative to the leak draws.

Programs whose physics the fused kernels cannot reproduce exactly
(multi-row activations, partial amplification, unsensed glitches,
programs that leave a bank open) are rejected with
:class:`XirLoweringError` instead of silently diverging.

Compiled programs are memoized in a process-local LRU keyed by the
program :func:`~repro.xir.ir.signature`, the lane class, timing and the
sense-enable window; :func:`xir_cache_info` exposes the statistics the
``--cache-stats`` flag and the performance docs report.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from ..controller import sequences as seq
from ..controller.commands import CommandSequence
from ..controller.plan import plan_for
from ..dram.chip import MIN_COMMAND_SPACING_CYCLES
from ..dram.parameters import ElectricalParams, TimingParams
from ..dram.subarray import CLOSE_ABORT_WINDOW
from ..errors import CommandSequenceError
from . import ir

__all__ = [
    "XIR_CACHE_CAPACITY",
    "CommandEvent",
    "CompiledProgram",
    "PrimSpec",
    "SpacingCheck",
    "XirLoweringError",
    "clear_xir_cache",
    "compile_program",
    "template",
    "xir_cache_info",
]


class XirLoweringError(CommandSequenceError):
    """The program's physics cannot be lowered to fused phase ops.

    Raised naming the offending op so a refused experiment flow points
    at what it tried to lower instead of silently inheriting the
    batched engine (``repro.xir.XIR_LOWERED_EXPERIMENTS`` lists which
    experiments ride the fused path).
    """


@dataclass(frozen=True)
class SpacingCheck:
    """Predicted command-spacing outcome for one (command, bank)."""

    offset: int  # program-relative cycle of the command
    bank: int
    allowed: bool


@dataclass(frozen=True)
class CommandEvent:
    """Per-command trace shape plus its spacing predictions.

    ``violations`` is the pre-rendered (shared, never mutated) JEDEC
    violation event list from the compiled plan, exactly what
    :meth:`BatchedSoftMC._record_command` attaches.
    """

    offset: int  # program-relative cycle
    kind: str
    bank: int | None
    row_param: str | None
    violations: tuple
    spacing: tuple[SpacingCheck, ...]


@dataclass(frozen=True)
class PrimSpec:
    """One lowered experiment op: its event metadata and phase actions.

    ``actions`` interleaves command records with phase ops, in issue
    order::

        ("cmd", CommandEvent)
        ("cs", bank, param)                   # open + charge share
        ("sense", bank, param)                # sense amplifiers fire
        ("write", bank, param, value)         # whole-row write
        ("write-data", bank, param)           # run-time-bound row write
        ("readout", bank, param)              # logical read of the buffer
        ("freeze", bank, param)               # interrupted-close freeze
        ("close", bank, param)                # committed close
        ("glitch", bank, src, dst)            # sensed close-abort copy
        ("leak", dt_param)                    # retention leakage

    ``store`` marks a write op whose open/sense/close physics is fully
    overwritten by its own write (the plain in-spec write-row cycle on a
    spacing-free lane class): the telemetry-off fast path may collapse
    the whole prim into one ``("store", bank, param, value)`` action.
    Its charge-share and sense draws are still drawn, into rows no
    kernel reads, so every lane's stream advances as on the full path.
    """

    op: str
    bank: int | None
    start: int
    duration: int
    n_commands: int
    n_frac: int
    value: bool | None
    rows_param: str | None
    src_param: str | None
    dst_param: str | None
    dt_param: str | None
    actions: tuple[tuple, ...]
    store: bool = False


@dataclass(frozen=True)
class CompiledProgram:
    """A whole experiment pass, lowered for one lane class."""

    enforce: bool
    prims: tuple[PrimSpec, ...]
    duration: int
    n_reads: int
    #: Lane-uniform counter increments for the whole program, applied
    #: once per run multiplied by the lane count.
    deltas: tuple[tuple[str, int], ...]
    #: RNG consumption schedule: per region (split at leaks), the
    #: ordered ``(kind, bank, param)`` draw segments, one per ``cs``
    #: (``"jitter"``) and ``sense`` action in issue order.  A ``store``
    #: prim owns two of them (jitter, then sense), which the fast
    #: stream's ``store`` action steps past unread.
    regions: tuple[tuple[tuple[str, int, str], ...], ...]
    #: Row parameters and the single bank each is bound on.
    param_banks: tuple[tuple[str, int], ...]
    #: Row-copy (src, dst, bank) parameter pairs needing glitch binding.
    pairs: tuple[tuple[str, str, int], ...]
    dt_params: tuple[str, ...]
    #: Process-unique id, a stable key for executor-side binding caches
    #: (program objects live in the compile LRU; ``id()`` can be reused
    #: after an eviction, a token cannot).
    token: int = dataclasses.field(
        default_factory=itertools.count().__next__)


class _BankState:
    """Symbolic per-bank replica of the batched sub-array lane state."""

    __slots__ = ("open_param", "fired", "copy", "pre_at", "last_act")

    def __init__(self) -> None:
        self.open_param: str | None = None
        self.fired = False
        self.copy = False
        self.pre_at: int | None = None
        self.last_act = 0

    @property
    def idle(self) -> bool:
        return self.open_param is None and self.pre_at is None


def template(op: ir.Op, timing: TimingParams,
             electrical: ElectricalParams,
             ) -> tuple[CommandSequence, dict[int, str]]:
    """The op's command template plus the command-index -> row-param map.

    The one definition of each op's command stream: the compiler lowers
    it, and :meth:`BatchedSoftMC.replay
    <repro.controller.batched.BatchedSoftMC.replay>` issues it per
    command with each row parameter's lane rows.  Templates reuse the
    real sequence builders (rows are placeholders; the compiled-plan key
    ignores them), so the JEDEC annotations — and the plan-cache
    entries — are shared with the per-command walk.
    """
    if isinstance(op, (ir.WriteRow, ir.WriteData)):
        # An empty payload: the stored plane ships separately (a
        # constant fill for WriteRow, a run-time binding for WriteData).
        return (seq.write_row_sequence(op.bank, 0, (), timing),
                {0: op.rows, 1: op.rows})
    if isinstance(op, ir.Frac):
        return (seq.frac_sequence(op.bank, 0, op.n_frac, timing),
                {2 * i: op.rows for i in range(op.n_frac)})
    if isinstance(op, ir.ReadRow):
        return (seq.read_row_sequence(op.bank, 0, timing),
                {0: op.rows, 1: op.rows})
    if isinstance(op, ir.PrechargeAll):
        return seq.precharge_all_sequence(timing), {}
    if isinstance(op, ir.RowCopy):
        return (seq.row_copy_sequence(op.bank, 0, 1, timing, electrical),
                {0: op.src, 2: op.dst})
    raise XirLoweringError(f"cannot lower {op!r}")  # pragma: no cover


def _compile(ops: Sequence[ir.Op], *, enforce: bool, timing: TimingParams,
             electrical: ElectricalParams, n_banks: int) -> CompiledProgram:
    se = int(electrical.sense_enable_cycles)
    states = [_BankState() for _ in range(n_banks)]
    last_allowed: list[int | None] = [None] * n_banks
    deltas: dict[str, int] = {}
    regions: list[list[tuple[str, int, str]]] = [[]]
    prims: list[PrimSpec] = []
    param_banks: dict[str, int] = {}
    pairs: list[tuple[str, str, int]] = []
    dt_params: list[str] = []
    n_reads = 0
    start = 0
    actions: list = []

    op: ir.Op | None = None  # current experiment op, for refusal context

    def refuse(message: str) -> None:
        context = "" if op is None else f" (while lowering {op!r})"
        raise XirLoweringError(message + context)

    def bump(name: str, n: int = 1) -> None:
        deltas[name] = deltas.get(name, 0) + n

    def register(param: str, bank: int) -> None:
        bound = param_banks.setdefault(param, bank)
        if bound != bank:
            refuse(f"row parameter {param!r} bound on banks "
                   f"{bound} and {bank}")

    def commit(bank: int) -> None:
        """Committed close: freeze an interrupted share, else plain close."""
        state = states[bank]
        if not state.fired:
            actions.append(("freeze", bank, state.open_param))
        else:
            actions.append(("close", bank, state.open_param))
        state.open_param = None
        state.fired = False
        state.copy = False
        state.pre_at = None

    def settle_bank(bank: int, t: int) -> None:
        state = states[bank]
        if state.pre_at is not None:
            if t - state.pre_at >= CLOSE_ABORT_WINDOW:
                commit(bank)
            return  # interrupted activation: sense can no longer fire
        if (state.open_param is not None and not state.fired
                and t - state.last_act >= se):
            actions.append(("sense", bank, state.open_param))
            regions[-1].append(("sense", bank, state.open_param))
            state.fired = True

    def do_act(bank: int, param: str | None, t: int) -> None:
        if param is None:  # pragma: no cover - templates always bind ACT rows
            raise XirLoweringError("ACTIVATE without a row parameter")
        state = states[bank]
        if state.pre_at is not None and t - state.pre_at < CLOSE_ABORT_WINDOW:
            # Close-abort: the decoder glitch path.  Only the sensed
            # (row-copy) shape is fused; an unsensed glitch re-shares
            # charge with history the compiler does not track.
            if state.open_param is None:  # pragma: no cover - pre => open
                raise XirLoweringError("close-abort on a closed bank")
            if not state.fired:
                refuse("unsensed close-abort glitches cannot be fused")
            if state.copy:
                refuse("chained glitch overwrites cannot be fused")
            actions.append(("glitch", bank, state.open_param, param))
            pair = (state.open_param, param, bank)
            if pair not in pairs:
                pairs.append(pair)
            state.pre_at = None
            state.copy = True
            state.last_act = t
            return
        if state.pre_at is not None:
            commit(bank)  # cell.precharge-style unconditional commit
        settle_bank(bank, t)
        if state.open_param is not None:
            if state.copy:
                refuse("activation over a glitch-opened row set "
                       "cannot be fused")
            if param != state.open_param:
                refuse("multi-row activation cannot be fused (distinct row "
                       f"parameters {state.open_param!r} and {param!r} open "
                       f"on bank {bank})")
            return  # same-row re-ACT: raises the word line again, no-op
        actions.append(("cs", bank, param))
        regions[-1].append(("jitter", bank, param))
        state.open_param = param
        state.fired = False
        state.copy = False
        state.last_act = t

    def do_pre(bank: int, t: int) -> None:
        state = states[bank]
        if state.pre_at is not None:
            commit(bank)  # commits the pending close with no gap check
            return
        settle_bank(bank, t)
        if state.open_param is None:
            return  # closed bank: the idle bit-line level is re-asserted
        if not state.fired and t - state.last_act - 1 >= 1:
            refuse("partial amplification cannot be fused (PRECHARGE inside "
                   "the amplify window)")
        state.pre_at = t

    def finish(t: int) -> None:
        """Sequence completion: settle every cell, commit pending closes."""
        for bank in range(n_banks):
            settle_bank(bank, t)
            if states[bank].pre_at is not None:
                commit(bank)

    for op in ops:
        actions = []
        if isinstance(op, ir.Leak):
            for bank, state in enumerate(states):
                if not state.idle:
                    refuse(f"Leak with bank {bank} not idle "
                           "(precharge first)")
            if op.dt not in dt_params:
                dt_params.append(op.dt)
            actions.append(("leak", op.dt))
            regions.append([])
            prims.append(PrimSpec(
                op="leak", bank=None, start=start, duration=0, n_commands=0,
                n_frac=0, value=None, rows_param=None, src_param=None,
                dst_param=None, dt_param=op.dt, actions=(("leak", op.dt),)))
            continue

        if not 0 <= getattr(op, "bank", 0) < n_banks:
            refuse(f"bank {op.bank} out of range")
        sequence, row_params = template(op, timing, electrical)
        plan = plan_for(timing, sequence)
        bump("controller.sequences")
        bump(f"controller.seq.{sequence.op}")
        if sequence.op == "frac":
            bump("controller.frac_ops", len(sequence) // 2)
        bump("controller.commands", len(sequence))
        for index, timed in enumerate(sequence):
            bump(f"controller.{timed.command.KIND.lower()}")
            violations = plan.violations[index]
            if violations:
                bump("controller.jedec_violations", len(violations))
                for violation in violations:
                    bump(f"controller.jedec.{violation.constraint.lower()}")

        for index, timed in enumerate(sequence):
            command = timed.command
            t = start + timed.cycle
            kind = command.KIND
            checks: list[SpacingCheck] = []
            if enforce and kind in ("ACT", "PRE"):
                check_banks = [command.bank]
            elif enforce and kind == "PREA":
                check_banks = list(range(n_banks))
            else:
                check_banks = []
            for bank in check_banks:
                last = last_allowed[bank]
                allowed = (last is None
                           or t - last >= MIN_COMMAND_SPACING_CYCLES)
                if allowed:
                    last_allowed[bank] = t
                checks.append(SpacingCheck(offset=t, bank=bank,
                                           allowed=allowed))
            row_param = row_params.get(index)
            if row_param is not None:
                # Every row parameter binds here, before spacing can
                # drop its command: a dropped command's trace event
                # still names each lane's row.
                register(row_param, command.bank)
            actions.append(("cmd", CommandEvent(
                offset=t, kind=kind, bank=getattr(command, "bank", None),
                row_param=row_param,
                violations=plan.violation_events[index],
                spacing=tuple(checks))))
            allowed_by_bank = {check.bank: check.allowed for check in checks}
            if kind == "ACT":
                if allowed_by_bank.get(command.bank, True):
                    do_act(command.bank, row_params.get(index), t)
            elif kind == "PRE":
                if allowed_by_bank.get(command.bank, True):
                    do_pre(command.bank, t)
            elif kind == "PREA":
                for bank in range(n_banks):
                    if allowed_by_bank.get(bank, True):
                        do_pre(bank, t)
            elif kind == "WR":
                for bank in range(n_banks):
                    settle_bank(bank, t)
                state = states[command.bank]
                param = row_params.get(index)
                if state.open_param is None or not state.fired:
                    refuse("WRITE before the sense amplifiers fired")
                if state.copy or param != state.open_param:
                    refuse("WRITE target does not match the open row")
                if isinstance(op, ir.WriteData):
                    actions.append(("write-data", command.bank, param))
                else:
                    actions.append(("write", command.bank, param, op.value))
            elif kind == "RD":
                for bank in range(n_banks):
                    settle_bank(bank, t)
                state = states[command.bank]
                param = row_params.get(index)
                if state.open_param is None or not state.fired:
                    refuse("READ before the sense amplifiers fired")
                if param != state.open_param:
                    refuse("READ target does not match the open row")
                actions.append(("readout", command.bank, param))
                n_reads += 1
            else:  # pragma: no cover - defensive
                raise XirLoweringError(f"unknown command kind {kind!r}")

        finish(start + sequence.duration)
        store = False
        if isinstance(op, (ir.WriteRow, ir.WriteData)) and not enforce:
            # A plain write-row cycle on a spacing-free lane class: the
            # charge share and sense are fully overwritten by the write
            # and the close only re-idles the bit-lines, so the fast
            # path may collapse the prim to one store kernel.  Its two
            # draw segments (jitter, then sense) must be the region's
            # tail: the store action steps past exactly those two.  The
            # pattern check is structural, so any future template change
            # that adds an observable step simply stops matching.
            write_tag = ("write-data" if isinstance(op, ir.WriteData)
                         else "write")
            physics = [a[0] for a in actions if a[0] != "cmd"]
            store = (physics == ["cs", "sense", write_tag, "close"]
                     and regions[-1][-2:] == [("jitter", op.bank, op.rows),
                                              ("sense", op.bank, op.rows)])
        prims.append(PrimSpec(
            op=sequence.op,
            bank=getattr(op, "bank", None),
            start=start,
            duration=sequence.duration,
            n_commands=len(sequence),
            n_frac=getattr(op, "n_frac", 0),
            value=getattr(op, "value", None),
            rows_param=getattr(op, "rows", None),
            src_param=getattr(op, "src", None),
            dst_param=getattr(op, "dst", None),
            dt_param=None,
            actions=tuple(actions),
            store=store))
        start += sequence.duration

    for bank, state in enumerate(states):
        if not state.idle:
            raise XirLoweringError(
                f"program leaves bank {bank} open; fused programs must end "
                "with every bank idle (add a read or PrechargeAll)")

    return CompiledProgram(
        enforce=bool(enforce),
        prims=tuple(prims),
        duration=start,
        n_reads=n_reads,
        deltas=tuple(sorted(deltas.items())),
        # Empty regions are kept: the executor advances its region index
        # once per leak, so the schedule has exactly n_leaks + 1 entries.
        regions=tuple(tuple(region) for region in regions),
        param_banks=tuple(sorted(param_banks.items())),
        pairs=tuple(pairs),
        dt_params=tuple(dt_params))


#: Upper bound on memoized programs; distinct program shapes per process
#: number in the tens (fig6: one per (n_frac, wait>0) setting and lane
#: class; fig11: one per lane class).
XIR_CACHE_CAPACITY: int = 256

_cache: "OrderedDict[tuple, CompiledProgram]" = OrderedDict()
_hits: int = 0
_misses: int = 0


def compile_program(ops: Sequence[ir.Op], *, enforce: bool,
                    timing: TimingParams, electrical: ElectricalParams,
                    n_banks: int) -> CompiledProgram:
    """Memoized lowering (process-local LRU, like :func:`plan_for`).

    The key is the program :func:`~repro.xir.ir.signature` — rows and
    leak durations are bound at execution, so every point of a
    :meth:`~repro.xir.executor.FusedRunner.run_sweep` hits the same
    entry — plus the lane class (spacing-enforcing or not), the timing
    parameters and the sense-enable window (the only electrical input
    the lowering reads).

    The cache mutations below are exempt from the kernel-purity rule for
    the reason :func:`plan_for`'s are: ``_compile`` is a pure function
    of the key, so hit/miss history can change only *when* work happens,
    never any result a worker returns — and the cache dies with the
    worker process.
    """
    key = (ir.signature(ops), bool(enforce), timing,
           int(electrical.sense_enable_cycles), int(n_banks))
    global _hits, _misses  # repro: lint-ok[FORK002]
    program = _cache.get(key)
    if program is not None:
        _hits += 1  # repro: lint-ok[FORK002]
        _cache.move_to_end(key)
        return program
    _misses += 1  # repro: lint-ok[FORK002]
    program = _compile(ops, enforce=enforce, timing=timing,
                       electrical=electrical, n_banks=n_banks)
    _cache[key] = program  # repro: lint-ok[FORK002]
    if len(_cache) > XIR_CACHE_CAPACITY:
        _cache.popitem(last=False)  # repro: lint-ok[FORK002]
    return program


def xir_cache_info() -> dict[str, int]:
    """Compile-cache statistics (``misses`` == programs compiled)."""
    return {"size": len(_cache), "capacity": XIR_CACHE_CAPACITY,
            "hits": _hits, "misses": _misses}


def clear_xir_cache() -> None:
    """Drop all memoized programs and reset the hit/miss counters."""
    global _hits, _misses
    _cache.clear()
    _hits = 0
    _misses = 0
