"""Lowering: experiment programs -> fused phase-op schedules.

The compiler walks an IR program (:mod:`repro.xir.ir`) through a
symbolic replica of the sub-array state machine of
:class:`~repro.dram.subarray.SubArray` — open row sets, pending
precharges, sense-enable windows, the close-abort glitch window, the
amplify window, command-spacing drops — and emits the flat list of
*phase ops* the executor (:mod:`repro.xir.executor`) runs as
whole-batch NumPy kernels.  State is kept per site: a ``(bank,
sub-array)`` pair for literal rows, and per bank for parameterized rows
(each lane's own sub-array).  Everything the scalar engine derives per
issue is resolved here once per program *shape*:

* **Counter deltas** — every lane-uniform telemetry counter increment
  (``controller.*`` including the JEDEC annotations from
  :func:`repro.controller.plan.plan_for`) collapses to one
  ``(name, delta)`` table applied once per run, multiplied by the lane
  count — the whole-program extension of :class:`CompiledPlan`.
* **Command events** — trace event shapes (kind, bank, row, shared
  violation lists) are frozen per command.
* **Spacing predictions** — for lanes whose decoder enforces command
  spacing, each ACT/PRE is pre-classified allowed/dropped.  The executor
  *mirrors* the real per-lane bookkeeping at run time and raises if a
  lane ever diverges from the prediction, so the fast path is checked,
  never trusted.
* **Row sets** — a close-abort glitch opens a set of rows that depends
  on each lane's decoder and rows but not on data; the compiler names
  the set symbolically and the executor resolves it once per (decoder
  profile, physical rows) at bind time.
* **Draw regions** — the RNG consumption schedule (charge-share jitter,
  sense and partial-amplification noise), split at
  :class:`~repro.xir.ir.Leak` boundaries so the executor can pre-draw
  each region in one merged ``normal`` call per lane without reordering
  any stream relative to the leak draws.

Programs whose physics the kernels cannot reproduce exactly (an ACT of
a second row while one is open, a program that leaves a bank open) are
refused with :class:`XirLoweringError`, naming the op and
``--backend scalar``, before any lane runs.

Compiled programs are memoized in a process-local LRU keyed by the
program :func:`~repro.xir.ir.signature`, the lane class, timing, the
sense-enable window and the bank geometry; :func:`xir_cache_info`
exposes the statistics the ``--cache-stats`` flag and the performance
docs report.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..controller import sequences as seq
from ..controller.commands import (
    Activate,
    CommandSequence,
    TimedCommand,
    WriteRow,
)
from ..controller.plan import plan_for
from ..dram.chip import MIN_COMMAND_SPACING_CYCLES
from ..dram.parameters import ElectricalParams, TimingParams
from ..dram.subarray import CLOSE_ABORT_WINDOW
from ..errors import AddressError, CommandSequenceError
from . import ir

__all__ = [
    "XIR_CACHE_CAPACITY",
    "CommandEvent",
    "CompiledProgram",
    "PrimSpec",
    "SpacingCheck",
    "XirLoweringError",
    "bind_template",
    "clear_xir_cache",
    "compile_program",
    "template",
    "xir_cache_info",
]


class XirLoweringError(CommandSequenceError):
    """The program's physics cannot be lowered to fused phase ops.

    Raised before any lane runs, naming the offending op and pointing
    at ``--backend scalar``, the per-command reference engine.
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
    :meth:`SoftMC._record_command
    <repro.controller.softmc.SoftMC._record_command>` attaches.
    ``row_param`` is the command's row: a parameter name or a literal
    bank row.
    """

    offset: int  # program-relative cycle
    kind: str
    bank: int | None
    row_param: str | int | None
    violations: tuple
    spacing: tuple[SpacingCheck, ...]


@dataclass(frozen=True)
class PrimSpec:
    """One lowered experiment op: its event metadata and phase actions.

    ``actions`` interleaves command records with phase ops, in issue
    order.  ``site`` is a ``(bank, sub-array)`` pair, the sub-array
    ``None`` for parameterized rows (each lane's own); ``set`` is a
    row-set key (see :func:`_first`) that the executor binds to each
    lane's physical rows::

        ("cmd", CommandEvent)
        ("cs", site, set)                     # open + charge share
        ("sense", site, set)                  # sense amplifiers fire
        ("amp", site, set, steps)             # partial amplification
        ("write", site, row, set, source)     # WRITE into the open set
        ("readout", site, row)                # logical read of the buffer
        ("freeze", site, set)                 # interrupted-close freeze
        ("close", site, set)                  # committed close
        ("abort", site, set, row, glitched)   # unsensed close-abort
        ("glitch", site, set, row, opened)    # sensed close-abort copy
        ("leak", dt_param)                    # retention leakage

    A ``write`` source is a fill value (``bool``), a data parameter
    (``str``) or literal logical bits (a bool array).  ``store`` is the
    collapsed form of a plain in-spec write-row cycle on a spacing-free
    lane class, ``("store", set, row, source)``: its open/sense/close
    physics is fully overwritten by its own write, so the telemetry-off
    fast path may run it as one store kernel.  Its charge-share and
    sense draws are still drawn, into rows no kernel reads, so every
    lane's stream advances as on the full path.  ``label`` is a literal
    op's sequence label (others are labelled from their bound rows).
    """

    op: str
    bank: int | None
    label: str | None
    start: int
    duration: int
    n_commands: int
    actions: tuple[tuple, ...]
    store: tuple | None = None


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
    #: ordered ``(kind, site, set)`` draw segments: one ``"jitter"``
    #: segment (``k x C`` values per lane with ``k`` rows open) per
    #: ``cs`` action and one ``"sense"`` segment (``C`` values) per
    #: ``sense`` or ``amp`` action, in issue order.  A ``store`` prim
    #: owns two of them (jitter, then sense), which the fast stream's
    #: ``store`` action steps past unread.
    regions: tuple[tuple[tuple, ...], ...]
    #: Row parameters and the single bank each is bound on.
    param_banks: tuple[tuple[str, int], ...]
    #: Every ``(row, bank)`` the program names: parameters and literal
    #: rows, each bound per lane to its sub-array and physical row.
    row_keys: tuple[tuple, ...]
    #: Glitch-opened row sets, in creation order (a set's predecessor
    #: comes first); each resolves per lane at bind time.
    sets: tuple[tuple, ...]
    dt_params: tuple[str, ...]
    #: Process-unique id, a stable key for executor-side binding caches
    #: (program objects live in the compile LRU; ``id()`` can be reused
    #: after an eviction, a token cannot).
    token: int = dataclasses.field(
        default_factory=itertools.count().__next__)


class _SiteState:
    """Symbolic replica of one sub-array's lane state.

    ``open`` is the set of raised word-lines, ``preshare`` the set of the
    last charge share (what a freeze or a glitch rollback acts on).
    """

    __slots__ = ("open", "preshare", "fired", "pre_at", "last_act")

    def __init__(self) -> None:
        self.open: tuple | None = None
        self.preshare: tuple | None = None
        self.fired = False
        self.pre_at: int | None = None
        self.last_act = 0

    @property
    def idle(self) -> bool:
        return self.open is None and self.pre_at is None


def _first(key: tuple):
    """The first row of a row set: the row its glitch pairs start from.

    A set key is ``("row", bank, row)`` (one activated row),
    ``("glitch", bank, previous, row)`` (the rows an unsensed close-abort
    of ``previous`` by ``row`` opens: ``resolve_glitch`` of the pair
    ``(first(previous), row)``) or ``("copy", bank, previous, row)``
    (a sensed close-abort: ``previous`` plus that pair's glitch rows).
    Rows are parameter names or literal bank rows.
    """
    while key[0] != "row":
        key = key[2]
    return key[2]


def _members(key: tuple) -> set:
    """The rows a set holds on every lane, whatever its decoder."""
    if key[0] == "row":
        return {key[2]}
    if key[0] == "glitch":
        return {_first(key), key[3]}
    return _members(key[2]) | {key[3]}


def template(op: ir.Op, timing: TimingParams,
             electrical: ElectricalParams,
             ) -> tuple[CommandSequence, dict[int, str]]:
    """The op's command template plus the command-index -> row-param map.

    The one definition of each op's command stream: the compiler lowers
    it, and :func:`bind_template` binds it to one device's rows for the
    scalar reference.  Templates reuse the real sequence builders (rows
    are placeholders; the compiled-plan key ignores them), so the JEDEC
    annotations — and the plan-cache entries — are shared with the
    scalar controller.  A :class:`~repro.xir.ir.Commands` op is its own
    template, with literal rows.
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
    if isinstance(op, ir.RefreshRow):
        return seq.refresh_row_sequence(op.bank, 0, timing), {0: op.rows}
    if isinstance(op, ir.PrechargeAll):
        return seq.precharge_all_sequence(timing), {}
    if isinstance(op, ir.RowCopy):
        return (seq.row_copy_sequence(op.bank, 0, 1, timing, electrical),
                {0: op.src, 2: op.dst})
    if isinstance(op, ir.MultiRow):
        return (seq.multi_row_sequence(op.bank, 0, 1, timing, electrical),
                {0: op.r1, 2: op.r2})
    if isinstance(op, ir.HalfM):
        return seq.half_m_sequence(op.bank, 0, 1, timing), {0: op.r1, 2: op.r2}
    if isinstance(op, ir.Commands):
        return op.sequence, {}
    raise XirLoweringError(f"cannot lower {op!r}")  # pragma: no cover


def bind_template(op: ir.Op, timing: TimingParams,
                  electrical: ElectricalParams, *,
                  rows: Mapping[str, int],
                  data: Mapping[str, Sequence[bool]] | None = None,
                  columns: int = 0) -> CommandSequence:
    """The op's command stream for one device, as the scalar engine
    issues it: :func:`template` with each row parameter bound to
    ``rows[param]``, a :class:`~repro.xir.ir.WriteRow` fill of
    ``columns`` bits or a :class:`~repro.xir.ir.WriteData` plane
    ``data[param]`` as the WRITE payload, labelled from the bound rows.
    """
    sequence, row_params = template(op, timing, electrical)
    if isinstance(op, ir.Commands):
        return sequence
    commands = []
    for index, timed in enumerate(sequence):
        command = timed.command
        if index in row_params:
            command = dataclasses.replace(
                command, row=int(rows[row_params[index]]))
        if isinstance(command, WriteRow):
            bits = ([op.value] * columns if isinstance(op, ir.WriteRow)
                    else data[op.rows])
            command = WriteRow.from_bits(command.bank, command.row, bits)
        commands.append(TimedCommand(timed.cycle, command))
    label = seq.sequence_label(
        sequence.op, getattr(op, "bank", None),
        [timed.command.row for timed in commands
         if isinstance(timed.command, Activate)])
    return CommandSequence(tuple(commands), sequence.duration, label=label,
                           op=sequence.op)


def _compile(ops: Sequence[ir.Op], *, enforce: bool, timing: TimingParams,
             electrical: ElectricalParams, n_banks: int,
             rows_per_subarray: int) -> CompiledProgram:
    se = int(electrical.sense_enable_cycles)
    states: dict[tuple, _SiteState] = {}
    last_allowed: list[int | None] = [None] * n_banks
    deltas: dict[str, int] = {}
    regions: list[list[tuple]] = [[]]
    prims: list[PrimSpec] = []
    param_banks: dict[str, int] = {}
    row_keys: dict[tuple, None] = {}
    sets: dict[tuple, None] = {}
    dt_params: list[str] = []
    n_reads = 0
    start = 0
    actions: list = []

    op: ir.Op | None = None  # current experiment op, for refusal context
    at: str | None = None  # and the command being lowered

    def refuse(message: str) -> None:
        if isinstance(op, ir.Commands):
            name = f"Commands({op.sequence.label!r})"
        else:
            name = repr(op)
        where = "" if at is None else f", {at}"
        raise XirLoweringError(
            f"{message} (while lowering {name}{where}); run it with "
            "--backend scalar")

    def bump(name: str, n: int = 1) -> None:
        deltas[name] = deltas.get(name, 0) + n

    def register(row, bank: int) -> None:
        if isinstance(row, str):
            bound = param_banks.setdefault(row, bank)
            if bound != bank:
                refuse(f"row parameter {row!r} bound on banks "
                       f"{bound} and {bank}")
        row_keys[(row, bank)] = None

    def site_of(bank: int, row) -> tuple:
        # A literal row names its sub-array; a parameter's varies by lane.
        return (bank, row // rows_per_subarray if isinstance(row, int)
                else None)

    def ordered(bank: int | None = None) -> list[tuple]:
        return sorted((site for site in states
                       if bank is None or site[0] == bank),
                      key=lambda site: (site[0], -1 if site[1] is None
                                        else site[1]))

    def open_set(site: tuple, key: tuple, t: int) -> None:
        state = states[site]
        actions.append(("cs", site, key))
        regions[-1].append(("jitter", site, key))
        state.open = state.preshare = key
        state.fired = False
        state.last_act = t

    def commit(site: tuple) -> None:
        """Committed close: freeze an interrupted share, else plain close."""
        state = states[site]
        if not state.fired:
            actions.append(("freeze", site, state.preshare))
        else:
            actions.append(("close", site, state.open))
        state.open = state.preshare = None
        state.fired = False
        state.pre_at = None

    def settle(site: tuple, t: int) -> None:
        state = states[site]
        if state.pre_at is not None:
            if t - state.pre_at >= CLOSE_ABORT_WINDOW:
                commit(site)
            return  # interrupted activation: sense can no longer fire
        if (state.open is not None and not state.fired
                and t - state.last_act >= se):
            actions.append(("sense", site, state.open))
            regions[-1].append(("sense", site, state.open))
            state.fired = True

    def do_act(bank: int, row, t: int) -> None:
        if row is None:  # pragma: no cover - templates always bind ACT rows
            raise XirLoweringError("ACTIVATE without a row")
        site = site_of(bank, row)
        for other in ordered(bank):
            if (other[1] is None) != (site[1] is None) and (
                    not states[other].idle):
                refuse(f"bank {bank} mixes parameter and literal rows")
        state = states.setdefault(site, _SiteState())
        if state.pre_at is not None and t - state.pre_at < CLOSE_ABORT_WINDOW:
            # Close-abort: the decoder glitch.  Sensed, the driven
            # bit-lines overwrite every opened row; unsensed, the
            # interrupted share rolls back and the glitch set shares.
            previous = state.open
            state.pre_at = None
            state.last_act = t
            if state.fired:
                key = ("copy", bank, previous, row)
                sets[key] = None
                actions.append(("glitch", site, previous, row, key))
                state.open = key
            else:
                key = ("glitch", bank, previous, row)
                sets[key] = None
                actions.append(("abort", site, previous, row, key))
                open_set(site, key, t)
            return
        if state.pre_at is not None:
            commit(site)  # cell.precharge-style unconditional commit
        settle(site, t)
        if state.open is not None:
            if row in _members(state.open):
                return  # re-ACT of an open row: raises its word-line again
            refuse(f"ACT-ACT multi-row activation cannot be fused (row "
                   f"{row!r} activated while bank {bank} has a row open)")
        open_set(site, ("row", bank, row), t)

    def do_pre(bank: int, t: int) -> None:
        for site in ordered(bank):
            state = states[site]
            if state.pre_at is not None:
                commit(site)  # commits the pending close with no gap check
                continue
            settle(site, t)
            if state.open is None:
                continue  # closed: the idle bit-line level is re-asserted
            steps = t - state.last_act - 1
            if not state.fired and steps >= 1:
                # The PRE catches the sense amplifiers mid-flight.
                actions.append(("amp", site, state.open, min(steps, 3)))
                regions[-1].append(("sense", site, state.open))
            state.pre_at = t

    def column_access(kind: str, bank: int, row, t: int) -> tuple:
        """Settle every sub-array; the accessed site must have sensed."""
        for site in ordered():
            settle(site, t)
        site = site_of(bank, row)
        state = states.get(site)
        if state is None or state.open is None or not state.fired:
            refuse(f"{kind} before the sense amplifiers fired")
        if site[1] is None and row not in _members(state.open):
            refuse(f"{kind} target does not match the open row")
        return site

    def finish(t: int) -> None:
        """Sequence completion: settle every cell, commit pending closes."""
        for site in ordered():
            settle(site, t)
            if states[site].pre_at is not None:
                commit(site)

    for op in ops:
        actions = []
        if isinstance(op, ir.Leak):
            for site in ordered():
                if not states[site].idle:
                    refuse(f"Leak with bank {site[0]} not idle "
                           "(precharge first)")
            if op.dt not in dt_params:
                dt_params.append(op.dt)
            regions.append([])
            prims.append(PrimSpec(
                op="leak", bank=None, label=None, start=start, duration=0,
                n_commands=0, actions=(("leak", op.dt),)))
            continue

        literal = isinstance(op, ir.Commands)
        sequence, row_params = template(op, timing, electrical)
        for timed in sequence:
            bank = getattr(timed.command, "bank", None)
            if bank is not None and not 0 <= bank < n_banks:
                raise AddressError(f"bank {bank} out of range")
        plan = plan_for(timing, sequence)
        bump("controller.sequences")
        if sequence.op:
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
            at = f"command {index} {command.mnemonic()}"
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
            row = row_params.get(index)
            if row is None and literal:
                row = getattr(command, "row", None)
            if row is not None:
                # Every row binds here, before spacing can drop its
                # command: a dropped command's trace event still names
                # each lane's row.
                register(row, command.bank)
            actions.append(("cmd", CommandEvent(
                offset=t, kind=kind, bank=getattr(command, "bank", None),
                row_param=row,
                violations=plan.violation_events[index],
                spacing=tuple(checks))))
            allowed_by_bank = {check.bank: check.allowed for check in checks}
            if kind == "ACT":
                if allowed_by_bank.get(command.bank, True):
                    do_act(command.bank, row, t)
            elif kind == "PRE":
                if allowed_by_bank.get(command.bank, True):
                    do_pre(command.bank, t)
            elif kind == "PREA":
                for bank in range(n_banks):
                    if allowed_by_bank.get(bank, True):
                        do_pre(bank, t)
            elif kind == "WR":
                site = column_access("WRITE", command.bank, row, t)
                if literal:
                    source = np.asarray(command.data, dtype=bool)
                elif isinstance(op, ir.WriteData):
                    source = op.rows
                else:
                    source = bool(op.value)
                actions.append(("write", site, row, states[site].open,
                                source))
            elif kind == "RD":
                site = column_access("READ", command.bank, row, t)
                actions.append(("readout", site, row))
                n_reads += 1
            else:  # pragma: no cover - defensive
                raise XirLoweringError(f"unknown command kind {kind!r}")

        at = None
        finish(start + sequence.duration)
        store = None
        if isinstance(op, (ir.WriteRow, ir.WriteData)) and not enforce:
            # A plain write-row cycle on a spacing-free lane class: the
            # charge share and sense are fully overwritten by the write
            # and the close only re-idles the bit-lines, so the fast
            # path may collapse the prim to one store kernel.  Its two
            # draw segments (jitter, then sense) must be the region's
            # tail: the store action steps past exactly those two.  The
            # pattern check is structural, so any future template change
            # that adds an observable step simply stops matching.
            key = ("row", op.bank, op.rows)
            site = site_of(op.bank, op.rows)
            physics = [a[0] for a in actions if a[0] != "cmd"]
            if (physics == ["cs", "sense", "write", "close"]
                    and regions[-1][-2:] == [("jitter", site, key),
                                             ("sense", site, key)]):
                store = ("store", key, op.rows, next(
                    action[4] for action in actions if action[0] == "write"))
        prims.append(PrimSpec(
            op=sequence.op,
            bank=getattr(op, "bank", None),
            label=sequence.label if literal else None,
            start=start,
            duration=sequence.duration,
            n_commands=len(sequence),
            actions=tuple(actions),
            store=store))
        start += sequence.duration

    for site in ordered():
        if not states[site].idle:
            refuse(f"program leaves bank {site[0]} open; fused programs "
                   "must end with every bank idle (add a read or "
                   "PrechargeAll)")

    return CompiledProgram(
        enforce=bool(enforce),
        prims=tuple(prims),
        duration=start,
        n_reads=n_reads,
        # A command-free chunk counts no commands (never a zero entry).
        deltas=tuple(sorted(item for item in deltas.items() if item[1])),
        # Empty regions are kept: the executor advances its region index
        # once per leak, so the schedule has exactly n_leaks + 1 entries.
        regions=tuple(tuple(region) for region in regions),
        param_banks=tuple(sorted(param_banks.items())),
        row_keys=tuple(row_keys),
        sets=tuple(sets),
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
                    n_banks: int, rows_per_subarray: int
                    ) -> CompiledProgram:
    """Memoized lowering (process-local LRU, like :func:`plan_for`).

    The key is the program :func:`~repro.xir.ir.signature` — rows and
    leak durations are bound at execution, so every point of a
    :meth:`~repro.xir.executor.FusedRunner.run_sweep` hits the same
    entry — plus the lane class (spacing-enforcing or not), the timing
    parameters, the sense-enable window (the only electrical input
    the lowering reads) and the bank geometry.

    The cache mutations below are exempt from the kernel-purity rule for
    the reason :func:`plan_for`'s are: ``_compile`` is a pure function
    of the key, so hit/miss history can change only *when* work happens,
    never any result a worker returns — and the cache dies with the
    worker process.
    """
    key = (ir.signature(ops), bool(enforce), timing,
           int(electrical.sense_enable_cycles), int(n_banks),
           int(rows_per_subarray))
    global _hits, _misses  # repro: lint-ok[FORK002]
    program = _cache.get(key)
    if program is not None:
        _hits += 1  # repro: lint-ok[FORK002]
        _cache.move_to_end(key)
        return program
    _misses += 1  # repro: lint-ok[FORK002]
    program = _compile(ops, enforce=enforce, timing=timing,
                       electrical=electrical, n_banks=n_banks,
                       rows_per_subarray=rows_per_subarray)
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
