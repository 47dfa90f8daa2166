"""Fused execution: replay a compiled program as whole-batch kernels.

:class:`FusedRunner` drives a :class:`~repro.dram.batched.BatchedChip`
through the phase-op schedule produced by :mod:`repro.xir.compile`,
bypassing the per-command Python dispatch of
:class:`~repro.controller.batched.BatchedSoftMC` entirely:

* Lanes are partitioned into *classes* by whether their decoder enforces
  command spacing (the only structural divergence the fig6/fig11 flows
  exhibit); each class runs one compiled program.  Per-lane physics and
  RNG streams are independent, so the split is bitwise invisible.
* Row parameters are bound once per run: per ``(param, bank)`` the class
  lanes are grouped by target sub-array, with physical rows, anti-cell
  polarity and output positions resolved into NumPy index arrays.
* All RNG draws of a region (between :class:`~repro.xir.ir.Leak`
  boundaries) are pre-drawn with **one** merged ``Generator.normal`` call
  per (lane, sub-array) run — bitwise identical to the per-step draws
  because the PCG64 ziggurat consumes the stream value-by-value and
  ``w * sigma + 0.0`` reproduces ``normal(0, sigma)`` exactly (including
  the ``-0.0`` normalization); zero-sigma draws consume nothing in both
  engines.
* Physics runs on the sub-arrays' phase kernels (the ``xir_*``
  methods of :class:`~repro.dram.batched.BatchedSubArray`), the same
  ones the per-command walk calls.
* Lane-uniform telemetry counters apply as one hoisted delta table;
  data-dependent counters and events (sense flips, frac freezes,
  glitches, drops) go through the device's own recorders, so both
  walks report them identically.
* For spacing-enforcing lanes the real ``_last_cmd`` bookkeeping is
  stepped per command and checked against the compiler's prediction —
  a divergence raises instead of silently drifting from the
  per-command walk.

The runner leaves the device's *structural* bookkeeping untouched (every
program must end with all banks idle, enforced at compile time), so
batched and fused calls can interleave freely on one device; cycle
counters and retention clocks advance identically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..controller.batched import BatchedSoftMC
from ..controller.sequences import sequence_label
from ..dram.decoder import resolve_glitch
from ..errors import AddressError, CommandSequenceError
from ..telemetry.registry import active as _telemetry_active
from . import ir
from .compile import (
    CompiledProgram,
    PrimSpec,
    XirLoweringError,
    compile_program,
)

__all__ = ["FusedRunner"]


class _Group:
    """One (param, bank, sub-array) lane group with resolved indices."""

    __slots__ = ("cell", "lanes", "lane_arr", "pos", "rows_mat", "anti")

    def __init__(self, cell, lanes, positions, physical, anti):
        self.cell = cell
        self.lanes = lanes
        self.lane_arr = np.asarray(lanes, dtype=np.intp)
        self.pos = np.asarray(positions, dtype=np.intp)
        self.rows_mat = np.asarray(physical, dtype=np.intp)[:, None]
        self.anti = np.asarray(anti, dtype=bool)


class _FastPrim:
    """Container for the compacted telemetry-off action stream."""

    __slots__ = ("op", "actions")

    def __init__(self, actions):
        self.op = "leak"  # suppresses (unreachable) trace emission
        self.actions = actions


class _PairGroup:
    """One glitch-overwrite lane group: uniform opened-row count."""

    __slots__ = ("cell", "lane_arr", "opened_mat", "events")

    def __init__(self, cell, lanes, opened_rows, events):
        self.cell = cell
        self.lane_arr = np.asarray(lanes, dtype=np.intp)
        self.opened_mat = np.asarray(opened_rows, dtype=np.intp)
        self.events = events


def _sigma_column(n_rows: int, sigma_entries) -> np.ndarray:
    """Per-row scale factors for one region's flat draw matrix.

    Rows no draw run touches (the trailing shared-zeros row) get 1.0 —
    they hold exact ``+0.0`` and must keep it.
    """
    column = np.ones((n_rows, 1))
    for start, sigmas in sigma_entries:
        column[start:start + len(sigmas), 0] = sigmas
    return column


class FusedRunner:
    """Execute compiled experiment programs on a batched device."""

    def __init__(self, mc: BatchedSoftMC) -> None:
        self.mc = mc
        self.device = mc.device
        se = int(mc.electrical.sense_enable_cycles)
        for group in self.device.groups:
            if int(group.electrical.sense_enable_cycles) != se:
                raise XirLoweringError(
                    "fused programs need a lane-uniform sense-enable "
                    "window (the compiled schedule bakes it in)")
        # Per (lane, bank, sub, src, dst) decoder-glitch resolution; the
        # profile is frozen at fabrication, so the row-copy binding of a
        # repeated challenge is a dict hit.
        self._glitch_cache: dict[tuple, tuple[int, ...]] = {}
        # Bindings + prefetch schedules keyed by (program, lanes, rows):
        # everything they hold — physical rows, anti polarity, sigmas,
        # glitch sets — is frozen at fabrication, so a repeated binding
        # (every sweep probe of fig6, every challenge epoch of fig11)
        # skips all per-run structure building.  RNG generators are NOT
        # cached (``reseed_noise`` swaps them); they are looked up per
        # prefetch.
        self._bind_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._fast_cache: dict[int, tuple] = {}
        self._flat_cells = [cell for bank_cells in self.device.cells
                            for cell in bank_cells]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(self, ops: Sequence[ir.Op], *,
            rows: dict[str, Sequence[int]],
            dts: dict[str, float] | None = None,
            lanes: Sequence[int] | None = None,
            data: dict[str, np.ndarray] | None = None) -> list[np.ndarray]:
        """Run ``ops`` on ``lanes``; one ``(len(lanes), C)`` array per read.

        ``rows[param]`` gives each lane's logical bank row (aligned with
        ``lanes``); ``dts[param]`` binds :class:`~repro.xir.ir.Leak`
        durations in seconds; ``data[param]`` binds each
        :class:`~repro.xir.ir.WriteData` plane as a ``(len(lanes), C)``
        bool array (aligned with ``lanes``, like ``rows``).
        """
        ops = tuple(ops)
        if lanes is None:
            lanes = self.mc.all_lanes()
        dts = dts or {}
        planes = {param: np.asarray(plane, dtype=bool)
                  for param, plane in (data or {}).items()}
        # The sub-arrays keep exact open/pending-precharge counts; when
        # every count is zero no lane can be busy, skipping the per-lane
        # all-cells scan on the (overwhelmingly common) idle-device path.
        if any(cell._n_open or cell._n_pre for cell in self._flat_cells):
            for lane in lanes:
                if not self.device.lane_is_idle(lane):
                    raise CommandSequenceError(
                        "fused programs require an idle device (close open "
                        "rows before handing the device to the runner)")
        out: list[np.ndarray] | None = None
        steps = []
        for enforce, class_lanes, class_pos in self._split(lanes):
            program = compile_program(
                ops, enforce=enforce, timing=self.mc.timing,
                electrical=self.mc.electrical, n_banks=self.device.n_banks)
            if out is None:
                out = [np.empty((len(lanes), self.device.geometry.columns),
                                dtype=bool)
                       for _ in range(program.n_reads)]
            steps.append(self._run_class(program, class_lanes, class_pos,
                                         rows, dts, planes, out))
        # Lane classes advance in lockstep: every class pauses at each
        # Leak boundary (the op list is shared, so the boundaries line
        # up) and time advances ONCE for all lanes — halving the leak
        # machinery's per-call cost on mixed fleets while staying
        # per-lane identical to separate advances.
        lanes_list = [int(lane) for lane in lanes]
        while steps:
            dt_params = [next(gen, None) for gen in steps]
            live = [param for param in dt_params if param is not None]
            if not live:
                break
            if len(live) != len(steps) or len(set(live)) != 1:
                raise CommandSequenceError(  # pragma: no cover - defensive
                    "lane classes diverged at a leak boundary")
            self.device.advance_time(float(dts[live[0]]), lanes_list)
        return out if out is not None else []

    def run_sweep(self, body: Sequence[ir.Op],
                  points: Sequence[dict], *,
                  lanes: Sequence[int] | None = None) -> list[list[np.ndarray]]:
        """Run ``body`` once per point.

        Each point is ``{"rows": {...}}`` with optional ``"dts"`` and
        ``"data"``; compilation happens once (the body's signature is
        point-independent) and every point replays the cached program.
        """
        return [self.run(body, rows=point["rows"], dts=point.get("dts"),
                         data=point.get("data"), lanes=lanes)
                for point in points]

    # ------------------------------------------------------------------
    # lane classes and parameter binding
    # ------------------------------------------------------------------

    def _split(self, lanes: Sequence[int]
               ) -> list[tuple[bool, list[int], list[int]]]:
        enforce = self.device._enforce
        split: dict[bool, tuple[list[int], list[int]]] = {
            False: ([], []), True: ([], [])}
        for position, lane in enumerate(lanes):
            bucket = split[bool(enforce[lane])]
            bucket[0].append(int(lane))
            bucket[1].append(position)
        return [(flag, class_lanes, class_pos)
                for flag in (False, True)
                for class_lanes, class_pos in (split[flag],)
                if class_lanes]

    _BIND_CACHE_CAPACITY = 128

    def _binding(self, program: CompiledProgram, class_lanes: list[int],
                 class_pos: list[int], rows: dict[str, Sequence[int]]):
        """Cached (bindings, class_logical, pair_bindings, schedule)."""
        key_rows = []
        for param, _bank in program.param_banks:
            try:
                values = rows[param]
            except KeyError:
                raise CommandSequenceError(
                    f"missing row binding for parameter {param!r}") from None
            key_rows.append(tuple(int(values[position])
                                  for position in class_pos))
        key = (program.token, tuple(class_lanes), tuple(class_pos),
               tuple(key_rows))
        cached = self._bind_cache.get(key)
        if cached is not None:
            self._bind_cache.move_to_end(key)
            return cached
        bindings, class_logical, pair_bindings = self._bind(
            program, class_lanes, class_pos, rows)
        schedule = self._schedule(program, bindings, class_lanes)
        cached = (bindings, class_logical, pair_bindings, schedule)
        self._bind_cache[key] = cached
        if len(self._bind_cache) > self._BIND_CACHE_CAPACITY:
            self._bind_cache.popitem(last=False)
        return cached

    def _bind(self, program: CompiledProgram, class_lanes: list[int],
              class_pos: list[int], rows: dict[str, Sequence[int]]):
        device = self.device
        geometry = device.geometry
        rps = geometry.rows_per_subarray
        bindings: dict[tuple[str, int], list[_Group]] = {}
        class_logical: dict[str, list[int]] = {}
        for param, bank in program.param_banks:
            values = rows[param]
            logical_rows: list[int] = []
            by_sub: dict[int, list[tuple[int, int, int]]] = {}
            for lane, position in zip(class_lanes, class_pos):
                row = int(values[position])
                if not 0 <= row < geometry.rows_per_bank:
                    raise AddressError(
                        f"row {row} out of range for bank with "
                        f"{geometry.rows_per_bank} rows")
                logical_rows.append(row)
                sub, local = divmod(row, rps)
                by_sub.setdefault(sub, []).append((lane, position, local))
            class_logical[param] = logical_rows
            groups = []
            for sub, entries in by_sub.items():
                groups.append(_Group(
                    cell=device.cells[bank][sub],
                    lanes=[entry[0] for entry in entries],
                    positions=[entry[1] for entry in entries],
                    physical=[device._phys_rows[lane][local]
                              for lane, _, local in entries],
                    anti=[device._anti_rows[lane][local]
                          for lane, _, local in entries]))
            bindings[(param, bank)] = groups
        pair_bindings = {
            pair: self._bind_pair(pair, class_lanes, class_pos, rows)
            for pair in program.pairs}
        return bindings, class_logical, pair_bindings

    def _bind_pair(self, pair: tuple[str, str, int], class_lanes: list[int],
                   class_pos: list[int], rows: dict[str, Sequence[int]]
                   ) -> list[_PairGroup]:
        src_param, dst_param, bank = pair
        device = self.device
        rps = device.geometry.rows_per_subarray
        by_shape: dict[tuple[int, int], tuple[list, list, list]] = {}
        for lane, position in zip(class_lanes, class_pos):
            src = int(rows[src_param][position])
            dst = int(rows[dst_param][position])
            src_sub, src_local = divmod(src, rps)
            dst_sub, dst_local = divmod(dst, rps)
            if src_sub != dst_sub:
                raise XirLoweringError(
                    f"row copy {src}->{dst} crosses sub-arrays; the "
                    "decoder glitch only opens rows of one sub-array")
            cell = device.cells[bank][src_sub]
            src_phys = device._phys_rows[lane][src_local]
            dst_phys = device._phys_rows[lane][dst_local]
            key = (lane, bank, src_sub, src_phys, dst_phys)
            opened = self._glitch_cache.get(key)
            if opened is None:
                glitch_rows = resolve_glitch(
                    cell._decoders[lane], src_phys, dst_phys, cell.n_rows)
                opened = tuple(dict.fromkeys((src_phys, *glitch_rows)))
                self._glitch_cache[key] = opened
            group = by_shape.setdefault((src_sub, len(opened)), ([], [], []))
            group[0].append(lane)
            group[1].append(opened)
            group[2].append((lane, (src_phys,), dst_phys, opened))
        return [
            _PairGroup(cell=device.cells[bank][sub], lanes=lanes,
                       opened_rows=opened_rows, events=events)
            for (sub, _), (lanes, opened_rows, events) in by_shape.items()]

    # ------------------------------------------------------------------
    # RNG pre-advancement
    # ------------------------------------------------------------------

    def _schedule(self, program: CompiledProgram, bindings,
                  class_lanes: list[int]):
        """Precompute each region's draw plan: lane runs + gather maps.

        All of a region's scaled draws land in one flat ``(rows, C)``
        matrix.  Per lane, maximal runs of consecutive draw segments
        hitting the same sub-array merge into one ``normal(0, 1, C * n)``
        call filling a contiguous row span (the PCG64 ziggurat consumes
        the stream value-by-value, so one merged draw equals n sequential
        ones).  Zero-sigma segments (and charge shares on jitter-free
        sub-arrays) draw nothing, exactly like
        :class:`~repro.dram.rng.NoiseSource`: their gather rows point at
        the matrix's trailing all-zeros row.  Each segment's per-group
        lane buffer is then a single fancy-index gather.

        Both action streams read the one plan.  The telemetry-off
        stream's ``store`` actions step past their cycle's two segments
        without gathering them, so those dead draws land in rows nothing
        reads; drawing them keeps every lane's stream exactly where the
        full stream leaves it.
        """
        regions = []
        for region in program.regions:
            entries: dict[int, list] = {lane: [] for lane in class_lanes}
            slots: list[list[np.ndarray | None]] = []
            for kind, bank, param in region:
                seg_slots: list[np.ndarray | None] = []
                for group in bindings[(param, bank)]:
                    if kind == "sense" or group.cell._jitter_any:
                        index_arr = np.empty(len(group.lanes), dtype=np.intp)
                        sigma_vec = (group.cell._noise_sigma
                                     if kind == "sense"
                                     else group.cell._jitter_sigma)
                        for offset, lane in enumerate(group.lanes):
                            entries[lane].append(
                                (group.cell, float(sigma_vec[lane]),
                                 index_arr, offset))
                    else:
                        index_arr = None
                    seg_slots.append(index_arr)
                slots.append(seg_slots)

            runs = []
            run_sigmas: list[tuple[int, list[float]]] = []
            row_counter = 0
            for lane in class_lanes:
                lane_entries = entries[lane]
                index = 0
                while index < len(lane_entries):
                    cell = lane_entries[index][0]
                    if lane_entries[index][1] <= 0:
                        # zero-sigma: no draw; gather the shared zeros row
                        lane_entries[index][2][lane_entries[index][3]] = -1
                        index += 1
                        continue
                    start = row_counter
                    sigmas: list[float] = []
                    while (index < len(lane_entries)
                           and lane_entries[index][0] is cell):
                        _, sigma, index_arr, offset = lane_entries[index]
                        if sigma > 0:
                            sigmas.append(sigma)
                            index_arr[offset] = row_counter
                            row_counter += 1
                        else:
                            index_arr[offset] = -1
                        index += 1
                    runs.append((cell, lane, start, row_counter))
                    run_sigmas.append((start, sigmas))
            regions.append((row_counter + 1, runs, slots,
                            _sigma_column(row_counter + 1, run_sigmas)))
        return regions

    def _prefetch(self, region_schedule):
        """Draw one region per its precomputed plan.

        One ``standard_normal(out=flat_rows)`` call per lane run — the
        raw draws land straight in the flat matrix, then one whole-
        matrix multiply by the precomputed per-row sigma column scales
        everything at once (elementwise identical to scaling each
        C-chunk separately, and ``standard_normal`` == ``normal(0, 1)``
        on the stream and on every value except ``-0.0``); the single
        trailing ``+ 0.0`` normalizes ``-0.0`` exactly like the
        per-chunk form.  Returns the flat matrix plus the region's
        per-segment gather maps; callers gather lazily at each kernel
        site, so a Frac burst can pull all of its iterations in one
        fancy index.
        """
        columns = self.device.geometry.columns
        n_rows, runs, slots, sigma_column = region_schedule
        flat = np.zeros((n_rows, columns))
        flat_1d = flat.reshape(-1)
        for cell, lane, start, stop in runs:
            cell._noises[lane].rng.standard_normal(
                out=flat_1d[start * columns:stop * columns])
        flat *= sigma_column
        flat += 0.0
        return flat, slots

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _fast_prims(self, program: CompiledProgram):
        """The telemetry-off action stream, compacted and cached.

        Command events whose only job is tracing are dropped (spacing
        mirrors stay — they mutate real bookkeeping), each Frac op's
        (charge-share, freeze) ladder collapses into one ``burst``
        action, and each ``store``-marked write prim collapses into one
        ``store`` action (its open/sense/close physics is fully
        overwritten; its two draw segments are still drawn by the shared
        region plan and the action steps past them unread).  Stream
        compaction: per-lane RNG consumption and every observable state
        transition are untouched, so results stay byte-identical.
        """
        cached = self._fast_cache.get(program.token)
        if cached is not None:
            return cached
        flat = []
        for prim in program.prims:
            if prim.store:
                # store prims only exist on spacing-free lane classes,
                # so every command event they carry is trace-only.
                flat.append(("store", prim.bank, prim.rows_param,
                             prim.value))
                continue
            for action in prim.actions:
                if action[0] == "cmd" and not action[1].spacing:
                    continue
                flat.append(action)
        compact = []
        index = 0
        while index < len(flat):
            action = flat[index]
            if (action[0] == "cs" and index + 1 < len(flat)
                    and flat[index + 1][:3] == ("freeze",) + action[1:3]):
                bank, param = action[1], action[2]
                count = 0
                while (index + 1 < len(flat)
                       and flat[index][:3] == ("cs", bank, param)
                       and flat[index + 1][:3] == ("freeze", bank, param)):
                    count += 1
                    index += 2
                compact.append(("burst", bank, param, count))
            else:
                compact.append(action)
                index += 1
        cached = (_FastPrim(tuple(compact)),)
        self._fast_cache[program.token] = cached
        return cached

    def _label(self, prim: PrimSpec, class_logical, index: int) -> str:
        """The ``sequence`` label of class lane ``index``, from the rows
        its commands activate."""
        return sequence_label(prim.op, prim.bank, [
            class_logical[action[1].row_param][index]
            for action in prim.actions
            if action[0] == "cmd" and action[1].kind == "ACT"])

    def _run_class(self, program: CompiledProgram, class_lanes: list[int],
                   class_pos: list[int], rows, dts, planes, out):
        """Generator: run one lane class, yielding the dt parameter at
        every Leak boundary so :meth:`run` can advance all classes'
        lanes in one ``advance_time`` call."""
        device = self.device
        mc = self.mc
        columns = device.geometry.columns
        telemetry = _telemetry_active()
        tracer = telemetry.tracer if telemetry is not None else None
        for dt_param in program.dt_params:
            if dt_param not in dts:
                raise CommandSequenceError(
                    f"missing duration binding for parameter {dt_param!r}")
        bindings, class_logical, pair_bindings, schedule = self._binding(
            program, class_lanes, class_pos, rows)
        base = mc.cycles.copy()

        if telemetry is not None:
            n_class = len(class_lanes)
            for name, delta in program.deltas:
                telemetry.count(name, delta * n_class)
            prims = program.prims
        else:
            prims = self._fast_prims(program)

        def plane_for(param):
            try:
                return planes[param]
            except KeyError:
                raise CommandSequenceError(
                    f"missing data binding for parameter {param!r}"
                ) from None

        region_index = 0
        flat, slots = self._prefetch(schedule[0])
        seg_cursor = 0
        snap_store: dict[int, list] = {}
        dec_store: dict[int, list] = {}
        read_index = 0

        for prim in prims:
            if tracer is not None and prim.op != "leak":
                for index, lane in enumerate(class_lanes):
                    telemetry.emit("sequence", {
                        "label": self._label(prim, class_logical, index),
                        "op": prim.op,
                        "start_cycle": int(base[lane]) + prim.start,
                        "duration": prim.duration,
                        "n_commands": prim.n_commands,
                    })
            for action in prim.actions:
                tag = action[0]
                if tag == "cmd":
                    event = action[1]
                    if tracer is not None:
                        violations = list(event.violations)
                        logical = (class_logical[event.row_param]
                                   if event.row_param is not None else None)
                        for index, lane in enumerate(class_lanes):
                            telemetry.emit("command", {
                                "cmd": event.kind,
                                "bank": event.bank,
                                "row": (logical[index]
                                        if logical is not None else None),
                                "cycle": int(base[lane]) + event.offset,
                                "violations": violations,
                            })
                    for check in event.spacing:
                        self._mirror_spacing(check, class_lanes, base,
                                             telemetry)
                elif tag == "cs":
                    _, bank, param = action
                    seg_slots = slots[seg_cursor]
                    seg_cursor += 1
                    snap_store[bank] = [
                        group.cell.xir_charge_share(
                            group.lanes, group.lane_arr, group.rows_mat,
                            (None if index_arr is None
                             else flat[index_arr][:, None, :]))
                        for group, index_arr in zip(bindings[(param, bank)],
                                                    seg_slots)]
                elif tag == "burst":
                    _, bank, param, n_burst = action
                    burst_slots = slots[seg_cursor:seg_cursor + n_burst]
                    seg_cursor += n_burst
                    for group_index, group in enumerate(
                            bindings[(param, bank)]):
                        if group.cell._jitter_any:
                            draws = flat[np.stack(
                                [burst_slots[i][group_index]
                                 for i in range(n_burst)], axis=1)]
                        else:
                            draws = None
                        group.cell.xir_frac_burst(
                            group.lanes, group.lane_arr, group.rows_mat,
                            draws, n_burst)
                elif tag == "sense":
                    _, bank, param = action
                    seg_slots = slots[seg_cursor]
                    seg_cursor += 1
                    decisions = []
                    groups = bindings[(param, bank)]
                    for group_index, (group, index_arr) in enumerate(
                            zip(groups, seg_slots)):
                        decision = group.cell.xir_sense(
                            group.lane_arr, group.rows_mat, flat[index_arr])
                        decisions.append(decision)
                        if telemetry is not None:
                            group.cell._record_sense(
                                group.lanes, group.rows_mat, decision,
                                snap_store[bank][group_index])
                    dec_store[bank] = decisions
                elif tag == "write":
                    _, bank, param, value = action
                    groups = bindings[(param, bank)]
                    buffers = []
                    for group in groups:
                        bits = np.broadcast_to(
                            (group.anti != bool(value))[:, None],
                            (len(group.lanes), columns))
                        group.cell.xir_write(group.lane_arr, group.rows_mat,
                                             bits)
                        buffers.append(bits)
                    dec_store[bank] = buffers
                elif tag == "write-data":
                    _, bank, param = action
                    plane = plane_for(param)
                    buffers = []
                    for group in bindings[(param, bank)]:
                        bits = plane[group.pos] != group.anti[:, None]
                        group.cell.xir_write(group.lane_arr, group.rows_mat,
                                             bits)
                        buffers.append(bits)
                    dec_store[bank] = buffers
                elif tag == "store":
                    # Collapsed write-row cycle (telemetry-off stream):
                    # one kernel stores the written values, marks the
                    # rows refreshed and re-idles the bit-lines — the
                    # net effect of the full open/sense/write/close walk.
                    # Its jitter and sense segments were drawn but are
                    # never read.
                    _, bank, param, value = action
                    seg_cursor += 2
                    plane = plane_for(param) if value is None else None
                    for group in bindings[(param, bank)]:
                        if plane is None:
                            bits = np.broadcast_to(
                                (group.anti != bool(value))[:, None],
                                (len(group.lanes), columns))
                        else:
                            bits = plane[group.pos] != group.anti[:, None]
                        group.cell.xir_store(group.lane_arr, group.rows_mat,
                                             bits)
                elif tag == "readout":
                    _, bank, param = action
                    target = out[read_index]
                    read_index += 1
                    for group, decision in zip(bindings[(param, bank)],
                                               dec_store[bank]):
                        target[group.pos] = np.not_equal(
                            decision, group.anti[:, None])
                elif tag == "freeze":
                    _, bank, param = action
                    groups = bindings[(param, bank)]
                    for group_index, group in enumerate(groups):
                        group.cell.xir_freeze(
                            group.lane_arr, group.rows_mat,
                            snap_store[bank][group_index])
                        if telemetry is not None:
                            group.cell._record_frac_freeze(group.lanes,
                                                           group.rows_mat)
                elif tag == "close":
                    _, bank, param = action
                    for group in bindings[(param, bank)]:
                        group.cell.xir_close(group.lane_arr)
                elif tag == "glitch":
                    _, bank, src_param, dst_param = action
                    for pair_group in pair_bindings[(src_param, dst_param,
                                                     bank)]:
                        if telemetry is not None:
                            for lane, previous, requested, opened in (
                                    pair_group.events):
                                pair_group.cell._record_glitch(
                                    lane, previous, requested, opened,
                                    overwrite=True)
                        pair_group.cell.xir_overwrite(
                            pair_group.lane_arr, pair_group.opened_mat)
                elif tag == "leak":
                    yield action[1]
                    region_index += 1
                    seg_cursor = 0
                    flat, slots = self._prefetch(schedule[region_index])
                else:  # pragma: no cover - defensive
                    raise CommandSequenceError(f"unknown phase op {tag!r}")

        lane_arr = np.asarray(class_lanes, dtype=np.intp)
        mc.cycles[lane_arr] = base[lane_arr] + program.duration

    def _mirror_spacing(self, check, class_lanes: list[int],
                        base: np.ndarray, telemetry) -> None:
        """Step the device's command-spacing bookkeeping for one check.

        The compiled schedule already decided allowed/dropped; a lane
        whose real history disagrees would execute different physics, so
        divergence is a hard error, not a silent fallback.
        """
        for lane in class_lanes:
            cycle = int(base[lane]) + check.offset
            if self.device._spacing_step(lane, check.bank, cycle,
                                         telemetry) != check.allowed:
                raise CommandSequenceError(
                    f"command-spacing prediction diverged on lane {lane} "
                    f"bank {check.bank} at cycle {cycle} (compiled="
                    f"{'allowed' if check.allowed else 'dropped'})")
