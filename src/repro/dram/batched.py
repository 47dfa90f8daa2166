"""Trial-batched sub-array physics: one vector op across B lanes.

:class:`BatchedSubArray` executes the exact electrical model of
:class:`~repro.dram.subarray.SubArray` for ``B`` independent *lanes* at
once.  A lane is one scalar trial: its cell-voltage plane is one slice of
a ``(B, n_rows, n_cols)`` tensor, its manufacturing variation one slice
of stacked (or broadcast) fabrication arrays, and its measurement noise a
private :class:`~repro.dram.rng.NoiseSource` — the *same* source a scalar
trial would own.  Charge sharing, partial amplification, sense, leakage
and the decoder-glitch resolution then run as whole-batch NumPy
expressions instead of B separate passes.

Each analog phase — charge share, sense, partial amplification, write,
interrupted-precharge freeze, glitch rollback and overwrite, close — is
one ``xir_*`` kernel that only moves voltages.  There is one walker:
the fused executor (:mod:`repro.xir.executor`) calls the kernels from a
compiled schedule, in which the compiler (:mod:`repro.xir.compile`) has
already resolved every structural question — which rows are open, when
the sense amplifiers fire, which precharge a glitch aborts — plus two
collapsed forms (``xir_frac_burst``, ``xir_store``).  Sense, partial
amplification, frac-freeze, glitch and drop events go through the
recorders here, so a fused run traces the scalar engine's events.

Byte-identity contract
----------------------

The batched engine must produce bit-for-bit the floats the scalar engine
produces, lane by lane.  Three rules make that hold:

* **RNG draws are never merged across lanes.**  Each lane draws from its
  own generator, in the same order and with the same shapes as its scalar
  counterpart; draws are stacked, arithmetic is vectorized.

* **Expressions mirror scalar associativity.**  Every kernel is a
  transliteration of the scalar method with a leading lane axis; gathered
  operations (``a[mask] * b[mask]``) are used only where they are bitwise
  equal to the scalar gather-after-compute form.

* **Structurally divergent lanes are partitioned, not masked.**  Lanes
  whose glitch opens a different number of rows, or whose row sits in
  another sub-array, run in separate lane groups, one vector kernel per
  group.

Environments are captured per lane at construction; batched lanes do not
support mid-run :meth:`~repro.dram.chip.DramChip.set_environment`.

:class:`BatchedChip` assembles a grid of batched sub-arrays with the
bank/row routing, polarity and command-spacing semantics of
:class:`~repro.dram.chip.DramChip`, again per lane; its logical-to-
physical row and anti-row tables are ``(lanes, rows)`` arrays, so a
batch's row lookups are one fancy index.  Construct one with
:meth:`BatchedChip.from_chips` (one donor chip per lane, e.g. a serial
sweep), :meth:`BatchedChip.from_fleet` (one module per ``(group_id,
serial)`` spec — the device axis — fabricated straight into the stacked
planes, with no scalar chip built), or
:meth:`BatchedChip.from_subarray_views` (one donor *sub-array* per lane,
chip-major over one or more chips, e.g. the PUF experiments and fig9's
sub-array targets; exact only while time does not advance).

Lanes carry *heterogeneous fabrication state*: a
:class:`BatchedSubArray` is built from stacked variation planes
(sense-amp offsets, leak taus, VRT population, coupling weights) plus a
per-lane vendor profile (decoder, coupling, electrical and variation
parameters), and the chip keeps each lane's polarity and row map, so a
batch may mix vendor groups and serials freely as long as geometry
(and, for the controller's shared command templates, electrical
timing) agree.  ``from_fleet`` draws the planes with
:func:`~repro.dram.subarray.fabricate_planes`, the one definition of the
variation model the scalar :class:`~repro.dram.subarray.SubArray` also
uses; the donor constructors stack their donors' planes, broadcasting
one shared donor instead of copying it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.registry import active as _telemetry_active
from .addressing import IdentityMap
from .chip import MIN_COMMAND_SPACING_CYCLES, DramChip
from .environment import Environment
from .parameters import GeometryParams
from .polarity import is_anti_row
from .rng import NoiseSource, derive_rng
from .subarray import (
    _AMP_DIFFERENTIAL_SCALE,
    INTERRUPTED_SHARE_FRACTION,
    VariationPlanes,
    fabricate_planes,
)
from .vendor import GroupProfile, get_group

__all__ = ["BatchedSubArray", "BatchedChip"]

#: Entries kept in the per-sub-array leak decay cache (distinct dt values
#: recur across retention passes; each entry is a (B, R, C) float plane).
_LEAK_CACHE_CAPACITY: int = 8


class BatchedSubArray:
    """``B`` scalar sub-arrays executing in lock-step vector form.

    Built from stacked fabrication planes (leading lane axis) plus, per
    lane, the vendor profile (anything with the ``electrical``,
    ``variation``, ``decoder`` and ``coupling`` of a
    :class:`~repro.dram.vendor.GroupProfile`), noise source, operating
    environment and ``(bank, sub-array)`` origin.
    """

    def __init__(
        self,
        *,
        planes: VariationPlanes,
        profiles: Sequence[GroupProfile],
        noises: Sequence[NoiseSource],
        environments: Sequence[Environment],
        origins: Sequence[tuple[int, int]],
    ) -> None:
        n_lanes, n_rows, n_cols = planes.tau_s.shape
        if not n_lanes:
            raise ConfigurationError("batched sub-array needs at least one lane")
        if not (n_lanes == len(profiles) == len(noises) == len(environments)
                == len(origins)):
            raise ConfigurationError("per-lane inputs must have equal length")
        self.n_lanes = n_lanes
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.origins = [(int(b), int(s)) for b, s in origins]
        self._noises = list(noises)

        # --- fabrication variation, stacked lane-major ---
        self.sa_offset = planes.sa_offset                    # (B, C)
        self.primary_boost = planes.primary_boost            # (B, C)
        self.multirow_bias = planes.multirow_bias            # (B, C)
        self.amp_alpha = planes.amp_alpha                    # (B, C)
        self.tau_s = planes.tau_s                            # (B, R, C)
        self.vrt_mask = planes.vrt_mask                      # (B, R, C)
        self.interrupt_coupling = planes.interrupt_coupling  # (B, R, C)

        # --- per-lane parameters (vendor profile x environment) ---
        self._couplings = [profile.coupling for profile in profiles]
        self._decoders = [profile.decoder for profile in profiles]
        self._restore = np.array([profile.electrical.restore_level
                                  for profile in profiles])
        self._cb = np.array([profile.electrical.bitline_to_cell_ratio
                             for profile in profiles])
        self._jitter_sigma = [profile.variation.weight_jitter_sigma
                              for profile in profiles]
        self._jitter_any = any(sigma > 0 for sigma in self._jitter_sigma)
        self._primary_cache: dict[int, list[int | None]] = {}
        self._weights_base_cache: dict[tuple, np.ndarray] = {}
        self._vrt_span = [profile.variation.vrt_tau_span
                          for profile in profiles]
        # Static per-lane VRT cell coordinates and their tau values, so
        # the leak path never re-scans the (sparse) mask.
        self._vrt_idx = [np.nonzero(lane_mask) for lane_mask in self.vrt_mask]
        self._vrt_any = [idx[0].size > 0 for idx in self._vrt_idx]
        self._vrt_tau = [self.tau_s[lane][idx]
                         for lane, idx in enumerate(self._vrt_idx)]
        self._leak_ctx_cache: dict[tuple[int, ...], tuple] = {}
        self._noise_sigma = [
            env.read_noise_scale(profile.variation.read_noise_sigma,
                                 profile.variation.read_noise_temp_coeff)
            for profile, env in zip(profiles, environments)]
        self._offset_shift = np.array([env.effective_offset_shift()
                                       for env in environments])
        self._leak_acc = np.array([env.leakage_acceleration
                                   for env in environments])
        self._leak_cache: dict[float, np.ndarray] = {}

        # --- dynamic state: voltages only (structure lives in the
        # compiled program each run replays) ---
        self.cell_v = np.zeros((self.n_lanes, self.n_rows, self.n_cols))
        # Rows that have ever been opened (the only way cells get written).
        # Never-written rows hold exact +0.0, so the leak decay multiply
        # can skip them: 0.0 * decay == +0.0 bit-for-bit.
        self._written = np.zeros((self.n_lanes, self.n_rows), dtype=bool)
        self.bitline_v = np.full((self.n_lanes, self.n_cols), 0.5)

    def reseed_noise(self, epoch: int) -> None:
        """Reseed every lane's noise source to ``epoch``.

        A reseeded child derives the same stream as a freshly spawned
        child reseeded to that epoch (see :class:`~repro.dram.rng
        .NoiseSource`), so this matches the tree the scalar
        :meth:`~repro.dram.chip.DramChip.reseed_noise` rebuilds.
        """
        for noise in self._noises:
            noise.reseed(int(epoch))

    # ------------------------------------------------------------------
    # retention / leakage
    # ------------------------------------------------------------------

    def leak(self, lanes: Sequence[int], dt_s: float) -> None:
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if dt_s == 0:
            return
        base = self._leak_base(dt_s)
        # Each VRT lane draws its full (R, C) uniform block with the scalar
        # engine's own call and keeps the VRT positions; the
        # expensive transcendental (one exp over every VRT cell of every
        # lane) runs once, concatenated — gather -> elementwise ->
        # scatter is bitwise identical to the scalar full-array version
        # because the non-VRT factor there is an exact ``tau * 1.0``.
        vrt_lanes = [lane for lane in lanes if self._vrt_any[lane]]
        corrected = None
        flat_cells = self.cell_v.reshape(-1)
        if vrt_lanes:
            tau_cat, span_cat, acc_cat, flat_idx = (
                self._leak_ctx(tuple(vrt_lanes)))
            picked = np.concatenate([
                self._noises[lane].rng.uniform(
                    -1.0, 1.0, size=(self.n_rows, self.n_cols)
                )[self._vrt_idx[lane]]
                for lane in vrt_lanes])
            tau = tau_cat * span_cat ** picked
            corrected = flat_cells[flat_idx] * np.exp(((-dt_s) * acc_cat) / tau)
        if len(lanes) == self.n_lanes:
            written = self._written
        else:
            selected = np.zeros(self.n_lanes, dtype=bool)
            selected[np.asarray(lanes, dtype=np.intp)] = True
            written = self._written & selected[:, None]
        # Decay only rows that were ever written: the rest are exact +0.0
        # and 0.0 * decay == +0.0, so skipping them is bitwise identical
        # while touching a fraction of the (B, R, C) tensor.
        dirty = np.nonzero(written.reshape(-1))[0]
        if dirty.size:
            cells_2d = self.cell_v.reshape(-1, self.n_cols)
            cells_2d[dirty] *= base.reshape(-1, self.n_cols)[dirty]
        if vrt_lanes:
            flat_cells[flat_idx] = corrected

    def _leak_ctx(self, key: tuple[int, ...]):
        """Cached per-lane-set leak context: flattened VRT params and indices.

        Concatenating the per-lane VRT tau / span / acceleration vectors
        once per lane set turns the per-leak work into a handful of flat
        array ops instead of a Python loop over lanes.
        """
        ctx = self._leak_ctx_cache.get(key)
        if ctx is None:
            counts = [self._vrt_tau[lane].size for lane in key]
            block = self.n_rows * self.n_cols
            ctx = (
                np.concatenate([self._vrt_tau[lane] for lane in key]),
                np.repeat(np.array([self._vrt_span[lane] for lane in key]),
                          counts),
                np.repeat(np.array([float(self._leak_acc[lane])
                                    for lane in key]), counts),
                np.concatenate([
                    lane * block + np.ravel_multi_index(
                        self._vrt_idx[lane], (self.n_rows, self.n_cols))
                    for lane in key]),
            )
            if len(self._leak_ctx_cache) >= _LEAK_CACHE_CAPACITY:
                self._leak_ctx_cache.pop(next(iter(self._leak_ctx_cache)))
            self._leak_ctx_cache[key] = ctx
        return ctx

    def _leak_base(self, dt_s: float) -> np.ndarray:
        """``exp(-dt * acceleration / tau)`` for every lane, cached per dt."""
        key = float(dt_s)
        base = self._leak_cache.get(key)
        if base is None:
            num = (-dt_s) * self._leak_acc
            # In-place exp: one fresh (B, R, C) allocation per miss, not
            # two — misses are dominated by page faults on these buffers.
            base = num[:, None, None] / self.tau_s
            np.exp(base, out=base)
            if len(self._leak_cache) >= _LEAK_CACHE_CAPACITY:
                self._leak_cache.pop(next(iter(self._leak_cache)))
            self._leak_cache[key] = base
        return base

    # ------------------------------------------------------------------
    # telemetry recorders and per-lane caches
    # ------------------------------------------------------------------

    def _record_glitch(self, lane: int, previous: tuple[int, ...],
                       requested: int, opened: tuple[int, ...],
                       *, overwrite: bool) -> None:
        telemetry = _telemetry_active()
        if telemetry is None:
            return
        telemetry.count("dram.glitch_overwrite" if overwrite
                        else "dram.glitch_abort")
        telemetry.emit("glitch", {
            "bank": self.origins[lane][0], "subarray": self.origins[lane][1],
            "previous": [int(r) for r in previous],
            "requested": int(requested),
            "opened": [int(r) for r in opened],
            "overwrite": overwrite,
        })

    def _record_sense(self, lanes: Sequence[int], rows_mat: np.ndarray,
                      decision: np.ndarray, snapshots) -> None:
        """Count and trace one sense-amp firing per lane.

        ``snapshots[i]`` is lane ``lanes[i]``'s pre-share cell block; a
        flip is a cell whose restored value differs from it.
        """
        telemetry = _telemetry_active()
        if telemetry is None:
            return
        for index, lane in enumerate(lanes):
            flips = int(np.sum((snapshots[index] > 0.5) != decision[index]))
            telemetry.count("dram.sense_fired")
            telemetry.count("dram.sense_flips", flips)
            if telemetry.tracer is not None:
                telemetry.emit("sense", {
                    "bank": self.origins[lane][0],
                    "subarray": self.origins[lane][1],
                    "rows": [int(r) for r in rows_mat[index]],
                    "ones": int(np.sum(decision[index])),
                    "flips": flips,
                })

    def _record_partial_amplify(self, lanes: Sequence[int],
                                rows_mat: np.ndarray, steps: int) -> None:
        telemetry = _telemetry_active()
        if telemetry is None:
            return
        for index, lane in enumerate(lanes):
            telemetry.count("dram.partial_amplify")
            telemetry.emit("partial_amplify", {
                "bank": self.origins[lane][0],
                "subarray": self.origins[lane][1],
                "rows": [int(r) for r in rows_mat[index]],
                "steps": int(steps),
            })

    def _record_frac_freeze(self, lanes: Sequence[int],
                            rows_mat: np.ndarray) -> None:
        telemetry = _telemetry_active()
        if telemetry is None:
            return
        for index, lane in enumerate(lanes):
            telemetry.count("dram.frac_freeze")
            telemetry.emit("frac_freeze", {
                "bank": self.origins[lane][0],
                "subarray": self.origins[lane][1],
                "rows": [int(r) for r in rows_mat[index]],
            })

    def _primary_positions(self, k: int) -> list[int | None]:
        """Per-lane primary coupling position for ``k`` open rows, cached.

        ``CouplingProfile.primary_position`` is pure in ``(profile, k)``,
        so one lookup pass per distinct ``k`` serves every charge share.
        """
        cached = self._primary_cache.get(k)
        if cached is None:
            cached = [coupling.primary_position(k)
                      for coupling in self._couplings]
            self._primary_cache[k] = cached
        return cached

    def _weights_base(self, lanes: tuple[int, ...], k: int) -> np.ndarray:
        """Jitter-free coupling weights for a lane group, cached.

        The ones-plus-primary-boost base is pure in ``(lanes, k)``;
        callers must never mutate the returned array (the jitter path
        multiplies into a fresh copy).
        """
        key = (lanes, k)
        cached = self._weights_base_cache.get(key)
        if cached is None:
            cached = np.ones((len(lanes), k, self.n_cols))
            primaries = self._primary_positions(k)
            for index, lane in enumerate(lanes):
                primary = primaries[lane]
                if primary is not None and primary < k:
                    cached[index, primary] += self.primary_boost[lane]
            if len(self._weights_base_cache) >= 16:
                self._weights_base_cache.clear()
            self._weights_base_cache[key] = cached
        return cached

    def _threshold(self, lane_arr: np.ndarray, k: int) -> np.ndarray:
        """Per-lane sense threshold with ``k`` rows open, ``(B, C)``."""
        threshold = (0.5 + self.sa_offset[lane_arr]
                     ) + self._offset_shift[lane_arr][:, None]
        if k >= 3:
            threshold = threshold + self.multirow_bias[lane_arr]
        return threshold

    # ------------------------------------------------------------------
    # phase kernels (called by repro.xir's executor)
    # ------------------------------------------------------------------
    #
    # Each analog phase has exactly one lane implementation, here: the
    # xir executor (:mod:`repro.xir.executor`) calls these kernels from
    # a compiled schedule, one call per structurally uniform lane group
    # (same sub-array, same open-row count), with draws pre-advanced
    # from its merged per-lane streams.  The kernels only move voltages;
    # the open-row structure is the compiled program's.  The ``xir_``
    # prefix marks them as FORK002 purity entry points.

    def xir_charge_share(self, lanes: Sequence[int], lane_arr: np.ndarray,
                         rows_mat: np.ndarray,
                         jitter_draws: np.ndarray | None) -> np.ndarray:
        """ACT body: mark written, snapshot, charge-share.

        ``jitter_draws`` is ``None`` on jitter-free sub-arrays, else the
        pre-scaled ``(B, k, C)`` weight-jitter draws, which the kernel
        consumes (it computes the jittered weights in their buffer).
        Returns the ``(B, k, C)`` pre-share cell snapshot (for freeze and
        flips accounting).
        """
        k = rows_mat.shape[1]
        self._written[lane_arr[:, None], rows_mat] = True
        # Fancy indexing copies, so this block doubles as the pre-share
        # snapshot (it is never mutated below).
        cell_block = self.cell_v[lane_arr[:, None], rows_mat]
        weights = self._weights_base(tuple(lanes), k)
        if jitter_draws is not None:
            # Zero-sigma lanes arrive as exact zeros: 1.0 + 0.0 is a
            # bitwise no-op and the 0.05 clip never binds for weights >= 1.
            # In place: base * (1 + jitter) == (1 + jitter) * base.
            jitter_draws += 1.0
            weights = np.multiply(weights, jitter_draws, out=jitter_draws)
            np.clip(weights, 0.05, None, out=weights)
        cb = self._cb[lane_arr][:, None]
        if k == 1:
            # A one-element reduction returns its element bit-for-bit, so
            # the single-row case (every plain ACT) drops the axis sums.
            numerator = cb * self.bitline_v[lane_arr] + (
                weights[:, 0] * cell_block[:, 0])
            denominator = cb + weights[:, 0]
        else:
            numerator = cb * self.bitline_v[lane_arr] + np.sum(
                weights * cell_block, axis=1)
            denominator = cb + np.sum(weights, axis=1)
        equilibrium = numerator / denominator
        self.bitline_v[lane_arr] = equilibrium
        self.cell_v[lane_arr[:, None], rows_mat] = equilibrium[:, None, :]
        return cell_block

    def xir_sense(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                  draws: np.ndarray) -> np.ndarray:
        """Sense-amp firing; returns the ``(B, C)`` decisions."""
        sensed = self.bitline_v[lane_arr] + draws
        decision = sensed > self._threshold(lane_arr, rows_mat.shape[1])
        level = np.where(decision, self._restore[lane_arr][:, None], 0.0)
        self.bitline_v[lane_arr] = level
        self.cell_v[lane_arr[:, None], rows_mat] = level[:, None, :]
        return decision

    def xir_partial_amplify(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                            draws: np.ndarray, steps: int) -> None:
        """A PRECHARGE inside the amplify window: move bit-lines and the
        open cells part-way toward the rails the comparator picked."""
        sensed = self.bitline_v[lane_arr] + draws
        threshold = self._threshold(lane_arr, rows_mat.shape[1])
        rail = np.where(sensed > threshold,
                        self._restore[lane_arr][:, None], 0.0)
        differential = np.abs(sensed - threshold)
        residual = (1.0 - self.amp_alpha[lane_arr]) * np.exp(
            -differential / _AMP_DIFFERENTIAL_SCALE)
        pull = 1.0 - residual ** steps
        bitline = self.bitline_v[lane_arr]
        bitline += pull * (rail - bitline)
        self.bitline_v[lane_arr] = bitline
        cell_block = self.cell_v[lane_arr[:, None], rows_mat]
        cell_block += pull[:, None, :] * (rail[:, None, :] - cell_block)
        self.cell_v[lane_arr[:, None], rows_mat] = cell_block

    def xir_rollback(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                     snapshot: np.ndarray) -> None:
        """Unsensed close-abort: the interrupted share only partially
        took, then the equalizer resets the bit-lines to Vdd/2."""
        full = self.cell_v[lane_arr[:, None], rows_mat]
        self.cell_v[lane_arr[:, None], rows_mat] = (
            snapshot + INTERRUPTED_SHARE_FRACTION * (full - snapshot))
        self.bitline_v[lane_arr] = 0.5

    def xir_write(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                  physical_bits: np.ndarray) -> None:
        """WRITE into sensed open rows (physical polarity)."""
        level = np.where(physical_bits, self._restore[lane_arr][:, None], 0.0)
        self.bitline_v[lane_arr] = level
        self.cell_v[lane_arr[:, None], rows_mat] = level[:, None, :]

    def xir_store(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                  physical_bits: np.ndarray) -> None:
        """Fused whole write-row cycle (open + write + close collapsed).

        The net state transition of ``charge_share -> sense -> write ->
        close`` on one row: every intermediate bit-line and cell level is
        overwritten by the write, so only the written restore levels, the
        refresh marking and the idle bit-line remain — the charge-share /
        sense draws are dead: the executor still draws them, into rows
        this kernel never reads.
        """
        self._written[lane_arr[:, None], rows_mat] = True
        level = np.where(physical_bits, self._restore[lane_arr][:, None], 0.0)
        self.cell_v[lane_arr[:, None], rows_mat] = level[:, None, :]
        self.bitline_v[lane_arr] = 0.5

    def xir_freeze(self, lane_arr: np.ndarray, rows_mat: np.ndarray,
                   snapshot: np.ndarray) -> None:
        """Interrupted-precharge freeze (the Frac payoff)."""
        coupling = self.interrupt_coupling[lane_arr[:, None], rows_mat]
        shared = self.cell_v[lane_arr[:, None], rows_mat]
        self.cell_v[lane_arr[:, None], rows_mat] = (
            snapshot + coupling * (shared - snapshot))
        self.bitline_v[lane_arr] = 0.5

    def xir_frac_burst(self, lanes: Sequence[int], lane_arr: np.ndarray,
                       rows_mat: np.ndarray,
                       jitter_draws: np.ndarray | None,
                       n_frac: int) -> None:
        """``n_frac`` fused (charge-share, freeze) pairs — one Frac burst.

        Bitwise identical to ``n_frac`` sequential
        :meth:`xir_charge_share` / :meth:`xir_freeze` pairs on a single
        row: the per-iteration formulas are verbatim, only the loop
        overhead (index gathers, weight-base lookups, the intermediate
        ``cell_v`` store each freeze immediately overwrites) is hoisted.
        ``jitter_draws`` is ``None`` on jitter-free sub-arrays, else the
        pre-scaled ``(B, n_frac, C)`` weight-jitter draws.
        """
        row_index = (lane_arr[:, None], rows_mat)
        self._written[row_index] = True
        base = self._weights_base(tuple(lanes), 1)
        cb = self._cb[lane_arr][:, None]
        coupling = self.interrupt_coupling[row_index]
        bitline: np.ndarray | float = self.bitline_v[lane_arr]
        cell = self.cell_v[row_index]
        for index in range(n_frac):
            if jitter_draws is None:
                w0 = base[:, 0]
            else:
                weights = base * (1.0 + jitter_draws[:, index:index + 1])
                np.clip(weights, 0.05, None, out=weights)
                w0 = weights[:, 0]
            numerator = cb * bitline + w0 * cell[:, 0]
            denominator = cb + w0
            equilibrium = numerator / denominator
            cell = cell + coupling * (equilibrium[:, None, :] - cell)
            # The freeze leaves the bit-line at the 0.5 idle level; the
            # next share multiplies it elementwise, and x * 0.5 is exact
            # either way, so the scalar stands in for the full array.
            bitline = 0.5
        self.cell_v[row_index] = cell
        self.bitline_v[lane_arr] = 0.5

    def xir_overwrite(self, lane_arr: np.ndarray,
                      rows_mat: np.ndarray) -> None:
        """Glitch overwrite: driven bit-lines into every opened row."""
        self._written[lane_arr[:, None], rows_mat] = True
        self.cell_v[lane_arr[:, None], rows_mat] = (
            self.bitline_v[lane_arr][:, None, :])

    def xir_close(self, lane_arr: np.ndarray) -> None:
        """Row close: restore the idle bit-line level."""
        self.bitline_v[lane_arr] = 0.5


class BatchedChip:
    """Per-lane row maps, polarity, command-spacing history and retention
    clock over a grid of :class:`BatchedSubArray` cells."""

    def __init__(
        self,
        *,
        geometry: GeometryParams,
        cells: list[list[BatchedSubArray]],
        groups: Sequence,
        row_maps: Sequence,
        polarity_schemes: Sequence[str],
    ) -> None:
        self.geometry = geometry
        self.cells = cells
        self.n_lanes = cells[0][0].n_lanes
        self.groups = list(groups)
        self._row_maps = list(row_maps)
        self._polarity = list(polarity_schemes)
        # Per-lane logical->physical and anti-cell tables, ``(lanes,
        # rows_per_subarray)``: the row map and polarity scheme are frozen
        # at construction, so every ACT's per-lane lookups collapse to one
        # fancy index.  Lanes sharing a (row map, scheme) share one row.
        rps = geometry.rows_per_subarray
        slots: dict[tuple[int, str], int] = {}
        phys: list[list[int]] = []
        anti: list[list[bool]] = []
        lane_slots = []
        for row_map, scheme in zip(self._row_maps, self._polarity):
            slot = slots.setdefault((id(row_map), scheme), len(phys))
            if slot == len(phys):
                phys.append([row_map.to_physical(row) for row in range(rps)])
                anti.append([is_anti_row(scheme, physical)
                             for physical in phys[-1]])
            lane_slots.append(slot)
        self._phys_rows = np.array(phys, dtype=np.intp)[lane_slots]
        self._anti_rows = np.array(anti, dtype=bool)[lane_slots]
        self._enforce = [group.decoder.enforces_command_spacing
                         for group in self.groups]
        self._any_enforce = any(self._enforce)
        self._last_cmd: list[dict[int, int]] = [
            {} for _ in range(self.n_lanes)]
        self.dropped_commands = [0] * self.n_lanes
        self.time_s = np.zeros(self.n_lanes)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_chips(cls, chips: Sequence[DramChip]) -> "BatchedChip":
        """One lane per donor chip.

        The donors' live noise sources are adopted (and must no longer be
        used through the scalar chips).
        """
        if not chips:
            raise ConfigurationError("batched chip needs at least one lane")
        first = chips[0]
        for chip in chips:
            if chip.geometry != first.geometry:
                raise ConfigurationError("all lanes must share chip geometry")
        cells: list[list[BatchedSubArray]] = []
        for bank in range(first.geometry.n_banks):
            bank_cells = []
            for sub in range(first.geometry.subarrays_per_bank):
                donors = [chip.banks[bank].subarrays[sub] for chip in chips]
                bank_cells.append(BatchedSubArray(
                    planes=VariationPlanes.stack(donors),
                    profiles=[chip.group for chip in chips],
                    noises=[donor._noise for donor in donors],
                    environments=[chip.environment for chip in chips],
                    origins=[(bank, sub)] * len(chips)))
            cells.append(bank_cells)
        return cls(
            geometry=first.geometry,
            cells=cells,
            groups=[chip.group for chip in chips],
            row_maps=[chip.row_map for chip in chips],
            polarity_schemes=[chip.polarity_scheme for chip in chips])

    @classmethod
    def from_fleet(
        cls,
        specs: Sequence[tuple[str, int]],
        *,
        geometry: GeometryParams,
        master_seed: int = 0,
        environment: Environment | None = None,
        epochs: Sequence[int] | None = None,
    ) -> "BatchedChip":
        """One lane per ``(group_id, serial)`` module spec — the device axis.

        Each lane is the module ``make_chip`` fabricates — a
        :class:`DramChip` seeded from ``(master_seed, group_id, serial)``
        with the default row map and polarity — drawn straight into the
        batch's planes without building the chip: the chip's
        fabrication stream seeds one stream per sub-array, bank-major as
        :class:`~repro.dram.bank.Bank` takes them, and each vendor group
        runs :func:`~repro.dram.subarray.fabricate_planes` once over all
        its lanes' sub-arrays.  Specs may mix vendor groups; the
        per-lane parameter planes keep their distinct decoders,
        couplings and variation.  ``epochs`` starts each lane's noise
        sources at the epoch ``DramChip.reseed_noise`` would move them
        to (default: every lane at epoch 0, the fresh-chip stream).
        """
        if not specs:
            raise ConfigurationError("fleet batch needs at least one module")
        environment = environment or Environment()
        groups = [get_group(group_id) for group_id, _ in specs]
        serials = [int(serial) for _, serial in specs]
        lane_epochs = ([0] * len(specs) if epochs is None
                       else [int(epoch) for epoch in epochs])
        n_lanes = len(specs)
        sites = [(bank, sub) for bank in range(geometry.n_banks)
                 for sub in range(geometry.subarrays_per_bank)]
        # streams[site][lane]: the sub-array's fabrication stream.
        streams: list[list[np.random.Generator]] = [[] for _ in sites]
        for group, serial in zip(groups, serials):
            fabrication = derive_rng(master_seed, "fab", group.group_id, serial)
            for site_streams, seed in zip(
                    streams, fabrication.integers(0, 2 ** 63, size=len(sites))):
                site_streams.append(np.random.default_rng(seed))
        by_group: dict[str, list[int]] = {}
        for lane, group in enumerate(groups):
            by_group.setdefault(group.group_id, []).append(lane)
        planes: list[np.ndarray] = []
        for lanes in by_group.values():
            block = fabricate_planes(
                groups[lanes[0]].variation,
                [site_streams[lane] for site_streams in streams
                 for lane in lanes],
                geometry.rows_per_subarray, geometry.columns)
            parts = [part.reshape(len(sites), len(lanes), *part.shape[1:])
                     for part in block]
            if len(lanes) == n_lanes:
                planes = parts
                break
            if not planes:
                planes = [np.empty((len(sites), n_lanes, *part.shape[2:]),
                                   dtype=part.dtype) for part in parts]
            for plane, part in zip(planes, parts):
                plane[:, lanes] = part
        cells: list[list[BatchedSubArray]] = [
            [] for _ in range(geometry.n_banks)]
        for index, (bank, sub) in enumerate(sites):
            # The identity DramChip's source spawns for this sub-array.
            noises = [
                NoiseSource(master_seed, "chip", group.group_id, serial,
                            "bank", bank, "subarray", sub, epoch=epoch)
                for group, serial, epoch in zip(groups, serials, lane_epochs)]
            cells[bank].append(BatchedSubArray(
                planes=VariationPlanes(*(plane[index] for plane in planes)),
                profiles=groups, noises=noises,
                environments=[environment] * n_lanes,
                origins=[(bank, sub)] * n_lanes))
        return cls(
            geometry=geometry,
            cells=cells,
            groups=groups,
            row_maps=[IdentityMap(geometry.rows_per_subarray)] * n_lanes,
            polarity_schemes=["true-only"] * n_lanes)

    @classmethod
    def from_subarray_views(
        cls, chips: Sequence[DramChip], sites: Sequence[tuple[int, int]],
        epochs: Sequence[int] | None = None,
    ) -> "BatchedChip":
        """One lane per (chip, (bank, sub-array) site): a sub-array view.

        The batched device is a virtual 1-bank x 1-sub-array chip whose
        lanes are chip-major: lane ``c * len(sites) + s`` *is*
        ``chips[c].banks[bank].subarrays[sub]`` for ``sites[s] == (bank,
        sub)``, with that sub-array's planes and rows (rows are
        sub-array-local).  Each lane adopts the sub-array's live noise
        source, so the donor chips must no longer be used; with
        ``epochs`` (one per lane) it instead starts a fresh source at the
        epoch ``DramChip.reseed_noise`` would move it to.

        A sub-array's physics and draws touch only its own cells and
        noise stream, so a view replays exactly its share of the scalar
        chip's command stream — but only while time does not advance: a
        scalar leak ages every sub-array of the chip, a view only its
        own.  Views trace bank 0, their local row and their own cycle
        counter in ``command``/``sequence`` events.  Used when an
        experiment iterates independent units that each touch one
        sub-array (the PUF reads, fig9's and fig10(a)'s targets).
        """
        lanes = [(chip, bank, sub) for chip in chips for bank, sub in sites]
        donors = [chip.banks[bank].subarrays[sub] for chip, bank, sub in lanes]
        if epochs is None:
            noises = [donor._noise for donor in donors]
        else:
            noises = [chip.noise.spawn("bank", bank, "subarray", sub,
                                       epoch=int(epoch))
                      for (chip, bank, sub), epoch in zip(lanes, epochs)]
        groups = [chip.group for chip, _, _ in lanes]
        cell = BatchedSubArray(
            planes=VariationPlanes.stack(donors),
            profiles=groups, noises=noises,
            environments=[chip.environment for chip, _, _ in lanes],
            origins=[(bank, sub) for _, bank, sub in lanes])
        return cls(
            geometry=GeometryParams(
                n_banks=1, subarrays_per_bank=1,
                rows_per_subarray=cell.n_rows, columns=cell.n_cols),
            cells=[[cell]],
            groups=groups,
            row_maps=[chip.row_map for chip, _, _ in lanes],
            polarity_schemes=[chip.polarity_scheme for chip, _, _ in lanes])

    # ------------------------------------------------------------------
    # identity / bookkeeping
    # ------------------------------------------------------------------

    @property
    def n_banks(self) -> int:
        return self.geometry.n_banks

    @property
    def columns(self) -> int:
        return self.geometry.columns

    @property
    def rows_per_bank(self) -> int:
        return self.geometry.rows_per_bank

    def reseed_noise(self, epoch: int) -> None:
        """Start a new measurement-noise epoch on every lane.

        Equivalent to calling :meth:`DramChip.reseed_noise` on each
        lane's scalar chip: the per-sub-array child sources re-derive
        their streams from the new epoch.
        """
        for bank_cells in self.cells:
            for cell in bank_cells:
                cell.reseed_noise(epoch)

    # ------------------------------------------------------------------
    # command spacing and time
    # ------------------------------------------------------------------

    def _spacing_step(self, lane: int, bank: int, cycle: int,
                      telemetry) -> bool:
        """One command on an enforcing lane; ``False`` when it is dropped.

        Keeps the lane's per-bank spacing history and drop count, and
        records each drop, exactly as :class:`DramChip` does.
        """
        last = self._last_cmd[lane].get(bank)
        if last is not None and cycle - last < MIN_COMMAND_SPACING_CYCLES:
            self.dropped_commands[lane] += 1
            if telemetry is not None:
                telemetry.count("dram.dropped_commands")
                telemetry.emit("drop", {"bank": bank, "cycle": cycle})
            return False
        self._last_cmd[lane][bank] = cycle
        return True

    def advance_time(self, dt_s: float, lanes: Sequence[int]) -> None:
        """Let ``dt_s`` seconds of leakage pass on ``lanes``.

        Every compiled program ends with all banks idle, so the lanes
        are idle here, as :meth:`DramChip.advance_time` requires.
        """
        for bank_cells in self.cells:
            for cell in bank_cells:
                cell.leak(lanes, dt_s)
        self.time_s[np.asarray(lanes, dtype=np.intp)] += dt_s
        telemetry = _telemetry_active()
        if telemetry is not None:
            for lane in lanes:
                telemetry.count("dram.leak_events")
                telemetry.observe("dram.leak_dt_s", dt_s)
                telemetry.emit("leak", {"dt_s": float(dt_s),
                                        "time_s": float(self.time_s[lane])})
