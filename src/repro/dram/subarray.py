"""Sub-array electrical model: cells, bit-lines, sense amplifiers.

This module is the heart of the reproduction.  A :class:`SubArray` holds a
matrix of *continuous* cell voltages (normalized to Vdd = 1.0) and executes
the low-level consequences of timed commands:

* **ACTIVATE** raises a word-line and charge-shares the row's cells with
  the bit-lines; if left undisturbed for ``sense_enable_cycles`` the sense
  amplifiers fire, rail the bit-lines, and restore the connected cells.

* **PRECHARGE** issued before the sense amps fire *interrupts* activation:
  the word-line closes while the cell still holds the shared, fractional
  voltage — this is the Frac effect (Section III-A, Figure 3).

* **ACTIVATE during an in-flight PRECHARGE** aborts the row close and
  triggers the row-decoder glitch, opening extra rows (Section II-D); the
  subsequent settle either fires the sense amps (MAJ3 / F-MAJ) or a second
  interrupting PRECHARGE freezes the shared voltages (Half-m, Figure 4).

The model is event-driven: commands carry absolute cycle timestamps and
state transitions are resolved lazily in command order, so no per-cycle
tick loop is needed.  All per-column quantities are NumPy vectors; a whole
8 KB row is processed in a handful of vector ops.

Manufacturing variation (sense-amp offsets, leakage time constants, the
per-column primary-row coupling boost, multi-row threshold bias) is drawn
once from the chip's deterministic fabrication stream; per-trial
measurement noise comes from a separate :class:`~repro.dram.rng.NoiseSource`.
:func:`fabricate_planes` is the one definition of that variation model
(its draw order and maps): a scalar :class:`SubArray` calls it for itself,
and :meth:`~repro.dram.batched.BatchedChip.from_fleet` calls it once per
vendor group over every lane's sub-arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import CommandSequenceError, ConfigurationError
from ..telemetry.registry import active as _telemetry_active
from .decoder import DecoderProfile, resolve_glitch
from .environment import Environment
from .parameters import ElectricalParams, VariationParams
from .rng import NoiseSource

__all__ = ["SubArray", "CouplingProfile", "VariationPlanes",
           "fabricate_planes"]

#: An ACTIVATE arriving within this many cycles of a PRECHARGE aborts the
#: row close (the decoder-glitch window of ComputeDRAM's sequence).
CLOSE_ABORT_WINDOW: int = 2

#: Bit-line differential (Vdd units) over which partial sense
#: amplification speeds up by a factor of e (slew rate grows with input).
_AMP_DIFFERENTIAL_SCALE: float = 0.2

#: Fraction of full charge-sharing equilibrium reached by a row whose
#: activation is aborted by the in-flight PRECHARGE of a glitch sequence.
#: The word-line barely rises before the close begins, so R1's cells share
#: only partially — the physical origin of R1's reduced influence in MAJ3
#: (and of the "primary row" asymmetry favoring later-opened rows).
INTERRUPTED_SHARE_FRACTION: float = 0.35


@dataclass(frozen=True)
class CouplingProfile:
    """Which opened-row position carries the per-column coupling boost.

    Positions index the ordered open-row tuple ``(R1, R2, R3[, R4])`` as
    returned by the decoder model.  Vendor-dependent (Section VI-A.2):
    group B's strongest row is R2, group C's is R1, group D's is R4.
    """

    primary_position_triple: int = 1
    primary_position_quad: int = 1

    def primary_position(self, n_open: int) -> int | None:
        if n_open == 3:
            return self.primary_position_triple
        if n_open >= 4:
            return self.primary_position_quad
        return None


class VariationPlanes(NamedTuple):
    """Manufacturing-variation planes of ``n`` sub-arrays, stacked.

    Per-column planes are ``(n, C)``, per-cell planes ``(n, R, C)``.
    Planes are read-only once fabricated.
    """

    sa_offset: np.ndarray
    primary_boost: np.ndarray
    multirow_bias: np.ndarray
    amp_alpha: np.ndarray
    tau_s: np.ndarray
    vrt_mask: np.ndarray
    interrupt_coupling: np.ndarray

    @classmethod
    def stack(cls, donors: Sequence["SubArray"]) -> "VariationPlanes":
        """The donors' planes, stacked lane-major.

        When every lane shares one donor (trial batching over a single
        chip) each plane is broadcast instead of copied.
        """
        first = donors[0]
        for donor in donors:
            if (donor.n_rows, donor.n_cols) != (first.n_rows, first.n_cols):
                raise ConfigurationError("all lanes must share sub-array shape")
        if all(donor is first for donor in donors):
            return cls(*(np.broadcast_to(getattr(first, name),
                                         (len(donors),)
                                         + getattr(first, name).shape)
                         for name in cls._fields))
        return cls(*(np.stack([getattr(donor, name) for donor in donors])
                     for name in cls._fields))


def fabricate_planes(variation: VariationParams,
                     rngs: Sequence[np.random.Generator],
                     n_rows: int, n_cols: int) -> VariationPlanes:
    """The variation model: one sub-array's planes per fabrication stream.

    Each stream draws all its normals, then all its uniforms:

    * normals, in order: the ``C`` sense-amp offsets, the primary-boost
      module shift (one value, only when its sigma is positive), the
      ``C`` primary boosts, the multi-row bias module shift (likewise),
      the ``C`` multi-row biases, the ``C`` Half-m amplification
      strengths and the ``R x C`` log leakage time constants;
    * uniforms, four ``R x C`` planes: the strong-cell, VRT and
      frac-weak thresholds, then the weak cells' interrupt coupling.

    One ``standard_normal`` call per stream draws its normals and one
    ``random`` call per stream and plane its uniforms; each map runs
    once over all streams.  ``loc + scale * z`` is
    ``Generator.normal(loc, scale)`` value for value, and ``m * u`` is
    ``Generator.uniform(0, m)``, so the planes equal a sequence of
    per-plane ``normal``/``random``/``uniform`` calls.
    """
    var = variation
    n_cells = n_rows * n_cols
    primary_shift = var.primary_weight_module_sigma > 0
    bias_shift = var.multirow_bias_module_sigma > 0
    normals = np.empty((len(rngs), 4 * n_cols + primary_shift + bias_shift
                        + n_cells))
    for index, rng in enumerate(rngs):
        rng.standard_normal(out=normals[index])
    at = 0

    def take(count: int) -> np.ndarray:
        nonlocal at
        block = normals[:, at:at + count]
        at += count
        return block

    def next_uniforms() -> np.ndarray:
        plane = np.empty((len(rngs), n_rows, n_cols))
        for index, rng in enumerate(rngs):
            rng.random(out=plane[index])
        return plane

    sa_offset = var.sa_offset_mean + var.sa_offset_sigma * take(n_cols)
    primary_mean = var.primary_weight_mean
    if primary_shift:
        primary_mean = primary_mean + (
            0.0 + var.primary_weight_module_sigma * take(1))
    primary_boost = np.abs(
        primary_mean + var.primary_weight_sigma * take(n_cols))
    bias_mean = var.multirow_bias_mean
    if bias_shift:
        bias_mean = bias_mean + (
            0.0 + var.multirow_bias_module_sigma * take(1))
    multirow_bias = bias_mean + var.multirow_bias_sigma * take(n_cols)
    amp_alpha = np.clip(
        var.halfm_amp_mean + var.halfm_amp_sigma * take(n_cols), 0.02, 0.998)
    tau_s = take(n_cells).reshape(len(rngs), n_rows, n_cols) * (
        var.tau_log_sigma)
    tau_s += var.tau_log_median_s
    # Free each draw buffer before the next plane is allocated (here,
    # and each uniform plane once used): a many-sub-array chip then
    # keeps the memory footprint per-plane draws had.
    del normals
    np.add(tau_s, np.log(var.strong_cell_tau_multiplier), out=tau_s,
           where=next_uniforms() < var.strong_cell_fraction)
    np.exp(tau_s, out=tau_s)
    vrt_mask = next_uniforms() < var.vrt_cell_fraction
    # Normal cells latch the interrupted level fully; frac-weak cells
    # only to their own coupling.
    weak = next_uniforms() < var.frac_weak_fraction
    weak_coupling = next_uniforms()[weak]
    interrupt_coupling = np.ones_like(tau_s)
    interrupt_coupling[weak] = 0.0 + var.frac_weak_coupling_max * weak_coupling
    return VariationPlanes(sa_offset, primary_boost, multirow_bias,
                           amp_alpha, tau_s, vrt_mask, interrupt_coupling)


class SubArray:
    """One DRAM sub-array: ``n_rows`` word-lines crossing ``n_cols`` bit-lines."""

    def __init__(
        self,
        *,
        n_rows: int,
        n_cols: int,
        electrical: ElectricalParams,
        variation: VariationParams,
        decoder_profile: DecoderProfile,
        coupling: CouplingProfile,
        fabrication_rng: np.random.Generator,
        noise: NoiseSource,
        origin: tuple[int, int] = (0, 0),
    ) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ConfigurationError("sub-array dimensions must be positive")
        self.n_rows = n_rows
        self.n_cols = n_cols
        #: (bank index, sub-array index) — address stamped onto telemetry
        #: events so traces can attribute electrical activity.
        self.origin = (int(origin[0]), int(origin[1]))
        self.electrical = electrical
        self.variation = variation
        self.decoder_profile = decoder_profile
        self.coupling = coupling
        self._noise = noise

        # --- manufacturing variation (fixed at "fabrication") ---
        planes = fabricate_planes(variation, [fabrication_rng], n_rows, n_cols)
        self.sa_offset = planes.sa_offset[0]
        self.primary_boost = planes.primary_boost[0]
        self.multirow_bias = planes.multirow_bias[0]
        self.amp_alpha = planes.amp_alpha[0]
        self.tau_s = planes.tau_s[0]
        self.vrt_mask = planes.vrt_mask[0]
        # Interrupt-coupling: how completely a cell latches the shared
        # (fractional) level when the activation is interrupted after one
        # cycle.  Normal cells latch fully; "frac-weak" cells barely move.
        self.interrupt_coupling = planes.interrupt_coupling[0]

        # --- dynamic state ---
        self.cell_v = np.zeros((n_rows, n_cols))
        self.bitline_v = np.full(n_cols, 0.5)
        self._open_rows: tuple[int, ...] = ()
        self._sense_fired = False
        self._row_buffer: np.ndarray | None = None
        self._last_act_cycle = -(10 ** 9)
        self._pre_started_cycle: int | None = None
        self._preshare_snapshot: np.ndarray | None = None
        self._preshare_rows: tuple[int, ...] = ()

    def reset_dynamic(self) -> None:
        """Return all dynamic state to power-on: discharged cells, precharged
        bit-lines, no open rows.

        Manufacturing variation and the noise stream are untouched — this
        models a power cycle of the same physical silicon, which is what
        per-trial independence in the stability experiments needs.
        """
        self.cell_v[:] = 0.0
        self.bitline_v[:] = 0.5
        self._open_rows = ()
        self._sense_fired = False
        self._row_buffer = None
        self._last_act_cycle = -(10 ** 9)
        self._pre_started_cycle = None
        self._preshare_snapshot = None
        self._preshare_rows = ()

    # ------------------------------------------------------------------
    # introspection ("oscilloscope" access — not available on real DRAM)
    # ------------------------------------------------------------------

    @property
    def open_rows(self) -> tuple[int, ...]:
        """Currently raised word-lines, in open order."""
        return self._open_rows

    @property
    def sense_fired(self) -> bool:
        return self._sense_fired

    def probe_cell(self, row: int, col: int) -> float:
        """Analog cell voltage (Vdd units) — simulator-only introspection."""
        return float(self.cell_v[row, col])

    @property
    def is_idle(self) -> bool:
        """True when no rows are open and no precharge is in flight."""
        return not self._open_rows and self._pre_started_cycle is None

    # ------------------------------------------------------------------
    # command interface (called by the bank with absolute cycle stamps)
    # ------------------------------------------------------------------

    def activate(self, row: int, cycle: int, env: Environment) -> None:
        """Raise word-line ``row`` at ``cycle``.

        If a PRECHARGE is still in flight (within the abort window) the
        close is aborted and the decoder glitch resolves the set of rows
        that actually open.
        """
        if not 0 <= row < self.n_rows:
            raise CommandSequenceError(f"row {row} outside sub-array")
        if self._pre_started_cycle is not None:
            if cycle - self._pre_started_cycle < CLOSE_ABORT_WINDOW:
                self._abort_close_and_glitch(row, cycle, env)
                return
            self._commit_close()
        self.settle(cycle, env)
        if self._open_rows:
            # Out-of-spec ACT-ACT: physically just raises another word-line.
            if row not in self._open_rows:
                self._open((*self._open_rows, row), cycle)
        else:
            self._open((row,), cycle)

    def precharge(self, cycle: int, env: Environment) -> None:
        """Begin closing all open rows and precharging bit-lines at ``cycle``."""
        if self._pre_started_cycle is not None:
            self._commit_close()
        self.settle(cycle, env)
        if not self._open_rows:
            self.bitline_v[:] = 0.5
            return
        if not self._sense_fired:
            # A late interrupt (two or more cycles after the last ACT, as
            # in Half-m's trailing PRE) catches the sense amplifiers
            # mid-flight: fast columns have partially railed their value.
            amplify_steps = cycle - self._last_act_cycle - 1
            if amplify_steps >= 1:
                self._partial_amplify(min(amplify_steps, 3), env)
        self._pre_started_cycle = cycle

    def settle(self, cycle: int, env: Environment) -> None:
        """Resolve any state transition due strictly before ``cycle`` ends.

        Commits an in-flight row close whose abort window has passed, or
        fires the sense amplifiers if activation has run undisturbed for
        ``sense_enable_cycles``.
        """
        if self._pre_started_cycle is not None:
            if cycle - self._pre_started_cycle >= CLOSE_ABORT_WINDOW:
                self._commit_close()
            return  # interrupted activation: sense amps can no longer fire
        if (self._open_rows and not self._sense_fired
                and (cycle - self._last_act_cycle
                     >= self.electrical.sense_enable_cycles)):
            self._fire_sense_amps(env)

    def finish(self, cycle: int, env: Environment) -> None:
        """Settle and commit any pending close regardless of window timing.

        Used at end-of-sequence when the controller guarantees enough idle
        cycles have elapsed.
        """
        self.settle(cycle, env)
        if self._pre_started_cycle is not None:
            self._commit_close()

    def row_buffer(self) -> np.ndarray:
        """Sensed row-buffer bits (physical polarity) after the SA fired."""
        if not self._sense_fired or self._row_buffer is None:
            raise CommandSequenceError(
                "row buffer read before sense amplifiers fired")
        return self._row_buffer.copy()

    def write_open_row(self, physical_bits: np.ndarray) -> None:
        """Drive ``physical_bits`` through the bit-lines into all open rows.

        Requires a sensed (normally activated) row, mirroring a WRITE after
        ACT + tRCD on real hardware.
        """
        if not self._sense_fired:
            raise CommandSequenceError("WRITE issued before sense amplifiers fired")
        bits = np.asarray(physical_bits, dtype=bool)
        if bits.shape != (self.n_cols,):
            raise CommandSequenceError(
                f"write data has shape {bits.shape}, expected ({self.n_cols},)")
        level = np.where(bits, self.electrical.restore_level, 0.0)
        self.bitline_v[:] = level
        for row in self._open_rows:
            self.cell_v[row] = level
        self._row_buffer = bits.copy()

    # ------------------------------------------------------------------
    # retention / leakage
    # ------------------------------------------------------------------

    def leak(self, dt_s: float, env: Environment) -> None:
        """Advance simulated time by ``dt_s`` seconds of pure leakage.

        Only legal while idle (no open rows), matching the experimental
        procedure of "stop sending any memory commands" (Section V-A).
        """
        if not self.is_idle:
            raise CommandSequenceError("cannot advance time with rows open")
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        if dt_s == 0:
            return
        tau = self.tau_s
        if self.vrt_mask.any():
            span = self.variation.vrt_tau_span
            exponent = self._noise.rng.uniform(-1.0, 1.0, size=self.cell_v.shape)
            vrt_factor = np.where(self.vrt_mask, span ** exponent, 1.0)
            tau = tau * vrt_factor
        decay = np.exp(-dt_s * env.leakage_acceleration / tau)
        self.cell_v *= decay

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _open(self, rows: tuple[int, ...], cycle: int) -> None:
        """Raise word-lines ``rows`` (replacing the open set) and share charge."""
        self._preshare_rows = rows
        self._preshare_snapshot = self.cell_v[list(rows)].copy()
        self._open_rows = rows
        self._last_act_cycle = cycle
        self._sense_fired = False
        self._row_buffer = None
        self._charge_share()

    def _abort_close_and_glitch(self, row: int, cycle: int, env: Environment) -> None:
        """ACT arrived inside the precharge abort window: decoder glitch."""
        del env  # no sense-amp involvement on this path
        self._pre_started_cycle = None
        previous = self._open_rows
        if not previous:
            self.bitline_v[:] = 0.5
            self._open((row,), cycle)
            return
        glitch_rows = resolve_glitch(
            self.decoder_profile, previous[0], row, self.n_rows)
        if self._sense_fired:
            # The sense amps fired before the PRECHARGE, so the bit-lines
            # are still driven to the rails: every row opened by the abort
            # is overwritten with the sensed value.  This is the RowClone /
            # ComputeDRAM in-DRAM row-copy mechanism.
            opened = tuple(dict.fromkeys((*previous, *glitch_rows)))
            self._record_glitch(previous, row, opened, overwrite=True)
            level = self.bitline_v.copy()
            for open_row in opened:
                self.cell_v[open_row] = level
            self._open_rows = opened
            self._last_act_cycle = cycle
            return
        # The interrupted first activation only partially shared: roll the
        # connected cells back toward their pre-share voltage, then the
        # precharge equalizer briefly resets the bit-lines to Vdd/2.
        self._record_glitch(previous, row, glitch_rows, overwrite=False)
        self._rollback_partial_share()
        self.bitline_v[:] = 0.5
        self._open(glitch_rows, cycle)

    def _record_glitch(self, previous: tuple[int, ...], requested: int,
                       opened: tuple[int, ...], *, overwrite: bool) -> None:
        telemetry = _telemetry_active()
        if telemetry is None:
            return
        telemetry.count("dram.glitch_overwrite" if overwrite
                        else "dram.glitch_abort")
        telemetry.emit("glitch", {
            "bank": self.origin[0], "subarray": self.origin[1],
            "previous": [int(r) for r in previous],
            "requested": int(requested),
            "opened": [int(r) for r in opened],
            "overwrite": overwrite,
        })

    def _rollback_partial_share(self) -> None:
        if self._preshare_snapshot is None:
            return
        rows = list(self._preshare_rows)
        full = self.cell_v[rows]
        original = self._preshare_snapshot
        partial = original + INTERRUPTED_SHARE_FRACTION * (full - original)
        self.cell_v[rows] = partial

    def _commit_close(self) -> None:
        """Word-lines drop: cells keep their current (possibly fractional)
        voltage; bit-lines finish precharging to Vdd/2.

        When the close interrupts an un-sensed activation (the Frac /
        Half-m freeze), each cell only latches the shared level to the
        degree its access transistor allows: frac-weak cells mostly revert
        to their pre-share voltage.
        """
        if (not self._sense_fired and self._preshare_snapshot is not None
                and self._preshare_rows):
            rows = list(self._preshare_rows)
            coupling = self.interrupt_coupling[rows]
            shared = self.cell_v[rows]
            self.cell_v[rows] = (
                self._preshare_snapshot
                + coupling * (shared - self._preshare_snapshot))
            telemetry = _telemetry_active()
            if telemetry is not None:
                telemetry.count("dram.frac_freeze")
                telemetry.emit("frac_freeze", {
                    "bank": self.origin[0], "subarray": self.origin[1],
                    "rows": [int(row) for row in rows],
                })
        self._pre_started_cycle = None
        self._open_rows = ()
        self._preshare_rows = ()
        self._preshare_snapshot = None
        self._sense_fired = False
        self._row_buffer = None
        self.bitline_v[:] = 0.5

    def _coupling_weights(self) -> np.ndarray:
        """Per-(open row, column) coupling weights for charge sharing."""
        k = len(self._open_rows)
        weights = np.ones((k, self.n_cols))
        primary = self.coupling.primary_position(k)
        if primary is not None and primary < k:
            weights[primary] += self.primary_boost
        jitter_sigma = self.variation.weight_jitter_sigma
        if jitter_sigma > 0:
            weights *= 1.0 + self._noise.normal(jitter_sigma, (k, self.n_cols))
            np.clip(weights, 0.05, None, out=weights)
        return weights

    def _charge_share(self) -> None:
        """Equilibrate bit-lines with all open cells (per column)."""
        rows = list(self._open_rows)
        if not rows:
            return
        cb = self.electrical.bitline_to_cell_ratio
        weights = self._coupling_weights()
        cell_block = self.cell_v[rows]
        numerator = cb * self.bitline_v + np.sum(weights * cell_block, axis=0)
        denominator = cb + np.sum(weights, axis=0)
        equilibrium = numerator / denominator
        self.bitline_v[:] = equilibrium
        self.cell_v[rows] = equilibrium

    def _partial_amplify(self, steps: int, env: Environment) -> None:
        """Move bit-lines and connected cells part-way toward the rails.

        Called when an interrupting PRECHARGE arrives after the sense
        amplifiers began engaging but before full amplification.  The rail
        each column heads for is the comparator's decision; per-column
        strength ``amp_alpha`` encodes sense-amp speed variation.
        """
        telemetry = _telemetry_active()
        if telemetry is not None:
            telemetry.count("dram.partial_amplify")
            telemetry.emit("partial_amplify", {
                "bank": self.origin[0], "subarray": self.origin[1],
                "rows": [int(row) for row in self._open_rows],
                "steps": int(steps),
            })
        noise_sigma = env.read_noise_scale(
            self.variation.read_noise_sigma, self.variation.read_noise_temp_coeff)
        sensed = self.bitline_v + self._noise.normal(noise_sigma, self.n_cols)
        threshold = 0.5 + self.sa_offset + env.effective_offset_shift()
        if len(self._open_rows) >= 3:
            threshold = threshold + self.multirow_bias
        rail = np.where(sensed > threshold, self.electrical.restore_level, 0.0)
        # Amplification speed grows with the input differential: a bit-line
        # far from the threshold (weak one/zero) rails almost immediately,
        # while a near-Half bit-line amplifies only as fast as the column's
        # sense amp allows.  This is why weak ones/zeros behave like normal
        # values while the Half value survives on slow-sense-amp columns.
        differential = np.abs(sensed - threshold)
        residual = (1.0 - self.amp_alpha) * np.exp(
            -differential / _AMP_DIFFERENTIAL_SCALE)
        pull = 1.0 - residual ** steps
        self.bitline_v += pull * (rail - self.bitline_v)
        rows = list(self._open_rows)
        self.cell_v[rows] += pull * (rail - self.cell_v[rows])

    def _fire_sense_amps(self, env: Environment) -> None:
        """Amplify bit-lines to the rails and restore all open cells."""
        noise_sigma = env.read_noise_scale(
            self.variation.read_noise_sigma, self.variation.read_noise_temp_coeff)
        sensed = self.bitline_v + self._noise.normal(noise_sigma, self.n_cols)
        threshold = 0.5 + self.sa_offset + env.effective_offset_shift()
        if len(self._open_rows) >= 3:
            threshold = threshold + self.multirow_bias
        decision = sensed > threshold
        telemetry = _telemetry_active()
        if telemetry is not None:
            # Sense-amp flips: cells whose restored logical value differs
            # from their pre-share state (the destructive part of sensing).
            flips = 0
            if self._preshare_snapshot is not None:
                flips = int(np.sum((self._preshare_snapshot > 0.5) != decision))
            telemetry.count("dram.sense_fired")
            telemetry.count("dram.sense_flips", flips)
            telemetry.emit("sense", {
                "bank": self.origin[0], "subarray": self.origin[1],
                "rows": [int(row) for row in self._open_rows],
                "ones": int(np.sum(decision)), "flips": flips,
            })
        level = np.where(decision, self.electrical.restore_level, 0.0)
        self.bitline_v[:] = level
        for row in self._open_rows:
            self.cell_v[row] = level
        self._row_buffer = decision
        self._sense_fired = True
