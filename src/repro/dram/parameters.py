"""Electrical, timing, and variation parameter sets for the DRAM model.

All voltages are normalized to ``vdd = 1.0`` internally; the environment
model (``repro.dram.environment``) maps the normalized space to physical
volts (nominal DDR3 Vdd = 1.5 V).  All times at the command level are in
*memory cycles* of 2.5 ns (SoftMC runs the DRAM bus at 400 MHz regardless of
the module's speed grade — Section IV-A), and at the retention level in
seconds of simulated wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "MEMORY_CYCLE_NS",
    "ElectricalParams",
    "TimingParams",
    "VariationParams",
    "GeometryParams",
]

#: SoftMC memory cycle (Section IV-A): 2.5 ns at 400 MHz.
MEMORY_CYCLE_NS: float = 2.5


@dataclass(frozen=True)
class ElectricalParams:
    """First-order electrical model of a sub-array column.

    The single most important number is ``bitline_to_cell_ratio`` (Cb/Cc):
    charge sharing between a precharged bit-line (at Vdd/2) and one cell at
    voltage ``v`` settles at ``(Cb*Vdd/2 + Cc*v) / (Cb + Cc)``, so each Frac
    operation multiplies the cell's deviation from Vdd/2 by
    ``Cc / (Cb + Cc)``.  With the default ratio of 3 the deviation shrinks
    4x per Frac — after 10 Fracs (the paper's PUF recipe) the residue is
    ~5e-7 Vdd, far below sense-amp offsets, which is exactly why the PUF
    response is offset-dominated.
    """

    #: Bit-line capacitance divided by cell capacitance (dimensionless).
    bitline_to_cell_ratio: float = 3.0
    #: Cycles between ACTIVATE and completed charge sharing.
    charge_share_cycles: int = 1
    #: Cycles after ACTIVATE at which the sense amplifier fires if not
    #: interrupted by a PRECHARGE (within the tRCD window).
    sense_enable_cycles: int = 4
    #: Cycles a PRECHARGE needs to fully close rows and restore bit-lines;
    #: an ACTIVATE arriving earlier interrupts it (multi-row glitch window).
    precharge_cycles: int = 5
    #: Cycles after ACT(R2) at which decoder-glitch rows become conductive.
    glitch_open_cycles: int = 1
    #: Voltage (fraction of Vdd) that a fully restored cell actually reaches
    #: (restore is never perfect; see Keeth et al.).
    restore_level: float = 1.0

    @property
    def share_factor(self) -> float:
        """Fraction of a cell's deviation from Vdd/2 surviving one share."""
        return 1.0 / (1.0 + self.bitline_to_cell_ratio)

    def frac_residual(self, n_frac: int, initial: float = 1.0) -> float:
        """Ideal cell voltage after ``n_frac`` Frac ops (no noise/weights).

        ``initial`` is the starting cell voltage in [0, 1].
        """
        deviation = initial - 0.5
        return 0.5 + deviation * self.share_factor ** n_frac


@dataclass(frozen=True)
class TimingParams:
    """JEDEC DDR3 timing constraints, expressed in 2.5 ns memory cycles.

    Values follow JEDEC 79-3F for a DDR3-1333 grade clocked down to the
    SoftMC bus rate; the exact magnitudes only matter for the *strict*
    checker and the latency accounting, not for the physics.
    """

    t_rcd: int = 6   #: ACTIVATE -> READ/WRITE
    t_ras: int = 15  #: ACTIVATE -> PRECHARGE (min)
    t_rp: int = 5    #: PRECHARGE -> ACTIVATE (min)
    t_rc: int = 20   #: ACTIVATE -> ACTIVATE same bank (min)
    t_wr: int = 6    #: end of WRITE -> PRECHARGE
    t_rfc: int = 64  #: REFRESH -> next command
    t_refi_ms: float = 64.0 / 8192.0  #: average per-row refresh interval
    retention_window_ms: float = 64.0  #: nominal refresh period per row

    @property
    def row_cycle(self) -> int:
        """Cycles for a full, in-spec, open->close row cycle."""
        return self.t_ras + self.t_rp


@dataclass(frozen=True)
class VariationParams:
    """Distributions of manufacturing variation and measurement noise.

    These are the calibration knobs of the reproduction; per-group values
    live in :mod:`repro.dram.vendor` and were tuned so the headline shapes
    of the paper hold (see DESIGN.md section 4).
    """

    #: Per-column sense-amp threshold offset: N(mean, sigma), in Vdd units.
    sa_offset_mean: float = 0.0
    sa_offset_sigma: float = 0.008
    #: Per-trial thermal noise on the bit-line at decision time (Vdd units).
    read_noise_sigma: float = 0.0002
    #: Extra read noise per degree C above 20 C (fractional increase).
    read_noise_temp_coeff: float = 0.01
    #: Leakage time constants: log-normal main population (seconds).
    tau_log_median_s: float = 11.0  # e^11 s ~ 16.6 h
    tau_log_sigma: float = 1.0
    #: Fraction of "strong" cells with effectively unbounded retention and
    #: their tau multiplier.  Together with the ~50% of columns whose
    #: sense offset is negative, this sets the Fig. 6 "long retention"
    #: category (strong_fraction * 0.5 ~ 0.43, the paper's ~44%).
    strong_cell_fraction: float = 0.85
    strong_cell_tau_multiplier: float = 400.0
    #: Fraction of variable-retention-time cells (Fig. 6 "others").
    vrt_cell_fraction: float = 0.005
    #: VRT cells toggle tau by this multiplicative factor range.
    vrt_tau_span: float = 30.0
    #: Fraction of cells whose slow access transistor barely latches the
    #: shared fractional level during a 1-cycle interrupted activation.
    #: Zero by default (a Frac-immune population would contradict the
    #: near-100% Figure 7 verification); exposed as an ablation knob for
    #: studying how Frac-immune cells would degrade every use case.
    frac_weak_fraction: float = 0.0
    #: Maximum interrupt-coupling of a weak cell (uniform in [0, max]).
    frac_weak_coupling_max: float = 0.15
    #: Per-column primary-row coupling boost: 1 + |N(mean, sigma)|.
    primary_weight_mean: float = 0.10
    primary_weight_sigma: float = 0.10
    #: Per-sub-array shift of the primary boost mean — this is what spreads
    #: F-MAJ stability across *modules* of the same group (Figure 10c).
    primary_weight_module_sigma: float = 0.0
    #: Per-trial jitter of coupling weights (multiplicative sigma).
    weight_jitter_sigma: float = 0.02
    #: Mean bit-line threshold bias during *multi-row* charge sharing; the
    #: sign determines whether a group prefers fractional values above or
    #: below Vdd/2 (Section VI-A.2 "different groups favor different
    #: configurations").
    multirow_bias_mean: float = 0.0
    multirow_bias_sigma: float = 0.004
    #: Per-sub-array shift of the multi-row bias mean (module-to-module
    #: stability spread, Figure 10b/c).
    multirow_bias_module_sigma: float = 0.0
    #: Partial sense amplification reached by the time a *late* interrupt
    #: (PRE two or more cycles after ACT, as in Half-m) disconnects the
    #: cells: per-column strength ~ clipped N(mean, sigma).  Columns with
    #: fast sense amps rail their shared value before the interrupt, which
    #: is why only a minority of columns yield a distinguishable Half value
    #: (~16% in the paper, Section V-C).
    halfm_amp_mean: float = 0.9
    halfm_amp_sigma: float = 0.28


@dataclass(frozen=True)
class GeometryParams:
    """Shape of a simulated chip.

    Default geometry is deliberately small so unit tests run fast;
    experiments scale it up via their configs.  A real DDR3 x8 chip is
    8 banks x (32k rows) x 1 KB rows; a module row is 8 KB across chips.
    """

    n_banks: int = 2
    subarrays_per_bank: int = 2
    rows_per_subarray: int = 32
    columns: int = 256

    def __post_init__(self) -> None:
        if min(self.n_banks, self.subarrays_per_bank,
               self.rows_per_subarray, self.columns) < 1:
            raise ValueError("all geometry dimensions must be >= 1")

    @property
    def rows_per_bank(self) -> int:
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def total_cells(self) -> int:
        return self.n_banks * self.rows_per_bank * self.columns

    def scaled(self, **overrides: int) -> "GeometryParams":
        """Return a copy with some dimensions overridden."""
        return replace(self, **overrides)
