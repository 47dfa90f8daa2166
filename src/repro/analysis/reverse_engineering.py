"""Reverse-engineering "black-box" DRAM with fractional values
(Section VI-C).

Fractional values turn the DRAM into its own measurement instrument:

* **Sense-threshold estimation** — the Frac ladder produces a known,
  geometrically spaced family of cell voltages (0.5 + 0.5 q^n).  The
  largest n at which a column still reads one brackets that column's
  sensing threshold between two ladder rungs.

* **Charge-share-ratio estimation** — the fraction of columns reading one
  immediately after n Frac ops decays with the ladder; fitting the decay
  recovers the bit-line/cell capacitance ratio, a parameter vendors do
  not publish.

Both estimators only use commands available on real hardware (write,
Frac, read); tests validate them against the simulator's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ..core.ops import FracDram
from ..xir import ir

__all__ = [
    "ThresholdEstimate",
    "estimate_sense_thresholds",
    "estimate_share_factor",
    "probe_opened_rows",
    "batched_probe_opened_rows",
    "discover_multi_row_pairs",
]


@dataclass(frozen=True)
class ThresholdEstimate:
    """Per-column sensing-threshold brackets from the Frac ladder.

    ``lower[c] < threshold_c <= upper[c]`` in cell-voltage units (Vdd).
    Columns whose threshold lies outside the ladder range are clamped to
    the ladder end points.
    """

    lower: np.ndarray
    upper: np.ndarray

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def resolution(self) -> np.ndarray:
        """Bracket width per column (estimation uncertainty)."""
        return self.upper - self.lower


def _ladder_voltage(n_frac: int, share_factor: float, init_ones: bool) -> float:
    deviation = 0.5 if init_ones else -0.5
    return 0.5 + deviation * share_factor ** n_frac


def estimate_sense_thresholds(
    fd: FracDram,
    bank: int,
    row: int,
    *,
    max_frac: int = 8,
    share_factor: float = 0.25,
    repeats: int = 3,
) -> ThresholdEstimate:
    """Bracket each column's sensing threshold with the Frac ladder.

    For every rung n (voltage v_n, descending toward Vdd/2) the row is
    re-initialized to ones, Frac'd n times, and read; a column that reads
    one at rung n but zero at rung n+1 has its threshold in (v_{n+1}, v_n].
    ``repeats`` averages out read noise via majority voting per rung.
    """
    n_cols = fd.columns
    rung_voltages = [_ladder_voltage(n, share_factor, True)
                     for n in range(max_frac + 1)]
    reads_one = np.zeros((max_frac + 1, n_cols), dtype=bool)
    for n_frac in range(max_frac + 1):
        votes = np.zeros(n_cols, dtype=int)
        for _ in range(repeats):
            fd.fill_row(bank, row, True)
            if n_frac > 0:
                fd.frac(bank, row, n_frac)
            votes += fd.read_row(bank, row).astype(int)
        reads_one[n_frac] = votes * 2 > repeats

    # Highest rung index still reading one (thresholds are crossed from
    # above as the ladder descends).
    lower = np.full(n_cols, 0.5)
    upper = np.full(n_cols, 1.0)
    for column in range(n_cols):
        ones_at = np.flatnonzero(reads_one[:, column])
        if ones_at.size == 0:
            # Threshold above the whole ladder (reads zero even at Vdd).
            lower[column] = rung_voltages[0]
            upper[column] = 1.0
            continue
        last_one = int(ones_at.max())
        upper[column] = rung_voltages[last_one]
        if last_one < max_frac:
            lower[column] = rung_voltages[last_one + 1]
        else:
            lower[column] = 0.5
    return ThresholdEstimate(lower=lower, upper=upper)


def estimate_share_factor(
    fd: FracDram,
    bank: int,
    row: int,
    *,
    max_frac: int = 6,
    offset_sigma_guess: float = 0.05,
) -> float:
    """Estimate the per-Frac deviation contraction q = Cc / (Cb + Cc).

    The fraction of columns reading one right after n Fracs is
    ``P_n = Phi(0.5 q^n / sigma_eff)`` for threshold offsets ~ N(0,
    sigma_eff) in cell units; fitting (q, sigma_eff) to the measured
    ladder recovers q and hence the capacitance ratio Cb/Cc = 1/q - 1.
    """
    # Imported here, in its only user, which no experiment calls:
    # ``import repro`` must not load scipy.optimize
    # (docs/performance.md, "Cold start").
    from scipy import optimize

    fractions = []
    for n_frac in range(1, max_frac + 1):
        fd.fill_row(bank, row, True)
        fd.frac(bank, row, n_frac)
        fractions.append(float(np.mean(fd.read_row(bank, row))))
    measured = np.asarray(fractions)
    counts = np.arange(1, max_frac + 1)

    def model(params: np.ndarray) -> np.ndarray:
        q, sigma, mean_shift = params
        deviation = 0.5 * np.clip(q, 1e-3, 0.999) ** counts
        return ndtr((deviation - mean_shift) / max(sigma, 1e-4))

    def loss(params: np.ndarray) -> float:
        return float(np.sum((model(params) - measured) ** 2))

    result = optimize.minimize(
        loss, x0=np.array([0.3, offset_sigma_guess, 0.0]),
        bounds=[(0.01, 0.99), (1e-4, 0.5), (-0.2, 0.2)],
        method="L-BFGS-B")
    return float(result.x[0])


def probe_opened_rows(fd: FracDram, bank: int, r1: int, r2: int,
                      rng: np.random.Generator, *,
                      changed_threshold: float = 0.15,
                      repeats: int = 2) -> tuple[int, ...]:
    """Black-box detection of the rows ``ACT(r1)-PRE-ACT(r2)`` opens.

    R1/R2 get a shared random pattern, every other row of the sub-array an
    independent one; any implicitly opened row is overwritten by the
    charge-sharing result on a sizeable fraction of columns.  Repeats with
    fresh patterns average out marginal columns.  Returns the opened
    logical rows in (R1, R2, extras...) order — the procedure behind the
    paper's Section VI-A.1 exploration, usable even on chips with
    scrambled (unknown) logical-to-physical row maps.
    """
    rows_per_subarray = int(fd.device.geometry.rows_per_subarray)
    base = (r1 // rows_per_subarray) * rows_per_subarray
    local_rows = range(base, base + rows_per_subarray)
    changed_fraction = {row: 0.0 for row in local_rows if row not in (r1, r2)}
    for _ in range(repeats):
        shared_pattern = rng.random(fd.columns) < 0.5
        contents: dict[int, np.ndarray] = {}
        for row in local_rows:
            contents[row] = (shared_pattern if row in (r1, r2)
                             else rng.random(fd.columns) < 0.5)
            fd.write_row(bank, row, contents[row])
        fd.mc.multi_row_activate(bank, r1, r2)
        for row in changed_fraction:
            readback = fd.read_row(bank, row)
            changed_fraction[row] += float(
                np.mean(readback != contents[row])) / repeats
    extras = tuple(row for row, fraction in changed_fraction.items()
                   if fraction > changed_threshold)
    return (r1, r2, *extras)


def batched_probe_opened_rows(bfd, bank: int, r1: int, r2: int,
                              rngs, lanes, *,
                              changed_threshold: float = 0.15,
                              repeats: int = 2) -> list[tuple[int, ...]]:
    """:func:`probe_opened_rows` across the lanes of a device batch.

    ``bfd`` is a :class:`~repro.core.batched_ops.BatchedFracDram`;
    ``rngs`` holds one pattern generator per entry of ``lanes``.  Each
    repeat draws its patterns before touching the device, per generator
    in exactly the scalar order (shared pattern first, then one per
    non-R1/R2 row in row order), so a lane's result is byte-identical to
    the scalar probe on its chip.

    Every phase runs as a compiled :mod:`repro.xir` program: one
    ``WriteData`` per sub-array row stores the patterns, the
    ``ACT(R1)-PRE-ACT(R2)`` glitch runs as one multi-row activation, and
    one ``ReadRow`` per non-pair row reads them back.  Parameters are
    named by position, not by row, so every pair of a scan replays the
    same programs.
    """
    rows_per_subarray = int(bfd.device.geometry.rows_per_subarray)
    base = (r1 // rows_per_subarray) * rows_per_subarray
    local_rows = range(base, base + rows_per_subarray)
    other = [row for row in local_rows if row not in (r1, r2)]
    n = len(lanes)
    write_ops = tuple(ir.WriteData(bank, f"w{index}")
                      for index in range(len(local_rows)))
    write_rows = {f"w{index}": [row] * n
                  for index, row in enumerate(local_rows)}
    read_ops = tuple(ir.ReadRow(bank, f"r{index}")
                     for index in range(len(other)))
    read_rows = {f"r{index}": [row] * n for index, row in enumerate(other)}
    changed = np.zeros((len(other), n))
    for _ in range(repeats):
        # (1 + len(other), n, C): the shared pattern, then the other rows.
        patterns = np.stack(
            [rng.random((1 + len(other), bfd.columns)) < 0.5
             for rng in rngs], axis=1)
        contents = dict(zip(other, patterns[1:]))
        data = {f"w{index}": (patterns[0] if row in (r1, r2)
                              else contents[row])
                for index, row in enumerate(local_rows)}
        bfd.run_program(write_ops, rows=write_rows, lanes=lanes, data=data)
        bfd.mc.multi_row_activate(bank, [r1] * n, [r2] * n, lanes)
        readback = bfd.run_program(read_ops, rows=read_rows, lanes=lanes)
        changed += np.mean(np.stack(readback) != patterns[1:],
                           axis=2) / repeats
    return [
        (r1, r2, *(row for slot, row in enumerate(other)
                   if changed[slot, index] > changed_threshold))
        for index in range(n)]


def discover_multi_row_pairs(fd: FracDram, *, bank: int = 0,
                             subarray: int = 0, max_rows: int = 16,
                             seed: int = 7,
                             ) -> dict[tuple[int, int], tuple[int, ...]]:
    """Scan all row pairs of a sub-array for multi-row activations.

    Returns the pairs that open more than themselves, mapped to the full
    opened set — the empirical (R1, R2) table the paper's authors built
    by hand, recovered without knowledge of the vendor's address
    scramble.
    """
    import itertools

    rng = np.random.default_rng(seed)
    rows_per_subarray = int(fd.device.geometry.rows_per_subarray)
    base = subarray * rows_per_subarray
    scan = min(max_rows, rows_per_subarray)
    discovered: dict[tuple[int, int], tuple[int, ...]] = {}
    for r1, r2 in itertools.combinations(range(base, base + scan), 2):
        opened = probe_opened_rows(fd, bank, r1, r2, rng)
        if len(opened) > 2:
            discovered[(r1, r2)] = opened
    return discovered
