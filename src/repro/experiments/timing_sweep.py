"""Experiment TS: timing-window exploration (methodology of Sections II/III).

ComputeDRAM and FracDRAM were discovered by sweeping inter-command gaps
outside the JEDEC minima and watching what the chip does.  This experiment
reproduces that exploration on the simulator, mapping the behavioural
windows that the primitives rely on:

* **ACT -> PRE gap** (interrupting an activation): a 1-cycle gap freezes
  the pure charge-shared level (Frac); gaps of 2-3 cycles catch the sense
  amps mid-flight (partial amplification — the Half-m regime); gaps at or
  past the sense-enable delay restore the cell fully (normal operation).

* **PRE -> ACT gap** (interrupting a precharge): gaps inside the abort
  window leave the previous row open and glitch extra rows (multi-row
  activation); at or past the window the close completes and exactly one
  row opens.

The output is the kind of table the authors assembled by hand for real
chips — here regenerated automatically, with the window edges asserted to
match the primitives' sequence builders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..controller.commands import (
    Activate,
    CommandSequence,
    Precharge,
    TimedCommand,
)
from ..core.ops import FracDram
from ..dram.subarray import CLOSE_ABORT_WINDOW
from ..errors import ConfigurationError
from .base import DEFAULT_CONFIG, ExperimentConfig, make_fd, markdown_table

__all__ = ["ActPreOutcome", "PreActOutcome", "TimingSweepResult", "run",
           "shard_units", "run_shard", "merge"]

PAPER_EXPECTATION = (
    "Back-to-back ACT-PRE stores fractional values; slightly later PRE "
    "partially amplifies; in-spec PRE restores fully.  PRE-ACT inside the "
    "abort window opens multiple rows; outside it opens exactly one.")


@dataclass(frozen=True)
class ActPreOutcome:
    """What an ACT followed by PRE after ``gap`` cycles does to a row of
    ones."""

    gap: int
    mean_voltage: float
    regime: str  # "fractional" / "partial-amplify" / "restored"


@dataclass(frozen=True)
class PreActOutcome:
    """How many rows ACT(R1) @0, PRE @1, ACT(R2) @(1+gap) leaves open."""

    gap: int
    rows_open: int
    glitched: bool


@dataclass(frozen=True)
class TimingSweepResult:
    act_pre: tuple[ActPreOutcome, ...]
    pre_act: tuple[PreActOutcome, ...]

    def format_table(self) -> str:
        lines = ["Timing-window exploration (group B)"]
        lines.append("\nACT -> PRE gap sweep (row initialized to all ones):")
        lines.append(markdown_table(
            ("gap (cycles)", "mean cell voltage (Vdd)", "regime"),
            [(o.gap, f"{o.mean_voltage:.3f}", o.regime) for o in self.act_pre]))
        lines.append("\nPRE -> ACT gap sweep (ACT R1, PRE, ACT R2):")
        lines.append(markdown_table(
            ("gap (cycles)", "rows open", "multi-row glitch"),
            [(o.gap, o.rows_open, "yes" if o.glitched else "")
             for o in self.pre_act]))
        return "\n".join(lines)

    def frac_window(self) -> tuple[int, ...]:
        return tuple(o.gap for o in self.act_pre if o.regime == "fractional")

    def glitch_window(self) -> tuple[int, ...]:
        return tuple(o.gap for o in self.pre_act if o.glitched)

    def windows_match_model(self) -> bool:
        """The measured windows must equal the constants the sequence
        builders assume (1-cycle Frac interrupt; glitch inside the abort
        window)."""
        expected_glitch = tuple(range(1, CLOSE_ABORT_WINDOW))
        return (self.frac_window() == (1,)
                and self.glitch_window() == expected_glitch)


def _classify(mean_voltage: float) -> str:
    if mean_voltage > 0.98:
        return "restored"
    if mean_voltage > 0.70:
        return "partial-amplify"
    return "fractional"


def _sweep_act_pre(fd: FracDram, bank: int, row: int,
                   gaps: range) -> tuple[ActPreOutcome, ...]:
    outcomes = []
    subarray = fd.device.subarray_of(bank, row)
    local_row = row % fd.device.geometry.rows_per_subarray
    for gap in gaps:
        fd.fill_row(bank, row, True)
        sequence = CommandSequence((
            TimedCommand(0, Activate(bank, row)),
            TimedCommand(gap, Precharge(bank)),
        ), gap + 6, label=f"act-pre gap {gap}")
        fd.mc.run(sequence)
        mean_voltage = float(np.mean(subarray.cell_v[local_row]))
        outcomes.append(ActPreOutcome(gap, mean_voltage,
                                      _classify(mean_voltage)))
    return tuple(outcomes)


def _sweep_pre_act(fd: FracDram, bank: int,
                   gaps: range) -> tuple[PreActOutcome, ...]:
    outcomes = []
    r1, r2 = 1, 2  # the triple combination on group B
    for gap in gaps:
        fd.precharge_all()
        sequence = CommandSequence((
            TimedCommand(0, Activate(bank, r1)),
            TimedCommand(1, Precharge(bank)),
            TimedCommand(1 + gap, Activate(bank, r2)),
        ), 1 + gap + 2, label=f"pre-act gap {gap}")
        fd.mc.run(sequence)
        open_rows = fd.device.bank(bank).open_rows()
        # Past the abort window the close commits and only R2 opens; a
        # count above one means the interrupted close kept R1 (and the
        # decoder glitch possibly added more).
        outcomes.append(PreActOutcome(gap, len(open_rows),
                                      len(open_rows) > 1))
        fd.precharge_all()
        fd.mc.idle(10)
    return tuple(outcomes)


# ----------------------------------------------------------------------
# Fleet shard protocol (see docs/fleet.md).  The work unit is one
# gap sweep; each unit fabricates its own group-B chip so a unit's
# outcomes never depend on which other sweeps ran before it.
# ----------------------------------------------------------------------

SWEEPS: tuple[str, ...] = ("act-pre", "pre-act")


def shard_units(config: ExperimentConfig = DEFAULT_CONFIG,
                **_kwargs) -> tuple[str, ...]:
    """One work unit per gap sweep."""
    return SWEEPS


def run_shard(config: ExperimentConfig, units, group_id: str = "B",
              **_kwargs) -> list:
    """Run each sweep in ``units`` on a fresh chip; payloads are
    ``(sweep_name, outcomes)``."""
    payloads = []
    for unit in units:
        fd = make_fd(group_id, config, serial=0)
        if unit == "act-pre":
            outcomes = _sweep_act_pre(fd, bank=0, row=1, gaps=range(1, 8))
        elif unit == "pre-act":
            outcomes = _sweep_pre_act(fd, bank=0, gaps=range(1, 6))
        else:
            raise ConfigurationError(f"unknown timing-sweep unit {unit!r}")
        payloads.append((unit, outcomes))
    return payloads


def merge(config: ExperimentConfig, payloads, **_kwargs) -> TimingSweepResult:
    by_sweep = dict(payloads)
    return TimingSweepResult(by_sweep["act-pre"], by_sweep["pre-act"])


def run(config: ExperimentConfig = DEFAULT_CONFIG,
        group_id: str = "B") -> TimingSweepResult:
    units = shard_units(config)
    return merge(config, run_shard(config, units, group_id=group_id))
