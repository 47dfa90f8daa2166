"""Compiled-plan cache and batched-controller telemetry contracts.

The JEDEC checker's observations are a pure function of (timing, cycle
offsets, command kinds, banks) — never of rows or data — so one compiled
plan serves every trial and every lane of a batch.  These tests pin:

* compiled plans match a fresh checker run, command by command;
* the plan key ignores rows (sequences differing only in target row
  share one cached plan) but not banks;
* the LRU cache actually hits across repeated shapes;
* the batched controller reports exactly the telemetry counters of a
  loop of scalar controllers — ``jedec.*`` included — with violation
  increments multiplied by the lane count instead of recomputed per
  lane.
"""

import numpy as np

from repro.controller import sequences as seq
from repro.controller.batched import BatchedSoftMC
from repro.controller.plan import (
    clear_plan_cache,
    compile_plan,
    plan_cache_info,
    plan_for,
    plan_key,
)
from repro.controller.softmc import JedecChecker, SoftMC
from repro.dram.batched import BatchedChip
from repro.dram.chip import DramChip
from repro.dram.parameters import GeometryParams, TimingParams
from repro.telemetry import Telemetry, activate, deactivate

GEOMETRY = GeometryParams(n_banks=1, subarrays_per_bank=1,
                          rows_per_subarray=16, columns=32)
TIMING = TimingParams()
N_LANES = 3


def make_chips(count: int) -> list[DramChip]:
    return [DramChip("B", geometry=GEOMETRY, master_seed=77, serial=serial)
            for serial in range(count)]


class TestCompiledPlan:
    def test_matches_fresh_checker(self):
        sequence = seq.frac_sequence(0, 1, 2)
        plan = compile_plan(TIMING, sequence)
        checker = JedecChecker(TIMING)
        expected = [checker.observe(timed.cycle, timed.command)
                    for timed in sequence]
        assert list(plan.violations) == expected
        assert plan.n_commands == len(sequence)
        assert plan.total_violations == sum(len(v) for v in expected)
        # Frac is deliberately out-of-spec: the plan must say so.
        assert plan.has_violations

    def test_in_spec_sequence_is_clean(self):
        plan = compile_plan(TIMING, seq.read_row_sequence(0, 1))
        assert not plan.has_violations

    def test_key_ignores_rows_but_not_shape(self):
        base = plan_key(TIMING, seq.frac_sequence(0, 1, 2))
        assert base == plan_key(TIMING, seq.frac_sequence(0, 5, 2))
        assert base != plan_key(TIMING, seq.frac_sequence(0, 1, 3))
        assert base != plan_key(TIMING, seq.read_row_sequence(0, 1))

    def test_cache_hits_across_row_variants(self):
        clear_plan_cache()
        first = plan_for(TIMING, seq.frac_sequence(0, 1, 2))
        again = plan_for(TIMING, seq.frac_sequence(0, 9, 2))
        assert again is first  # row variants share one compiled plan
        info = plan_cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1
        clear_plan_cache()
        assert plan_cache_info() == {"size": 0, "capacity": info["capacity"],
                                     "hits": 0, "misses": 0}


def _scalar_session() -> tuple[dict, list[np.ndarray]]:
    telemetry = activate(Telemetry())
    try:
        reads = []
        for chip in make_chips(N_LANES):
            controller = SoftMC(chip)
            controller.run(seq.frac_sequence(0, 1, 2))
            (data,) = controller.run(seq.read_row_sequence(0, 1))
            reads.append(data)
    finally:
        deactivate()
    return telemetry.snapshot(deterministic=True), reads


def _batched_session() -> tuple[dict, np.ndarray]:
    telemetry = activate(Telemetry())
    try:
        controller = BatchedSoftMC(BatchedChip.from_chips(make_chips(N_LANES)))
        lanes = controller.all_lanes()
        controller.frac(0, [1] * N_LANES, 2, lanes)
        data = controller.read_row(0, [1] * N_LANES, lanes)
    finally:
        deactivate()
    return telemetry.snapshot(deterministic=True), data


class TestBatchedControllerTelemetry:
    def test_counters_match_scalar_loop(self):
        scalar_snapshot, scalar_reads = _scalar_session()
        batched_snapshot, batched_reads = _batched_session()
        assert batched_snapshot == scalar_snapshot
        # The out-of-spec Frac stream must actually be flagged, so the
        # equality above proves the jedec.* accounting, not its absence.
        assert scalar_snapshot["counters"]["controller.jedec_violations"] > 0
        for lane, scalar_data in enumerate(scalar_reads):
            assert np.array_equal(scalar_data, batched_reads[lane])

    def test_violations_scale_with_lane_count(self):
        telemetry = activate(Telemetry())
        try:
            controller = SoftMC(make_chips(1)[0])
            controller.run(seq.frac_sequence(0, 1, 2))
        finally:
            deactivate()
        single = telemetry.snapshot(deterministic=True)["counters"]
        batched_snapshot, _ = _batched_session()
        batched = batched_snapshot["counters"]
        assert batched["controller.jedec_violations"] == (
            N_LANES * single["controller.jedec_violations"])
        for name, value in single.items():
            if name.startswith("controller.jedec."):
                assert batched[name] == N_LANES * value
