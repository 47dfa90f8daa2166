"""``BatchedSoftMC``'s wrappers: one compiled xir op each, the scalar result.

Each wrapper builds one :mod:`repro.xir` op and runs it on the fused
executor.  The result must be the scalar engine's issuing the op's
command template on each lane's chip (:class:`tests.scalar_oracle
.ScalarFleet`): the same bits, deterministic counters, trace events of
every kind, cell planes, noise-stream positions, cycle counters and
dropped commands.  The scenario runs on a fleet that mixes
spacing-enforcing group J with groups B, C and G, so every lane class
is on the path; an op the compiler refuses raises before any lane runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.controller.batched import BatchedSoftMC
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams, TimingParams
from repro.errors import AddressError
from repro.service import ServiceConfig, build_enrollment
from repro.telemetry import events_by_kind, session as telemetry_session
from repro.xir import ir
from repro.xir.compile import XirLoweringError
from repro.xir.executor import FusedRunner

from ..scalar_oracle import ScalarFleet

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)
RPS = GEOMETRY.rows_per_subarray
UNITS = [("B", 0), ("C", 1), ("J", 0), ("G", 2)]
EPOCHS = [0, 1, 2, 0]
SEED = 11
LANES = [0, 1, 2, 3]
FRAC_CAPABLE = [0, 1, 3]
BITS = np.random.default_rng(5).random((len(LANES), GEOMETRY.columns)) < 0.5
#: Per-lane multi-row pairs: B's four-row (8, 1), C's (1, 2), and pairs
#: that open two rows on J (which drops the glitch) and G.
R1S, R2S = [8, 1, 1, 3], [1, 2, 2, 5]

#: One wrapper call per step, with the xir op it builds, that op's
#: bindings and its lanes.
STEPS = [
    (("fill_row", 0, [1, 2, 3, 4], True),
     ir.WriteRow(0, "row", True), {"row": [1, 2, 3, 4]}, None, LANES),
    (("write_row", 1, [5, 6, 7, 8], BITS),
     ir.WriteData(1, "row"), {"row": [5, 6, 7, 8]}, {"row": BITS}, LANES),
    # A (C,) payload broadcasts to every lane.
    (("write_row", 1, [RPS + 2] * 2, BITS[0]),
     ir.WriteData(1, "row"), {"row": [RPS + 2] * 2}, {"row": BITS[0]},
     [1, 3]),
    (("row_copy", 0, [1, 2, 3, 4], [9, 10, 11, 12]),
     ir.RowCopy(0, "src", "dst"), {"src": [1, 2, 3, 4],
                                   "dst": [9, 10, 11, 12]}, None, LANES),
    (("frac", 0, [1, 2, 4], 4),
     ir.Frac(0, "row", 4), {"row": [1, 2, 4]}, None, FRAC_CAPABLE),
    (("read_row", 0, [1, 2, 4]),
     ir.ReadRow(0, "row"), {"row": [1, 2, 4]}, None, FRAC_CAPABLE),
    (("multi_row_activate", 0, R1S, R2S),
     ir.MultiRow(0, "r1", "r2"), {"r1": R1S, "r2": R2S}, None, LANES),
    (("read_row", 0, [0, 0, 1, 1]),
     ir.ReadRow(0, "row"), {"row": [0, 0, 1, 1]}, None, LANES),
    (("half_m", 1, R1S, R2S),
     ir.HalfM(1, "r1", "r2"), {"r1": R1S, "r2": R2S}, None, LANES),
    (("refresh_row", 1, [5, 6, 7, 8]),
     ir.RefreshRow(1, "row"), {"row": [5, 6, 7, 8]}, None, LANES),
    (("read_row", 1, [5, 6, 7, 8]),
     ir.ReadRow(1, "row"), {"row": [5, 6, 7, 8]}, None, LANES),
    (("precharge_all",),
     ir.PrechargeAll(), {}, None, LANES),
    (("read_row", 1, [RPS + 2] * 2),
     ir.ReadRow(1, "row"), {"row": [RPS + 2] * 2}, None, [1, 3]),
]

#: The wrappers the scenario must exercise.
WRAPPERS = ("write_row", "fill_row", "read_row", "refresh_row", "frac",
            "row_copy", "multi_row_activate", "half_m", "precharge_all")


def make_mc(timing=None):
    return BatchedSoftMC(BatchedChip.from_fleet(
        UNITS, geometry=GEOMETRY, master_seed=SEED, epochs=EPOCHS),
        timing=timing)


def make_oracle(timing=None):
    return ScalarFleet(UNITS, geometry=GEOMETRY, master_seed=SEED,
                       epochs=EPOCHS, timing=timing)


def stream_states(device):
    return [[[noise.rng.bit_generator.state for noise in cell._noises]
             for cell in bank_cells]
            for bank_cells in device.cells]


def traced(tmp_path, name, drive):
    """Run ``drive()`` under a traced session."""
    path = tmp_path / f"{name}.jsonl"
    with telemetry_session(trace_path=path) as telemetry:
        outputs = drive()
        counters = telemetry.snapshot(deterministic=True)["counters"]
    return outputs, counters, events_by_kind(path)


def via_wrappers(mc):
    return [getattr(mc, name)(*args, lanes)
            for (name, *args), *_, lanes in STEPS]


def via_scalar(oracle):
    return [oracle.run([op], rows=rows, lanes=lanes, data=data)
            for _call, op, rows, data, lanes in STEPS]


def test_scenario_covers_every_wrapper():
    assert {call[0] for call, *_ in STEPS} == set(WRAPPERS)


def test_wrappers_equal_the_scalar_engine(tmp_path, monkeypatch):
    programs: list[tuple[str, ...]] = []
    run = FusedRunner.run

    def spy(self, ops, **kwargs):
        programs.append(tuple(type(op).__name__ for op in ops))
        return run(self, ops, **kwargs)

    oracle = make_oracle()
    reference, reference_counters, reference_events = traced(
        tmp_path, "scalar", lambda: via_scalar(oracle))
    monkeypatch.setattr(FusedRunner, "run", spy)
    mc = make_mc()
    outputs, counters, events = traced(tmp_path, "wrappers",
                                       lambda: via_wrappers(mc))

    # One compiled one-op program per wrapper call.
    assert programs == [(type(step[1]).__name__,) for step in STEPS]
    for (call, *_), out, expected in zip(STEPS, outputs, reference):
        if call[0] == "read_row":
            (expected,) = expected
            assert out.dtype == bool
            assert np.array_equal(out, expected), call
        else:
            assert out is None and expected == []
    assert counters == reference_counters
    assert counters["dram.dropped_commands"] > 0
    assert counters["dram.partial_amplify"] > 0
    assert counters["dram.glitch_abort"] > 0
    assert set(events) == set(reference_events)
    for kind in reference_events:
        assert events[kind] == reference_events[kind], kind
    oracle.assert_matches(mc.device, mc.cycles)


def test_untraced_wrappers_equal_the_scalar_engine():
    """Telemetry off: the compacted fast stream, same bits and state."""
    mc, oracle = make_mc(), make_oracle()
    for (name, *args), op, rows, data, lanes in STEPS:
        out = getattr(mc, name)(*args, lanes)
        expected = oracle.run([op], rows=rows, lanes=lanes, data=data)
        if name == "read_row":
            assert np.array_equal(out, expected[0])
    oracle.assert_matches(mc.device, mc.cycles)


@pytest.mark.parametrize("call", [
    # The decoder glitch cannot reach another sub-array: refused at bind.
    ("row_copy", 0, [1, 2, 3, 4], [RPS + 1, RPS + 3, RPS + 5, RPS + 7]),
    # J drops the Frac PRECHARGEs, which would leave its row open.
    ("frac", 0, [9, 10, 11, 12], 3),
])
def test_a_refused_op_raises_before_any_lane_runs(call):
    mc, fresh = make_mc(), make_mc()
    name, *args = call
    with pytest.raises(XirLoweringError, match="--backend scalar"):
        getattr(mc, name)(*args, LANES)
    assert stream_states(mc.device) == stream_states(fresh.device)
    assert not mc.cycles.any()
    assert mc.device.dropped_commands == fresh.device.dropped_commands
    for bank_cells in mc.device.cells:
        for cell in bank_cells:
            assert not cell._written.any()


def test_an_unsettled_spacing_history_is_refused():
    """A precharge shorter than the command spacing leaves J's last
    command young enough to drop the next op's first one, which the
    compiled prediction cannot know: the op is refused, untouched."""
    timing = TimingParams(t_rp=2)
    mc, oracle = make_mc(timing), make_oracle(timing)
    mc.fill_row(0, [1, 2, 3, 4], True, LANES)
    oracle.run([ir.WriteRow(0, "row", True)], rows={"row": [1, 2, 3, 4]},
               lanes=LANES)
    with pytest.raises(XirLoweringError, match="--backend scalar"):
        mc.precharge_all(LANES)
    oracle.assert_matches(mc.device, mc.cycles)


def test_bad_bank_raises_the_per_command_error():
    mc = make_mc()
    for bank in (-1, GEOMETRY.n_banks):
        with pytest.raises(AddressError, match=f"bank {bank} out of range"):
            mc.fill_row(bank, [1] * 4, True, LANES)


def test_a_bind_error_leaves_every_lane_class_untouched():
    """Every class binds before any runs: a bad row on the J class
    raises before the B/C/G class has stored anything."""
    mc, fresh = make_mc(), make_mc()
    with pytest.raises(AddressError, match="out of range"):
        FusedRunner(mc).run((ir.WriteRow(0, "row", True),),
                            rows={"row": [1, 2, GEOMETRY.rows_per_bank, 4]})
    assert stream_states(mc.device) == stream_states(fresh.device)
    assert not mc.cycles.any()
    for bank_cells in mc.device.cells:
        for cell in bank_cells:
            assert not cell._written.any()


def test_build_enrollment_runs_xir_programs(monkeypatch):
    runs: list[tuple[str, ...]] = []
    original = FusedRunner.run

    def spy(self, ops, **kwargs):
        runs.append(tuple(type(op).__name__ for op in ops))
        return original(self, ops, **kwargs)

    monkeypatch.setattr(FusedRunner, "run", spy)
    build_enrollment(ServiceConfig(columns=32, n_challenges=2,
                                   enroll_batch=4), 6)
    assert {"WriteRow", "RowCopy", "Frac", "ReadRow"} <= {
        name for ops in runs for name in ops}
