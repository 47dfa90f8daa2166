"""``BatchedSoftMC``'s in-spec wrappers: compiled xir ops, per-command fallback.

Each wrapper builds one :mod:`repro.xir` op and runs it on the fused
executor; it replays the op per command (:meth:`BatchedSoftMC.replay`)
only when the compiler refuses it before any lane runs or the device
has an open row on one of its lanes.  Either way the result must be the
per-command walk's: the same bits, deterministic counters, trace events
of every kind, noise-stream positions, cycle counters and dropped
commands.  The scenario runs on a fleet that mixes spacing-enforcing
group J with groups B, C and G, so every lane class is on the path.
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
from repro.xir.executor import FusedRunner

GEOMETRY = GeometryParams(n_banks=2, subarrays_per_bank=2,
                          rows_per_subarray=16, columns=32)
RPS = GEOMETRY.rows_per_subarray
UNITS = [("B", 0), ("C", 1), ("J", 0), ("G", 2)]
EPOCHS = [0, 1, 2, 0]
LANES = [0, 1, 2, 3]
J_LANE = [2]
FRAC_CAPABLE = [0, 1, 3]
BITS = np.random.default_rng(5).random((len(LANES), GEOMETRY.columns)) < 0.5

#: One wrapper call per step, with the xir op it builds, that op's
#: bindings, its lanes, and the path the wrapper must take.
STEPS = [
    (("fill_row", 0, [1, 2, 3, 4], True),
     ir.WriteRow(0, "row", True), {"row": [1, 2, 3, 4]}, None, LANES, "xir"),
    (("write_row", 1, [5, 6, 7, 8], BITS),
     ir.WriteData(1, "row"), {"row": [5, 6, 7, 8]}, {"row": BITS}, LANES,
     "xir"),
    # A (C,) payload broadcasts to every lane.
    (("write_row", 1, [RPS + 2] * 2, BITS[0]),
     ir.WriteData(1, "row"), {"row": [RPS + 2] * 2}, {"row": BITS[0]},
     [1, 3], "xir"),
    (("row_copy", 0, [1, 2, 3, 4], [9, 10, 11, 12]),
     ir.RowCopy(0, "src", "dst"), {"src": [1, 2, 3, 4],
                                   "dst": [9, 10, 11, 12]}, None, LANES,
     "xir"),
    # The decoder glitch cannot reach another sub-array: refused at bind.
    (("row_copy", 0, [1, 2, 3, 4], [RPS + 1, RPS + 3, RPS + 5, RPS + 7]),
     ir.RowCopy(0, "src", "dst"),
     {"src": [1, 2, 3, 4], "dst": [RPS + 1, RPS + 3, RPS + 5, RPS + 7]},
     None, LANES, "replay"),
    # J drops the PRECHARGEs: refused, and J's row stays open ...
    (("frac", 0, [9, 10, 11, 12], 3),
     ir.Frac(0, "row", 3), {"row": [9, 10, 11, 12]}, None, LANES, "replay"),
    # ... so the next call finds the device busy and replays too.
    (("read_row", 0, [9, 10, 11, 12]),
     ir.ReadRow(0, "row"), {"row": [9, 10, 11, 12]}, None, LANES, "replay"),
    (("frac", 1, [5], 2),
     ir.Frac(1, "row", 2), {"row": [5]}, None, J_LANE, "replay"),
    (("precharge_all",),
     ir.PrechargeAll(), {}, None, LANES, "replay"),
    (("precharge_all",),
     ir.PrechargeAll(), {}, None, LANES, "xir"),
    (("read_row", 1, [5, 6, 7, 8]),
     ir.ReadRow(1, "row"), {"row": [5, 6, 7, 8]}, None, LANES, "xir"),
    (("frac", 0, [1, 2, 4], 4),
     ir.Frac(0, "row", 4), {"row": [1, 2, 4]}, None, FRAC_CAPABLE, "xir"),
    (("read_row", 0, [1, 2, 4]),
     ir.ReadRow(0, "row"), {"row": [1, 2, 4]}, None, FRAC_CAPABLE, "xir"),
    (("read_row", 1, [RPS + 2] * 2),
     ir.ReadRow(1, "row"), {"row": [RPS + 2] * 2}, None, [1, 3], "xir"),
]

#: The wrappers the scenario must exercise.
WRAPPERS = ("write_row", "fill_row", "read_row", "frac", "row_copy",
            "precharge_all")


def make_mc():
    return BatchedSoftMC(BatchedChip.from_fleet(
        UNITS, geometry=GEOMETRY, master_seed=11, epochs=EPOCHS))


def stream_states(device):
    return [[[noise.rng.bit_generator.state for noise in cell._noises]
             for cell in bank_cells]
            for bank_cells in device.cells]


def record_paths(monkeypatch) -> list[str]:
    """Log ``"xir"`` per program the executor completes and ``"replay"``
    per per-command replay."""
    paths: list[str] = []
    run, replay = FusedRunner.run, BatchedSoftMC.replay

    def spy_run(self, ops, **kwargs):
        out = run(self, ops, **kwargs)
        paths.append("xir")
        return out

    def spy_replay(self, op, **kwargs):
        paths.append("replay")
        return replay(self, op, **kwargs)

    monkeypatch.setattr(FusedRunner, "run", spy_run)
    monkeypatch.setattr(BatchedSoftMC, "replay", spy_replay)
    return paths


def traced(tmp_path, name, drive):
    """Run ``drive(mc)`` on a fresh fleet under a traced session."""
    mc = make_mc()
    path = tmp_path / f"{name}.jsonl"
    with telemetry_session(trace_path=path) as telemetry:
        outputs = drive(mc)
        counters = telemetry.snapshot(deterministic=True)["counters"]
    return mc, outputs, counters, events_by_kind(path)


def test_scenario_covers_every_wrapper_and_both_paths():
    assert {call[0] for call, *_ in STEPS} == set(WRAPPERS)
    assert {step[-1] for step in STEPS} == {"xir", "replay"}


def test_wrappers_equal_the_per_command_replay(tmp_path, monkeypatch):
    def via_wrappers(mc):
        outputs, idle = [], []
        for (name, *args), *_, lanes, _path in STEPS:
            idle.append(mc.device.lanes_idle(lanes))
            outputs.append(getattr(mc, name)(*args, lanes))
        return outputs, idle

    def via_replay(mc):
        return [mc.replay(op, rows=rows, lanes=lanes, data=data)
                for _call, op, rows, data, lanes, _path in STEPS]

    oracle, reference, reference_counters, reference_events = traced(
        tmp_path, "replay", via_replay)
    paths = record_paths(monkeypatch)
    mc, (outputs, idle), counters, events = traced(
        tmp_path, "wrappers", via_wrappers)

    assert paths == [step[-1] for step in STEPS]
    # Only the read after J's open Frac and the precharge that closes
    # it fall back for a busy device; the other replays are refusals.
    assert [index for index, ok in enumerate(idle) if not ok] == [6, 8]
    for (call, *_), out, expected in zip(STEPS, outputs, reference):
        if call[0] == "read_row":
            (expected,) = expected
            assert out.dtype == bool
            assert np.array_equal(out, expected), call
        else:
            assert out is None and expected == []
    assert counters == reference_counters
    assert counters["dram.dropped_commands"] > 0
    assert set(events) == set(reference_events)
    for kind in reference_events:
        assert events[kind] == reference_events[kind], kind
    assert stream_states(mc.device) == stream_states(oracle.device)
    assert np.array_equal(mc.cycles, oracle.cycles)
    assert np.array_equal(mc.device.dropped_commands,
                          oracle.device.dropped_commands)


def test_untraced_wrappers_equal_the_replay():
    """Telemetry off: the compacted fast stream, same bits and streams."""
    mc, oracle = make_mc(), make_mc()
    for (name, *args), op, rows, data, lanes, _path in STEPS:
        out = getattr(mc, name)(*args, lanes)
        expected = oracle.replay(op, rows=rows, lanes=lanes, data=data)
        if name == "read_row":
            assert np.array_equal(out, expected[0])
    assert stream_states(mc.device) == stream_states(oracle.device)
    assert np.array_equal(mc.cycles, oracle.cycles)


def test_an_unsettled_spacing_history_replays(monkeypatch):
    """A precharge shorter than the command spacing leaves J's last
    command young enough to drop the next op's first one, which the
    compiled prediction cannot know: the wrapper replays instead."""
    timing = TimingParams(t_rp=2)
    mc, oracle = (BatchedSoftMC(BatchedChip.from_fleet(
        UNITS, geometry=GEOMETRY, master_seed=11, epochs=EPOCHS),
        timing=timing) for _ in range(2))
    paths = record_paths(monkeypatch)
    mc.fill_row(0, [1, 2, 3, 4], True, LANES)
    mc.precharge_all(LANES)
    assert paths == ["xir", "replay"]
    oracle.replay(ir.WriteRow(0, "row", True), rows={"row": [1, 2, 3, 4]},
                  lanes=LANES)
    oracle.replay(ir.PrechargeAll(), rows={}, lanes=LANES)
    assert stream_states(mc.device) == stream_states(oracle.device)
    assert np.array_equal(mc.device.dropped_commands,
                          oracle.device.dropped_commands)
    assert mc.device.dropped_commands[2] > 0


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
