"""End-to-end telemetry contracts on real experiments.

* serial and N-worker fleet runs report identical deterministic counter
  snapshots (the fleet merge contract),
* scalar and fused (trial-batched) runs report identical deterministic
  counter snapshots (the lane contract: compiled-plan violation
  accounting multiplies by lane count instead of re-observing per lane),
* a traced fig6 run replays exactly: per-command trace events agree with
  the counters, frac op accounting matches the ACT/PRE pair count, and
  the whole trace passes repro-trace/1 validation,
* scalar and fused traces carry the same events of each kind,
* two serial traced runs of the same seed are byte-identical.
"""

from collections import Counter

import pytest

from repro.controller.batched import BatchedSoftMC
from repro.controller.softmc import SoftMC
from repro.dram.batched import BatchedChip
from repro.dram.chip import DramChip
from repro.dram.parameters import GeometryParams
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.telemetry import (
    Telemetry,
    activate,
    deactivate,
    events_by_kind,
    read_trace,
    session,
    validate_trace,
)

CONFIG = ExperimentConfig(columns=128, rows_per_subarray=16,
                          subarrays_per_bank=2, n_banks=2, chips_per_group=1)


def snapshot_of_run(name: str, workers: int,
                    config: ExperimentConfig = CONFIG) -> dict:
    telemetry = activate(Telemetry())
    try:
        run_experiment(name, config, workers=workers)
    finally:
        deactivate()
    return telemetry.snapshot(deterministic=True)


class TestSerialParallelEquivalence:
    def test_fig6_serial_snapshot_is_nonempty(self):
        snapshot = snapshot_of_run("fig6", workers=0)
        assert snapshot["counters"]["controller.frac_ops"] > 0
        assert snapshot["counters"]["experiment.runs"] == 1

    @pytest.mark.fleet
    def test_fig6_serial_vs_two_workers(self):
        serial = snapshot_of_run("fig6", workers=0)
        parallel = snapshot_of_run("fig6", workers=2)
        assert parallel == serial

    @pytest.mark.fleet
    def test_execution_shape_lands_in_notes_not_counters(self):
        telemetry = activate(Telemetry())
        try:
            run_experiment("fig6", CONFIG, workers=2)
        finally:
            deactivate()
        assert telemetry.notes["fleet.fig6.workers"] == 2
        assert telemetry.notes["fleet.fig6.units"] > 0
        assert not any(name.startswith("fleet.")
                       for name in telemetry.counters)
        assert telemetry.histograms["fleet.shard_wall_s"].count > 0


class TestBatchedScalarEquivalence:
    """The batched engine must be telemetry-invisible: same counters."""

    def test_fig6_batched_counters_match_scalar(self):
        scalar = snapshot_of_run("fig6", workers=0,
                                 config=CONFIG.scaled(backend="scalar"))
        batched = snapshot_of_run("fig6", workers=0,
                                  config=CONFIG.scaled(backend="fused"))
        assert batched == scalar
        assert scalar["counters"]["controller.jedec_violations"] > 0

    def test_nist_batched_counters_match_scalar(self):
        """nist's 64 challenges run as four 16-lane cohorts."""
        scalar = snapshot_of_run("nist", workers=0,
                                 config=CONFIG.scaled(backend="scalar"))
        batched = snapshot_of_run("nist", workers=0,
                                  config=CONFIG.scaled(backend="fused"))
        assert batched == scalar


class TestFig6TraceReplay:
    """Acceptance: the fig6 trace replays exact command counts."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "fig6.jsonl"
        with session(trace_path=path) as telemetry:
            run_experiment("fig6", CONFIG)
            counters = {name: counter.value
                        for name, counter in telemetry.counters.items()}
        return read_trace(path), counters

    def test_trace_passes_schema_validation(self, traced_run):
        events, _ = traced_run
        by_kind = validate_trace(events)
        assert by_kind["command"] > 0
        assert by_kind["sequence"] > 0

    def test_command_events_replay_counters(self, traced_run):
        events, counters = traced_run
        commands = [event for event in events if event["kind"] == "command"]
        assert len(commands) == counters["controller.commands"]
        for kind in ("ACT", "PRE"):
            issued = sum(1 for event in commands if event["cmd"] == kind)
            assert issued == counters[f"controller.{kind.lower()}"]

    def test_frac_ops_match_act_pre_pairs(self, traced_run):
        events, counters = traced_run
        frac_commands = 0
        for event in events:
            if event["kind"] == "sequence" and event["op"] == "frac":
                frac_commands += event["n_commands"]
        # One Frac = one ACT/PRE pair (Section III-A).
        assert frac_commands // 2 == counters["controller.frac_ops"]

    def test_violations_in_trace_replay_counter(self, traced_run):
        events, counters = traced_run
        flagged = sum(len(event["violations"]) for event in events
                      if event["kind"] == "command")
        assert flagged == counters.get("controller.jedec_violations", 0)

    def test_sequence_command_budget(self, traced_run):
        events, counters = traced_run
        declared = sum(event["n_commands"] for event in events
                       if event["kind"] == "sequence")
        assert declared == counters["controller.commands"]


#: Event kinds the dram layer records (one per lane per physical event).
PHYSICS_KINDS = ("sense", "frac_freeze", "glitch", "partial_amplify", "drop",
                 "leak")


class TestTraceEventEquivalence:
    """The lane engine traces every event the scalar engine traces.

    Event order differs (lanes advance in lock-step), so each kind is
    compared as a multiset.  fig9, fig10 and nist compare the physics
    kinds only: their lanes are ``BatchedChip.from_subarray_views``
    views, which trace view-local bank/row addresses in
    ``sequence``/``command`` events and keep their own cycle counters.
    """

    @pytest.mark.parametrize("name, kinds", [
        ("fig6", PHYSICS_KINDS + ("sequence", "command")),
        ("fig8", PHYSICS_KINDS + ("sequence", "command")),
        ("fig11", PHYSICS_KINDS + ("sequence", "command")),
        ("nist", PHYSICS_KINDS),
        ("fig7", PHYSICS_KINDS + ("sequence", "command")),
        ("fig12", PHYSICS_KINDS + ("sequence", "command")),
        ("fig9", PHYSICS_KINDS),
        ("fig10", PHYSICS_KINDS),
    ])
    def test_events_match_scalar(self, tmp_path, name, kinds):
        traced = {}
        for backend in ("scalar", "fused"):
            path = tmp_path / f"{backend}.jsonl"
            with session(trace_path=path):
                run_experiment(name, CONFIG.scaled(backend=backend))
            traced[backend] = events_by_kind(path)
        assert any(traced["scalar"].get(kind) for kind in kinds)
        for kind in kinds:
            assert (traced["fused"].get(kind, Counter())
                    == traced["scalar"].get(kind, Counter())), kind

    def test_per_command_lanes_label_their_own_rows(self, tmp_path):
        """Lanes with distinct rows trace the labels scalar chips trace."""
        geometry = GeometryParams(n_banks=2, subarrays_per_bank=2,
                                  rows_per_subarray=16, columns=64)
        specs = [("B", 0), ("B", 1)]
        fill, frac, src, dst = [1, 5], [2, 7], [3, 8], [4, 10]
        traced = {}
        path = tmp_path / "scalar.jsonl"
        with session(trace_path=path):
            for lane, (group, serial) in enumerate(specs):
                mc = SoftMC(DramChip(group, geometry=geometry, serial=serial,
                                     master_seed=7))
                mc.fill_row(0, fill[lane], True)
                mc.frac(0, frac[lane], 3)
                mc.row_copy(0, src[lane], dst[lane])
                mc.multi_row_activate(0, src[lane], dst[lane])
        traced["scalar"] = events_by_kind(path)
        path = tmp_path / "lanes.jsonl"
        with session(trace_path=path):
            mc = BatchedSoftMC(BatchedChip.from_fleet(
                specs, geometry=geometry, master_seed=7))
            mc.fill_row(0, fill, True, [0, 1])
            mc.frac(0, frac, 3, [0, 1])
            mc.row_copy(0, src, dst, [0, 1])
            mc.multi_row_activate(0, src, dst, [0, 1])
        traced["lanes"] = events_by_kind(path)
        labels = sorted(event["label"] for event in read_trace(path)
                        if event["kind"] == "sequence")
        assert labels == ["frac x3 b0 r2", "frac x3 b0 r7",
                          "multi-row-act b0 (3,4)", "multi-row-act b0 (8,10)",
                          "row-copy b0 3->4", "row-copy b0 8->10",
                          "write-row b0 r1", "write-row b0 r5"]
        for kind in ("sequence", "command"):
            assert traced["lanes"][kind] == traced["scalar"][kind], kind


class TestTraceByteIdentity:
    def test_two_serial_runs_identical(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with session(trace_path=path):
                run_experiment("fig7", CONFIG)
        assert paths[0].read_bytes() == paths[1].read_bytes()
