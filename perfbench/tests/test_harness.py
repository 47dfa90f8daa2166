"""Self-tests of the benchmark harness (not of the repro package).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import asyncio
import importlib
import json
import time
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from perfbench.calibrate import REFERENCE_S, calibrated
from perfbench.common import END_TO_END
from perfbench.layers import (EXPECTED_CALLS, LAYERS, PER_LAYER,
                              install_layers, layer_metrics, missing_layers)
from perfbench.serve import (MAX_EPOCH, MIX, Arrival, Served, check_replies,
                             check_reply, generate_traffic, run_phases)
from perfbench.sweeps import (Rep, compare_digests, load_digests,
                              summarize_reps)
from perfbench.tracing import LayerTotals, Patcher, Recorder, Span, summarize
from repro.service import (PufAuthService, ServiceConfig, VerificationEngine,
                           VerifyReply, VerifyRequest, build_enrollment)

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def db():
    """A small enrolled fleet (every vendor group, 18 modules)."""
    return build_enrollment(ServiceConfig(), 18)


def test_traffic_is_identical_per_seed_and_differs_across_seeds(db):
    first = generate_traffic(db, 5, 0, 200, "p")
    again = generate_traffic(db, 5, 0, 200, "p")
    other = generate_traffic(db, 6, 0, 200, "p")
    drain = generate_traffic(db, 5, 1, 200, "d")
    assert first == again
    assert first != other
    assert [a.kind for a in first] != [a.kind for a in drain]
    assert len({a.request.request_id for a in first + drain}) == 400


def test_traffic_matches_the_stated_mix(db):
    n = 1000
    arrivals = generate_traffic(db, 3, 0, n, "p")
    counts = Counter(arrival.kind for arrival in arrivals)
    shares = dict(MIX)
    # Impostors are a per-request draw of generate_schedule (binomial,
    # sd 1.3% at n = 1000); the genuine requests split 5:3 exactly.
    assert abs(counts["impostor"] / n - shares["impostor"]) < 0.04
    genuine = n - counts["impostor"]
    assert counts["unclaimed"] == round(genuine * 0.3 / 0.8)
    assert counts["claimed"] == genuine - counts["unclaimed"]
    enrolled = set(db.ids)
    serials_per_group = -(-db.n_modules // len(db.config.groups))
    for arrival in arrivals:
        request = arrival.request
        assert 1 <= request.epoch <= MAX_EPOCH
        if arrival.kind == "impostor":
            assert request.serial >= serials_per_group  # never enrolled
            assert request.claimed_id in enrolled
        else:
            assert request.presented_id in enrolled
            assert request.claimed_id == (
                request.presented_id if arrival.kind == "claimed" else None)
    offsets = [arrival.offset_s for arrival in arrivals]
    assert offsets == sorted(offsets) and offsets[0] > 0
    # Poisson at 25 req/s: 1000 arrivals span about 40 s.
    assert 35.0 < offsets[-1] < 45.0


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def test_self_time_on_a_synthetic_span_nest():
    # a [0, 100) holds b [10, 40) (which holds c [20, 30)) and b [50, 70).
    spans = [
        Span(0, "a", 0, 100, None, 1),
        Span(1, "b", 10, 40, 0, 3),
        Span(2, "c", 20, 30, 1, 1),
        Span(3, "b", 50, 70, 0, 4),
    ]
    totals = summarize(spans)
    assert totals["a"] == LayerTotals(calls=1, units=1, total_ns=100,
                                      self_ns=50)
    assert totals["b"] == LayerTotals(calls=2, units=7, total_ns=50,
                                      self_ns=40)
    assert totals["c"] == LayerTotals(calls=1, units=1, total_ns=10,
                                      self_ns=10)


def test_recorder_folds_same_name_spans_and_links_parents():
    recorder = Recorder("test")

    def inner():
        return recorder.call("b", lambda: 7, (), {})

    def outer():
        # b inside b folds into the outer b; c is a child of b.
        return recorder.call("b", lambda: recorder.call(
            "c", inner, (), {}), (), {})

    with recorder.span("a"):
        assert outer() == 7
    by_name = {span.name: span for span in recorder.spans}
    assert sorted(by_name) == ["a", "b", "c"]
    assert by_name["a"].parent is None
    assert by_name["b"].parent == by_name["a"].id
    assert by_name["c"].parent == by_name["b"].id
    totals = summarize(recorder.spans)
    assert totals["b"].calls == 1


def test_recorder_closes_the_span_of_a_raising_call():
    recorder = Recorder("test")

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        recorder.call("x", boom, (), {})
    assert [(span.name, span.units) for span in recorder.spans] == [("x", 0)]
    assert recorder.call("x", lambda: 1, (), {}) == 1  # not left open


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------

def _snapshot():
    """Every callable a wrapper may replace, keyed by where it is bound."""
    for targets in LAYERS.values():
        for target in targets:
            for module in (target.module, *target.sites):
                importlib.import_module(module)
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for key, value in vars(module).items():
                if callable(value):
                    seen[(name, key)] = value
    for targets in LAYERS.values():
        for target in targets:
            owner, _, attr = target.attr.rpartition(".")
            if owner:
                cls = getattr(sys.modules[target.module], owner)
                seen[(cls, attr)] = cls.__dict__[attr]
    return seen


def test_wrappers_record_calls_and_restore_the_originals():
    before = _snapshot()
    recorder = Recorder("test")
    patcher = Patcher(recorder)
    install_layers(patcher)
    try:
        import repro.puf.auth
        import repro.service.batcher

        assert repro.service.batcher.match_probe is not before[
            ("repro.service.batcher", "match_probe")]
        references = np.zeros((5, 2, 8), dtype=bool)
        repro.puf.auth.match_probe(references, np.zeros((2, 8), dtype=bool))
    finally:
        patcher.restore()
    assert [(span.name, span.units) for span in recorder.spans] == [
        ("puf.match", 5)]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_a_missing_import_site_is_refused():
    from perfbench.tracing import Target

    import repro.puf.auth

    original = repro.puf.auth.match_probe
    with pytest.raises(RuntimeError, match="not imported by name"):
        Patcher(Recorder("test")).install("puf.match", Target(
            "repro.puf.auth", "match_probe", sites=("repro.dram.chip",)))
    assert repro.puf.auth.match_probe is original  # nothing was patched


def test_the_guard_names_layers_without_calls():
    assert missing_layers("serve-10k", {}) == list(
        EXPECTED_CALLS["serve-10k"])
    totals = {layer: LayerTotals(calls=1)
              for layer in EXPECTED_CALLS["trial-sweep"]}
    assert missing_layers("trial-sweep", totals) == []


def test_layer_metrics_cover_every_per_layer_name():
    values = layer_metrics({"puf.match": LayerTotals(2, 20, 10, 6)},
                           {"controller.plan.misses": 3,
                            "trace.overhead_pct": 1.5})
    assert list(values) == [name for name, _, _ in PER_LAYER]
    assert values["puf.match.calls"] == 2
    assert values["puf.match.rows"] == 20
    assert values["controller.plan.misses"] == 3
    assert values["trace.overhead_pct"] == 1.5


# ----------------------------------------------------------------------
# output checks (negative controls)
# ----------------------------------------------------------------------

def test_a_corrupted_digest_is_flagged():
    recorded = {"7": {"fig6": "aa", "table1": "tt"},
                "9": {"fig6": "cc", "table1": "tt"}}
    assert compare_digests(7, {"fig6": "aa", "table1": "tt"}, recorded) == []
    assert compare_digests(7, {"fig6": "ab", "table1": "tt"}, recorded) == [
        "fig6"]
    # At an unrecorded seed the seed-independent digest is still checked.
    assert compare_digests(8, {"fig6": "zz", "table1": "tt"}, recorded) == []
    assert compare_digests(8, {"fig6": "zz", "table1": "tu"}, recorded) == [
        "table1"]
    assert compare_digests(8, {"fig6": "zz"}, recorded) is None


def test_recorded_digests_cover_every_experiment():
    recorded = load_digests()
    experiments = {"fig6", "fig9", "fig10", "nist", "table1", "fig7",
                   "fig8", "fig11", "fig12"}
    assert {"2022", "7"} <= set(recorded)
    for digests in recorded.values():
        assert set(digests) == experiments
        assert all(len(value) == 64 for value in digests.values())
    # table1 does not depend on the seed, so every seed checks it.
    assert len({digests["table1"] for digests in recorded.values()}) == 1


def _rep(import_s, fig6, fig9, digest="aa", rss=100.0, kernels=None):
    return Rep(import_s, {"fig6": fig6, "fig9": fig9, "fig10": 1.0,
                          "nist": 1.0},
               {"fig6": digest}, {}, rss, kernels or [REFERENCE_S] * 5)


def test_calibration_scales_by_the_faster_kernel_around_an_interval():
    assert calibrated(3.0, REFERENCE_S, REFERENCE_S) == 3.0
    # The kernel ran at half speed around the interval: half the time.
    assert calibrated(3.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == 1.5
    assert calibrated(3.0, 3 * REFERENCE_S, 2 * REFERENCE_S) == 1.5


def test_each_part_is_taken_at_its_fastest_calibrated_repetition(tmp_path):
    # The second repetition ran while the host was at half speed: the
    # kernel took twice REFERENCE_S, so every part counts half its time.
    reps = [_rep(1.0, 2.5, 7.0),
            _rep(1.4, 4.0, 5.0, rss=120.0, kernels=[2 * REFERENCE_S] * 5),
            _rep(1.2, 2.5, 6.0)]
    outcome = summarize_reps("trial-sweep", 12345, reps, tmp_path)
    assert outcome.attempted == 12 and outcome.failed == 0
    metrics = outcome.metrics
    # Fastest calibrated parts: import 0.7, fig6 2.0, fig9 2.5 (all from
    # the second repetition), fig10 0.5, nist 0.5.
    assert metrics["job_s"] == pytest.approx(6.2)
    # The median calibrated import of 1.0, 0.7 and 1.2.
    assert metrics["setup_s"] == pytest.approx(1.0)
    # Completions at 2.0, 4.5, 5.0 and 5.5 s after the imports.
    assert metrics["p50_ms"] == pytest.approx(5000.0)
    assert metrics["capacity_rps"] == pytest.approx(4 / 5.5)
    assert metrics["peak_rss_mib"] == 120.0


def test_repetitions_that_disagree_fail(tmp_path):
    reps = [_rep(1.0, 2.0, 7.0), _rep(1.0, 2.0, 7.0, digest="ab")]
    outcome = summarize_reps("trial-sweep", 12345, reps, tmp_path)
    assert outcome.failed == 1
    assert any("nondeterminism" in note for note in outcome.notes)


def _reply(arrival: Arrival, accepted: bool, device_id, claim_ok):
    return VerifyReply(arrival.request.request_id, accepted, device_id, 0.01,
                       claim_ok, None, None, 0, 1)


def _arrival(kind, request_id, group, serial, claimed):
    return Arrival(0.0, kind, VerifyRequest(request_id, group, serial, 1,
                                            claimed))


def test_check_reply_flags_a_flipped_decision():
    genuine = _arrival("claimed", "r1", "B", 3, "B-00003")
    assert check_reply(genuine, _reply(genuine, True, "B-00003", True)) is None
    assert check_reply(genuine,
                       _reply(genuine, False, None, False)) is not None
    unclaimed = _arrival("unclaimed", "r2", "B", 3, None)
    assert check_reply(unclaimed,
                       _reply(unclaimed, True, "B-00004", None)) is not None
    impostor = _arrival("impostor", "r3", "B", 900, "C-00001")
    assert check_reply(impostor, _reply(impostor, False, None, False)) is None
    # Accepted as the identity it claims: the spoof succeeded.
    assert check_reply(impostor,
                       _reply(impostor, True, "C-00001", True)) is not None
    assert check_reply(genuine, _reply(
        _arrival("claimed", "other", "B", 3, None), True, "B-00003",
        True)) is not None


def test_check_replies_confirms_decisions_with_the_scalar_authenticator(db):
    arrivals = generate_traffic(db, 2, 0, 12, "r")
    replies = VerificationEngine(db).execute(
        [arrival.request for arrival in arrivals])
    served = [Served(a, reply=reply) for a, reply in zip(arrivals, replies)]
    problems, false_accepts, rechecked = check_replies(db, served)
    assert problems == {} and false_accepts == [] and rechecked >= 1

    # A flipped impostor decision passes check_reply (a false accept is
    # possible physics) but the scalar re-decision catches it.
    index = next(i for i, a in enumerate(arrivals) if a.kind == "impostor")
    request = arrivals[index].request
    flipped = Served(arrivals[index], reply=_reply(
        arrivals[index], True, db.ids[0], db.ids[0] == request.claimed_id))
    served[index] = flipped
    problems, false_accepts, _ = check_replies(db, served)
    assert false_accepts == [flipped]
    assert request.request_id in problems

    served[index] = Served(arrivals[index], error="ValueError: boom")
    problems, _, _ = check_replies(db, served)
    assert problems == {request.request_id: "ValueError: boom"}


def test_a_raising_engine_fails_every_request_without_hanging(db):
    service = PufAuthService(db)

    def execute(requests, batch_index=0):
        raise RuntimeError("engine down")

    service.batcher.engine.execute = execute
    arrivals = generate_traffic(db, 4, 0, 12, "p")
    warm = [Served(arrivals[0])]
    segments = [[Served(a) for a in arrivals[1:4]],
                [Served(a) for a in arrivals[4:6]]]
    bursts = [[Served(a) for a in arrivals[6:9]],
              [Served(a) for a in arrivals[9:]]]
    began = time.perf_counter()
    phases = asyncio.run(run_phases(service, warm, segments, bursts))
    assert time.perf_counter() - began < 5.0
    assert "RuntimeError: engine down" in phases["stopped"]
    everything = warm + [e for group in segments + bursts for e in group]
    problems, _, _ = check_replies(db, everything)
    assert len(problems) == len(arrivals)
    assert all("engine down" in why for why in problems.values())


# ----------------------------------------------------------------------
# BENCHMARK.json and the empty-checkout refusal
# ----------------------------------------------------------------------

def test_benchmark_json_names_every_metric_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout
