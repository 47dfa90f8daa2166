"""Benchmark: sustained verification traffic against a 10k-module fleet.

The serving stack (``repro.service``, docs/service.md) turns the paper's
Section VI PUF into an authentication service: a 10,000-module fleet is
enrolled through the device-batched engine, and a seeded open-loop
workload of genuine and impostor verification requests is coalesced into
fused engine passes.

The benchmark measures the live asyncio path end to end — enrollment
throughput (modules/s), sustained verification throughput
(verifications/s) and the p50/p99 request latency of the coalescing
server — and splits one full batch into its engine stages (fabricate,
evaluate, attest, match; median ms over :data:`STAGE_REPEATS` runs).
It asserts the serving guarantees on the same run:

* every reply is identical to what the scalar ``Authenticator`` would
  decide for that module (batched serving never changes the science),
* every impostor rejects and every genuine request accepts (the paper's
  intra-HD ~0 vs inter-HD >= 0.27 margin, at fleet scale), and
* the scripted replay of the same workload produces byte-identical
  transcripts across reruns — the serving layer's golden-file property.

Throughput numbers land in the pytest-benchmark JSON via ``extra_info``
(``--benchmark-json``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_service.py -s
"""

from __future__ import annotations

import asyncio
import statistics
import time

from conftest import run_once
from record import record_bench

from repro import DramChip
from repro.core.verify import batched_verify_frac_by_maj3
from repro.dram.batched import BatchedChip
from repro.dram.vendor import GROUPS
from repro.puf.auth import match_probe
from repro.puf.frac_puf import FracPuf
from repro.service import (CoalescePolicy, PufAuthService, ServiceConfig,
                           VerificationEngine, WorkloadSpec,
                           build_enrollment, drive_open_loop,
                           generate_schedule, percentile, replay_scripted)
from repro.xir.puf import FusedFracPuf

N_MODULES = 10_000
N_REQUESTS = 384
#: Checked against the scalar Authenticator chip by chip.
N_SCALAR_CHECKS = 12

#: 128 columns x 4 challenges = 512 response bits.  At 10k enrolled
#: identities the *minimum* of 10k inter-HD draws is what the threshold
#: must clear; 512 bits holds the worst genuine distance near 0.06 and
#: the best impostor distance near 0.19, bracketing the 0.15 threshold
#: with room on both sides (the fleet-scale version of the paper's
#: intra-HD ~0 / inter-HD >= 0.27 margin).
SERVICE_CONFIG = ServiceConfig(columns=128, n_challenges=4,
                               enroll_batch=256)
WORKLOAD = WorkloadSpec(seed=0, n_requests=N_REQUESTS, rate_rps=20_000.0,
                        impostor_fraction=0.2)
POLICY = CoalescePolicy(max_lanes=48, max_wait_s=0.01)
#: Runs of the stage-by-stage batch; each stage reports its median.
STAGE_REPEATS = 5


async def _serve_live(db, schedule):
    service = PufAuthService(db, policy=POLICY)
    await service.start()
    started = time.perf_counter()
    replies, latencies = await drive_open_loop(service.batcher, schedule,
                                               pace=False)
    elapsed = time.perf_counter() - started
    batches = service.batcher.batches_served
    await service.stop()
    return replies, latencies, batches, elapsed


def _stage_split(db, requests):
    """Median ms per engine stage of one batch, and each lane's match.

    Runs the steps of ``VerificationEngine.execute`` one at a time:
    fabricate the cohort, evaluate the challenge set, attest the
    MAJ3-capable lanes, match every lane.  Returns the stage medians
    (with the median batch total as ``"batch"``) and each lane's
    ``(index, distance)``.
    """
    config = db.config
    engine = VerificationEngine(db)
    challenges = config.challenges()
    by_group = {}
    for lane, request in enumerate(requests):
        if GROUPS[request.group_id].decoder.supports_three_row:
            by_group.setdefault(request.group_id, []).append(lane)
    samples = {stage: [] for stage in
               ("fabricate", "evaluate", "attest", "match", "batch")}
    for _ in range(STAGE_REPEATS):
        started = time.perf_counter()
        device = BatchedChip.from_fleet(
            [(request.group_id, request.serial) for request in requests],
            geometry=config.geometry(), master_seed=config.master_seed,
            epochs=[request.epoch for request in requests])
        fabricated = time.perf_counter()
        puf = FusedFracPuf(device, n_frac=config.n_frac)
        probes = puf.evaluate_many(challenges)
        evaluated = time.perf_counter()
        for group_id in sorted(by_group):
            batched_verify_frac_by_maj3(
                puf.bfd, engine._attestation_plan(group_id), n_frac=1,
                lanes=by_group[group_id])
        attested = time.perf_counter()
        matches = [match_probe(db.packed, probe) for probe in probes]
        matched = time.perf_counter()
        for stage, seconds in (("fabricate", fabricated - started),
                               ("evaluate", evaluated - fabricated),
                               ("attest", attested - evaluated),
                               ("match", matched - attested),
                               ("batch", matched - started)):
            samples[stage].append(seconds * 1e3)
    medians = {stage: round(statistics.median(values), 2)
               for stage, values in samples.items()}
    return medians, matches


def test_service_sustains_10k_module_fleet(benchmark, tmp_path, capsys):
    enroll_started = time.perf_counter()
    db = build_enrollment(SERVICE_CONFIG, N_MODULES)
    enroll_wall = time.perf_counter() - enroll_started
    assert db.n_modules == N_MODULES

    schedule = generate_schedule(db, WORKLOAD)

    replies, latencies, batches, serve_wall = run_once(
        benchmark, lambda: asyncio.run(_serve_live(db, schedule)))

    verifications_per_s = N_REQUESTS / serve_wall
    p50 = percentile(latencies, 0.5)
    p99 = percentile(latencies, 0.99)
    benchmark.extra_info["backend"] = "fused"
    benchmark.extra_info["modules"] = N_MODULES
    benchmark.extra_info["enroll_modules_per_s"] = round(
        N_MODULES / enroll_wall)
    benchmark.extra_info["verifications_per_s"] = round(verifications_per_s)
    benchmark.extra_info["latency_p50_ms"] = round(p50 * 1e3, 2)
    benchmark.extra_info["latency_p99_ms"] = round(p99 * 1e3, 2)
    benchmark.extra_info["mean_batch_lanes"] = round(
        N_REQUESTS / batches, 1)
    batch = [request for _, request in schedule[:POLICY.max_lanes]]
    stages, matches = _stage_split(db, batch)
    benchmark.extra_info["stage_batch_lanes"] = len(batch)
    for stage, median_ms in stages.items():
        benchmark.extra_info[f"stage_{stage}_ms"] = median_ms
    record_bench("service", benchmark.extra_info)
    with capsys.disabled():
        print(f"\nservice @ {N_MODULES} modules: enroll "
              f"{N_MODULES / enroll_wall:.0f} modules/s, serve "
              f"{verifications_per_s:.0f} verifications/s over {batches} "
              f"batches, latency p50 {p50 * 1e3:.1f} ms / "
              f"p99 {p99 * 1e3:.1f} ms")
        print(f"one {len(batch)}-lane batch (median ms): " + ", ".join(
            f"{stage} {median_ms:.1f}"
            for stage, median_ms in stages.items()))

    # --- replies answer their requests, in order ------------------------
    assert len(replies) == N_REQUESTS
    assert len(latencies) == N_REQUESTS
    assert [reply.request_id for reply in replies] == [
        request.request_id for _, request in schedule]

    # --- the stage-by-stage batch matched like the engine ---------------
    engine_replies = VerificationEngine(db).execute(batch)
    for (index, distance), reply in zip(matches, engine_replies):
        assert distance == reply.mean_distance
        assert reply.device_id == (db.identity(index) if reply.accepted
                                   else None)

    # --- authentication quality at fleet scale --------------------------
    enrolled = set(db.ids)
    for (_, request), reply in zip(schedule, replies):
        genuine = request.presented_id in enrolled
        assert reply.accepted == genuine, (
            f"{request.presented_id} (genuine={genuine}) decided "
            f"{reply.accepted}")
        if genuine:
            assert reply.device_id == request.presented_id
            assert reply.claim_ok is (
                request.claimed_id == request.presented_id)

    # --- batched decisions == scalar Authenticator ----------------------
    auth = db.authenticator()
    challenges = SERVICE_CONFIG.challenges()
    stride = max(1, N_REQUESTS // N_SCALAR_CHECKS)
    for (_, request), reply in list(zip(schedule, replies))[::stride]:
        chip = DramChip(request.group_id,
                        geometry=SERVICE_CONFIG.geometry(),
                        serial=request.serial,
                        master_seed=SERVICE_CONFIG.master_seed)
        chip.reseed_noise(request.epoch)
        probe = FracPuf(chip, n_frac=SERVICE_CONFIG.n_frac).evaluate_many(
            challenges)
        decision = auth.decide(probe)
        assert reply.accepted == decision.accepted
        assert reply.device_id == decision.device_id
        assert reply.mean_distance == decision.mean_distance

    # --- scripted transcripts byte-identical across reruns --------------
    first = tmp_path / "replay-1.jsonl"
    second = tmp_path / "replay-2.jsonl"
    summary_first = replay_scripted(db, schedule, POLICY,
                                    transcript_path=first)
    summary_second = replay_scripted(db, schedule, POLICY,
                                     transcript_path=second)
    assert first.read_bytes() == second.read_bytes(), (
        "scripted service transcripts drifted between identical replays")
    assert summary_first.accepted == summary_second.accepted
    # The scripted and live paths serve the same decisions (coalescing
    # differs — virtual vs real arrival timing — but decisions cannot).
    assert summary_first.accepted == sum(
        1 for reply in replies if reply.accepted)
