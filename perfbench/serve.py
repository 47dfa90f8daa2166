"""serve-10k: the PUF authentication service at fleet scale.

Set-up enrolls 10,000 modules with ``build_enrollment`` (512-bit
responses: 128 columns x 4 challenges, every other ``ServiceConfig``
field at its default, including the 32-lane / 5 ms coalescing policy),
starts ``PufAuthService`` and serves one warm-up request per vendor
group.  Then two kinds of phase alternate against the same service,
:data:`ROUNDS` times each:

* *paced*: an open loop of Poisson arrivals at :data:`PACED_RPS`,
  submitted through ``PufAuthService.verify``; latency runs from each
  request's due time to its reply, so a stall also charges the
  requests queued behind it;
* *drain*: a burst of :data:`BURST_REQUESTS` requests submitted at once,
  so every batch is full; replies per second while it empties is the
  burst's capacity.

Set-up, each paced segment and each drain burst is calibrated to the
reference host speed with the kernel of :mod:`perfbench.calibrate`: on
the main thread after the imports and after the warm-up, and on the
engine thread between phases, while nothing is queued.  The paced
latency is the median over every calibrated paced request, and the
capacity is every drain reply over the calibrated time of all bursts,
so both average over the four alternations.

Traffic comes from ``repro.service.workload.generate_schedule`` (Poisson
gaps, epochs 1-4, 20% impostors presenting un-enrolled silicon while
claiming an enrolled id); a seeded pass then drops the claim from 3/8 of
the genuine requests, giving 50% claimed genuine, 30% unclaimed genuine
(identification) and 20% impostors.  ``--seed`` seeds only the traffic;
the fleet keeps the service's default master seed, whose accept/reject
margin the reply checks rely on.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from .calibrate import calibrated, kernel_s, pin_thread
from .common import Outcome, peak_rss_mib, span
from .layers import install_layers
from .tracing import Patcher, Recorder

__all__ = ["Arrival", "BURST_REQUESTS", "MIX", "N_MODULES", "PACED_RPS",
           "REPLY_TIMEOUT_S", "ROUNDS", "Served", "check_replies",
           "check_reply", "generate_traffic", "run_phases", "run_serve"]

N_MODULES = 10_000
#: Paced arrival rate, about a fifth of the drain capacity measured at
#: the commit that defined this benchmark; fixed so later changes are
#: compared under the same offered load.
PACED_RPS = 25.0
#: Paced segments and drain bursts per run (paced first).
ROUNDS = 4
#: Requests per drain burst: eight full 32-lane batches.
BURST_REQUESTS = 256
#: Request kinds and their shares of the traffic.  The impostor share is
#: ``generate_schedule``'s per-request probability; the claimed and
#: unclaimed shares split the genuine requests exactly.
MIX: tuple[tuple[str, float], ...] = (
    ("claimed", 0.5), ("unclaimed", 0.3), ("impostor", 0.2))
#: Genuine re-measurements draw their noise epoch from 1..MAX_EPOCH
#: (enrollment used epoch 0).
MAX_EPOCH = 4
#: Requests re-decided through the scalar ``Authenticator``.
SCALAR_CHECKS = 16
#: A phase whose replies have not all arrived this long after its last
#: submission has failed; the rest of the run is skipped.
REPLY_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Arrival:
    """One generated request and when it is due (seconds from phase start)."""

    offset_s: float
    kind: str
    request: Any  # repro.service.VerifyRequest


def generate_traffic(db: Any, seed: int, stream: int, n_requests: int,
                     prefix: str) -> list[Arrival]:
    """A deterministic request list for one kind of phase.

    ``generate_schedule`` draws the arrivals (at :data:`PACED_RPS`; a
    drain ignores the offsets) from the stream ``2 * seed + stream`` of
    the service's master seed; a second seeded pass drops the claim from
    an exact 3/8 of the genuine requests.  Request ids get ``prefix``.
    """
    from repro.dram.rng import derive_rng
    from repro.service.workload import WorkloadSpec, generate_schedule

    shares = dict(MIX)
    spec = WorkloadSpec(seed=2 * seed + stream, n_requests=n_requests,
                        rate_rps=PACED_RPS,
                        impostor_fraction=shares["impostor"],
                        max_epoch=MAX_EPOCH)
    schedule = generate_schedule(db, spec)
    genuine = [index for index, (_, request) in enumerate(schedule)
               if request.presented_id == request.claimed_id]
    rng = derive_rng(db.config.master_seed, "perfbench", "unclaimed",
                     spec.seed)
    n_unclaimed = round(len(genuine) * shares["unclaimed"]
                        / (1.0 - shares["impostor"]))
    unclaimed = {genuine[int(index)] for index in
                 rng.choice(len(genuine), n_unclaimed, replace=False)}
    arrivals = []
    for index, (offset, request) in enumerate(schedule):
        if request.presented_id != request.claimed_id:
            kind = "impostor"
        elif index in unclaimed:
            kind = "unclaimed"
        else:
            kind = "claimed"
        arrivals.append(Arrival(offset, kind, dataclasses.replace(
            request, request_id=f"{prefix}{index:06d}",
            claimed_id=None if kind == "unclaimed" else request.claimed_id)))
    return arrivals


def check_reply(arrival: Arrival, reply: Any) -> str | None:
    """Why ``reply`` is wrong for ``arrival``, or ``None`` when it is right.

    Genuine requests are accepted as the presented module, and
    ``claim_ok`` is true exactly when the claim names the presented
    module (``None`` without a claim), so an impostor's claim never
    holds.  An impostor is expected to be rejected; one accepted as some
    *other* enrolled module is a false accept of the PUF itself (the
    closest enrolled response fell under the threshold), which
    :func:`check_replies` confirms against the scalar ``Authenticator``
    instead of failing here.
    """
    request = arrival.request
    if reply.request_id != request.request_id:
        return f"reply for {reply.request_id!r}"
    want_claim = (None if request.claimed_id is None
                  else request.claimed_id == request.presented_id)
    if reply.claim_ok is not want_claim:
        return f"claim_ok={reply.claim_ok}, expected {want_claim}"
    if arrival.kind == "impostor":
        if not reply.accepted and reply.device_id is not None:
            return f"rejected but identified as {reply.device_id!r}"
        return None
    if not reply.accepted:
        return f"genuine {arrival.kind} request rejected"
    if reply.device_id != request.presented_id:
        return f"identified as {reply.device_id!r}"
    return None


@dataclass
class Served:
    arrival: Arrival
    due: float = 0.0
    submitted: float = 0.0
    replied: float = 0.0
    reply: Any = None
    error: str | None = None


async def _submit(service: Any, served: Served) -> None:
    served.submitted = time.perf_counter()
    try:
        served.reply = await service.verify(served.arrival.request)
    except Exception as error:  # a raised call is one failed operation
        served.error = f"{type(error).__name__}: {error}"
    served.replied = time.perf_counter()


def _stopped(batcher: asyncio.Task) -> str | None:
    """Why the batcher's flush loop ended, if it has."""
    if not batcher.done():
        return None
    if batcher.cancelled():
        return "the batcher was cancelled"
    error = batcher.exception()
    return ("the batcher stopped" if error is None else
            f"the batcher stopped: {type(error).__name__}: {error}")


async def _phase(service: Any, batcher: asyncio.Task,
                 entries: Sequence[Served], paced: bool) -> str | None:
    """Submit one phase and wait for its replies.

    Paced entries are submitted at their ``due`` time, the others at
    once.  Returns why the phase failed (the batcher stopped, or a reply
    did not come within :data:`REPLY_TIMEOUT_S`); every entry left
    without a reply then carries that reason as its error.
    """
    loop = asyncio.get_running_loop()
    tasks = []
    for entry in entries:
        if paced:
            delay = entry.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        if batcher.done():
            break
        tasks.append(loop.create_task(_submit(service, entry)))
    waiting = asyncio.gather(*tasks)
    await asyncio.wait({waiting, batcher}, timeout=REPLY_TIMEOUT_S,
                       return_when=asyncio.FIRST_COMPLETED)
    if waiting.done() and len(tasks) == len(entries):
        return None
    why = _stopped(batcher) or (f"no reply within {REPLY_TIMEOUT_S:g} s "
                                f"of the phase's last submission")
    waiting.cancel()
    for entry in entries:
        if entry.reply is None and entry.error is None:
            entry.error = why
    return why


async def run_phases(service: Any, warm: Sequence[Served],
                     segments: Sequence[Sequence[Served]],
                     bursts: Sequence[Sequence[Served]],
                     engine_cpu: int | None = None) -> dict:
    """Warm up, then alternate paced segments and drain bursts.

    Fills in every :class:`Served` and returns when the warm-up ended,
    a reference kernel time taken on this thread then, each phase's
    start and end, the kernel times taken on the engine thread after the
    warm-up and after every phase (so phase ``i`` lies between kernels
    ``i`` and ``i + 1``), and why the service stopped early (``None``
    when it did not).  After a failed phase the remaining entries are
    not submitted; they carry the failure as their error.  The engine
    thread is pinned to ``engine_cpu`` when one is given.
    """
    loop = asyncio.get_running_loop()
    # One engine thread: the batcher runs batches one at a time in the
    # loop's default executor, so this caps the run at two busy threads.
    loop.set_default_executor(ThreadPoolExecutor(
        max_workers=1, initializer=None if engine_cpu is None else pin_thread,
        initargs=() if engine_cpu is None else (engine_cpu,)))
    await service.start()
    batcher = service.batcher._task  # the flush loop; it ends on a raise
    stopped = None
    for entry in warm:
        entry.due = time.perf_counter()
        stopped = stopped or await _phase(service, batcher, [entry], False)
    warm_end = time.perf_counter()
    setup_kernel = kernel_s()

    async def engine_kernel() -> float:
        # Nothing is queued between phases, so the kernel runs where
        # batches do; after a failure that thread may be stuck.
        if stopped is not None:
            return kernel_s()
        return await loop.run_in_executor(None, kernel_s)

    kernels = [await engine_kernel()]
    base = 0.0  # schedule offset where the current segment resumes
    spans = []
    for segment, burst in zip(segments, bursts):
        start = time.perf_counter()
        for entry in segment:
            entry.due = start + entry.arrival.offset_s - base
        stopped = stopped or await _phase(service, batcher, segment, True)
        spans.append((start, time.perf_counter()))
        kernels.append(await engine_kernel())
        base = segment[-1].arrival.offset_s
        start = time.perf_counter()
        for entry in burst:
            entry.due = start
        stopped = stopped or await _phase(service, batcher, burst, False)
        spans.append((start, time.perf_counter()))
        kernels.append(await engine_kernel())
    if stopped is None:
        await service.stop()
    else:
        batcher.cancel()
        for entry in [*warm, *(e for s in segments for e in s),
                      *(e for b in bursts for e in b)]:
            if entry.reply is None and entry.error is None:
                entry.error = f"not submitted: {stopped}"
    return {"warm_end": warm_end, "setup_kernel": setup_kernel,
            "spans": spans, "kernels": kernels, "stopped": stopped}


def _scalar_mismatches(db: Any, sample: Sequence[Served]) -> list[str]:
    """Request ids whose reply differs from the scalar Authenticator's."""
    from repro.dram.chip import DramChip
    from repro.puf.frac_puf import FracPuf

    config = db.config
    auth = db.authenticator()
    challenges = config.challenges()
    mismatched = []
    for served in sample:
        request, reply = served.arrival.request, served.reply
        chip = DramChip(request.group_id, geometry=config.geometry(),
                        serial=request.serial,
                        master_seed=config.master_seed)
        chip.reseed_noise(request.epoch)
        probe = FracPuf(chip, n_frac=config.n_frac).evaluate_many(challenges)
        decision = auth.decide(probe)
        if (reply.accepted, reply.device_id, reply.mean_distance) != (
                decision.accepted, decision.device_id,
                decision.mean_distance):
            mismatched.append(request.request_id)
    return mismatched


def check_replies(db: Any, served: Sequence[Served],
                  ) -> tuple[dict[str, str], list[Served], int]:
    """Check every reply; returns (problems, false accepts, re-decisions).

    Each problem is one failed operation keyed by request id.  A stride
    sample of the replies, plus every accepted impostor, is re-decided
    through the scalar ``Authenticator``; any difference is a problem.
    """
    problems: dict[str, str] = {}
    for entry in served:
        request_id = entry.arrival.request.request_id
        if entry.reply is None:
            problems[request_id] = entry.error or "no reply"
            continue
        problem = check_reply(entry.arrival, entry.reply)
        if problem is not None:
            problems[request_id] = problem
    answered = [entry for entry in served if entry.reply is not None]
    false_accepts = [entry for entry in answered
                     if entry.arrival.kind == "impostor"
                     and entry.reply.accepted]
    sample = answered[::max(1, len(answered) // SCALAR_CHECKS)]
    sample += [entry for entry in false_accepts if entry not in sample]
    for request_id in _scalar_mismatches(db, sample):
        problems.setdefault(request_id,
                            "differs from the scalar Authenticator")
    return problems, false_accepts, len(sample)


def _latencies(entries: Sequence[Served]) -> list[float]:
    return [entry.replied - entry.due for entry in entries
            if entry.reply is not None]


def run_serve(seed: int, seconds: int, recorder: Recorder | None) -> Outcome:
    """Run serve-10k; times are taken from just before ``import repro``."""
    started = time.perf_counter()
    with span(recorder, "repro.import"):
        from repro.service import (PufAuthService, ServiceConfig,
                                   VerifyRequest, enrollment, module_id)
        from repro.telemetry.registry import active as telemetry_active

    # The main thread (imports, enrollment, event loop) and the engine
    # thread each keep to one CPU, so the kernels track their speed.
    allowed = os.sched_getaffinity(0)
    pin_thread(min(allowed))
    imported = time.perf_counter()
    import_kernel = kernel_s()
    kernel_wall = time.perf_counter() - imported
    patcher = Patcher(recorder) if recorder is not None else None
    try:
        if patcher is not None:
            install_layers(patcher)
        config = ServiceConfig(columns=128, n_challenges=4)
        db = enrollment.build_enrollment(config, N_MODULES)
        paced = generate_traffic(db, seed, 0, round(PACED_RPS * seconds),
                                 "p")
        drain = generate_traffic(db, seed, 1, ROUNDS * BURST_REQUESTS, "d")
        size = math.ceil(len(paced) / ROUNDS)
        segments = [[Served(arrival) for arrival in paced[start:start + size]]
                    for start in range(0, len(paced), size)]
        bursts = [[Served(arrival)
                   for arrival in drain[start:start + BURST_REQUESTS]]
                  for start in range(0, len(drain), BURST_REQUESTS)]
        warm = [Served(Arrival(0.0, "claimed", VerifyRequest(
            f"w-{group}", group, 0, 1, module_id(group, 0))))
            for group in config.groups]
        service = PufAuthService(db)
        phases = asyncio.run(run_phases(service, warm, segments, bursts,
                                        max(allowed)))
        rss = peak_rss_mib()
    finally:
        if patcher is not None:
            patcher.restore()
        os.sched_setaffinity(0, allowed)

    everything = (warm + [entry for segment in segments for entry in segment]
                  + [entry for burst in bursts for entry in burst])
    problems, false_accepts, rechecked = check_replies(db, everything)
    if telemetry_active() is not None:
        problems["telemetry"] = ("telemetry was active; the timings "
                                 "describe a different program")

    from repro.service.workload import percentile

    def ms(values: Sequence[float], fraction: float) -> float:
        return percentile(values, fraction) * 1e3 if values else 0.0

    # Phase i lies between kernels i and i + 1; segments are the even
    # phases, bursts the odd ones.
    kernels = phases["kernels"]
    setup_s = calibrated(phases["warm_end"] - started - kernel_wall,
                         import_kernel, phases["setup_kernel"])
    calibrated_latencies, rates, job_s = [], [], setup_s
    drained_s = answered = 0
    for index, (start, end) in enumerate(phases["spans"]):
        around = kernels[index], kernels[index + 1]
        if index % 2 == 0:
            job_s += end - start  # paced: bound by the schedule's clock
            calibrated_latencies += [
                calibrated(latency, *around)
                for latency in _latencies(segments[index // 2])]
        else:
            burst = bursts[index // 2]
            drained = calibrated(end - start, *around)
            replies = sum(entry.reply is not None for entry in burst)
            job_s += drained
            drained_s += drained
            answered += replies
            rates.append(replies / drained)
    latencies = [value for segment in segments
                 for value in _latencies(segment)]
    lateness = [entry.submitted - entry.due for segment in segments
                for entry in segment if entry.submitted]
    metrics = {
        "job_s": job_s,
        "setup_s": setup_s,
        "p50_ms": ms(calibrated_latencies, 0.5),
        "capacity_rps": answered / drained_s if drained_s else 0.0,
        "peak_rss_mib": rss,
    }
    p99_ms = ms(latencies, 0.99)
    beyond = sum(latency * 1e3 > p99_ms for latency in latencies)
    notes = [
        f"  paced: {len(latencies)} replies at {PACED_RPS:g} req/s offered "
        f"in {len(segments)} segments; raw p50 {ms(latencies, 0.5):.2f} ms, "
        f"p99 {p99_ms:.2f} ms with {beyond} samples beyond it",
        f"  generator lateness p99 {ms(lateness, 0.99):.2f} ms",
        f"  drain bursts of {BURST_REQUESTS}, calibrated: "
        + ", ".join(f"{rate:.1f}" for rate in rates) + " replies/s",
        f"  raw set-up {phases['warm_end'] - started - kernel_wall:.3f} s "
        f"(kernel {import_kernel:.3f} {phases['setup_kernel']:.3f} s); "
        f"raw bursts " + ", ".join(
            f"{len(burst) / (end - start):.1f}"
            for burst, (start, end) in zip(bursts, phases["spans"][1::2]))
        + " replies/s; engine kernel "
        + " ".join(f"{kernel:.3f}" for kernel in kernels) + " s",
        f"  checked {len(everything)} replies and {rechecked} scalar "
        f"re-decisions: {len(problems)} problem(s)",
    ]
    if phases["stopped"] is not None:
        notes.append(f"  SERVICE FAILED: {phases['stopped']}")
    notes.extend(
        f"  {entry.arrival.request.request_id}: impostor "
        f"{entry.arrival.request.presented_id} falsely identified as "
        f"{entry.reply.device_id} at distance "
        f"{entry.reply.mean_distance:.4f} (threshold {config.threshold})"
        + ("" if entry.arrival.request.request_id in problems
           else "; the scalar Authenticator decides the same")
        for entry in false_accepts)
    notes.extend(f"  {request_id}: {problem}"
                 for request_id, problem in sorted(problems.items())[:10])

    layer_extra = {"client.p99_ms": p99_ms,
                   "client.late_p99_ms": ms(lateness, 0.99),
                   "puf.match.false_accepts": len(false_accepts)}
    if recorder is not None:
        layer_extra.update(_service_layers(recorder, config, segments, ms))
    return Outcome(
        attempted=len(everything), failed=len(problems), metrics=metrics,
        notes=notes, layer_extra=layer_extra)


def _service_layers(recorder: Recorder, config: Any,
                    segments: Sequence[Sequence[Served]],
                    ms: Any) -> dict[str, float]:
    """Batch statistics and queue waits from the engine's spans."""
    batches = recorder.named("service.execute")
    if not batches:
        return {}
    started_at = {span.tag: span.start_ns / 1e9 for span in batches}
    durations = [span.duration_ns / 1e9 for span in batches]
    waits = [started_at[entry.reply.batch_index] - entry.due
             for segment in segments for entry in segment
             if entry.reply is not None
             and entry.reply.batch_index in started_at]
    lanes = sum(span.units for span in batches)
    return {
        "service.execute.fill_ratio": (
            lanes / len(batches) / config.coalesce.max_lanes),
        "service.execute.p50_ms": ms(durations, 0.5),
        "service.execute.p99_ms": ms(durations, 0.99),
        "service.wait.p50_ms": ms(waits, 0.5),
        "service.wait.p99_ms": ms(waits, 0.99),
    }
