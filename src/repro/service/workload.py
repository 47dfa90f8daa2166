"""Seeded open-loop traffic and reproducible load replay.

:func:`generate_schedule` turns a :class:`WorkloadSpec` into a virtual-
time arrival schedule: Poisson arrivals (exponential inter-arrival
gaps) over the enrolled fleet, with a configurable fraction of
impostors — requests presenting un-enrolled silicon while claiming an
enrolled identity.  Every draw comes from a stream derived from the
service master seed, so a spec names one exact traffic trace forever.

The schedule feeds two drivers:

* :func:`replay_scripted` — the deterministic path: virtual time only
  (a :class:`~repro.service.clock.ManualClock` advanced to each batch's
  flush time, never the host clock), batches formed by the pure
  :func:`~repro.service.batcher.coalesce_schedule`, and an optional
  JSON-lines transcript whose bytes are identical across reruns of the
  same spec — the service's golden-file equivalent.

* :func:`drive_open_loop` — the live asyncio path: requests are
  submitted open-loop (arrival times are honored regardless of
  completions, or fired back-to-back with ``pace=False``) against a
  running :class:`~repro.service.batcher.RequestBatcher`, for wall-
  clock throughput and latency measurements.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..dram.rng import derive_rng
from ..errors import ConfigurationError
from ..telemetry.registry import active as _telemetry_active
from .batcher import (LATENCY_BUCKET_BOUNDS, RequestBatcher,
                      VerificationEngine, VerifyReply, VerifyRequest,
                      coalesce_schedule)
from .clock import ManualClock
from .config import CoalescePolicy
from .enrollment import EnrollmentDb

__all__ = [
    "ReplaySummary",
    "TRANSCRIPT_FORMAT",
    "WorkloadSpec",
    "drive_open_loop",
    "generate_schedule",
    "percentile",
    "replay_scripted",
]

#: Transcript format tag written in the header line.
TRANSCRIPT_FORMAT = "repro-service-transcript/1"


@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible traffic trace, named by its parameters."""

    seed: int = 0
    n_requests: int = 256
    #: Open-loop arrival rate (requests per virtual second).
    rate_rps: float = 2000.0
    #: Fraction of requests presenting un-enrolled silicon.
    impostor_fraction: float = 0.125
    #: Genuine requests re-measure at a noise epoch drawn uniformly
    #: from ``[1, max_epoch]`` (enrollment used epoch 0).
    max_epoch: int = 4

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        if self.rate_rps <= 0:
            raise ConfigurationError("rate_rps must be > 0")
        if not 0.0 <= self.impostor_fraction <= 1.0:
            raise ConfigurationError("impostor_fraction must be in [0, 1]")
        if self.max_epoch < 1:
            raise ConfigurationError("max_epoch must be >= 1")


def generate_schedule(db: EnrollmentDb, spec: WorkloadSpec,
                      ) -> list[tuple[float, VerifyRequest]]:
    """The spec's arrival schedule: nondecreasing ``(t, request)`` pairs.

    Impostors present a serial one fleet beyond the enrolled range of a
    random group (distinct silicon, never enrolled) while claiming a
    random enrolled identity — the spoof attempt the inter-HD margin
    (paper: >= 0.27) rejects.
    """
    rng = derive_rng(db.config.master_seed, "service", "workload",
                     spec.seed)
    groups = db.config.groups
    serials_per_group = (db.n_modules + len(groups) - 1) // len(groups)
    schedule: list[tuple[float, VerifyRequest]] = []
    now = 0.0
    for sequence in range(spec.n_requests):
        now += float(rng.exponential(1.0 / spec.rate_rps))
        claim_index = int(rng.integers(db.n_modules))
        claimed_id = db.ids[claim_index]
        epoch = int(rng.integers(1, spec.max_epoch + 1))
        if float(rng.random()) < spec.impostor_fraction:
            group_id = groups[int(rng.integers(len(groups)))]
            serial = serials_per_group + int(rng.integers(serials_per_group))
        else:
            group_id, serial = db.specs[claim_index]
        schedule.append((now, VerifyRequest(
            request_id=f"r{sequence:06d}", group_id=group_id,
            serial=serial, epoch=epoch, claimed_id=claimed_id)))
    return schedule


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    if not values:
        raise ConfigurationError("cannot take a percentile of no samples")
    ordered = sorted(float(value) for value in values)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class ReplaySummary:
    """What one scripted replay did (deterministic under a fixed spec)."""

    n_requests: int = 0
    accepted: int = 0
    rejected: int = 0
    claims_held: int = 0
    attest_failures: int = 0
    batches: int = 0
    flush_causes: dict[str, int] = field(default_factory=dict)
    #: Virtual coalesce waits (seconds), in completion order.
    waits: list[float] = field(default_factory=list)
    transcript_path: Path | None = None

    @property
    def mean_batch_lanes(self) -> float:
        return self.n_requests / self.batches if self.batches else 0.0

    def format_summary(self) -> str:
        lines = [
            f"requests {self.n_requests}: {self.accepted} accepted, "
            f"{self.rejected} rejected, {self.claims_held} claims held, "
            f"{self.attest_failures} attestation failure(s)",
            f"batches {self.batches} (mean {self.mean_batch_lanes:.1f} "
            f"lanes): " + ", ".join(
                f"{cause} x{count}"
                for cause, count in sorted(self.flush_causes.items())),
        ]
        if self.waits:
            lines.append(
                f"virtual coalesce wait: p50 {percentile(self.waits, 0.5)*1e3:.3f} ms, "
                f"p99 {percentile(self.waits, 0.99)*1e3:.3f} ms")
        return "\n".join(lines)


def _transcript_record(sequence: int, arrival: float,
                       request: VerifyRequest, reply: VerifyReply,
                       flushed_at: float, cause: str) -> dict[str, Any]:
    record = reply.to_json_dict()
    record.update({
        "seq": sequence,
        "t_arrival": float(arrival),
        "t_served": float(flushed_at),
        "flush_cause": cause,
        "presented_id": request.presented_id,
        "epoch": int(request.epoch),
        "claimed_id": request.claimed_id,
    })
    return record


def _dump(document: dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def replay_scripted(
    db: EnrollmentDb,
    schedule: Sequence[tuple[float, VerifyRequest]],
    policy: CoalescePolicy | None = None,
    *,
    transcript_path: str | Path | None = None,
) -> ReplaySummary:
    """Replay a schedule deterministically, in virtual time.

    Batches come from :func:`coalesce_schedule`; a
    :class:`~repro.service.clock.ManualClock` advances to each flush, so
    the replay never reads the host clock and two replays of the same
    ``(db, schedule, policy)`` triple produce byte-identical transcripts
    (and equal summaries).
    """
    if policy is None:
        policy = db.config.coalesce
    engine = VerificationEngine(db)
    clock = ManualClock()
    telemetry = _telemetry_active()
    summary = ReplaySummary()
    lines: list[str] = [_dump({
        "format": TRANSCRIPT_FORMAT,
        "master_seed": db.config.master_seed,
        "n_modules": db.n_modules,
        "n_requests": len(schedule),
        "policy": {"max_lanes": policy.max_lanes,
                   "max_wait_s": policy.max_wait_s},
    })]
    sequence = 0
    for batch in coalesce_schedule(schedule, policy):
        clock.advance_to(batch.flushed_at)
        replies = engine.execute([request for _, request in batch.arrivals],
                                 batch.index)
        summary.batches += 1
        summary.flush_causes[batch.cause] = (
            summary.flush_causes.get(batch.cause, 0) + 1)
        if telemetry is not None:
            telemetry.count("service.batches")
            telemetry.count("service.lanes", batch.lanes)
            telemetry.count(f"service.flush.{batch.cause}")
        for (arrival, request), reply in zip(batch.arrivals, replies):
            wait = clock.now() - arrival
            summary.n_requests += 1
            summary.accepted += int(reply.accepted)
            summary.rejected += int(not reply.accepted)
            summary.claims_held += int(bool(reply.claim_ok))
            summary.attest_failures += int(reply.attested is False)
            summary.waits.append(wait)
            if telemetry is not None:
                telemetry.observe("service.wait_s", wait,
                                  bounds=LATENCY_BUCKET_BOUNDS)
            lines.append(_dump(_transcript_record(
                sequence, arrival, request, reply, batch.flushed_at,
                batch.cause)))
            sequence += 1
    lines.append(_dump({"records": sequence, "batches": summary.batches}))
    if transcript_path is not None:
        path = Path(transcript_path)
        path.write_text("\n".join(lines) + "\n")
        summary.transcript_path = path
    return summary


async def drive_open_loop(
    batcher: RequestBatcher,
    schedule: Sequence[tuple[float, VerifyRequest]],
    *,
    pace: bool = True,
) -> tuple[list[VerifyReply], list[float]]:
    """Submit a schedule against a live batcher.

    Returns the replies and each request's latency (seconds from its
    submission to its reply, on the batcher's clock), both in request
    order.  Open-loop means submission times ignore completions: with
    ``pace`` the driver sleeps out each virtual inter-arrival gap (so
    the schedule's rate is imposed in real time); without it, requests
    fire back-to-back for a max-throughput run.
    """
    clock = batcher.clock

    async def timed(request: VerifyRequest) -> tuple[VerifyReply, float]:
        submitted = clock.now()
        reply = await batcher.submit(request)
        return reply, clock.now() - submitted

    tasks: list[asyncio.Task[tuple[VerifyReply, float]]] = []
    previous = 0.0
    for timestamp, request in schedule:
        if pace:
            gap = timestamp - previous
            previous = timestamp
            if gap > 0:
                await asyncio.sleep(gap)
        tasks.append(asyncio.ensure_future(timed(request)))
    timed_replies = await asyncio.gather(*tasks)
    return ([reply for reply, _ in timed_replies],
            [latency for _, latency in timed_replies])
