"""Request coalescing onto the device-batched verification engine.

The serving read path has two halves:

* :class:`VerificationEngine` — executes one coalesced batch as fused
  device-batched passes: every request's module becomes a lane of one
  :meth:`~repro.dram.batched.BatchedChip.from_fleet` cohort (fabricated
  at the request's noise epoch), the whole cohort answers the private
  challenge set in one :class:`~repro.xir.puf.FusedFracPuf` pass, optional
  per-vendor-group MAJ3 attestation sub-passes run via
  :func:`~repro.core.verify.batched_verify_frac_by_maj3` on lane
  subsets, and each lane's probe is matched against the enrollment's
  packed matrix with the same :func:`~repro.puf.auth.match_probe` the
  scalar :class:`~repro.puf.auth.Authenticator` uses.  A request's
  reply is therefore independent of which other requests shared its
  batch — the batched engine's byte-identity contract, surfaced as a
  serving guarantee.

* :class:`RequestBatcher` — the asyncio coalescer: concurrent
  ``submit`` calls queue; a batch opens at the first queued request and
  flushes on capacity (``max_lanes``) or window expiry (``max_wait_s``),
  per :class:`~repro.service.config.CoalescePolicy`.  While a batch
  computes, new arrivals keep queueing, so sustained load coalesces
  adaptively.  All timing goes through the injected
  :class:`~repro.service.clock.Clock`.

:func:`coalesce_schedule` is the policy's deterministic twin: it folds
a virtual-time arrival schedule into the exact batches the live
coalescer would form, and drives the scripted replay mode
(:mod:`repro.service.workload`).

Telemetry: decision counters (``service.requests``, ``service.accepted``,
``service.rejected``, ``service.attest_failed``) are deterministic —
replies do not depend on batch composition.  Coalescing-shape counters
(``service.batches``, ``service.flush.*``, ``service.lanes``) are
deterministic under scripted replay but reflect real arrival timing
under the live clock.  Latency only ever enters the wall-clock-exempt
histogram channels (``service.wait_s``, ``service.latency_s``).
"""

from __future__ import annotations

import asyncio
import functools
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.ops import FracDram, MultiRowPlan
from ..core.verify import batched_verify_frac_by_maj3
from ..dram.batched import BatchedChip
from ..dram.chip import DramChip
from ..dram.vendor import GROUPS
from ..errors import ConfigurationError
from ..puf.auth import match_probe
from ..telemetry.registry import active as _telemetry_active
from ..xir.puf import FusedFracPuf
from .clock import Clock, SystemClock
from .config import CoalescePolicy, ServiceConfig, module_id
from .enrollment import EnrollmentDb

__all__ = [
    "CoalescedBatch",
    "RequestBatcher",
    "VerificationEngine",
    "VerifyReply",
    "VerifyRequest",
    "coalesce_schedule",
]

#: Histogram bounds for sub-second serving latencies.
LATENCY_BUCKET_BOUNDS: tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0)


@dataclass(frozen=True)
class VerifyRequest:
    """One challenge–response verification request.

    The requester presents a physical module (``group_id``, ``serial``)
    measured at noise epoch ``epoch`` — enrollment used epoch 0, so a
    genuine re-measurement arrives at a later epoch.  ``claimed_id`` is
    the optional identity the requester asserts; the service always
    *identifies* (best enrolled match, Authenticator semantics) and
    additionally reports whether the claim held.
    """

    request_id: str
    group_id: str
    serial: int
    epoch: int = 1
    claimed_id: str | None = None

    def __post_init__(self) -> None:
        if self.serial < 0:
            raise ConfigurationError("serial must be >= 0")
        if self.epoch < 0:
            raise ConfigurationError("epoch must be >= 0")

    @property
    def presented_id(self) -> str:
        """Identity of the silicon actually presented."""
        return module_id(self.group_id, self.serial)


@dataclass(frozen=True)
class VerifyReply:
    """Outcome of one verification request."""

    request_id: str
    accepted: bool
    device_id: str | None
    mean_distance: float
    #: Whether the identified device matches ``claimed_id`` (None when
    #: the request made no claim).
    claim_ok: bool | None
    #: MAJ3 fractional-value attestation (None when disabled): the
    #: fraction of columns proving a genuine fractional value, and
    #: whether it cleared the configured floor.
    frac_fraction: float | None
    attested: bool | None
    #: Serving batch this request was coalesced into.
    batch_index: int
    batch_lanes: int

    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-safe rendering (stable key set, plain types)."""
        return {
            "request_id": self.request_id,
            "accepted": bool(self.accepted),
            "device_id": self.device_id,
            "mean_distance": float(self.mean_distance),
            "claim_ok": self.claim_ok,
            "frac_fraction": self.frac_fraction,
            "attested": self.attested,
            "batch_index": int(self.batch_index),
            "batch_lanes": int(self.batch_lanes),
        }


class VerificationEngine:
    """Executes coalesced request batches as fused engine passes.

    The challenge set is evaluated through
    :class:`~repro.xir.puf.FusedFracPuf`, whose responses are
    byte-identical to the batched and scalar PUFs (the fused path's
    conformance contract).
    """

    def __init__(self, db: EnrollmentDb) -> None:
        self.db = db
        self.config: ServiceConfig = db.config
        self._challenges = self.config.challenges()
        self._geometry = self.config.geometry()
        self._plans: dict[str, MultiRowPlan] = {}

    def _attestation_plan(self, group_id: str) -> MultiRowPlan:
        """The group's MAJ3 triple plan (bank 0, sub-array 0).

        Plans depend only on the vendor decoder profile, the row map and
        the geometry — none of which vary with the serial — so one
        scalar donor per group serves every lane of that group.
        """
        plan = self._plans.get(group_id)
        if plan is None:
            donor = FracDram(DramChip(
                group_id, geometry=self._geometry, serial=0,
                master_seed=self.config.master_seed))
            plan = donor.triple_plan(0, 0)
            self._plans[group_id] = plan
        return plan

    def execute(self, requests: Sequence[VerifyRequest],
                batch_index: int = 0) -> list[VerifyReply]:
        """Serve one batch; reply ``i`` answers request ``i``.

        Each lane's response bits — and therefore its reply — equal what
        a dedicated scalar pass over that module would produce: batching
        only changes throughput, never decisions.
        """
        if not requests:
            return []
        config = self.config
        telemetry = _telemetry_active()
        specs = [(request.group_id, request.serial) for request in requests]
        epochs = [request.epoch for request in requests]
        device = BatchedChip.from_fleet(
            specs, geometry=self._geometry, master_seed=config.master_seed,
            epochs=epochs)
        puf = FusedFracPuf(device, n_frac=config.n_frac)
        probes = puf.evaluate_many(self._challenges)

        fractions: list[float | None] = [None] * len(requests)
        if config.attest_maj3:
            # Attestation runs *after* the response reads, so it cannot
            # perturb decisions; groups resolve different multi-row
            # plans, so a mixed cohort attests in per-group sub-passes.
            # MAJ3 needs three-row activation, which only a subset of
            # Frac-capable groups supports (Table I: group B) — lanes of
            # other groups stay un-attested rather than failing.
            by_group: dict[str, list[int]] = {}
            for lane, request in enumerate(requests):
                if GROUPS[request.group_id].decoder.supports_three_row:
                    by_group.setdefault(request.group_id, []).append(lane)
            for group_id in sorted(by_group):
                lanes = by_group[group_id]
                results = batched_verify_frac_by_maj3(
                    puf.bfd, self._attestation_plan(group_id),
                    n_frac=1, lanes=lanes)
                for lane, result in zip(lanes, results):
                    fractions[lane] = result.verified_fraction

        replies: list[VerifyReply] = []
        for lane, request in enumerate(requests):
            index, distance = match_probe(self.db.packed, probes[lane])
            accepted = distance <= config.threshold
            device_id = self.db.identity(index) if accepted else None
            claim_ok = (None if request.claimed_id is None
                        else device_id == request.claimed_id)
            fraction = fractions[lane]
            attested = (None if fraction is None
                        else fraction >= config.maj3_floor)
            replies.append(VerifyReply(
                request_id=request.request_id,
                accepted=accepted,
                device_id=device_id,
                mean_distance=distance,
                claim_ok=claim_ok,
                frac_fraction=fraction,
                attested=attested,
                batch_index=batch_index,
                batch_lanes=len(requests)))

        if telemetry is not None:
            telemetry.count("service.requests", len(replies))
            accepted_n = sum(1 for reply in replies if reply.accepted)
            telemetry.count("service.accepted", accepted_n)
            telemetry.count("service.rejected", len(replies) - accepted_n)
            telemetry.count("service.attest_failed",
                            sum(1 for reply in replies
                                if reply.attested is False))
        return replies


# ----------------------------------------------------------------------
# deterministic coalescing (scripted replay)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CoalescedBatch:
    """One batch the coalescing policy would form from a schedule."""

    index: int
    opened_at: float
    flushed_at: float
    cause: str  # "capacity" | "window" | "drain"
    arrivals: tuple[tuple[float, VerifyRequest], ...]

    @property
    def lanes(self) -> int:
        return len(self.arrivals)


def coalesce_schedule(
    schedule: Sequence[tuple[float, VerifyRequest]],
    policy: CoalescePolicy,
) -> list[CoalescedBatch]:
    """Fold a virtual-time arrival schedule into coalesced batches.

    This is the pure, deterministic statement of the live coalescer's
    policy: a batch opens at its first arrival and flushes when it holds
    ``max_lanes`` requests (at the filling arrival's timestamp) or when
    an arrival lands at/after the window deadline (at the deadline).
    The final batch drains at its window deadline.  Identical schedules
    therefore fold into identical batches — the property the scripted
    transcript diffs pin.
    """
    batches: list[CoalescedBatch] = []
    pending: list[tuple[float, VerifyRequest]] = []

    def flush(flushed_at: float, cause: str) -> None:
        batches.append(CoalescedBatch(
            index=len(batches), opened_at=pending[0][0],
            flushed_at=flushed_at, cause=cause, arrivals=tuple(pending)))
        pending.clear()

    previous = float("-inf")
    for timestamp, request in schedule:
        if timestamp < previous:
            raise ConfigurationError(
                f"schedule timestamps must be nondecreasing "
                f"({timestamp} after {previous})")
        previous = timestamp
        if pending and timestamp >= pending[0][0] + policy.max_wait_s:
            flush(pending[0][0] + policy.max_wait_s, "window")
        pending.append((timestamp, request))
        if len(pending) >= policy.max_lanes:
            flush(timestamp, "capacity")
    if pending:
        flush(pending[0][0] + policy.max_wait_s, "drain")
    return batches


# ----------------------------------------------------------------------
# live coalescing (asyncio)
# ----------------------------------------------------------------------

class RequestBatcher:
    """Asyncio request coalescer over a :class:`VerificationEngine`.

    Concurrent ``submit`` awaiters share fused engine passes.  Batches
    execute in the event loop's default executor, so arrivals keep
    queueing (and coalescing) while a batch computes.
    """

    def __init__(self, engine: VerificationEngine,
                 policy: CoalescePolicy | None = None,
                 clock: Clock | None = None) -> None:
        self.engine = engine
        self.policy = policy or engine.config.coalesce
        self.clock = clock or SystemClock()
        self._pending: deque[
            tuple[float, VerifyRequest, asyncio.Future[VerifyReply]]]
        self._pending = deque()
        self._wakeup: asyncio.Event | None = None
        self._task: asyncio.Task[None] | None = None
        self._closing = False
        self._batch_index = 0

    @property
    def batches_served(self) -> int:
        return self._batch_index

    async def start(self) -> None:
        if self._task is not None:
            raise ConfigurationError("batcher already started")
        self._closing = False
        self._wakeup = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain pending requests, then stop the flush loop."""
        if self._task is None:
            return
        self._closing = True
        assert self._wakeup is not None
        self._wakeup.set()
        await self._task
        self._task = None
        self._wakeup = None

    async def submit(self, request: VerifyRequest) -> VerifyReply:
        """Queue a request; resolves when its batch has been served."""
        if self._task is None or self._closing:
            raise ConfigurationError("batcher is not running")
        assert self._wakeup is not None
        loop = asyncio.get_running_loop()
        future: asyncio.Future[VerifyReply] = loop.create_future()
        self._pending.append((self.clock.now(), request, future))
        self._wakeup.set()
        return await future

    async def _run(self) -> None:
        assert self._wakeup is not None
        loop = asyncio.get_running_loop()
        telemetry = _telemetry_active()
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._wakeup.clear()
                # Re-check after clear: an arrival (or stop) may have
                # slipped in between the emptiness test and the clear.
                if not self._pending and not self._closing:
                    await self._wakeup.wait()
                continue
            opened_at = self._pending[0][0]
            deadline = opened_at + self.policy.max_wait_s
            while (len(self._pending) < self.policy.max_lanes
                   and not self._closing):
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    break
                self._wakeup.clear()
                try:
                    await asyncio.wait_for(self._wakeup.wait(),
                                           timeout=remaining)
                except asyncio.TimeoutError:
                    break
            if len(self._pending) >= self.policy.max_lanes:
                cause = "capacity"
            elif self.clock.now() >= deadline:
                cause = "window"
            else:
                cause = "drain"
            taken = [self._pending.popleft()
                     for _ in range(min(self.policy.max_lanes,
                                        len(self._pending)))]
            batch_started = self.clock.now()
            if telemetry is not None:
                telemetry.count("service.batches")
                telemetry.count("service.lanes", len(taken))
                telemetry.count(f"service.flush.{cause}")
                for arrival, _, _ in taken:
                    telemetry.observe("service.wait_s",
                                      batch_started - arrival,
                                      bounds=LATENCY_BUCKET_BOUNDS)
            requests = [request for _, request, _ in taken]
            replies = await loop.run_in_executor(
                None, functools.partial(self.engine.execute, requests,
                                        self._batch_index))
            self._batch_index += 1
            completed = self.clock.now()
            for (arrival, _, future), reply in zip(taken, replies):
                if telemetry is not None:
                    telemetry.observe("service.latency_s",
                                      completed - arrival,
                                      bounds=LATENCY_BUCKET_BOUNDS)
                if not future.cancelled():
                    future.set_result(reply)
