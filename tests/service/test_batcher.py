"""Coalescing policy, verification engine, and the asyncio batcher."""

import asyncio

import pytest

from repro import DramChip
from repro.errors import ConfigurationError
from repro.puf.frac_puf import FracPuf
from repro.service import (CoalescePolicy, ManualClock, RequestBatcher,
                           VerificationEngine, VerifyRequest,
                           coalesce_schedule, drive_open_loop)
from repro.telemetry import session as telemetry_session


def request(n, group="B", serial=0, epoch=1, claim=None):
    return VerifyRequest(request_id=f"r{n}", group_id=group, serial=serial,
                        epoch=epoch, claimed_id=claim)


class TestVerifyRequest:
    def test_presented_id(self):
        assert request(0, "C", 7).presented_id == "C-00007"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VerifyRequest("r", "B", serial=-1)
        with pytest.raises(ConfigurationError):
            VerifyRequest("r", "B", serial=0, epoch=-1)


class TestCoalesceSchedule:
    POLICY = CoalescePolicy(max_lanes=3, max_wait_s=1.0)

    def test_capacity_flush_at_filling_arrival(self):
        schedule = [(0.0, request(0)), (0.1, request(1)), (0.2, request(2)),
                    (0.3, request(3))]
        batches = coalesce_schedule(schedule, self.POLICY)
        assert [batch.cause for batch in batches] == ["capacity", "drain"]
        assert batches[0].flushed_at == 0.2
        assert batches[0].lanes == 3
        assert batches[1].opened_at == 0.3
        assert batches[1].flushed_at == pytest.approx(1.3)

    def test_window_flush_at_deadline(self):
        schedule = [(0.0, request(0)), (0.5, request(1)), (2.0, request(2))]
        batches = coalesce_schedule(schedule, self.POLICY)
        assert [batch.cause for batch in batches] == ["window", "drain"]
        assert batches[0].flushed_at == 1.0  # opened_at + max_wait_s
        assert batches[0].lanes == 2
        assert batches[1].arrivals[0][0] == 2.0

    def test_final_batch_drains_at_deadline(self):
        batches = coalesce_schedule([(5.0, request(0))], self.POLICY)
        assert [batch.cause for batch in batches] == ["drain"]
        assert batches[0].flushed_at == 6.0

    def test_empty_schedule(self):
        assert coalesce_schedule([], self.POLICY) == []

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ConfigurationError):
            coalesce_schedule([(1.0, request(0)), (0.5, request(1))],
                              self.POLICY)

    def test_batch_indices_sequential(self):
        schedule = [(float(i), request(i)) for i in range(5)]
        batches = coalesce_schedule(
            schedule, CoalescePolicy(max_lanes=2, max_wait_s=10.0))
        assert [batch.index for batch in batches] == [0, 1, 2]


class TestVerificationEngine:
    def test_replies_independent_of_batch_composition(self, enrolled_db):
        # The serving guarantee: a request's reply is the same whether
        # it is served alone or fused with strangers.
        engine = VerificationEngine(enrolled_db)
        alone = engine.execute([request(0, "B", 1, epoch=2)])[0]
        fused = engine.execute([request(9, "A", 2, epoch=1),
                                request(0, "B", 1, epoch=2),
                                request(7, "C", 0, epoch=3)])[1]
        assert fused.accepted == alone.accepted
        assert fused.device_id == alone.device_id
        assert fused.mean_distance == alone.mean_distance
        assert fused.frac_fraction == alone.frac_fraction

    def test_decisions_match_scalar_authenticator(self, enrolled_db,
                                                  service_config):
        auth = enrolled_db.authenticator()
        requests = [request(0, "A", 1, epoch=2, claim="A-00001"),
                    request(1, "B", 2, epoch=1),
                    request(2, "C", 9, epoch=1, claim="C-00000")]
        replies = VerificationEngine(enrolled_db).execute(requests)
        for req, reply in zip(requests, replies):
            chip = DramChip(req.group_id, geometry=service_config.geometry(),
                            serial=req.serial,
                            master_seed=service_config.master_seed)
            chip.reseed_noise(req.epoch)
            probe = FracPuf(chip, n_frac=service_config.n_frac).evaluate_many(
                service_config.challenges())
            decision = auth.decide(probe)
            assert reply.accepted == decision.accepted
            assert reply.device_id == decision.device_id
            assert reply.mean_distance == decision.mean_distance

    def test_unenrolled_module_rejected(self, enrolled_db):
        reply = VerificationEngine(enrolled_db).execute(
            [request(0, "B", 500, claim="B-00000")])[0]
        assert not reply.accepted
        assert reply.device_id is None
        assert reply.claim_ok is False

    def test_claim_reporting(self, enrolled_db):
        engine = VerificationEngine(enrolled_db)
        held, wrong, none = engine.execute([
            request(0, "B", 0, claim="B-00000"),
            request(1, "B", 0, claim="A-00000"),
            request(2, "B", 0)])
        assert held.claim_ok is True
        assert wrong.claim_ok is False
        assert none.claim_ok is None

    def test_attestation_gated_by_three_row_capability(self, enrolled_db):
        replies = VerificationEngine(enrolled_db).execute(
            [request(0, "A", 0), request(1, "B", 0), request(2, "C", 0)])
        assert replies[0].attested is None   # A: no three-row activation
        assert replies[1].attested is True   # B: MAJ3-capable
        assert replies[2].attested is None
        assert replies[1].frac_fraction > 0.5

    def test_empty_batch(self, enrolled_db):
        assert VerificationEngine(enrolled_db).execute([]) == []

    def test_decision_counters(self, enrolled_db):
        with telemetry_session() as telemetry:
            VerificationEngine(enrolled_db).execute(
                [request(0, "B", 0), request(1, "B", 500)])
            snapshot = telemetry.snapshot(deterministic=True)
        counters = snapshot["counters"]
        assert counters["service.requests"] == 2
        assert counters["service.accepted"] == 1
        assert counters["service.rejected"] == 1


class TestRequestBatcher:
    def test_capacity_coalescing_under_concurrency(self, enrolled_db):
        # Submit exactly max_lanes requests concurrently with an
        # effectively infinite window: they must fuse into one batch.
        # The engine advances the batcher's manual clock while it
        # serves, so the driver's submit-to-reply latencies are exact.
        policy = CoalescePolicy(max_lanes=3, max_wait_s=60.0)
        clock = ManualClock()

        class TimedEngine(VerificationEngine):
            def execute(self, requests, batch_index=0):
                clock.advance(0.25)
                return super().execute(requests, batch_index)

        schedule = [(0.0, request(0, "A", 0, epoch=1)),
                    (0.0, request(1, "B", 0, epoch=1)),
                    (0.0, request(2, "C", 0, epoch=1))]

        async def run():
            batcher = RequestBatcher(TimedEngine(enrolled_db), policy,
                                     clock=clock)
            await batcher.start()
            replies, latencies = await drive_open_loop(batcher, schedule,
                                                       pace=False)
            await batcher.stop()
            return batcher, replies, latencies

        batcher, replies, latencies = asyncio.run(run())
        assert batcher.batches_served == 1
        assert {reply.batch_lanes for reply in replies} == {3}
        assert [reply.request_id for reply in replies] == ["r0", "r1", "r2"]
        assert all(reply.accepted for reply in replies)
        assert latencies == [0.25, 0.25, 0.25]

    def test_window_flush_with_real_clock(self, enrolled_db):
        policy = CoalescePolicy(max_lanes=64, max_wait_s=0.01)

        async def run():
            batcher = RequestBatcher(VerificationEngine(enrolled_db),
                                     policy)
            await batcher.start()
            reply = await batcher.submit(request(0, "B", 1, epoch=1))
            await batcher.stop()
            return batcher, reply

        batcher, reply = asyncio.run(run())
        assert reply.accepted
        assert reply.batch_lanes == 1
        assert batcher.batches_served == 1

    def test_stop_drains_pending(self, enrolled_db):
        policy = CoalescePolicy(max_lanes=64, max_wait_s=120.0)

        async def run():
            batcher = RequestBatcher(VerificationEngine(enrolled_db),
                                     policy)
            await batcher.start()
            future = asyncio.ensure_future(
                batcher.submit(request(0, "B", 0, epoch=1)))
            await asyncio.sleep(0)  # let the submit enqueue
            await batcher.stop()
            return await future

        reply = asyncio.run(run())
        assert reply.accepted

    def test_submit_before_start_rejected(self, enrolled_db):
        batcher = RequestBatcher(VerificationEngine(enrolled_db),
                                 CoalescePolicy(), clock=ManualClock())

        async def run():
            await batcher.submit(request(0))

        with pytest.raises(ConfigurationError):
            asyncio.run(run())
