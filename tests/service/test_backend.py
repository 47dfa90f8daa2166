"""Service engine: fused passes, byte-identical replies.

A mixed-vendor coalesced batch served through the fused engine
(:class:`~repro.xir.puf.FusedFracPuf`) must produce replies equal — as
serialized JSON bytes — to the same batch evaluated by the batched PUF
driver, and must decide every lane exactly as a dedicated scalar
:class:`~repro.puf.auth.Authenticator` pass over that module would.
The driver-level equivalence is also checked on random mixed-vendor,
mixed-epoch fleets in ``tests/xir/test_fused_property.py``.
"""

from __future__ import annotations

import json

from repro import DramChip
from repro.puf.batched_puf import BatchedFracPuf
from repro.puf.frac_puf import FracPuf
from repro.service import VerificationEngine, VerifyRequest
from repro.service import batcher


def request(n, group="B", serial=0, epoch=1, claim=None):
    return VerifyRequest(request_id=f"r{n}", group_id=group, serial=serial,
                         epoch=epoch, claimed_id=claim)


MIXED_BATCH = [
    ("A", 1, 2, "A-00001"),   # honest, claimed
    ("B", 2, 1, None),        # honest, anonymous
    ("C", 0, 3, "C-00001"),   # honest, wrong claim
    ("B", 500, 1, "B-00000"), # impostor (unenrolled serial)
    ("A", 2, 1, None),
]


def mixed_requests():
    return [request(index, group, serial, epoch, claim)
            for index, (group, serial, epoch, claim)
            in enumerate(MIXED_BATCH)]


def test_fused_replies_byte_identical_to_batched(enrolled_db, monkeypatch):
    requests = mixed_requests()
    fused_replies = VerificationEngine(enrolled_db).execute(
        requests, batch_index=3)
    # The engine builds its PUF driver by name; swap in the batched one.
    built = []

    def batched_puf(device, **kwargs):
        built.append(device)
        return BatchedFracPuf(device, **kwargs)

    monkeypatch.setattr(batcher, "FusedFracPuf", batched_puf)
    batched_replies = VerificationEngine(enrolled_db).execute(
        requests, batch_index=3)
    assert built, "the batched driver did not serve the second pass"
    fused_bytes = [json.dumps(reply.to_json_dict(), sort_keys=True)
                   for reply in fused_replies]
    batched_bytes = [json.dumps(reply.to_json_dict(), sort_keys=True)
                     for reply in batched_replies]
    assert fused_bytes == batched_bytes


def test_fused_mixed_batch_matches_scalar_authenticator(enrolled_db,
                                                        service_config):
    """Every lane of a fused mixed batch == a dedicated scalar pass."""
    auth = enrolled_db.authenticator()
    requests = mixed_requests()
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
