"""Enrollment database: batched build, scalar identity, on-disk store."""

import numpy as np
import pytest

from repro import DramChip
from repro.errors import ConfigurationError, InsufficientDataError
from repro.puf.frac_puf import FracPuf
from repro.service import (EnrollmentDb, EnrollmentStore, ServiceConfig,
                           VerificationEngine, VerifyRequest,
                           build_enrollment, module_id)
from .conftest import N_MODULES


class TestBuildEnrollment:
    def test_shape_and_ids(self, enrolled_db, service_config):
        assert enrolled_db.n_modules == N_MODULES
        assert enrolled_db.references.shape == (
            N_MODULES, service_config.n_challenges, service_config.columns)
        assert enrolled_db.ids[0] == "A-00000"
        assert enrolled_db.index_of("B-00001") == 4

    def test_unknown_identity_raises(self, enrolled_db):
        with pytest.raises(InsufficientDataError):
            enrolled_db.index_of("B-99999")

    def test_references_match_scalar_enrollment(self, enrolled_db,
                                                service_config):
        # Lane-for-lane byte identity with the scalar FracPuf enrollment
        # at epoch 0 — the batched engine contract, surfaced here as the
        # enrollment correctness guarantee.
        challenges = service_config.challenges()
        for index in (0, 4, N_MODULES - 1):
            group, serial = enrolled_db.specs[index]
            chip = DramChip(group, geometry=service_config.geometry(),
                            serial=serial,
                            master_seed=service_config.master_seed)
            scalar = FracPuf(chip, n_frac=service_config.n_frac)
            np.testing.assert_array_equal(
                enrolled_db.references[index],
                scalar.evaluate_many(challenges))

    def test_cohorts_smaller_than_enroll_batch_are_identical(
            self, enrolled_db, service_config):
        import dataclasses

        narrow = dataclasses.replace(service_config, enroll_batch=4)
        rebuilt = build_enrollment(narrow, N_MODULES)
        np.testing.assert_array_equal(rebuilt.references,
                                      enrolled_db.references)

    def test_authenticator_twin_accepts_enrolled_module(self, enrolled_db):
        auth = enrolled_db.authenticator()
        assert auth.enrolled_ids == enrolled_db.ids
        decision = auth.decide(enrolled_db.references[2])
        assert decision.accepted
        assert decision.device_id == enrolled_db.ids[2]
        assert decision.mean_distance == 0.0

    def test_references_are_read_only(self, enrolled_db, service_config):
        db = EnrollmentDb(service_config, enrolled_db.specs,
                          enrolled_db.references.copy())
        with pytest.raises(ValueError):
            db.references[0, 0, 0] = not db.references[0, 0, 0]

    def test_reference_shape_validated(self, service_config):
        with pytest.raises(ConfigurationError):
            EnrollmentDb(service_config, [("B", 0)],
                         np.zeros((2, 2, 64), dtype=bool))


class TestEnrollmentStore:
    def test_round_trip(self, enrolled_db, service_config, tmp_path):
        store = EnrollmentStore(tmp_path)
        assert store.fetch(service_config, N_MODULES) is None
        store.store(enrolled_db)
        loaded = store.fetch(service_config, N_MODULES)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.references,
                                      enrolled_db.references)
        assert loaded.ids == enrolled_db.ids
        assert store.hits == 1 and store.misses == 1 and store.stores == 1

    def test_fetched_db_decides_like_the_built_one(self, enrolled_db,
                                                   service_config, tmp_path):
        store = EnrollmentStore(tmp_path)
        store.store(enrolled_db)
        loaded = store.fetch(service_config, N_MODULES)
        assert loaded is not None
        requests = [VerifyRequest(f"r{index}", group, serial, epoch=2,
                                  claimed_id=module_id(group, 0))
                    for index, (group, serial) in enumerate(
                        [("A", 0), ("B", 1), ("C", 2), ("B", 500)])]
        assert (VerificationEngine(loaded).execute(requests)
                == VerificationEngine(enrolled_db).execute(requests))

    def test_load_or_build_hits_second_time(self, service_config, tmp_path):
        store = EnrollmentStore(tmp_path)
        first = store.load_or_build(service_config, N_MODULES)
        second = store.load_or_build(service_config, N_MODULES)
        assert store.stores == 1 and store.hits == 1
        np.testing.assert_array_equal(first.references, second.references)

    def test_corrupt_entry_reads_as_miss(self, enrolled_db, service_config,
                                         tmp_path):
        store = EnrollmentStore(tmp_path)
        path = store.store(enrolled_db)
        path.write_bytes(b"not an npz archive")
        assert store.fetch(service_config, N_MODULES) is None

    def test_key_depends_on_config_and_fleet_size(self, service_config):
        import dataclasses

        base = EnrollmentStore.key(service_config, N_MODULES)
        assert base != EnrollmentStore.key(service_config, N_MODULES + 1)
        bumped = dataclasses.replace(service_config, threshold=0.2)
        assert base != EnrollmentStore.key(bumped, N_MODULES)

    def test_sidecar_metadata(self, enrolled_db, tmp_path):
        import json

        store = EnrollmentStore(tmp_path)
        path = store.store(enrolled_db)
        sidecar = json.loads(
            path.with_suffix(".json").read_text())
        assert sidecar["n_modules"] == N_MODULES
        assert sidecar["groups"] == ["A", "B", "C"]


class TestStoreDefaultsToIsolatedCache:
    def test_default_directory_under_fleet_cache(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_CACHE", str(tmp_path))
        store = EnrollmentStore()
        assert str(store.directory).startswith(str(tmp_path))
