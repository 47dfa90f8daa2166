"""Registry behaviour: registration, lookup, lane-width policy, drivers,
wiring."""

import pytest

from repro.analysis.retention import BatchedRetentionProfiler
from repro.backends import (
    DEFAULT_BACKEND,
    BackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core.batched_ops import BatchedFracDram
from repro.dram.batched import BatchedChip
from repro.dram.parameters import GeometryParams
from repro.experiments.base import DEFAULT_CONFIG, resolve_batch
from repro.fleet.sharding import Shard, plan_shards
from repro.puf.batched_puf import BatchedFracPuf
from repro.xir import FusedFracDram, FusedFracPuf, FusedRetentionProfiler


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("batched", "fused", "scalar")

    def test_available_backends_sorted(self):
        assert list(available_backends()) == sorted(available_backends())

    def test_unknown_backend_error_lists_names_sorted(self):
        """The error's name list is pinned to sorted order.

        Error text is effectively API — scripts and docs quote it — so
        registration order (import side effects) must never leak into
        the rendered list.
        """
        with pytest.raises(
                BackendError,
                match=r"registered backends: batched, fused, scalar"):
            get_backend("nope")

    def test_get_backend_returns_singleton(self):
        assert get_backend("scalar") is get_backend("scalar")

    def test_backend_name_attribute_matches_key(self):
        for name in available_backends():
            assert get_backend(name).name == name

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(BackendError, match="unknown backend 'nope'"):
            get_backend("nope")
        with pytest.raises(BackendError, match="scalar"):
            get_backend("nope")

    def test_resolve_backend_default(self):
        assert resolve_backend(None) is get_backend(DEFAULT_BACKEND)
        assert resolve_backend("fused") is get_backend("fused")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError, match="already registered"):

            @register_backend
            class Duplicate:  # pragma: no cover - rejected at decoration
                name = "scalar"

    def test_unnamed_registration_rejected(self):
        with pytest.raises(BackendError, match="non-empty"):

            @register_backend
            class Nameless:  # pragma: no cover - rejected at decoration
                name = ""


class TestLaneWidthPolicy:
    """``resolve_batch`` dispatches width to the configured backend."""

    def test_scalar_forces_width_one(self):
        assert get_backend("scalar").lane_width(8, None) == 1
        assert get_backend("scalar").lane_width(8, 4) == 1

    def test_batched_auto(self):
        assert get_backend("batched").lane_width(8, None) == 8

    def test_batched_cap(self):
        assert get_backend("batched").lane_width(8, 3) == 3
        assert get_backend("batched").lane_width(2, 16) == 2
        assert get_backend("batched").lane_width(8, 1) == 1

    def test_width_never_below_one(self):
        for name in available_backends():
            assert get_backend(name).lane_width(0, None) == 1

    def test_resolve_batch_respects_config_backend(self):
        assert resolve_batch(DEFAULT_CONFIG, 8) == 8  # default: batched
        assert resolve_batch(DEFAULT_CONFIG.scaled(backend="scalar"), 8) == 1
        assert resolve_batch(DEFAULT_CONFIG.scaled(batch=3), 8) == 3


class TestDriverFactories:
    """Batched drivers by default; the fused engine swaps in xir ones."""

    @staticmethod
    def device():
        return BatchedChip.from_fleet(
            [("B", 0), ("C", 0)], master_seed=7, epochs=[0, 0],
            geometry=GeometryParams(n_banks=1, subarrays_per_bank=1,
                                    rows_per_subarray=16, columns=32))

    @pytest.mark.parametrize("name, drivers", [
        ("scalar", (BatchedFracDram, BatchedFracPuf,
                    BatchedRetentionProfiler)),
        ("batched", (BatchedFracDram, BatchedFracPuf,
                     BatchedRetentionProfiler)),
        ("fused", (FusedFracDram, FusedFracPuf, FusedRetentionProfiler)),
    ])
    def test_factory_driver_types(self, name, drivers):
        backend = get_backend(name)
        fracdram, puf, profiler = drivers
        assert type(backend.fracdram(self.device())) is fracdram
        built = backend.puf(self.device(), n_frac=3)
        assert type(built) is puf and built.n_frac == 3
        assert type(backend.retention_profiler(
            BatchedFracDram(self.device()))) is profiler


class TestFleetWiring:
    def test_shard_default_matches_registry_default(self):
        shard = Shard(experiment="fig6", index=0, total=1, units=("u",))
        assert shard.backend == DEFAULT_BACKEND

    def test_plan_shards_stamps_backend(self):
        shards = plan_shards("fig6", ["a", "b", "c"], 2, backend="fused")
        assert {shard.backend for shard in shards} == {"fused"}

    def test_plan_shards_defaults_backend(self):
        (shard,) = plan_shards("fig6", ["a"], 1)
        assert shard.backend == DEFAULT_BACKEND
