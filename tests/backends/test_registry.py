"""Registry behaviour: registration, lookup, lane-width policy."""

import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    BackendError,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.experiments.base import DEFAULT_CONFIG, resolve_batch


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("fused", "scalar")

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
                match=r"registered backends: fused, scalar"):
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
        assert get_backend("scalar").lane_width(8) == 1

    def test_batched_auto(self):
        """The lane engine takes the stage's natural width."""
        assert get_backend("fused").lane_width(8) == 8

    def test_width_never_below_one(self):
        for name in available_backends():
            assert get_backend(name).lane_width(0) == 1

    def test_resolve_batch_respects_config_backend(self):
        assert resolve_batch(DEFAULT_CONFIG, 8) == 8  # default: fused
        assert resolve_batch(DEFAULT_CONFIG.scaled(backend="scalar"), 8) == 1
        assert resolve_batch(DEFAULT_CONFIG.scaled(backend="fused"), 8) == 8
