"""Engine names, and the lane-width policy the name selects.

:data:`BACKENDS` holds the two names; any other raises
:class:`BackendError`.  Each lane stage of an experiment reads
``config.backend`` once: ``scalar`` runs the stage's units one at a
time on the reference, ``fused`` runs them all as lanes of one device
cohort, a single unit as one lane.
"""

import pytest

from repro.backends import BACKENDS, DEFAULT_BACKEND, BackendError, check_backend
from repro.dram.batched import BatchedChip
from repro.experiments import ExperimentConfig, fig6_retention

CONFIG = ExperimentConfig(columns=64)


def spy_lane_widths(monkeypatch) -> list[int]:
    """Record the lane count of every ``BatchedChip`` built."""
    widths: list[int] = []
    original = BatchedChip.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        widths.append(self.n_lanes)

    monkeypatch.setattr(BatchedChip, "__init__", spy)
    return widths


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("fused", "scalar")

    def test_available_backends_sorted(self):
        assert list(BACKENDS) == sorted(BACKENDS)

    def test_unknown_backend_error_lists_names_sorted(self):
        """The error's name list is pinned to sorted order.

        Error text is effectively API — scripts and docs quote it — so
        the rendered list must not depend on how the names are stored.
        """
        with pytest.raises(BackendError, match=r"choose from fused, scalar"):
            check_backend("nope")

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(BackendError, match="unknown backend 'nope'"):
            check_backend("nope")
        with pytest.raises(BackendError, match="scalar"):
            check_backend("nope")

    def test_resolve_backend_default(self):
        """No name means fused; ``None`` is not a third spelling of it."""
        assert DEFAULT_BACKEND == "fused"
        assert ExperimentConfig().backend == DEFAULT_BACKEND
        with pytest.raises(BackendError, match="unknown backend None"):
            ExperimentConfig(backend=None)


class TestLaneWidthPolicy:
    """``config.backend`` sets the width of every lane stage."""

    def test_scalar_forces_width_one(self, monkeypatch):
        widths = spy_lane_widths(monkeypatch)
        fig6_retention.run_shard(CONFIG.scaled(backend="scalar"), ("B", "C"))
        assert widths == []

    def test_batched_auto(self, monkeypatch):
        """The lane engine takes the stage's natural width."""
        widths = spy_lane_widths(monkeypatch)
        fig6_retention.run_shard(CONFIG.scaled(backend="fused"), ("B", "C"))
        assert widths == [2]

    def test_width_never_below_one(self, monkeypatch):
        """A single-unit stage runs on the lane engine as one lane."""
        widths = spy_lane_widths(monkeypatch)
        fig6_retention.run_shard(CONFIG.scaled(backend="fused"), ("B",))
        assert widths == [1]
