"""Deterministic stream derivation: the foundation of PUF reproducibility."""

import numpy as np

from repro.dram.rng import NoiseSource, derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "chip", 3) == derive_seed(0, "chip", 3)

    def test_differs_by_key(self):
        assert derive_seed(0, "chip", 3) != derive_seed(0, "chip", 4)

    def test_differs_by_master(self):
        assert derive_seed(0, "chip", 3) != derive_seed(1, "chip", 3)

    def test_key_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_mixed_key_types(self):
        assert derive_seed(0, "x", 1, (2, 3)) == derive_seed(0, "x", 1, (2, 3))

    def test_no_prefix_collision(self):
        # ("ab",) must differ from ("a", "b") — the separator prevents it.
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    def test_output_is_128_bits(self):
        assert 0 <= derive_seed(0, "k") < 2 ** 128


class TestDeriveRng:
    def test_same_stream(self):
        a = derive_rng(7, "x").random(8)
        b = derive_rng(7, "x").random(8)
        assert np.array_equal(a, b)

    def test_independent_streams(self):
        a = derive_rng(7, "x").random(8)
        b = derive_rng(7, "y").random(8)
        assert not np.array_equal(a, b)


class TestNoiseSource:
    def test_reproducible_from_identity(self):
        a = NoiseSource(0, "chip", 1).normal(1.0, 16)
        b = NoiseSource(0, "chip", 1).normal(1.0, 16)
        assert np.array_equal(a, b)

    def test_reseed_changes_stream(self):
        source = NoiseSource(0, "chip", 1)
        first = source.normal(1.0, 16)
        source.reseed()
        second = source.normal(1.0, 16)
        assert not np.array_equal(first, second)

    def test_reseed_to_explicit_epoch_is_addressable(self):
        a = NoiseSource(0, "chip", 1)
        a.reseed(5)
        b = NoiseSource(0, "chip", 1)
        b.reseed(5)
        assert np.array_equal(a.normal(1.0, 8), b.normal(1.0, 8))
        assert a.epoch == 5

    def test_sequential_reseed_increments_epoch(self):
        source = NoiseSource(0, "chip", 1)
        source.reseed()
        source.reseed()
        assert source.epoch == 2

    def test_zero_scale_noise_is_zero(self):
        source = NoiseSource(0, "chip", 1)
        assert not source.normal(0.0, 8).any()

    def test_spawn_independent(self):
        parent = NoiseSource(0, "chip", 1)
        child_a = parent.spawn("bank", 0)
        child_b = parent.spawn("bank", 1)
        assert not np.array_equal(child_a.normal(1.0, 8),
                                  child_b.normal(1.0, 8))

    def test_spawn_inherits_epoch(self):
        parent = NoiseSource(0, "chip", 1)
        child_before = parent.spawn("bank", 0).normal(1.0, 8)
        parent.reseed(3)
        child_after = parent.spawn("bank", 0).normal(1.0, 8)
        assert not np.array_equal(child_before, child_after)
        # And the reseeded spawn is itself reproducible.
        again = parent.spawn("bank", 0).normal(1.0, 8)
        assert np.array_equal(child_after, again)

    def test_source_started_at_an_epoch_is_the_reseeded_source(self):
        reseeded = NoiseSource(0, "chip", 1)
        reseeded.reseed(4)
        started = NoiseSource(0, "chip", 1, epoch=4)
        assert started.epoch == 4
        assert (started.rng.bit_generator.state
                == reseeded.rng.bit_generator.state)

    def test_spawn_at_an_epoch_is_the_reseeded_child(self):
        parent = NoiseSource(0, "chip", 1)
        reseeded = parent.spawn("bank", 0)
        reseeded.reseed(2)
        child = parent.spawn("bank", 0, epoch=2)
        assert child.epoch == 2 and parent.epoch == 0
        assert (child.rng.bit_generator.state
                == reseeded.rng.bit_generator.state)
