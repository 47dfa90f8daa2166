"""Deterministic random-stream derivation for the DRAM simulator.

Two kinds of randomness live in this model and they must never be mixed:

* **Manufacturing variation** — sense-amplifier offsets, per-cell leakage
  time constants, coupling-weight asymmetries.  These are burnt into a chip
  at "fabrication" and must be a *pure function* of the chip's identity:
  re-instantiating the same chip (same master seed, group, serial) must
  produce bit-identical silicon.  This property is what makes the Frac-based
  PUF meaningful in simulation — a response is unique to a chip and
  reproducible across program runs.

* **Measurement noise** — thermal noise on bit-lines, per-trial jitter of
  coupling, VRT state flips.  These differ between repeated operations on
  the same chip and are drawn from a separate, reseedable stream.

Streams are derived by hashing human-readable key paths into
``numpy.random.SeedSequence`` entropy, so adding a new consumer never
perturbs existing streams (no ordering coupling between consumers).
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derive_rng", "NoiseSource"]

_HASH_BYTES = 16  # 128 bits of derived entropy per stream


def derive_seed(master_seed: int, *keys: object) -> int:
    """Derive a stable child seed from a master seed and a key path.

    The key path is rendered with ``repr`` and hashed with BLAKE2b, so any
    hashable-free mixture of strings and integers works and the result is
    stable across Python processes (unlike built-in ``hash``).

    >>> derive_seed(0, "chip", 3) == derive_seed(0, "chip", 3)
    True
    >>> derive_seed(0, "chip", 3) != derive_seed(0, "chip", 4)
    True
    """
    hasher = hashlib.blake2b(digest_size=_HASH_BYTES)
    hasher.update(str(int(master_seed)).encode())
    for key in keys:
        hasher.update(b"/")
        hasher.update(repr(key).encode())
    return int.from_bytes(hasher.digest(), "little")


def derive_rng(master_seed: int, *keys: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the derived stream."""
    return np.random.default_rng(
        np.random.SeedSequence(derive_seed(master_seed, *keys)))


class NoiseSource:
    """Reseedable measurement-noise stream for one chip.

    A fresh :class:`NoiseSource` starts from a deterministic child seed of
    the chip identity, so a full simulation run is reproducible end to end;
    :meth:`reseed` lets experiments decorrelate repeated measurement
    campaigns (e.g. the two PUF response collections taken ten days apart
    in the paper).  A source built with ``epoch=e`` is the source built
    at epoch 0 and reseeded to ``e``, without deriving the epoch-0
    generator first.
    """

    def __init__(self, master_seed: int, *identity: object,
                 epoch: int = 0) -> None:
        self._master_seed = master_seed
        self._identity: tuple[object, ...] = tuple(identity)
        self._epoch = int(epoch)
        self._rng = derive_rng(master_seed, *identity, "noise", self._epoch)

    @property
    def epoch(self) -> int:
        """The measurement campaign (noise epoch) this source draws."""
        return self._epoch

    @property
    def rng(self) -> np.random.Generator:
        """The live generator; consumers draw from it directly."""
        return self._rng

    def reseed(self, epoch: int | None = None) -> None:
        """Jump to a new deterministic noise epoch.

        With ``epoch=None`` the next sequential epoch is used.  Passing an
        explicit epoch makes a measurement campaign addressable: epoch 0 is
        "day one", epoch 1 "ten days later", and so on.
        """
        self._epoch = self._epoch + 1 if epoch is None else int(epoch)
        self._rng = derive_rng(self._master_seed, *self._identity, "noise", self._epoch)

    def normal(self, scale: float, size: int | tuple[int, ...]) -> np.ndarray:
        """Gaussian noise with standard deviation ``scale``."""
        if scale <= 0.0:
            return np.zeros(size)
        return self._rng.normal(0.0, scale, size=size)

    def spawn(self, *keys: object, epoch: int | None = None) -> "NoiseSource":
        """Create an independent child source (e.g. one per bank).

        The child starts at ``epoch``, by default the parent's current
        epoch, so reseeding a device-level source and re-spawning its
        children moves the whole tree to the new measurement campaign.
        """
        return NoiseSource(self._master_seed, *self._identity, *keys,
                           epoch=self._epoch if epoch is None else epoch)
