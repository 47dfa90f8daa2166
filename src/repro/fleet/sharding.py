"""Deterministic work decomposition for the device fleet.

The simulator's chip fabrication is a pure function of ``(master_seed,
group, serial)`` (see :mod:`repro.dram.rng`), so an experiment over many
devices decomposes into independent **work units** — small hashable keys
such as ``("B", 3)`` or ``("stability", "C", "f-maj", 1)`` — that any
worker process can execute locally by rebuilding its shard's devices from
the unit key.  Nothing stateful is ever pickled across the process
boundary: a shard carries only the experiment name and the unit keys.

Two invariants make fleet results reproducible:

* **shard invariance** — a unit's computation depends only on
  ``(config, unit key)``, never on which shard it landed in or which
  units ran before it (retrofitted experiments derive a dedicated RNG
  stream per unit);
* **deterministic partitioning** — :func:`partition` splits a unit list
  into contiguous, balanced chunks, so the same ``(units, n_shards)``
  always yields the same plan and merged payloads arrive in serial
  order regardless of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence, TypeVar

from ..errors import ConfigurationError

__all__ = ["Shard", "partition", "plan_shards", "default_shard_count"]

#: A work-unit key: any hashable value (strings, ints, tuples of both).
U = TypeVar("U", bound=Hashable)


@dataclass(frozen=True)
class Shard:
    """One worker's slice of an experiment: unit keys only, no state.

    ``index``/``total`` identify the shard within its plan; ``units`` is
    the contiguous run of unit keys this shard executes, in serial order.
    """

    experiment: str
    index: int
    total: int
    units: tuple[Hashable, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.total:
            raise ConfigurationError(
                f"shard index {self.index} out of range for {self.total} shards")
        if not self.units:
            raise ConfigurationError("a shard must carry at least one unit")

    @property
    def n_units(self) -> int:
        return len(self.units)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Shard({self.experiment!r}, {self.index + 1}/{self.total}, "
                f"{self.n_units} units)")


def partition(units: Sequence[U], n_shards: int) -> list[tuple[U, ...]]:
    """Split ``units`` into at most ``n_shards`` contiguous balanced chunks.

    Chunk sizes differ by at most one and concatenating the chunks
    reproduces ``units`` exactly, so a merge that walks chunks in order
    sees the serial unit order.  ``n_shards`` is clamped to ``len(units)``
    (no empty shards).

    >>> partition(list("abcde"), 2)
    [('a', 'b', 'c'), ('d', 'e')]
    >>> partition(list("ab"), 5)
    [('a',), ('b',)]
    """
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    frozen = tuple(units)
    if not frozen:
        return []
    n_shards = min(n_shards, len(frozen))
    base, extra = divmod(len(frozen), n_shards)
    chunks: list[tuple[U, ...]] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunks.append(frozen[start:start + size])
        start += size
    return chunks


def plan_shards(experiment: str, units: Sequence[Hashable],
                n_shards: int) -> tuple[Shard, ...]:
    """Deterministic shard plan for ``experiment`` over ``units``."""
    chunks = partition(units, n_shards)
    return tuple(
        Shard(experiment=experiment, index=index, total=len(chunks),
              units=chunk)
        for index, chunk in enumerate(chunks))


def default_shard_count(n_units: int, workers: int) -> int:
    """Shards to create for ``workers`` processes (chunked dispatch).

    Two shards per worker keep the pool busy when unit costs are uneven,
    without paying per-unit dispatch overhead.  Never exceeds the unit
    count.
    """
    if workers < 1:
        return 1
    return max(1, min(n_units, 2 * workers))
