"""Shard-result aggregation protocol and the shardable-experiment registry.

A **shardable experiment** is a module exposing three functions on top of
its classic ``run(config) -> Result``:

* ``shard_units(config, **kwargs) -> Sequence[unit]`` — the ordered list
  of independent work-unit keys (hashable tuples/strings of primitives);
* ``run_shard(config, units, **kwargs) -> list[payload]`` — execute a
  contiguous slice of units and return one picklable payload per unit,
  in the same order;
* ``merge(config, payloads, **kwargs) -> Result`` — combine the payloads
  of *all* units (in serial unit order) into the experiment's result
  object.

The contract that makes parallel runs byte-identical to serial ones:
``run(config)`` must equal ``merge(config, run_shard(config,
shard_units(config)))``, and every unit's payload must depend only on
``(config, unit key)`` — never on shard boundaries.  Retrofitted
experiments achieve this by deriving a dedicated RNG stream per unit via
:func:`repro.dram.rng.derive_rng`.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import Iterable, Sequence

from ..errors import ConfigurationError

__all__ = ["SHARDABLE_EXPERIMENTS", "UnshardableExperimentError",
           "get_shardable", "merge_payloads", "run_serial"]

#: Experiment name -> module path.  Every experiment in the suite speaks
#: the protocol; modules are imported lazily so worker processes only pay
#: for what their shard touches.
SHARDABLE_EXPERIMENTS: dict[str, str] = {
    "table1": "repro.experiments.table1",
    "fig6": "repro.experiments.fig6_retention",
    "fig7": "repro.experiments.fig7_maj3",
    "fig8": "repro.experiments.fig8_half_m",
    "fig9": "repro.experiments.fig9_fmaj_coverage",
    "fig10": "repro.experiments.fig10_fmaj_stability",
    "fig11": "repro.experiments.fig11_puf_hd",
    "fig12": "repro.experiments.fig12_puf_env",
    "nist": "repro.experiments.nist_randomness",
    "latency": "repro.experiments.latency",
    "timing": "repro.experiments.timing_sweep",
    "ddr4": "repro.experiments.ddr4_outlook",
}

_PROTOCOL = ("shard_units", "run_shard", "merge")


class UnshardableExperimentError(ConfigurationError):
    """The named experiment does not implement the shard protocol."""


def get_shardable(name: str) -> ModuleType:
    """Import and validate the shardable module behind ``name``."""
    try:
        path = SHARDABLE_EXPERIMENTS[name]
    except KeyError:
        raise UnshardableExperimentError(
            f"experiment {name!r} has no shard protocol; shardable: "
            f"{', '.join(SHARDABLE_EXPERIMENTS)}") from None
    module = importlib.import_module(path)
    missing = [hook for hook in _PROTOCOL if not hasattr(module, hook)]
    if missing:
        raise UnshardableExperimentError(
            f"module {path} registered for {name!r} lacks "
            f"{', '.join(missing)}")
    return module


def merge_payloads(name: str, config,
                   payload_lists: Iterable[Sequence], **kwargs):
    """Flatten per-shard payload lists (in shard order) and merge them."""
    module = get_shardable(name)
    flattened: list = []
    for payloads in payload_lists:
        flattened.extend(payloads)
    return module.merge(config, flattened, **kwargs)


def run_serial(name: str, config, **kwargs):
    """Reference serial path through the shard protocol (single shard)."""
    module = get_shardable(name)
    units = tuple(module.shard_units(config, **kwargs))
    payloads = module.run_shard(config, units, **kwargs)
    return module.merge(config, payloads, **kwargs)
