"""Experiment harnesses: one module per paper table/figure (see DESIGN.md).

:data:`repro.experiments.runner.EXPERIMENTS` registers every module
once; ``python -m repro.experiments.runner`` runs them through their
shard hooks (``shard_units`` / ``run_shard`` / ``merge``) and prints the
paper-style tables.  Each sub-module also exposes a typed
``run(config)`` for programmatic use.
"""

from .base import DEFAULT_CONFIG, ExperimentConfig

__all__ = ["DEFAULT_CONFIG", "ExperimentConfig"]
