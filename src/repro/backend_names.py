"""The names of the two execution engines, checked without loading them.

``ExperimentConfig.backend``, the ``--backend`` flags and
:func:`repro.backends.execute_program` accept exactly these names; any
other raises :class:`BackendError`.  The engines themselves live in
:mod:`repro.backends`, which loads the simulator; this module imports
nothing but :mod:`repro.errors`, so building a config checks its
engine without loading either.
"""

from __future__ import annotations

from .errors import ReproError

__all__ = ["BACKENDS", "DEFAULT_BACKEND", "BackendError", "check_backend"]

#: ``fused`` runs every stage's devices or trials as lanes of the
#: vectorized engine; ``scalar`` is the cycle-accurate ``SoftMC`` +
#: ``DramChip`` reference, one device at a time.
BACKENDS = ("fused", "scalar")

#: The engine ``experiments`` and ``report`` run when none is named.
DEFAULT_BACKEND = "fused"


class BackendError(ReproError):
    """An unknown engine name, or a program request an engine refuses."""


def check_backend(name: str) -> None:
    """Raise :class:`BackendError` unless ``name`` names an engine."""
    if name not in BACKENDS:
        raise BackendError(f"unknown backend {name!r}; choose from "
                           f"{', '.join(BACKENDS)}")
