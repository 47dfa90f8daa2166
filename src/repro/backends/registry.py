"""The backend registry: names -> execution engines.

A *backend* is an interchangeable execution engine for SoftMC programs
and experiments (see :class:`repro.backends.base.Backend`).  Engines
register themselves with the :func:`register_backend` class decorator::

    @register_backend
    class MyBackend(Backend):
        name = "mine"
        ...

and become addressable everywhere a backend name is accepted: the
``--backend`` CLI flags, ``ExperimentConfig.backend``, and
the conformance suite (``tests/backends/``), which automatically picks
up every registered backend and pins it byte-identical to the scalar
reference.  This module is deliberately dependency-free so config and
fleet layers can import it without pulling in the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import Backend

__all__ = ["DEFAULT_BACKEND", "BackendError", "available_backends",
           "get_backend", "register_backend", "resolve_backend"]

#: The backend used when none is named (``backend=None``): the lane
#: engine, which auto-sizes its lane width and falls back to scalar
#: semantics at width 1.
DEFAULT_BACKEND = "fused"

_REGISTRY: dict[str, "Backend"] = {}

B = TypeVar("B", bound="type")


class BackendError(ReproError):
    """A backend could not be registered, resolved, or executed."""


def register_backend(cls: B) -> B:
    """Class decorator: instantiate ``cls`` and register it by name."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise BackendError(
            f"backend class {cls.__name__} must define a non-empty "
            f"``name`` string")
    if name in _REGISTRY:
        raise BackendError(f"backend {name!r} is already registered")
    _REGISTRY[name] = cls()
    return cls


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> "Backend":
    """Look up a backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends()) or "(none)"
        raise BackendError(
            f"unknown backend {name!r}; registered backends: {known}"
        ) from None


def resolve_backend(name: str | None) -> "Backend":
    """Look up a backend, defaulting to :data:`DEFAULT_BACKEND`."""
    return get_backend(name if name is not None else DEFAULT_BACKEND)
