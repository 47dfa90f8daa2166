"""In-memory spans around calls into the program's layers.

A :class:`Recorder` keeps one :class:`Span` per call into a wrapped
entry point: name, start, end, parent span and the run id.  Spans stay
in memory and are written as JSON lines only when the run ends, so the
traced run does no I/O while it measures.

Two rules shape the arithmetic:

* A span opened while another span *of the same name* is open on the
  same thread is folded into the outer one (``fill_row`` calls
  ``write_row``; ``from_fleet`` builds each ``DramChip``), so a layer's
  call count and time are never double-counted.
* A span's self time is its duration minus the durations of its direct
  child spans (:func:`summarize`).

:class:`Patcher` installs the wrappers.  A module-level function is
patched on *every* loaded ``repro`` module that holds it, because a
caller that did ``from x import f`` looks ``f`` up in its own module;
a method is patched on the class that defines it.  ``restore`` puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = ["LayerTotals", "Patcher", "Recorder", "Span", "Target",
           "summarize"]

#: ``units(args, kwargs, result) -> int``: work done by one call (lanes,
#: rows scanned, ...); defaults to 1 per call.
UnitsFn = Callable[[tuple, dict, Any], int]
#: ``tag(args, kwargs) -> int``: an identifier recorded with the span
#: (the batch index of a served batch).
TagFn = Callable[[tuple, dict], int]


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    units: int
    tag: int | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Collects spans from any thread; parents are per-thread."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self) -> tuple[list[int], set[str]]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = set()
        return local.stack, local.open

    def _open(self, name: str) -> tuple[int, int | None, int] | None:
        stack, open_names = self._state()
        if name in open_names:
            return None  # folded into the open span of the same name
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        open_names.add(name)
        return span_id, parent, time.perf_counter_ns()

    def _close(self, name: str, token: tuple[int, int | None, int],
               units: int, tag: int | None) -> None:
        end = time.perf_counter_ns()
        stack, open_names = self._state()
        stack.pop()
        open_names.discard(name)
        span_id, parent, start = token
        self.spans.append(Span(span_id, name, start, end, parent, units, tag))

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             units: UnitsFn | None = None, tag: TagFn | None = None) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        token = self._open(name)
        if token is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(name, token, 0, None)
            raise
        self._close(name, token,
                    int(units(args, kwargs, result)) if units else 1,
                    tag(args, kwargs) if tag else None)
        return result

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        token = self._open(name)
        if token is None:
            yield
            return
        try:
            yield
        finally:
            self._close(name, token, 1, None)

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def write_jsonl(self, path: Path) -> Path:
        """Write every span as one JSON object per line, in id order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in sorted(self.spans, key=lambda item: item.id):
                handle.write(json.dumps({
                    "run": self.run_id, "id": span.id, "name": span.name,
                    "start_ns": span.start_ns, "end_ns": span.end_ns,
                    "parent": span.parent, "units": span.units,
                    "tag": span.tag}) + "\n")
        return path


@dataclass
class LayerTotals:
    """Per-name aggregate of a run's spans."""

    calls: int = 0
    units: int = 0
    total_ns: int = 0
    self_ns: int = 0


def summarize(spans: Iterable[Span]) -> dict[str, LayerTotals]:
    """Calls, units, total and self time per span name.

    Self time is a span's duration minus the summed durations of its
    direct children; a grandchild's time is already inside its parent's
    duration, so it is subtracted exactly once.
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = (child_ns.get(span.parent, 0)
                                     + span.duration_ns)
    totals: dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.units += span.units
        entry.total_ns += span.duration_ns
        entry.self_ns += span.duration_ns - child_ns.get(span.id, 0)
    return totals


@dataclass(frozen=True)
class Target:
    """One public entry point: ``module`` plus ``Class.method`` or ``func``.

    ``sites`` names modules that import a function by name; installing
    fails unless each of them got the wrapper, which catches a caller
    that would otherwise keep calling the unwrapped original.
    """

    module: str
    attr: str
    units: UnitsFn | None = None
    tag: TagFn | None = None
    sites: tuple[str, ...] = ()


class Patcher:
    """Installs span wrappers on entry points and restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrapper(self, name: str, fn: Callable, target: Target) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return recorder.call(name, fn, args, kwargs, target.units,
                                 target.tag)

        return wrapper

    def install(self, name: str, target: Target) -> None:
        module = importlib.import_module(target.module)
        for site in target.sites:
            importlib.import_module(site)
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]  # the class must define it
            if isinstance(raw, classmethod):
                patched: Any = classmethod(
                    self._wrapper(name, raw.__func__, target))
            else:
                patched = self._wrapper(name, raw, target)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))
            return
        original = getattr(module, attr)
        holders = [(loaded, key)
                   for module_name, loaded in list(sys.modules.items())
                   if module_name == "repro" or module_name.startswith("repro.")
                   for key, value in list(vars(loaded).items())
                   if value is original]
        bound_in = {loaded.__name__ for loaded, _ in holders}
        missing = [site for site in target.sites if site not in bound_in]
        if missing:
            raise RuntimeError(f"{target.module}.{attr} is not imported by "
                               f"name in {missing}; the wrapper would miss "
                               f"their calls")
        wrapper = self._wrapper(name, original, target)
        for loaded, key in holders:
            setattr(loaded, key, wrapper)
            self._undo.append((loaded, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
