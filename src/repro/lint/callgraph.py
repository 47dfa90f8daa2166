"""Whole-program linking: symbol table, call graph, taint fixpoints.

A :class:`Project` is built from the :class:`~repro.lint.summary.ModuleSummary`
records of every linted file (linking never touches an AST) and is the
one thing every rule reads.  It provides the three resolution services
the rules need, plus the one pragma matcher
(:meth:`Project.is_suppressed`):

* **name resolution** — a dotted name as written in a module is mapped
  through that module's import table (and through package re-export
  chains) to a canonical absolute name, so ``from numpy.random import
  default_rng as mk`` cannot hide ``mk()`` from DET001;
* **call resolution** — a call site is resolved to the summary of the
  project function it targets, including ``self.method(...)``,
  constructor-typed locals (``mc = SoftMC(chip); mc.run(...)``) and
  constructor-typed instance attributes (``self.mc = SoftMC(...)``);
* **taint fixpoints** — the set of project functions whose return value
  is (transitively) a wall-clock read or an ambient RNG draw, computed
  by iterating over ``returned_calls`` edges until stable.

Resolution is deliberately conservative: anything that cannot be proven
to target a project function resolves to ``None`` and produces no graph
edge.  Rules built on the graph therefore under-approximate (no false
positives from wild guesses) except where a name resolves exactly.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from .summary import CallSite, ClassSummary, FunctionSummary, ModuleSummary

__all__ = ["FunctionKey", "Project"]

#: ``(module, qual)`` — the identity of one project function or method.
FunctionKey = Tuple[str, str]

#: Re-export chains longer than this are cut (defensive: a cycle of
#: ``from . import x`` aliases must not hang the linker).
_MAX_REEXPORT_DEPTH = 10


class Project:
    """The linked whole-program view over a set of module summaries."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        #: Module key -> summary.  A key is the module's dotted name,
        #: made unique per file (see :meth:`module_key`).
        self.modules: Dict[str, ModuleSummary] = {}
        self.by_path: Dict[str, ModuleSummary] = {}
        self.functions: Dict[FunctionKey, FunctionSummary] = {}
        self.classes: Dict[Tuple[str, str], ClassSummary] = {}
        self._keys: Dict[str, str] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._locals: Dict[str, Set[str]] = {}
        self._canonical_cache: Dict[str, str] = {}
        self._taint_cache: Dict[str, FrozenSet[FunctionKey]] = {}

        # Files outside a ``repro`` package are named by their stem, so
        # two files may share a name (two ``conftest.py``).  In path
        # order, the first keeps the name and the n-th links as
        # ``name#n``: each file keeps its own symbols and imports
        # whatever order the paths were given in.
        for summary in sorted(summaries, key=lambda summary: summary.path):
            module = summary.module
            rank = 1
            while module in self.modules:
                rank += 1
                module = f"{summary.module}#{rank}"
            self._keys[summary.path] = module
            self.modules[module] = summary
            self.by_path[summary.path] = summary
            self._imports[module] = dict(summary.imports)
            local_names: Set[str] = set(summary.module_names)
            for function in summary.functions:
                self.functions[(module, function.qual)] = function
                if "." not in function.qual:
                    local_names.add(function.qual)
            for cls in summary.classes:
                self.classes[(module, cls.name)] = cls
                local_names.add(cls.name)
            self._locals[module] = local_names

    def module_key(self, summary: ModuleSummary) -> str:
        """The key ``summary``'s file links under: the ``module`` the
        resolution methods take and the first half of its functions'
        :data:`FunctionKey`."""
        return self._keys[summary.path]

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def resolve_name(self, module: str, dotted: str) -> str:
        """Absolute canonical form of ``dotted`` as written in ``module``.

        Unresolvable names (builtins, attributes of locals, libraries
        outside the project) come back unchanged except for import-alias
        substitution — callers match them against known external names
        (``time.time``, ``numpy.random.*``...).
        """
        head, _, rest = dotted.partition(".")
        imports = self._imports.get(module)
        if imports is not None and head in imports:
            target = imports[head] + ("." + rest if rest else "")
            return self._canonical(target)
        if head in self._locals.get(module, ()):
            return self._canonical(f"{module}.{dotted}")
        return dotted

    def _canonical(self, absolute: str, depth: int = 0) -> str:
        if depth == 0:
            cached = self._canonical_cache.get(absolute)
            if cached is not None:
                return cached
        result = absolute
        if depth < _MAX_REEXPORT_DEPTH and absolute not in self.modules:
            parts = absolute.split(".")
            for index in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:index])
                if prefix not in self.modules:
                    continue
                rest = parts[index:]
                imports = self._imports.get(prefix, {})
                if rest[0] in imports:
                    target = imports[rest[0]]
                    if rest[1:]:
                        target += "." + ".".join(rest[1:])
                    result = self._canonical(target, depth + 1)
                break
        if depth == 0:
            self._canonical_cache[absolute] = result
        return result

    def split_absolute(
            self, absolute: str) -> Optional[Tuple[str, Tuple[str, ...]]]:
        """Split a canonical name into ``(project module, remainder)``."""
        parts = absolute.split(".")
        for index in range(len(parts), 0, -1):
            prefix = ".".join(parts[:index])
            if prefix in self.modules:
                return prefix, tuple(parts[index:])
        return None

    def lookup_function(self, absolute: str) -> Optional[FunctionKey]:
        """The project function a canonical absolute name denotes."""
        located = self.split_absolute(absolute)
        if located is None:
            return None
        module, rest = located
        if len(rest) == 1:
            key = (module, rest[0])
            if key in self.functions:
                return key
            if (module, rest[0]) in self.classes:
                init = (module, f"{rest[0]}.__init__")
                return init if init in self.functions else None
        elif len(rest) == 2:
            key = (module, f"{rest[0]}.{rest[1]}")
            if key in self.functions:
                return key
        return None

    def lookup_class(self, module: str,
                     dotted: str) -> Optional[Tuple[str, str]]:
        """Resolve a constructor name to the project class it builds."""
        located = self.split_absolute(self.resolve_name(module, dotted))
        if located is None:
            return None
        owner, rest = located
        if len(rest) == 1 and (owner, rest[0]) in self.classes:
            return (owner, rest[0])
        return None

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------

    def resolve_call(self, module: str, function: FunctionSummary,
                     site: CallSite) -> Optional[FunctionKey]:
        """The project function ``site`` targets, or ``None``."""
        parts = site.name.split(".")
        if parts[0] in ("self", "cls") and "." in function.qual:
            own_class = function.qual.split(".", 1)[0]
            if len(parts) == 2:
                key = (module, f"{own_class}.{parts[1]}")
                return key if key in self.functions else None
            if len(parts) == 3:
                cls = self.classes.get((module, own_class))
                if cls is not None:
                    ctor = dict(cls.attr_types).get(parts[1])
                    if ctor is not None:
                        return self._method_of(module, ctor, parts[2])
            return None
        if len(parts) == 2:
            assigned = dict(function.assigned_calls).get(parts[0])
            if assigned is not None:
                resolved = self._method_of(module, assigned.name, parts[1])
                if resolved is not None:
                    return resolved
        return self.lookup_function(self.resolve_name(module, site.name))

    def _method_of(self, module: str, ctor: str,
                   method: str) -> Optional[FunctionKey]:
        cls = self.lookup_class(module, ctor)
        if cls is None:
            return None
        owner, name = cls
        key = (owner, f"{name}.{method}")
        return key if key in self.functions else None

    def callees(self, key: FunctionKey,
                ) -> Iterator[Tuple[FunctionKey, CallSite]]:
        """Resolved outgoing call edges of one function."""
        function = self.functions.get(key)
        if function is None:
            return
        module = key[0]
        for site in function.calls:
            target = self.resolve_call(module, function, site)
            if target is not None:
                yield target, site

    def reachable(self, entries: Sequence[FunctionKey],
                  ) -> Dict[FunctionKey, Tuple[FunctionKey, ...]]:
        """Call-graph closure of ``entries``.

        Returns ``{function: provenance}`` where provenance is the call
        chain from its entry (entry first, function last) — cycles are
        handled, every function is visited once via its first-found
        chain.
        """
        order: Dict[FunctionKey, Tuple[FunctionKey, ...]] = {}
        stack: List[Tuple[FunctionKey, Tuple[FunctionKey, ...]]] = [
            (entry, (entry,)) for entry in sorted(entries, reverse=True)
            if entry in self.functions]
        while stack:
            key, chain = stack.pop()
            if key in order:
                continue
            order[key] = chain
            for target, _site in self.callees(key):
                if target not in order:
                    stack.append((target, chain + (target,)))
        return order

    # ------------------------------------------------------------------
    # taint fixpoints
    # ------------------------------------------------------------------

    def return_taint(
            self, label: str,
            is_source: Callable[[str, CallSite], bool],
    ) -> FrozenSet[FunctionKey]:
        """Functions whose return value (transitively) comes from a source.

        ``is_source(absolute_name, site)`` classifies a returned call
        against external primitives (e.g. ``time.time``); on top of
        those roots the fixpoint adds every function returning a call
        into an already-tainted function.  Results are cached per
        ``label`` for the lifetime of the project.
        """
        cached = self._taint_cache.get(label)
        if cached is not None:
            return cached
        tainted: Set[FunctionKey] = set()
        changed = True
        while changed:
            changed = False
            for key, function in self.functions.items():
                if key in tainted:
                    continue
                module = key[0]
                for site in function.returned_calls:
                    target = self.resolve_call(module, function, site)
                    if target is not None and target in tainted:
                        tainted.add(key)
                        changed = True
                        break
                    if is_source(self.resolve_name(module, site.name),
                                 site):
                        tainted.add(key)
                        changed = True
                        break
        result = frozenset(tainted)
        self._taint_cache[label] = result
        return result

    # ------------------------------------------------------------------
    # pragma filtering: the one matcher every finding goes through
    # ------------------------------------------------------------------

    def is_suppressed(self, path: str, code: str, line: int,
                      end_line: Optional[int] = None) -> bool:
        """True when a pragma in ``path`` covers ``(code, line)``.

        A pragma counts when it sits on the flagged line; on a
        comment-only line directly above it; on a comment-only line
        above or inside the decorator stack of a decorated definition
        the finding anchors on (the stack or the ``def``/``class``
        line); or on the closing line ``end_line`` of a multi-line
        statement.
        """
        summary = self.by_path.get(path)
        if summary is None:
            return False
        pragmas = dict(summary.suppressions)

        def covers(lineno: int) -> bool:
            codes = pragmas.get(lineno, ())
            return code in codes or "*" in codes

        if covers(line) or (end_line is not None and covers(end_line)):
            return True
        above = [line - 1]
        anchor = dict(summary.decorator_anchors).get(line)
        if anchor is not None:
            above.extend(range(anchor - 1, line - 1))
        return any(lineno in summary.standalone_pragma_lines
                   and covers(lineno) for lineno in above)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    def iter_functions(self) -> Iterator[Tuple[ModuleSummary,
                                               FunctionSummary]]:
        """Every summarized body of every linted file, with its file."""
        for summary in self.by_path.values():
            for function in summary.functions:
                yield summary, function

    def path_of(self, module: str) -> str:
        return self.modules[module].path

    def qualname(self, key: FunctionKey) -> str:
        return f"{self.modules[key[0]].module}.{key[1]}"
