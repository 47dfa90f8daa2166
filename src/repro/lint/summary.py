"""Module summaries: the one parse of each file that every rule reads.

:mod:`repro.lint` never walks two ASTs at once, and no rule sees an
AST.  Each file is parsed exactly once into a :class:`ModuleSummary` —
a compact, immutable record of everything the rules need:

* the import table (aliases resolved at link time, so
  ``from numpy import random as r`` cannot launder ``r.default_rng()``),
* every call site with its argument shape (for the unseeded-generator
  check) and the enclosing statement's end line (for pragma filtering),
* per-function data-flow atoms: calls whose results are returned,
  locals assigned from calls (one-hop pass-through), telemetry counter
  feed sites, and module-state mutations (FORK002).  Top-level
  functions and methods get one summary each; everything else (module
  statements, class bodies, class decorators and bases, nested classes)
  lands in the :data:`MODULE_BODY` summary,
* set-iteration sites (DET003) and environment reads (DET004),
* the suppression pragmas and decorator-stack anchors (see
  :meth:`repro.lint.callgraph.Project.is_suppressed`),
* the *dispatch surface*: ``isinstance`` targets, string equality/
  membership sets, ``xs.append(("tag", ...))`` heads, ``KIND`` class
  attributes and module-level string tuples — the raw material of the
  backend-parity checker (:mod:`.parity`).

Link-time analysis lives in :mod:`repro.lint.callgraph`; this module
imports only the pragma parsers of :mod:`.model`, so summaries stay a
leaf of the package graph.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .model import (decorator_anchor_lines, module_name_for_path,
                    parse_suppressions)

__all__ = [
    "MODULE_BODY",
    "CallSite",
    "ClassSummary",
    "CounterFeed",
    "DispatchSummary",
    "FunctionSummary",
    "ModuleSummary",
    "Mutation",
    "Site",
    "extract_summary",
]

#: Qual of the summary holding the code outside top-level function and
#: method bodies; no call can name it, so it is never a call-graph node.
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class Site:
    """Where a finding anchors: a node's start and its statement's end."""

    line: int
    column: int
    end_line: int      # closing line of the enclosing statement


@dataclass(frozen=True)
class CallSite(Site):
    """One resolvable-name call: ``a.b.c(args...)`` somewhere in a body."""

    name: str          # dotted name as written (unresolved)
    n_args: int
    keywords: Tuple[str, ...]  # keyword names; "*" for **kwargs


@dataclass(frozen=True)
class CounterFeed(Site):
    """A telemetry-counter feed site and the expressions feeding it."""

    arg_calls: Tuple[CallSite, ...]   # calls inside the value arguments
    arg_names: Tuple[str, ...]        # bare names inside the value arguments


@dataclass(frozen=True)
class Mutation(Site):
    """A module-level-state mutation inside one function body."""

    kind: str     # "global" | "store" | "call"
    detail: str   # rendered description fragment, e.g. "RESULTS.append()"


@dataclass(frozen=True)
class FunctionSummary:
    """Data-flow atoms of one function or method body."""

    qual: str     # "func", "Class.method" or MODULE_BODY (module-relative)
    line: int
    calls: Tuple[CallSite, ...]
    #: Calls whose result is (possibly via a one-hop local) returned.
    returned_calls: Tuple[CallSite, ...]
    #: local variable -> the call it was assigned from (single Name target).
    assigned_calls: Tuple[Tuple[str, CallSite], ...]
    counter_feeds: Tuple[CounterFeed, ...]
    mutations: Tuple[Mutation, ...]


@dataclass(frozen=True)
class ClassSummary:
    """One class: its methods plus constructor-typed instance attributes."""

    name: str
    methods: Tuple[str, ...]
    #: instance attribute -> dotted constructor name (``self.x = Ctor()``).
    attr_types: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class DispatchSummary:
    """The statically-extracted dispatch surface of one module."""

    isinstance_targets: Tuple[str, ...]
    #: compared name -> string constants it is ``==``/``in``-matched to.
    compare_sets: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: list name -> string heads of tuple/list literals appended to it.
    append_heads: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: class name -> its ``KIND`` class attribute value.
    class_kinds: Tuple[Tuple[str, str], ...]
    #: module-level name -> string/identifier items of its tuple value.
    module_tuples: Tuple[Tuple[str, Tuple[str, ...]], ...]


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the rules need to know about one module."""

    module: str
    path: str
    is_package: bool
    imports: Tuple[Tuple[str, str], ...]  # local name -> dotted target
    module_names: Tuple[str, ...]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...]
    standalone_pragma_lines: Tuple[int, ...]
    #: decorated-definition line -> first decorator line.
    decorator_anchors: Tuple[Tuple[int, int], ...]
    #: set-valued expressions iterated without ``sorted()``.
    set_iterations: Tuple[Site, ...]
    #: ``(name as written, site)`` of each ``os.environ``-style read.
    environ_reads: Tuple[Tuple[str, Site], ...]
    dispatch: DispatchSummary


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def _dotted(node: ast.AST) -> Optional[str]:
    """``Attribute``/``Name`` chain -> ``"a.b.c"`` (else ``None``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _header(node: ast.stmt) -> List[ast.AST]:
    """A def's or class's header: decorators, parameters with their
    defaults and annotations, the return annotation, bases."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [*node.decorator_list, *ast.iter_child_nodes(node.args),
                *filter(None, (node.returns,))]
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    return []


def _statement_ends(root: ast.AST) -> Dict[int, int]:
    """Map ``id(node)`` -> the closing line a pragma on it may sit on.

    That is the innermost enclosing statement's end line, except in a
    def's or class's header, where each expression ends on its own last
    line: a pragma at the end of a decorated body must not cover the
    decorators.  ``ast.walk`` is breadth-first, so inner statements are
    visited after outer ones and the last assignment wins — exactly the
    innermost.
    """
    ends: Dict[int, int] = {}
    for node in ast.walk(root):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        for child in ast.walk(node):
            ends[id(child)] = end
        for header in _header(node):
            for child in ast.walk(header):
                ends[id(child)] = header.end_lineno
    return ends


_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "write", "sort",
    "reverse", "appendleft", "popleft",
}

#: Receivers that identify the telemetry registry at instrumented call
#: sites (``tel = active()`` is the repo-wide idiom).
_TELEMETRY_RECEIVERS = {
    "tel", "telemetry", "self.telemetry", "self._telemetry", "registry",
}
_TELEMETRY_FACTORIES = {"active", "_telemetry_active"}


def _module_level_names(tree: ast.Module) -> Tuple[str, ...]:
    names = set()
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets.extend(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets.append(node.target)
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.update(element.id for element in target.elts
                             if isinstance(element, ast.Name))
    return tuple(sorted(names))


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _at(node: ast.AST, ends: Dict[int, int]) -> Dict[str, int]:
    """The :class:`Site` fields of ``node``."""
    return {"line": node.lineno, "column": node.col_offset + 1,
            "end_line": ends.get(id(node), node.lineno)}


def _call_site(call: ast.Call, ends: Dict[int, int]) -> Optional[CallSite]:
    name = _dotted(call.func)
    if name is None:
        return None
    return CallSite(
        name=name, n_args=len(call.args),
        keywords=tuple(kw.arg if kw.arg is not None else "*"
                       for kw in call.keywords),
        **_at(call, ends))


def _is_telemetry_receiver(node: ast.AST) -> bool:
    name = _dotted(node)
    if name is not None and name in _TELEMETRY_RECEIVERS:
        return True
    if isinstance(node, ast.Call):
        factory = _dotted(node.func)
        if factory is not None:
            return factory.rsplit(".", 1)[-1] in _TELEMETRY_FACTORIES
    return False


def _counter_value_args(call: ast.Call) -> List[ast.AST]:
    """The value expressions fed into a telemetry counter, if any."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "count" and _is_telemetry_receiver(func.value):
        return list(call.args[1:]) + [kw.value for kw in call.keywords
                                      if kw.arg == "n"]
    if func.attr == "add" and isinstance(func.value, ast.Call):
        inner = func.value.func
        if (isinstance(inner, ast.Attribute) and inner.attr == "counter"
                and _is_telemetry_receiver(inner.value)):
            return list(call.args) + [kw.value for kw in call.keywords
                                      if kw.arg == "n"]
    return []


def _walk(root: ast.AST, skip: Set[int]) -> List[ast.AST]:
    """``ast.walk`` order, without descending into nodes whose id is in
    ``skip``."""
    nodes: List[ast.AST] = []
    todo = deque([root])
    while todo:
        node = todo.popleft()
        nodes.append(node)
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if id(child) not in skip)
    return nodes


def _function_summary(qual: str, line: int, nodes: List[ast.AST],
                      ends: Dict[int, int],
                      module_names: FrozenSet[str]) -> FunctionSummary:
    calls: List[CallSite] = []
    returned: List[CallSite] = []
    assigned: List[Tuple[str, CallSite]] = []
    feeds: List[CounterFeed] = []
    mutations: List[Mutation] = []
    declared_global: set = set()
    returned_names: List[str] = []

    for child in nodes:
        if isinstance(child, ast.Call):
            site = _call_site(child, ends)
            if site is not None:
                calls.append(site)
            value_args = _counter_value_args(child)
            if value_args:
                arg_calls: List[CallSite] = []
                arg_names: List[str] = []
                for arg in value_args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Call):
                            sub_site = _call_site(sub, ends)
                            if sub_site is not None:
                                arg_calls.append(sub_site)
                        elif isinstance(sub, ast.Name):
                            arg_names.append(sub.id)
                feeds.append(CounterFeed(
                    arg_calls=tuple(arg_calls), arg_names=tuple(arg_names),
                    **_at(child, ends)))
            func = child.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS):
                root = _root_name(func.value)
                if root is not None and root in module_names:
                    mutations.append(Mutation(
                        kind="call", detail=f"{root}.{func.attr}()",
                        **_at(child, ends)))
        elif isinstance(child, ast.Global):
            declared_global.update(child.names)
            mutations.append(Mutation(
                kind="global", detail=", ".join(child.names),
                **_at(child, ends)))
        elif isinstance(child, ast.Return) and child.value is not None:
            for sub in ast.walk(child.value):
                if isinstance(sub, ast.Call):
                    site = _call_site(sub, ends)
                    if site is not None:
                        returned.append(site)
                elif isinstance(sub, ast.Name):
                    returned_names.append(sub.id)

    # second pass: assignments (needs declared_global complete).
    for child in nodes:
        if isinstance(child, (ast.Assign, ast.AugAssign)):
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target])
            for target in targets:
                root = _root_name(target)
                if root is None:
                    continue
                is_container_store = isinstance(
                    target, (ast.Subscript, ast.Attribute))
                if root in module_names and (
                        is_container_store or root in declared_global):
                    mutations.append(Mutation(
                        kind="store", detail=root, **_at(child, ends)))
            if (isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)
                    and isinstance(child.value, ast.Call)):
                site = _call_site(child.value, ends)
                if site is not None:
                    assigned.append((child.targets[0].id, site))

    # resolve one-hop pass-through returns: ``x = f(); return x``.
    assigned_map = dict(assigned)
    for name in returned_names:
        site = assigned_map.get(name)
        if site is not None:
            returned.append(site)

    return FunctionSummary(
        qual=qual, line=line,
        calls=tuple(calls), returned_calls=tuple(returned),
        assigned_calls=tuple(assigned), counter_feeds=tuple(feeds),
        mutations=tuple(sorted(
            mutations, key=lambda m: (m.line, m.column, m.kind, m.detail))))


def _is_set_expression(node: ast.AST) -> bool:
    """True when ``node`` syntactically constructs a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_set_expression(node.left)
                or _is_set_expression(node.right))
    if isinstance(node, ast.Call):
        if _dotted(node.func) in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return _is_set_expression(node.func.value)
    return False


def _rule_sites(tree: ast.Module, ends: Dict[int, int],
                ) -> Tuple[List[Site], List[Tuple[str, Site]]]:
    """Set-iteration sites (DET003) and environment reads (DET004)."""
    set_iterations: List[Site] = []
    environ_reads: List[Tuple[str, Site]] = []
    for node in ast.walk(tree):
        iterated: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iterated.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            if (_dotted(node.func) in ("list", "tuple", "enumerate")
                    and node.args):
                iterated.append(node.args[0])
        elif isinstance(node, ast.Attribute):
            # Exactly "os.environ" / "os.getenv": the innermost node of
            # every access pattern (subscript, .get, membership), so
            # each site is recorded once.
            name = _dotted(node)
            if name in ("os.environ", "os.getenv", "os.putenv"):
                environ_reads.append((name, Site(**_at(node, ends))))
        elif isinstance(node, ast.Name) and node.id == "environ":
            environ_reads.append(("environ", Site(**_at(node, ends))))
        set_iterations.extend(Site(**_at(target, ends))
                              for target in iterated
                              if _is_set_expression(target))
    return set_iterations, environ_reads


def _extract_dispatch(tree: ast.Module) -> DispatchSummary:
    isinstance_targets: set = set()
    compare_sets: Dict[str, set] = {}
    append_heads: Dict[str, set] = {}
    class_kinds: List[Tuple[str, str]] = []
    module_tuples: Dict[str, Tuple[str, ...]] = {}

    def class_names(node: ast.AST) -> List[str]:
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        if isinstance(node, ast.Tuple):
            return [name for element in node.elts
                    for name in class_names(element)]
        return []

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func_name = _dotted(node.func)
            if func_name == "isinstance" and len(node.args) == 2:
                isinstance_targets.update(class_names(node.args[1]))
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "append" and len(node.args) == 1
                  and isinstance(node.args[0], (ast.Tuple, ast.List))
                  and node.args[0].elts
                  and isinstance(node.args[0].elts[0], ast.Constant)
                  and isinstance(node.args[0].elts[0].value, str)):
                receiver = _dotted(node.func.value)
                if receiver is not None:
                    append_heads.setdefault(receiver, set()).add(
                        node.args[0].elts[0].value)
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            subject = _dotted(node.left)
            if subject is None:
                continue
            subject = subject.rsplit(".", 1)[-1]
            comparator = node.comparators[0]
            values: List[str] = []
            if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                if (isinstance(comparator, ast.Constant)
                        and isinstance(comparator.value, str)):
                    values.append(comparator.value)
            elif isinstance(node.ops[0], (ast.In, ast.NotIn)):
                if isinstance(comparator, (ast.Tuple, ast.List, ast.Set)):
                    values.extend(
                        element.value for element in comparator.elts
                        if isinstance(element, ast.Constant)
                        and isinstance(element.value, str))
            if values:
                compare_sets.setdefault(subject, set()).update(values)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                value = None
                if (isinstance(item, ast.Assign) and len(item.targets) == 1
                        and isinstance(item.targets[0], ast.Name)
                        and item.targets[0].id == "KIND"):
                    value = item.value
                elif (isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)
                      and item.target.id == "KIND"):
                    value = item.value
                if (isinstance(value, ast.Constant)
                        and isinstance(value.value, str)):
                    class_kinds.append((node.name, value.value))

    for node in tree.body:
        target = None
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            target, value = node.targets[0].id, node.value
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            target, value = node.target.id, node.value
        if target is None or value is None:
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            items: List[str] = []
            for element in value.elts:
                if (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    items.append(element.value)
                elif isinstance(element, ast.Name):
                    items.append(element.id)
                elif isinstance(element, ast.Attribute):
                    items.append(element.attr)
            if items:
                module_tuples[target] = tuple(items)

    return DispatchSummary(
        isinstance_targets=tuple(sorted(isinstance_targets)),
        compare_sets=tuple(sorted(
            (name, tuple(sorted(values)))
            for name, values in compare_sets.items())),
        append_heads=tuple(sorted(
            (name, tuple(sorted(values)))
            for name, values in append_heads.items())),
        class_kinds=tuple(sorted(class_kinds)),
        module_tuples=tuple(sorted(module_tuples.items())),
    )


def _resolve_from_base(module: str, is_package: bool, node: ast.ImportFrom,
                       ) -> Optional[str]:
    """The absolute package/module an ``ImportFrom`` pulls names from."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    drop = node.level - 1
    if drop:
        parts = parts[:-drop] if drop < len(parts) else []
    if node.module:
        parts = parts + node.module.split(".")
    return ".".join(parts) if parts else None


def extract_summary(source: str, *, path: str,
                    module: Optional[str] = None) -> ModuleSummary:
    """Parse ``source`` once into its summary (raises ``SyntaxError``).

    ``module`` overrides the dotted name inferred from ``path`` — tests
    use it to exercise the allowlists of DET002/DET004 without
    fabricating a ``src/repro`` directory layout.
    """
    if module is None:
        module = module_name_for_path(Path(path))
    tree = ast.parse(source, filename=path)
    suppressions, standalone = parse_suppressions(source)
    is_package = path.endswith("__init__.py")
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    imports.setdefault(head, head)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from_base(module, is_package, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}"

    module_names = _module_level_names(tree)
    names_set = frozenset(module_names)
    ends = _statement_ends(tree)

    functions: List[FunctionSummary] = []
    classes: List[ClassSummary] = []
    bodies: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.add(id(node))
            functions.append(_function_summary(
                node.name, node.lineno, list(ast.walk(node)), ends,
                names_set))
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            attr_types: Dict[str, str] = {}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    bodies.add(id(item))
                    methods.append(item.name)
                    nodes = list(ast.walk(item))
                    functions.append(_function_summary(
                        f"{node.name}.{item.name}", item.lineno, nodes,
                        ends, names_set))
                    for sub in nodes:
                        if (isinstance(sub, ast.Assign)
                                and len(sub.targets) == 1
                                and isinstance(sub.targets[0], ast.Attribute)
                                and isinstance(sub.targets[0].value, ast.Name)
                                and sub.targets[0].value.id == "self"
                                and isinstance(sub.value, ast.Call)):
                            ctor = _dotted(sub.value.func)
                            if ctor is not None:
                                attr_types.setdefault(
                                    sub.targets[0].attr, ctor)
            classes.append(ClassSummary(
                name=node.name, methods=tuple(methods),
                attr_types=tuple(sorted(attr_types.items()))))
    functions.append(_function_summary(
        MODULE_BODY, 1, _walk(tree, bodies), ends, names_set))
    set_iterations, environ_reads = _rule_sites(tree, ends)

    return ModuleSummary(
        module=module, path=path, is_package=is_package,
        imports=tuple(sorted(imports.items())),
        module_names=module_names,
        functions=tuple(functions),
        classes=tuple(classes),
        suppressions=tuple(sorted(
            (line, tuple(sorted(codes)))
            for line, codes in suppressions.items())),
        standalone_pragma_lines=tuple(sorted(standalone)),
        decorator_anchors=tuple(sorted(
            decorator_anchor_lines(tree).items())),
        set_iterations=tuple(set_iterations),
        environ_reads=tuple(environ_reads),
        dispatch=_extract_dispatch(tree),
    )
