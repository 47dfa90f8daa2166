"""Rule framework for :mod:`repro.lint`: base class, registry, helpers.

A rule is a class with a unique ``code`` (``DET001``-style), a
one-line ``summary``, a ``rationale`` explaining *why* the pattern
threatens this repository's determinism/fork-safety contracts, and a
:meth:`Rule.check` generator that inspects one :class:`ModuleContext`
and yields findings.  Registration is declarative::

    @register
    class MyRule(Rule):
        code = "DET999"
        summary = "short imperative description"
        rationale = "why this breaks byte-identity"

        def check(self, ctx):
            ...
            yield self.finding(ctx, node, "message")

The registry powers rule selection (``--select``), the ``--list-rules``
catalog, and the docs generator in ``docs/linting.md``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Type

from .model import Finding, ModuleContext, Severity

__all__ = [
    "Rule",
    "register",
    "registered_rules",
    "rules_for_codes",
    "dotted_name",
    "walk_calls",
]


class Rule:
    """Base class for one lint check.

    Subclasses set the class attributes and implement :meth:`check`
    (one call per parsed module) and/or :meth:`check_project` (one call
    per lint run, over the linked whole-program
    :class:`~repro.lint.callgraph.Project`).  Instances are stateless
    between files — the engine constructs one instance per run.

    A rule may implement both phases under one code: the per-module
    pass catches what a single AST can prove, and the project pass
    adds the cross-module cases (aliased imports, call-graph taint)
    the per-module pass structurally cannot see.  Project-phase rules
    are responsible for their own pragma filtering (the project phase
    sees summaries, never ASTs) — use ``project.is_suppressed``.
    """

    #: Unique short code, e.g. ``DET001``; findings and pragmas use it.
    code: str = ""
    #: One-line imperative description for catalogs and ``--list-rules``.
    summary: str = ""
    #: Why the flagged pattern endangers determinism or fork safety.
    rationale: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Per-module findings; default: none (project-only rule)."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Whole-program findings; default: none (module-only rule)."""
        return iter(())

    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
            severity=self.severity,
        )

    def project_finding(self, path: str, line: int, column: int,
                        message: str) -> Finding:
        """Build a project-phase finding at an explicit location."""
        return Finding(path=path, line=line, column=column, code=self.code,
                       message=message, severity=self.severity)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_class`` to the global registry."""
    code = rule_class.code
    if not code:
        raise ValueError(f"{rule_class.__name__} has no code")
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(
            f"duplicate rule code {code}: {existing.__name__} vs "
            f"{rule_class.__name__}")
    _REGISTRY[code] = rule_class
    return rule_class


def registered_rules() -> Dict[str, Type[Rule]]:
    """All registered rules, keyed by code (sorted copy)."""
    return {code: _REGISTRY[code] for code in sorted(_REGISTRY)}


def rules_for_codes(codes: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them when ``codes=None``)."""
    registry = registered_rules()
    if codes is None:
        return [rule_class() for rule_class in registry.values()]
    selected: List[Rule] = []
    for code in codes:
        try:
            selected.append(registry[code]())
        except KeyError:
            raise ValueError(
                f"unknown rule code {code!r}; known: "
                f"{', '.join(registry)}") from None
    return selected


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve an ``Attribute``/``Name`` chain to ``"a.b.c"``.

    Returns ``None`` for anything that is not a pure name chain (calls,
    subscripts, literals), so ``np.random.default_rng`` resolves but
    ``chip.banks[0].rng`` does not.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """All ``Call`` nodes under ``tree`` in document order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node
