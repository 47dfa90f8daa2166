"""Rule framework for :mod:`repro.lint`: base class and registry.

A rule is a class with a unique ``code`` (``DET001``-style), a
one-line ``summary``, a ``rationale`` explaining *why* the pattern
threatens this repository's determinism/fork-safety contracts, and a
:meth:`Rule.check_project` generator that reads the linked
:class:`~repro.lint.callgraph.Project` and yields findings.
Registration is declarative::

    @register
    class MyRule(Rule):
        code = "DET999"
        summary = "short imperative description"
        rationale = "why this breaks byte-identity"

        def check_project(self, project):
            for summary in project.by_path.values():
                for site in ...:  # summary atoms, see repro.lint.summary
                    yield self.project_finding(summary.path, site,
                                               "message")

The registry powers rule selection (``--select``), the ``--list-rules``
catalog, and the docs generator in ``docs/linting.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Type

from .model import Finding, Severity
from .summary import Site

__all__ = [
    "Rule",
    "register",
    "registered_rules",
    "rules_for_codes",
]


class Rule:
    """Base class for one lint check.

    Subclasses set the class attributes and implement
    :meth:`check_project`, which runs once per lint run over the linked
    whole-program :class:`~repro.lint.callgraph.Project`.  Rules read
    module summaries only, never an AST, and leave pragmas to the
    engine: every finding passes through ``Project.is_suppressed``.
    Instances are stateless — the engine constructs one per run.
    """

    #: Unique short code, e.g. ``DET001``; findings and pragmas use it.
    code: str = ""
    #: One-line imperative description for catalogs and ``--list-rules``.
    summary: str = ""
    #: Why the flagged pattern endangers determinism or fork safety.
    rationale: str = ""
    severity: Severity = Severity.ERROR

    def check_project(self, project) -> Iterator[Finding]:
        """Every candidate finding over the whole program."""
        raise NotImplementedError

    def project_finding(self, path: str, site: Site,
                        message: str) -> Finding:
        """A finding anchored at ``site`` of the file ``path``."""
        return Finding(path=path, line=site.line, column=site.column,
                       code=self.code, message=message,
                       severity=self.severity, end_line=site.end_line)


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
