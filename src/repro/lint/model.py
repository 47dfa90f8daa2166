"""Core data model for :mod:`repro.lint`: findings and pragmas.

A lint run parses every target file once into a
:class:`~repro.lint.summary.ModuleSummary` (which carries the file's
pragmas), links the summaries into a
:class:`~repro.lint.callgraph.Project`, and runs each rule once over
it.  Rules yield :class:`Finding` records; the engine then drops the
findings a pragma covers (:meth:`Project.is_suppressed
<repro.lint.callgraph.Project.is_suppressed>`).

Suppression pragmas
-------------------

A finding is suppressed by placing::

    # repro: lint-ok[CODE]

on the flagged line, on the line directly above it (for statements that
do not fit a trailing comment), or on the closing line of a multi-line
statement.  Several codes may be listed (``lint-ok[DET001,TEL001]``) and
``lint-ok[*]`` suppresses every rule on that line.  A pragma is the only
way to silence a finding, and it sits in the source where review sees it.
"""

from __future__ import annotations

import ast
import enum
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional, Tuple

__all__ = [
    "Severity",
    "Finding",
    "decorator_anchor_lines",
    "parse_suppressions",
    "module_name_for_path",
]

#: ``# repro: lint-ok[DET001]`` / ``# repro: lint-ok[DET001, TEL001]`` /
#: ``# repro: lint-ok[*]``
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[\s*([A-Z0-9*]+(?:\s*,\s*[A-Z0-9*]+)*)\s*\]")


class Severity(enum.Enum):
    """How seriously a finding threatens the byte-identity guarantee."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is stored POSIX-style relative to the lint invocation root
    so findings are machine-independent.
    """

    path: str
    line: int
    column: int
    code: str
    message: str
    severity: Severity = field(compare=False, default=Severity.ERROR)
    #: Closing line of the flagged statement; a pragma there covers the
    #: finding too.
    end_line: Optional[int] = field(compare=False, default=None)

    def render(self) -> str:
        """``path:line:col: CODE [severity] message`` (one text line)."""
        return (f"{self.path}:{self.line}:{self.column}: {self.code} "
                f"[{self.severity}] {self.message}")

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
        }


def parse_suppressions(
        source: str) -> Tuple[Dict[int, FrozenSet[str]], FrozenSet[int]]:
    """Parse pragmas out of ``source``.

    Returns ``(suppressions, standalone)``: a map from 1-based line
    numbers to suppressed codes, and the subset of those lines that are
    comment-only.  Only a *standalone* pragma covers the statement below
    it — a trailing pragma on one statement must not bleed into the
    next line.
    """
    suppressions: Dict[int, FrozenSet[str]] = {}
    standalone = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "lint-ok" not in text:
            continue
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        codes = frozenset(
            code.strip() for code in match.group(1).split(","))
        suppressions[lineno] = codes
        if text.lstrip().startswith("#"):
            standalone.add(lineno)
    return suppressions, frozenset(standalone)


def decorator_anchor_lines(tree: ast.Module) -> Dict[int, int]:
    """Map lines of decorated defs to the top line of their decorator stack.

    A pragma placed on the standalone comment line directly above a
    decorator must suppress findings anchored anywhere on the decorator
    stack *or* on the ``def``/``class`` line itself — the decorators sit
    between the pragma and the definition, so the plain "line above"
    rule would otherwise never match.  Every line from the first
    decorator through the definition line maps to the first decorator's
    line (the anchor a pragma-above check should use).
    """
    anchors: Dict[int, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.decorator_list:
            continue
        top = min(decorator.lineno for decorator in node.decorator_list)
        for line in range(top, node.lineno + 1):
            anchors.setdefault(line, top)
    return anchors


def module_name_for_path(path: Path) -> str:
    """Best-effort dotted module name for ``path``.

    Walks the path components for the last ``repro`` package root (the
    layout is ``src/repro/...``) and joins everything from there; files
    outside the package (fixtures, scripts) fall back to their stem.
    Allowlist-carrying rules (DET002, DET004) match on this name.
    """
    parts = list(path.parts)
    stem_parts = parts[:-1] + [path.stem]
    if stem_parts and stem_parts[-1] == "__init__":
        stem_parts = stem_parts[:-1]
    for index in range(len(stem_parts) - 1, -1, -1):
        if stem_parts[index] == "repro":
            return ".".join(stem_parts[index:])
    return path.stem
