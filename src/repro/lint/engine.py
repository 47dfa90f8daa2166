"""The lint engine: discovery and two-phase rule execution.

:func:`lint_paths` is the one entry point both the CLI and the test
suite use.  A run has two phases:

1. **per-module** — each ``.py`` file is parsed once; every selected
   rule's :meth:`~repro.lint.rules.Rule.check` runs over the AST,
   pragma-suppressed findings are dropped, and a
   :class:`~repro.lint.summary.ModuleSummary` is extracted.
2. **project** — the summaries are linked into a
   :class:`~repro.lint.callgraph.Project` and every rule's
   :meth:`~repro.lint.rules.Rule.check_project` runs once over the
   whole program (taint data-flow, backend parity, kernel purity).
   Project-phase findings are deduplicated against per-module findings
   by ``(path, line, code)`` — when both phases flag the same site, the
   per-module finding wins.

The report's finding list is deterministic and sorted, so text, JSON
and SARIF output are stable across runs and machines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

from .callgraph import Project
from .model import Finding, ModuleContext, module_name_for_path
from .rules import Rule, rules_for_codes
from .summary import ModuleSummary, extract_summary

__all__ = ["LintReport", "iter_python_files", "lint_source", "lint_paths"]

#: Directories never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "build", "dist"}


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    #: ``(path, message)`` for files that failed to parse.
    parse_errors: List[Tuple[str, str]] = field(default_factory=list)
    files_checked: int = 0


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` in sorted order."""
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"lint target does not exist: {path}")
        for candidate in sorted(path.rglob("*.py")):
            if not _SKIP_DIRS.intersection(candidate.parts):
                yield candidate


def _statement_end_line(tree: ast.Module, line: int) -> Optional[int]:
    """Closing line of the innermost statement covering ``line``.

    Lets a suppression pragma sit on the last line of a multi-line
    statement (where a trailing comment is usually legal) rather than
    forcing it onto the opening line.
    """
    best: Optional[ast.stmt] = None
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        end = getattr(node, "end_lineno", None)
        if end is None or not node.lineno <= line <= end:
            continue
        if best is None or node.lineno > best.lineno:
            best = node
    if best is None:
        return None
    return getattr(best, "end_lineno", None)


def _module_findings(ctx: ModuleContext,
                     rules: Sequence[Rule]) -> List[Finding]:
    kept: List[Finding] = []
    for rule in rules:
        for finding in rule.check(ctx):
            end_line = _statement_end_line(ctx.tree, finding.line)
            if not ctx.is_suppressed(finding, end_line=end_line):
                kept.append(finding)
    # Sorted and deduplicated: rule execution order must never leak into
    # the report or exit codes.
    return sorted(set(kept))


def lint_source(source: str, *, path: str, module: str | None = None,
                rules: Sequence[Rule] | None = None) -> List[Finding]:
    """Lint one in-memory module (per-module phase only).

    ``module`` overrides the dotted-name inference — tests use it to
    exercise the allowlists of DET002/DET004 without fabricating a
    ``src/repro`` directory layout.  Cross-module rules need a file
    tree; use :func:`lint_paths` for them.
    """
    if rules is None:
        rules = rules_for_codes(None)
    ctx = ModuleContext.from_source(source, path=path, module=module)
    return _module_findings(ctx, rules)


def lint_paths(paths: Sequence[Path | str], *,
               rules: Sequence[Rule] | None = None,
               root: Path | None = None) -> LintReport:
    """Lint every Python file under ``paths`` (both phases).

    Finding paths are rendered POSIX-style relative to ``root`` (default:
    the current working directory) when possible, absolute otherwise.
    """
    if rules is None:
        rules = rules_for_codes(None)
    if root is None:
        root = Path.cwd()
    report = LintReport()
    summaries: List[ModuleSummary] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        resolved = file_path.resolve()
        try:
            rendered = resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            rendered = resolved.as_posix()
        module = module_name_for_path(resolved)
        try:
            raw = file_path.read_bytes()
        except OSError as error:
            report.parse_errors.append((rendered, str(error)))
            continue
        try:
            source = raw.decode("utf-8")
            ctx = ModuleContext.from_source(source, path=rendered,
                                            module=module)
        except (SyntaxError, UnicodeDecodeError) as error:
            lineno = getattr(error, "lineno", None)
            message = (f"line {lineno}: {error.msg}"
                       if isinstance(error, SyntaxError)
                       else str(error))
            report.parse_errors.append((rendered, message))
            continue
        findings = _module_findings(ctx, rules)
        summary = extract_summary(
            ctx.tree, module=module, path=rendered,
            suppressions=ctx.suppressions,
            standalone=ctx.standalone_pragma_lines)
        summaries.append(summary)
        report.files_checked += 1
        report.findings.extend(findings)

    # project phase: link summaries, run whole-program rules, dedup.
    project = Project(summaries)
    occupied = {(f.path, f.line, f.code) for f in report.findings}
    for rule in rules:
        for finding in rule.check_project(project):
            key = (finding.path, finding.line, finding.code)
            if key in occupied:
                continue
            occupied.add(key)
            report.findings.append(finding)

    report.findings.sort()
    return report
