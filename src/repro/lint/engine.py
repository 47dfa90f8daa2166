"""The lint engine: discovery and the one rule pass.

:func:`lint_paths` is the one entry point both the CLI and the test
suite use.  Each ``.py`` file is parsed once into a
:class:`~repro.lint.summary.ModuleSummary`; the summaries are linked
into a :class:`~repro.lint.callgraph.Project`; every selected rule's
:meth:`~repro.lint.rules.Rule.check_project` runs once over it; and
every finding goes through the one pragma matcher,
:meth:`Project.is_suppressed <repro.lint.callgraph.Project.is_suppressed>`.
:func:`lint_source` runs the same pass over a one-module project.

The report's finding list is deterministic and sorted, so text, JSON
and SARIF output are stable across runs and machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, List, Sequence, Tuple

from .callgraph import Project
from .model import Finding, module_name_for_path
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


def _run(project: Project, rules: Sequence[Rule] | None) -> List[Finding]:
    """Every rule once over ``project``, minus pragma-covered findings.

    Sorted and deduplicated: rule execution order must never leak into
    the report or exit codes.
    """
    if rules is None:
        rules = rules_for_codes(None)
    return sorted({
        finding for rule in rules for finding in rule.check_project(project)
        if not project.is_suppressed(finding.path, finding.code,
                                     finding.line, finding.end_line)})


def lint_source(source: str, *, path: str, module: str | None = None,
                rules: Sequence[Rule] | None = None) -> List[Finding]:
    """Lint one in-memory module as a one-module project.

    ``module`` overrides the dotted-name inference — tests use it to
    exercise the allowlists of DET002/DET004 without fabricating a
    ``src/repro`` directory layout.  Cross-module taint needs the other
    modules; use :func:`lint_paths` for a file tree.
    """
    summary = extract_summary(source, path=path, module=module)
    return _run(Project([summary]), rules)


def lint_paths(paths: Sequence[Path | str], *,
               rules: Sequence[Rule] | None = None,
               root: Path | None = None) -> LintReport:
    """Lint every Python file under ``paths`` as one project.

    Finding paths are rendered POSIX-style relative to ``root`` (default:
    the current working directory) when possible, absolute otherwise.
    """
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
        try:
            raw = file_path.read_bytes()
        except OSError as error:
            report.parse_errors.append((rendered, str(error)))
            continue
        try:
            summaries.append(extract_summary(
                raw.decode("utf-8"), path=rendered,
                module=module_name_for_path(resolved)))
        except (SyntaxError, UnicodeDecodeError) as error:
            lineno = getattr(error, "lineno", None)
            message = (f"line {lineno}: {error.msg}"
                       if isinstance(error, SyntaxError)
                       else str(error))
            report.parse_errors.append((rendered, message))
    report.files_checked = len(summaries)
    report.findings = _run(Project(summaries), rules)
    return report
