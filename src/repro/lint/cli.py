"""Command-line front end: ``python -m repro lint [paths]``.

Exit codes (CI contract):

* ``0`` — no findings, or every finding is covered by the baseline;
* ``1`` — at least one non-baselined finding, or a file failed to
  parse;
* ``2`` — usage error (unknown rule code, missing path, malformed
  baseline file).

``--format json`` emits a single machine-readable object with the full
finding list, the new/baselined split, and stale baseline entries;
``--format sarif`` emits a SARIF 2.1.0 log for CI code scanning.
``--write-baseline`` regenerates the baseline from the current finding
set, pruning entries that no longer match (the sanctioned way to
grandfather a new rule's debt and to pay it down).  ``--fix`` applies
the available autofixes and re-lints.  ``--parity`` restricts the run
to the backend-parity rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from . import builtin, dataflow, parity  # noqa: F401  (registers rules)
from .baseline import (
    Baseline,
    BaselineError,
    DEFAULT_BASELINE_NAME,
    partition_findings,
)
from .engine import LintReport, lint_paths
from .fix import fix_source, fixable_codes
from .rules import registered_rules, rules_for_codes
from .sarif import sarif_json

__all__ = ["main", "build_parser"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="determinism & fork-safety static analysis "
                    "(rule catalog: docs/linting.md)")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="output_format",
                        help="report format (default: text)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help=f"baseline file (default: "
                             f"{DEFAULT_BASELINE_NAME} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file; every finding "
                             "fails the run")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the current finding set as the new "
                             "baseline (pruning stale entries) and "
                             "exit 0")
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--parity", action="store_true",
                        help="run only the backend-parity rules "
                             "(PAR...)")
    parser.add_argument("--fix", action="store_true",
                        help="apply available autofixes, then re-lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _resolve_baseline(arguments: argparse.Namespace) -> Optional[Baseline]:
    if arguments.no_baseline:
        return None
    if arguments.baseline is not None:
        return Baseline.load(Path(arguments.baseline))
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists():
        return Baseline.load(default)
    return None


def _print_rules(stream: TextIO) -> None:
    for code, rule_class in registered_rules().items():
        stream.write(f"{code}  [{rule_class.severity}]  "
                     f"{rule_class.summary}\n")


def _render_text(report: LintReport, new: List, baselined: List,
                 stale: List, stream: TextIO) -> None:
    for finding in new:
        stream.write(finding.render() + "\n")
    for path, message in report.parse_errors:
        stream.write(f"{path}: PARSE [error] {message}\n")
    if baselined:
        stream.write(f"# {len(baselined)} baselined finding(s) "
                     f"suppressed\n")
    for entry_path, code, _message in stale:
        stream.write(f"# stale baseline entry: {entry_path}: {code} "
                     f"(no longer found — remove it)\n")
    summary = (f"# {report.files_checked} file(s) checked, "
               f"{len(new)} new finding(s), "
               f"{len(baselined)} baselined, "
               f"{len(report.parse_errors)} parse error(s)")
    stream.write(summary + "\n")


def _render_json(report: LintReport, new: List, baselined: List,
                 stale: List, stream: TextIO) -> None:
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "findings": [f.to_json() for f in new],
        "baselined": [f.to_json() for f in baselined],
        "stale_baseline": [
            {"path": path, "code": code, "message": message}
            for path, code, message in stale
        ],
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in report.parse_errors
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _apply_fixes(report: LintReport, stream: TextIO) -> int:
    """Rewrite files in place for every fixable finding."""
    fixable = [finding for finding in report.findings
               if finding.code in fixable_codes()]
    by_path: Dict[str, List] = {}
    for finding in fixable:
        by_path.setdefault(finding.path, []).append(finding)
    fixed = 0
    for path, findings in sorted(by_path.items()):
        target = Path(path)
        try:
            source = target.read_text(encoding="utf-8")
        except OSError:
            continue
        new_source, applied = fix_source(source, findings)
        if applied:
            target.write_text(new_source, encoding="utf-8")
            fixed += applied
    if fixed:
        stream.write(f"# fixed {fixed} finding(s) in "
                     f"{len(by_path)} file(s)\n")
    return fixed


def _write_baseline(arguments: argparse.Namespace, report: LintReport,
                    rules, stream: TextIO) -> int:
    """Regenerate the baseline: current findings win, stale entries go.

    Entries for rule codes *not* selected this run are preserved
    verbatim — ``--select DET003 --write-baseline`` must not wipe the
    grandfathered debt of every other rule.
    """
    target = Path(arguments.baseline
                  if arguments.baseline is not None
                  else DEFAULT_BASELINE_NAME)
    selected_codes = {rule.code for rule in rules}
    preserved: List = []
    pruned = 0
    if target.exists():
        previous = Baseline.load(target)
        current = {finding.identity() for finding in report.findings}
        for entry in previous.entries:
            if entry[1] not in selected_codes:
                preserved.append(entry)
            elif entry not in current:
                pruned += 1
    entries = sorted(
        {finding.identity() for finding in report.findings}
        | set(preserved))
    Baseline(entries=tuple(entries)).save(target)
    stream.write(f"# baseline with {len(entries)} finding(s) written "
                 f"to {target} ({pruned} stale entr"
                 f"{'y' if pruned == 1 else 'ies'} pruned)\n")
    return EXIT_CLEAN


def main(argv: Sequence[str] | None = None,
         stream: TextIO | None = None) -> int:
    if stream is None:
        stream = sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        _print_rules(stream)
        return EXIT_CLEAN

    try:
        if arguments.select is not None and arguments.parity:
            raise ValueError("--select and --parity are exclusive")
        if arguments.parity:
            codes: Optional[List[str]] = [
                code for code in registered_rules()
                if code.startswith("PAR")]
        elif arguments.select is not None:
            codes = [c.strip() for c in arguments.select.split(",")
                     if c.strip()]
        else:
            codes = None
        rules = rules_for_codes(codes)
    except ValueError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_USAGE

    try:
        baseline = _resolve_baseline(arguments)
    except BaselineError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = lint_paths(arguments.paths, rules=rules)
        if arguments.fix and _apply_fixes(report, stream):
            # the tree changed under us: analyze the result instead.
            report = lint_paths(arguments.paths, rules=rules)
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_USAGE

    if arguments.write_baseline:
        return _write_baseline(arguments, report, rules, stream)

    effective = baseline if baseline is not None else Baseline.empty()
    new, baselined, stale = partition_findings(report.findings, effective)

    if arguments.output_format == "json":
        _render_json(report, new, baselined, stale, stream)
    elif arguments.output_format == "sarif":
        stream.write(sarif_json(
            new + baselined, rules=rules,
            baselined=[f.identity() for f in baselined]))
    else:
        _render_text(report, new, baselined, stale, stream)

    if new or report.parse_errors:
        return EXIT_FINDINGS
    return EXIT_CLEAN
