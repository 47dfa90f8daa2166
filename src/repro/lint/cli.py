"""Command-line front end: ``python -m repro lint [paths]``.

Exit codes (CI contract):

* ``0`` — no findings;
* ``1`` — at least one finding, or a file failed to parse;
* ``2`` — usage error (unknown rule code, missing path).

A finding is silenced only by a ``# repro: lint-ok[CODE]`` pragma at
its site (see :mod:`repro.lint.model`).  ``--format json`` emits a
single machine-readable object with the full finding list;
``--format sarif`` emits a SARIF 2.1.0 log for CI code scanning.
``--select PAR001,PAR002`` runs only the backend-parity rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from . import builtin, dataflow, parity  # noqa: F401  (registers rules)
from .engine import LintReport, lint_paths
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
    parser.add_argument("--select", default=None, metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def _print_rules(stream: TextIO) -> None:
    for code, rule_class in registered_rules().items():
        stream.write(f"{code}  [{rule_class.severity}]  "
                     f"{rule_class.summary}\n")


def _render_text(report: LintReport, stream: TextIO) -> None:
    for finding in report.findings:
        stream.write(finding.render() + "\n")
    for path, message in report.parse_errors:
        stream.write(f"{path}: PARSE [error] {message}\n")
    summary = (f"# {report.files_checked} file(s) checked, "
               f"{len(report.findings)} finding(s), "
               f"{len(report.parse_errors)} parse error(s)")
    stream.write(summary + "\n")


def _render_json(report: LintReport, stream: TextIO) -> None:
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "findings": [f.to_json() for f in report.findings],
        "parse_errors": [
            {"path": path, "message": message}
            for path, message in report.parse_errors
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def main(argv: Sequence[str] | None = None,
         stream: TextIO | None = None) -> int:
    if stream is None:
        stream = sys.stdout
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        _print_rules(stream)
        return EXIT_CLEAN

    codes: Optional[List[str]] = None
    if arguments.select is not None:
        codes = [c.strip() for c in arguments.select.split(",")
                 if c.strip()]
    try:
        rules = rules_for_codes(codes)
    except ValueError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = lint_paths(arguments.paths, rules=rules)
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_USAGE

    if arguments.output_format == "json":
        _render_json(report, stream)
    elif arguments.output_format == "sarif":
        stream.write(sarif_json(report.findings, rules=rules))
    else:
        _render_text(report, stream)

    if report.findings or report.parse_errors:
        return EXIT_FINDINGS
    return EXIT_CLEAN
