"""repro.lint — determinism & fork-safety static analysis.

The simulator's central contract is byte-identity: scalar, batched,
re-sharded, and N-worker runs of the same (experiment, config, seed)
produce identical results, traces, and telemetry counters.  Golden
files and identity tests enforce that contract *dynamically*; this
package enforces it *statically*, flagging the source patterns that
historically break it (ambient RNG, wall-clock reads, unordered set
iteration, environment coupling, fork-unsafe worker state, polluted
telemetry counters) before they ever execute.

Analysis is one pass: each file is parsed once into a
:class:`~repro.lint.summary.ModuleSummary`, the summaries are linked
into a :class:`~repro.lint.callgraph.Project`, and every rule runs once
over it (taint data-flow across function/module boundaries,
backend-parity checking, kernel-purity proofs).  Every finding goes
through one pragma matcher.  Reports render as text, JSON, or SARIF
2.1.0.

Entry points:

* ``python -m repro lint [paths]`` — the CLI (see :mod:`.cli`);
* :func:`lint_paths` / :func:`lint_source` — the library API used by
  the meta-test in ``tests/lint``;
* :class:`Rule` + :func:`register` — the plug-in surface for new rules
  (workflow documented in ``docs/linting.md``).
"""

from __future__ import annotations

from . import builtin, dataflow, parity  # noqa: F401  (registers rules)
from .callgraph import Project
from .engine import LintReport, iter_python_files, lint_paths, lint_source
from .model import Finding, Severity
from .rules import Rule, register, registered_rules, rules_for_codes
from .sarif import render_sarif, sarif_json
from .summary import ModuleSummary, extract_summary

__all__ = [
    "Finding",
    "LintReport",
    "ModuleSummary",
    "Project",
    "Rule",
    "Severity",
    "extract_summary",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "register",
    "registered_rules",
    "render_sarif",
    "rules_for_codes",
    "sarif_json",
]
