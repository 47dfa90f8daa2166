"""SARIF 2.1.0 rendering for CI code-scanning annotations.

``repro lint --format sarif`` emits one run of the ``repro-lint``
driver conforming to the SARIF 2.1.0 schema
(https://json.schemastore.org/sarif-2.1.0.json): the full rule catalog
(with each rule's summary and rationale) under
``tool.driver.rules``, and one ``result`` per finding with a physical
location.

Only data already in the report is serialized — rendering is pure and
deterministic (rules and results are sorted), so the SARIF artifact is
byte-stable for an unchanged tree.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .model import Finding, Severity
from .rules import Rule

__all__ = ["SARIF_SCHEMA", "SARIF_VERSION", "render_sarif", "sarif_json"]

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"

_TOOL_NAME = "repro-lint"
_TOOL_VERSION = "2.0.0"

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def render_sarif(findings: Sequence[Finding], *,
                 rules: Sequence[Rule]) -> dict:
    """Build the SARIF log object for one lint run."""
    ordered_rules = sorted(rules, key=lambda rule: rule.code)
    rule_index: Dict[str, int] = {
        rule.code: index for index, rule in enumerate(ordered_rules)}
    driver_rules: List[dict] = [
        {
            "id": rule.code,
            "name": type(rule).__name__,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {
                "level": _LEVELS.get(rule.severity, "error")},
            "helpUri": "https://example.invalid/docs/linting.md"
                       f"#{rule.code.lower()}",
        }
        for rule in ordered_rules
    ]
    results: List[dict] = []
    for finding in sorted(findings):
        result = {
            "ruleId": finding.code,
            "level": _LEVELS.get(finding.severity, "error"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column,
                    },
                },
            }],
        }
        if finding.code in rule_index:
            result["ruleIndex"] = rule_index[finding.code]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": _TOOL_NAME,
                    "version": _TOOL_VERSION,
                    "informationUri":
                        "https://github.com/fracdram/repro",
                    "rules": driver_rules,
                },
            },
            "columnKind": "unicodeCodePoints",
            "results": results,
        }],
    }


def sarif_json(findings: Sequence[Finding], *,
               rules: Sequence[Rule]) -> str:
    """The SARIF log serialized with stable key order."""
    log = render_sarif(findings, rules=rules)
    return json.dumps(log, indent=2, sort_keys=True) + "\n"
