"""SARIF 2.1.0 rendering: structure, determinism, CLI."""

import io
import json
import textwrap

from repro.lint.cli import EXIT_FINDINGS, main
from repro.lint.engine import lint_source
from repro.lint.rules import rules_for_codes
from repro.lint.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    render_sarif,
    sarif_json,
)

DIRTY = textwrap.dedent("""\
    import time
    import numpy as np

    def sample():
        stamp = time.time()
        return np.random.random(), stamp
""")


def dirty_findings():
    return lint_source(DIRTY, path="repro/pkg/sample.py",
                       module="repro.pkg.sample")


class TestDocumentStructure:
    def test_envelope_and_driver(self):
        rules = rules_for_codes(None)
        document = render_sarif(dirty_findings(), rules=rules)
        assert document["$schema"] == SARIF_SCHEMA
        assert document["version"] == SARIF_VERSION
        [run] = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        codes = [rule["id"] for rule in driver["rules"]]
        assert codes == sorted(codes)
        assert {rule.code for rule in rules} == set(codes)

    def test_results_reference_driver_rules_by_index(self):
        rules = rules_for_codes(None)
        document = render_sarif(dirty_findings(), rules=rules)
        [run] = document["runs"]
        driver_rules = run["tool"]["driver"]["rules"]
        assert len(run["results"]) == 2
        for result in run["results"]:
            index = result["ruleIndex"]
            assert driver_rules[index]["id"] == result["ruleId"]
            [location] = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"] == \
                "repro/pkg/sample.py"
            assert physical["region"]["startLine"] >= 1
            assert physical["region"]["startColumn"] >= 1

    def test_output_is_deterministic(self):
        findings = dirty_findings()
        rules = rules_for_codes(None)
        first = sarif_json(findings, rules=rules)
        second = sarif_json(list(reversed(findings)), rules=rules)
        assert first == second
        assert first.endswith("\n")
        json.loads(first)


class TestCliIntegration:
    def test_format_sarif_emits_valid_document(self, tmp_path,
                                               monkeypatch):
        package = tmp_path / "repro" / "pkg"
        package.mkdir(parents=True)
        (package / "sample.py").write_text(DIRTY)
        monkeypatch.chdir(tmp_path)
        stream = io.StringIO()
        code = main(["repro", "--format", "sarif"], stream=stream)
        assert code == EXIT_FINDINGS
        document = json.loads(stream.getvalue())
        assert document["version"] == SARIF_VERSION
        [run] = document["runs"]
        assert {result["ruleId"] for result in run["results"]} == \
            {"DET001", "DET002"}
