"""CLI behavior: exit codes, formats, selection, baseline workflow."""

import io
import json
import textwrap

import pytest

from repro.lint.cli import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    main,
)

DIRTY = textwrap.dedent("""\
    import numpy as np
    value = np.random.random()
""")

CLEAN = textwrap.dedent("""\
    import numpy as np
    rng = np.random.default_rng(2022)
""")


def run_cli(args):
    stream = io.StringIO()
    code = main(args, stream=stream)
    return code, stream.getvalue()


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny lintable tree, with cwd pinned so baseline defaults work."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "dirty.py").write_text(DIRTY)
    (package / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return package


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tree):
        (tree / "dirty.py").unlink()
        code, output = run_cli([str(tree)])
        assert code == EXIT_CLEAN
        assert "0 new finding(s)" in output

    def test_findings_exit_one(self, tree):
        code, output = run_cli([str(tree)])
        assert code == EXIT_FINDINGS
        assert "DET001" in output

    def test_parse_error_exits_one(self, tree):
        (tree / "broken.py").write_text("def broken(:\n")
        code, output = run_cli([str(tree)])
        assert code == EXIT_FINDINGS
        assert "PARSE" in output

    def test_missing_path_is_usage_error(self, tree):
        code, _ = run_cli([str(tree / "does-not-exist")])
        assert code == EXIT_USAGE

    def test_unknown_select_code_is_usage_error(self, tree):
        code, _ = run_cli([str(tree), "--select", "NOPE123"])
        assert code == EXIT_USAGE


class TestOutputFormats:
    def test_text_findings_are_path_line_col(self, tree):
        _, output = run_cli([str(tree)])
        assert "pkg/dirty.py:2:9: DET001 [error]" in output

    def test_json_payload_shape(self, tree):
        code, output = run_cli([str(tree), "--format", "json"])
        payload = json.loads(output)
        assert code == EXIT_FINDINGS
        assert payload["version"] == 1
        assert payload["files_checked"] == 2
        [entry] = payload["findings"]
        assert entry["code"] == "DET001"
        assert entry["path"] == "pkg/dirty.py"
        assert payload["baselined"] == []
        assert payload["parse_errors"] == []

    def test_list_rules_catalog(self, tree):
        code, output = run_cli(["--list-rules"])
        assert code == EXIT_CLEAN
        for expected in ("DET001", "DET004", "FORK001", "TEL001"):
            assert expected in output


class TestSelection:
    def test_select_restricts_rules(self, tree):
        code, output = run_cli([str(tree), "--select", "DET002"])
        assert code == EXIT_CLEAN
        assert "DET001" not in output

    def test_parity_flag_selects_par_rules(self, tree):
        # The fixture tree has no dispatch tables, so parity-only runs
        # are clean even though DET001 findings exist.
        code, output = run_cli([str(tree), "--parity"])
        assert code == EXIT_CLEAN
        assert "DET001" not in output

    def test_parity_conflicts_with_select(self, tree):
        code, _ = run_cli([str(tree), "--parity", "--select", "DET001"])
        assert code == EXIT_USAGE


class TestFixFlag:
    def test_fix_applies_and_reports(self, tree):
        (tree / "sets.py").write_text(textwrap.dedent("""\
            def walk(rows):
                for row in {3, 1, 2}:
                    rows.append(row)
        """))
        code, output = run_cli([str(tree), "--select", "DET003",
                                "--no-baseline", "--fix"])
        assert code == EXIT_CLEAN
        assert "fixed 1 finding(s) in 1 file(s)" in output
        assert "sorted({3, 1, 2})" in (tree / "sets.py").read_text()


class TestBaselineWorkflow:
    def test_write_then_pass_then_flag_regressions(self, tree):
        # 1. grandfather the existing debt
        code, output = run_cli([str(tree), "--write-baseline"])
        assert code == EXIT_CLEAN
        assert "1 finding(s) written" in output

        # 2. the default baseline file now green-lights the same tree
        code, output = run_cli([str(tree)])
        assert code == EXIT_CLEAN
        assert "1 baselined" in output

        # 3. a *new* finding still fails
        (tree / "worse.py").write_text(DIRTY)
        code, output = run_cli([str(tree)])
        assert code == EXIT_FINDINGS
        assert "pkg/worse.py" in output

        # 4. --no-baseline makes the grandfathered finding fail again
        (tree / "worse.py").unlink()
        code, _ = run_cli([str(tree), "--no-baseline"])
        assert code == EXIT_FINDINGS

    def test_stale_entries_reported(self, tree):
        run_cli([str(tree), "--write-baseline"])
        (tree / "dirty.py").write_text(CLEAN)
        code, output = run_cli([str(tree)])
        assert code == EXIT_CLEAN
        assert "stale baseline entry" in output

    def test_rewrite_prunes_stale_entries_and_reports_count(self, tree):
        run_cli([str(tree), "--write-baseline"])
        (tree / "dirty.py").write_text(CLEAN)
        code, output = run_cli([str(tree), "--write-baseline"])
        assert code == EXIT_CLEAN
        assert "0 finding(s) written" in output
        assert "1 stale entry pruned" in output
        # the pruned baseline no longer grandfathers anything
        (tree / "worse.py").write_text(DIRTY)
        code, _ = run_cli([str(tree)])
        assert code == EXIT_FINDINGS

    def test_rewrite_preserves_unselected_codes(self, tree):
        # A full-rule baseline rewritten with --select must keep the
        # entries owned by the codes outside the selection.
        run_cli([str(tree), "--write-baseline"])
        code, output = run_cli([str(tree), "--select", "DET002",
                                "--write-baseline"])
        assert code == EXIT_CLEAN
        assert "0 stale" in output
        code, output = run_cli([str(tree)])
        assert code == EXIT_CLEAN
        assert "1 baselined" in output

    def test_malformed_baseline_is_usage_error(self, tree, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _ = run_cli([str(tree), "--baseline", str(bad)])
        assert code == EXIT_USAGE


class TestModuleEntryPoint:
    def test_python_m_repro_lint_dispatch(self, tree):
        from repro.__main__ import main as repro_main

        assert repro_main(["lint", str(tree / "clean.py")]) == EXIT_CLEAN
        assert repro_main(["lint", str(tree / "dirty.py"),
                           "--no-baseline"]) == EXIT_FINDINGS
