"""CLI behavior: exit codes, formats, selection, refused options."""

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
    """A tiny lintable tree, with cwd pinned so finding paths are relative."""
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
        assert "0 finding(s)" in output

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
        assert payload["parse_errors"] == []
        assert set(payload) == {"version", "files_checked", "findings",
                                "parse_errors"}

    def test_list_rules_catalog(self, tree):
        code, output = run_cli(["--list-rules"])
        assert code == EXIT_CLEAN
        assert [line.split()[0] for line in output.splitlines()] == [
            "DET001", "DET002", "DET003", "DET004", "FORK002", "PAR001",
            "PAR002", "TEL001"]


class TestSelection:
    def test_select_restricts_rules(self, tree):
        code, output = run_cli([str(tree), "--select", "DET002"])
        assert code == EXIT_CLEAN
        assert "DET001" not in output

    def test_select_parity_rules(self, tree):
        # The fixture tree has no dispatch tables, so parity-only runs
        # are clean even though DET001 findings exist.
        code, output = run_cli([str(tree), "--select", "PAR001,PAR002"])
        assert code == EXIT_CLEAN
        assert "DET001" not in output


class TestRefusedOptions:
    """Flags and rule codes the linter does not have are usage errors;
    a pragma is the one way to silence a finding."""

    @pytest.mark.parametrize("flags", [
        ["--fix"], ["--baseline", "baseline.json"], ["--no-baseline"],
        ["--write-baseline"], ["--parity"]], ids=lambda flags: flags[0])
    def test_unknown_flag_is_usage_error(self, tree, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli([str(tree), *flags])
        assert excinfo.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(flags)}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("code", ["FORK001", "PAR003"])
    def test_unknown_rule_is_usage_error(self, tree, code, capsys):
        exit_code, _ = run_cli([str(tree), "--select", code])
        assert exit_code == EXIT_USAGE
        error = capsys.readouterr().err
        assert f"unknown rule code {code!r}" in error
        assert ("known: DET001, DET002, DET003, DET004, FORK002, PAR001, "
                "PAR002, TEL001") in error


class TestModuleEntryPoint:
    def test_python_m_repro_lint_dispatch(self, tree):
        from repro.__main__ import main as repro_main

        assert repro_main(["lint", str(tree / "clean.py")]) == EXIT_CLEAN
        assert repro_main(["lint", str(tree / "dirty.py")]) == EXIT_FINDINGS
