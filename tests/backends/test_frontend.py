"""The ``run-program`` CLI: diff-clean output, clean failure modes."""

from pathlib import Path

import pytest

from repro.__main__ import main

EXAMPLE = (Path(__file__).parents[2] / "examples" / "programs"
           / "retention_probe.sfc")


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunProgram:
    def test_example_program_exists(self):
        assert EXAMPLE.exists(), f"documented example missing: {EXAMPLE}"

    def test_example_diff_clean_across_backends(self, capsys):
        outputs = {}
        for backend in ("scalar", "fused"):
            code, out, err = run_cli(
                capsys, "run-program", str(EXAMPLE), "--backend", backend,
                "--devices", "3", "--groups", "B", "C")
            assert code == 0
            assert f"backend {backend}" in err  # engine detail on stderr only
            outputs[backend] = out
        assert len(set(outputs.values())) == 1, (
            "run-program stdout differs across backends")
        assert "read 0:" in outputs["scalar"]
        assert "counters:" in outputs["scalar"]

    def test_unknown_backend_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run-program", str(EXAMPLE), "--backend", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_program_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run-program", str(tmp_path / "missing.sfc"))
        assert code == 2
        assert "cannot read program" in err

    def test_parse_error_reports_line_and_text(self, capsys, tmp_path):
        bad = tmp_path / "bad.sfc"
        bad.write_text("ACT 0 1\nWAIT 6\nFROB 1 2\n")
        code, _, err = run_cli(capsys, "run-program", str(bad))
        assert code == 2
        assert "line 3" in err
        assert "FROB 1 2" in err

    def test_wrong_write_width_exits_2(self, capsys, tmp_path):
        narrow = tmp_path / "narrow.sfc"
        narrow.write_text(
            "ACT 0 1\nWAIT 6\nWR 0 1 1010\nWAIT 8\nPRE 0\nWAIT 4\n")
        code, _, err = run_cli(capsys, "run-program", str(narrow))
        assert code == 2
        assert "4 bits" in err and "64 columns" in err

    def test_out_of_range_row_exits_2(self, capsys, tmp_path):
        program = tmp_path / "deep.sfc"
        program.write_text("ACT 0 999\nWAIT 6\nPRE 0\nWAIT 4\n")
        code, _, err = run_cli(capsys, "run-program", str(program))
        assert code == 2
        assert "row 999 out of range" in err

    def test_trace_out_writes_validatable_trace(self, capsys, tmp_path):
        trace = tmp_path / "run.trace"
        code, _, _ = run_cli(
            capsys, "run-program", str(EXAMPLE), "--trace-out", str(trace))
        assert code == 0
        assert trace.exists() and trace.stat().st_size > 0
        assert main(["validate-trace", str(trace)]) == 0


class TestFusedRefusals:
    """A program the compiler refuses exits 2 on fused, naming the op
    and ``--backend scalar``; the scalar engine runs it."""

    @pytest.mark.parametrize("source, refused", [
        # Ends with row 1 open.
        ("ACT 0 1\nWAIT 6\nRD 0 1\nWAIT 8\n", "program leaves bank 0 open"),
        # Back-to-back ACTs of two distinct rows (ACT-ACT).
        ("ACT 0 1\nWAIT 6\nACT 0 2\nWAIT 6\nPRE 0\nWAIT 6\n",
         "ACT-ACT multi-row activation"),
    ], ids=["ends-open", "act-act"])
    def test_refused_program_exits_2(self, capsys, tmp_path, source,
                                     refused):
        program = tmp_path / "refused.sfc"
        program.write_text(source)
        code, out, err = run_cli(capsys, "run-program", str(program),
                                 "--backend", "fused")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert refused in err
        assert "Commands('refused.sfc')" in err
        assert "--backend scalar" in err
        code, out, _ = run_cli(capsys, "run-program", str(program),
                               "--backend", "scalar")
        assert code == 0
        assert "device 0:" in out


class TestExperimentsBackendFlag:
    def test_experiments_accepts_backend(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiments", "--only", "latency", "--backend", "fused",
            "--no-cache")
        assert code == 0
        assert "latency" in out

    def test_experiments_rejects_unknown_backend(self, capsys):
        for name in ("nope", "plan", "batched"):  # plan, batched: deleted
            code, _, err = run_cli(
                capsys, "experiments", "--only", "latency", "--backend",
                name, "--no-cache")
            assert code == 2
            assert f"unknown backend {name!r}" in err
            assert "choose from fused, scalar" in err
