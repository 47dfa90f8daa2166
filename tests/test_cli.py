"""Top-level CLI (``python -m repro``)."""

import asyncio

import pytest

from repro.__main__ import main
from repro.telemetry import TraceWriter


class TestCli:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_experiments_only_latency(self, capsys):
        assert main(["experiments", "--only", "latency"]) == 0
        assert "Frac operation" in capsys.readouterr().out

    def test_puf_response(self, capsys):
        assert main(["puf", "--row", "3"]) == 0
        out = capsys.readouterr().out.strip()
        assert set(out) <= {"0", "1"}
        assert len(out) >= 64

    def test_trng(self, capsys):
        assert main(["trng", "--bits", "32", "--columns", "2048"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 32
        assert set(out) <= {"0", "1"}

    def test_disassemble_frac(self, capsys):
        assert main(["disassemble", "frac", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("ACT 0 1") == 2
        assert "WAIT 5" in out

    def test_assemble_roundtrip(self, tmp_path, capsys):
        program = tmp_path / "frac.smc"
        program.write_text("ACT 0 1\nPRE 0\nWAIT 5\n")
        assert main(["assemble", str(program)]) == 0
        out = capsys.readouterr().out
        assert "ACT(b0,r1)" in out

    def test_report(self, tmp_path, capsys):
        assert main(["report", "--output", str(tmp_path),
                     "--only", "latency", "--columns", "128"]) == 0
        assert (tmp_path / "RESULTS.md").exists()


class TestRunFlags:
    """``experiments`` and ``report`` check their shared flags up front."""

    def test_experiments_unknown_name_exits_before_running(self, capsys):
        assert main(["experiments", "--only", "latency", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # latency, listed first, never ran
        assert captured.err.count("\n") == 1
        assert "unknown experiment 'nosuch'" in captured.err
        assert "choose from table1, fig6" in captured.err

    def test_report_unknown_name_exits_before_running(self, tmp_path,
                                                       capsys):
        assert main(["report", "--output", str(tmp_path),
                     "--only", "latency", "nosuch"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "unknown experiment 'nosuch'" in captured.err
        assert not (tmp_path / "latency.json").exists()
        assert not (tmp_path / "RESULTS.md").exists()

    def test_experiments_refused_columns_exit_before_running(self, capsys):
        assert main(["experiments", "--only", "latency", "fig6",
                     "--columns", "0", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # latency, listed first, never ran
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(
            "error: all geometry dimensions must be >= 1")
        assert "columns=0" in captured.err

    def test_report_refused_columns_exit_before_running(self, tmp_path,
                                                        capsys):
        assert main(["report", "--output", str(tmp_path), "--only", "fig6",
                     "--columns", "0", "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "columns=0" in captured.err
        assert not (tmp_path / "fig6.json").exists()
        assert not (tmp_path / "RESULTS.md").exists()

    @pytest.mark.parametrize("command", [["experiments"],
                                         ["report", "--output", "unused"]])
    def test_batch_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--only", "latency", "--batch", "4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --batch 4" in capsys.readouterr().err


class TestRefusedFlags:
    """Every other subcommand refuses a flag value the model rejects, or
    an input file it cannot read or parse, the way ``experiments`` does,
    and ``experiments`` and ``report`` refuse an output path they cannot
    create: one ``error:`` line, exit 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["run-program", "PROGRAM", "--columns", "0"],
        ["run-program", "PROGRAM", "--banks", "0"],
        ["run-program", "PROGRAM", "--rows-per-subarray", "0"],
        ["bench-service", "--no-store", "--columns", "0"],
        ["bench-service", "--no-store", "--challenges", "0"],
        ["bench-service", "--no-store", "--modules", "0"],
        ["serve", "--no-store", "--columns", "0"],
        ["serve", "--no-store", "--challenges", "0"],
        ["serve", "--no-store", "--modules", "0"],
        ["trng", "--columns", "0"],
        ["trng", "--bits", "0"],
        ["puf", "--row", "9999"],
        ["assemble", "MISSING"],
        ["assemble", "BAD_PROGRAM"],
        ["trace-diff", "MISSING", "TRACE"],
        ["trace-diff", "TRACE", "DIRECTORY"],
        ["trace-diff", "NOT_JSON", "TRACE"],
        ["trace-diff", "NOT_EVENT", "TRACE"],
        ["trace-diff", "TRACE", "NUMBER"],
        ["experiments", "--only", "latency", "--cache-dir", "FILE"],
        ["experiments", "--only", "latency", "--trace-out", "UNDER_FILE"],
        ["report", "--only", "latency", "--output", "UNDER_FILE"],
        # A trace path that cannot be opened: under a regular file, or
        # an existing directory.
        ["run-program", "PROGRAM", "--trace-out", "UNDER_FILE"],
        ["experiments", "--only", "latency", "--trace-out", "DIRECTORY"],
        ["report", "--only", "latency", "--output", "OUTPUT",
         "--trace-out", "DIRECTORY"],
        ["bench-service", "--modules", "4", "--requests", "4",
         "--no-store", "--trace-out", "DIRECTORY"],
        ["disassemble", "frac", "--n", "0"],
        # The assembler refuses a negative row, so this text would not
        # read back.
        ["disassemble", "row-copy", "--row", "-5"],
    ], ids=" ".join)
    def test_refused_flag_exits_before_running(self, argv, tmp_path,
                                               capsys):
        program = tmp_path / "noop.sfc"
        program.write_text("ACT 0 1\nPRE 0\n")
        bad_program = tmp_path / "bad.sfc"
        bad_program.write_text("ACT 0 1\nACT 0 x\n")
        not_json = tmp_path / "not-json.jsonl"
        not_json.write_text("not json\n")
        not_event = tmp_path / "not-event.jsonl"
        not_event.write_text('{"kind":"x"}\n')
        number = tmp_path / "number.jsonl"
        number.write_text("5\n")
        regular_file = tmp_path / "file"
        regular_file.write_text("")
        with TraceWriter(tmp_path / "trace.jsonl") as writer:
            writer.emit("command", {"cmd": "ACT", "row": 1})
        paths = {"PROGRAM": program, "BAD_PROGRAM": bad_program,
                 "MISSING": tmp_path / "missing", "DIRECTORY": tmp_path,
                 "NOT_JSON": not_json, "NOT_EVENT": not_event,
                 "NUMBER": number, "TRACE": tmp_path / "trace.jsonl",
                 "FILE": regular_file,
                 "UNDER_FILE": regular_file / "t.jsonl",
                 "OUTPUT": tmp_path / "report"}
        argv = [str(paths.get(arg, arg)) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_assemble_error_names_the_line(self, tmp_path, capsys):
        program = tmp_path / "bad.sfc"
        program.write_text("ACT 0 1\nACT 0 x\n")
        assert main(["assemble", str(program)]) == 2
        assert capsys.readouterr().err == (
            "error: line 2: row must be an integer, got 'x' "
            "(offending text: 'ACT 0 x')\n")


class TestServe:
    def test_serve_enrolls_and_hands_the_service_to_asyncio(
            self, monkeypatch, capsys):
        """A valid ``serve`` gets past its flag checks, enrolls the
        fleet and runs the service loop; the stubbed loop is stopped
        the way Ctrl-C stops the real one."""
        loops = []

        def interrupted(coroutine):
            loops.append(coroutine)
            coroutine.close()
            raise KeyboardInterrupt

        monkeypatch.setattr(asyncio, "run", interrupted)
        assert main(["serve", "--no-store", "--modules", "1"]) == 0
        assert len(loops) == 1
        captured = capsys.readouterr()
        assert captured.out == "stopped\n"
        assert captured.err == ""


class TestTelemetryCli:
    def test_experiments_telemetry_summary(self, capsys):
        assert main(["experiments", "--only", "latency",
                     "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "counters:" in out

    def test_trace_out_validates_end_to_end(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["experiments", "--only", "table1", "--columns", "64",
                     "--no-cache", "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace}" in out
        assert main(["validate-trace", str(trace)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_report_telemetry_section(self, tmp_path, capsys):
        assert main(["report", "--output", str(tmp_path),
                     "--only", "latency", "--columns", "128",
                     "--telemetry"]) == 0
        results = (tmp_path / "RESULTS.md").read_text()
        assert "## Telemetry" in results
        assert "experiment.runs" in results

    def test_report_without_telemetry_has_no_section(self, tmp_path):
        assert main(["report", "--output", str(tmp_path),
                     "--only", "latency", "--columns", "128"]) == 0
        assert "## Telemetry" not in (tmp_path / "RESULTS.md").read_text()

    def test_validate_trace_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind":"nope","seq":0}\n')
        assert main(["validate-trace", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_trace_diff_compares_kinds_in_any_order(self, tmp_path, capsys):
        def write(name, events):
            with TraceWriter(tmp_path / name) as writer:
                for kind, fields in events:
                    writer.emit(kind, fields)
            return str(tmp_path / name)

        act1, act5, act6 = (("command", {"cmd": "ACT", "row": row})
                            for row in (1, 5, 6))
        label = ("sequence", {"label": "frac x1 b0 r1"})
        base = write("a.jsonl", [act1, act5, label])
        reordered = write("b.jsonl", [label, act5, act1])
        moved = write("c.jsonl", [act1, act6, label])
        assert main(["trace-diff", base, reordered]) == 0
        assert "match in all 4 kinds" in capsys.readouterr().out
        assert main(["trace-diff", base, moved]) == 1
        assert capsys.readouterr().err.strip() == (
            "trace events differ in kinds: command")
