"""Backend-parity rules: injected coverage gaps and the live tree."""

import io
import textwrap
from pathlib import Path

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.lint.engine import lint_paths
from repro.lint.rules import rules_for_codes

REPO_ROOT = Path(__file__).resolve().parents[2]

COMMANDS = """\
    class Command:
        KIND = "CMD"

    class Activate(Command):
        KIND = "ACT"

    class ReadRow(Command):
        KIND = "RD"
"""


def write_tree(tmp_path, files):
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return tmp_path


def parity_findings(tmp_path, files):
    root = write_tree(tmp_path, files)
    report = lint_paths(
        [root], rules=rules_for_codes(["PAR001", "PAR002"]), root=root)
    assert report.parse_errors == []
    return report.findings


class TestCommandParity:
    def test_missing_isinstance_arm_flagged(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/controller/commands.py": COMMANDS,
            "repro/controller/softmc.py": """\
                from .commands import Activate

                class SoftMC:
                    def execute(self, command):
                        if isinstance(command, Activate):
                            return 1
                        raise ValueError(command)
            """,
        })
        assert [f.code for f in findings] == ["PAR001"]
        assert "RD" in findings[0].message
        assert "ReadRow" in findings[0].message
        assert findings[0].path == "repro/controller/softmc.py"

    def test_missing_mnemonic_arm_flagged(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/controller/commands.py": COMMANDS,
            "repro/controller/program.py": """\
                def assemble(lines):
                    for mnemonic in lines:
                        if mnemonic == "ACT":
                            pass
            """,
        })
        assert [f.code for f in findings] == ["PAR001"]
        assert "RD" in findings[0].message

    def test_complete_surfaces_are_clean(self, tmp_path):
        assert parity_findings(tmp_path, {
            "repro/controller/commands.py": COMMANDS,
            "repro/controller/softmc.py": """\
                from .commands import Activate, ReadRow

                class SoftMC:
                    def execute(self, command):
                        if isinstance(command, (Activate, ReadRow)):
                            return 1
                        raise ValueError(command)
            """,
        }) == []

    def test_injected_missing_command_fails_cli(self, tmp_path):
        # Acceptance criterion: the parity checker exits 1 on an
        # injected missing-op fixture.
        root = write_tree(tmp_path, {
            "repro/controller/commands.py": COMMANDS + """\

    class Refresh(Command):
        KIND = "REF"
""",
            "repro/controller/softmc.py": """\
                from .commands import Activate, ReadRow

                class SoftMC:
                    def execute(self, command):
                        if isinstance(command, (Activate, ReadRow)):
                            return 1
                        raise ValueError(command)
            """,
        })
        stream = io.StringIO()
        code = main([str(root), "--select", "PAR001,PAR002"], stream=stream)
        assert code == EXIT_FINDINGS
        assert "PAR001" in stream.getvalue()
        assert "REF" in stream.getvalue()


class TestXirOpParity:
    def test_unlowered_primitive_op_flagged(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/xir/ir.py": """\
                class WriteRow:
                    pass

                class Leak:
                    pass

                PRIMITIVE_OPS = (WriteRow, Leak)
            """,
            "repro/xir/compile.py": """\
                from . import ir

                def lower(op, actions):
                    if isinstance(op, ir.WriteRow):
                        actions.append(("write", op))
            """,
        })
        assert [f.code for f in findings] == ["PAR002"]
        assert "Leak" in findings[0].message
        assert findings[0].path == "repro/xir/compile.py"

    def test_unexecuted_action_tag_flagged(self, tmp_path):
        findings = parity_findings(tmp_path, {
            "repro/xir/ir.py": """\
                class WriteRow:
                    pass

                PRIMITIVE_OPS = (WriteRow,)
            """,
            "repro/xir/compile.py": """\
                from . import ir

                def lower(op, actions):
                    if isinstance(op, ir.WriteRow):
                        actions.append(("write", op))
                        actions.append(("glitch", op))
            """,
            "repro/xir/executor.py": """\
                def execute(actions):
                    for tag, *rest in actions:
                        if tag == "write":
                            pass
            """,
        })
        assert [f.code for f in findings] == ["PAR002"]
        assert "glitch" in findings[0].message
        assert findings[0].path == "repro/xir/executor.py"


class TestLiveBackends:
    def test_live_tree_passes_parity(self):
        # Meta-test: the real scalar/batched/fused dispatch tables
        # cover the full command/op universe.
        report = lint_paths(
            [REPO_ROOT / "src" / "repro"],
            rules=rules_for_codes(["PAR001", "PAR002"]),
            root=REPO_ROOT)
        assert report.findings == []
        assert report.parse_errors == []

    def test_live_tree_parity_via_cli(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        stream = io.StringIO()
        assert main(["src/repro", "--select", "PAR001,PAR002"],
                    stream=stream) == EXIT_CLEAN
