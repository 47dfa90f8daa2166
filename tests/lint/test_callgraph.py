"""Call-graph construction: linking, resolution, cycles, taint."""

import textwrap

from repro.lint.callgraph import Project
from repro.lint.summary import extract_summary


def project_from(files):
    """Link a ``{relpath: source}`` mapping into a Project."""
    return Project(extract_summary(textwrap.dedent(source), path=rel_path)
                   for rel_path, source in files.items())


class TestNameResolution:
    def test_import_alias_resolves(self):
        project = project_from({
            "repro/a.py": """\
                from time import perf_counter as pc
                import numpy.random as nr
            """,
        })
        assert project.resolve_name("repro.a", "pc") == \
            "time.perf_counter"
        assert project.resolve_name("repro.a", "nr.random") == \
            "numpy.random.random"

    def test_from_import_of_project_function(self):
        project = project_from({
            "repro/util.py": """\
                def helper():
                    return 1
            """,
            "repro/user.py": """\
                from repro.util import helper as h
            """,
        })
        assert project.resolve_name("repro.user", "h") == \
            "repro.util.helper"
        assert project.lookup_function("repro.util.helper") == \
            ("repro.util", "helper")

    def test_relative_import_resolves(self):
        project = project_from({
            "repro/pkg/__init__.py": "",
            "repro/pkg/a.py": """\
                def target():
                    return 1
            """,
            "repro/pkg/b.py": """\
                from .a import target
            """,
        })
        assert project.resolve_name("repro.pkg.b", "target") == \
            "repro.pkg.a.target"

    def test_package_reexport_chain_followed(self):
        # b imports from the package __init__, which re-exports from a.
        project = project_from({
            "repro/pkg/__init__.py": """\
                from .a import target
            """,
            "repro/pkg/a.py": """\
                def target():
                    return 1
            """,
            "repro/b.py": """\
                from repro.pkg import target
            """,
        })
        assert project.resolve_name("repro.b", "target") == \
            "repro.pkg.a.target"

    def test_unknown_names_pass_through(self):
        project = project_from({"repro/a.py": "x = 1\n"})
        assert project.resolve_name("repro.a", "len") == "len"
        assert project.resolve_name("repro.a", "os.path.join") == \
            "os.path.join"


class TestCallResolution:
    def test_constructor_typed_local_method(self):
        project = project_from({
            "repro/ctrl.py": """\
                class Controller:
                    def run(self):
                        return 1
            """,
            "repro/use.py": """\
                from repro.ctrl import Controller

                def drive():
                    mc = Controller()
                    return mc.run()
            """,
        })
        function = project.functions[("repro.use", "drive")]
        [site] = [s for s in function.calls if s.name == "mc.run"]
        assert project.resolve_call("repro.use", function, site) == \
            ("repro.ctrl", "Controller.run")

    def test_self_method_and_self_attr_method(self):
        project = project_from({
            "repro/ctrl.py": """\
                class Engine:
                    def step(self):
                        return 1
            """,
            "repro/use.py": """\
                from repro.ctrl import Engine

                class Driver:
                    def __init__(self):
                        self.engine = Engine()

                    def helper(self):
                        return 2

                    def go(self):
                        self.helper()
                        return self.engine.step()
            """,
        })
        function = project.functions[("repro.use", "Driver.go")]
        sites = {s.name: s for s in function.calls}
        assert project.resolve_call(
            "repro.use", function, sites["self.helper"]) == \
            ("repro.use", "Driver.helper")
        assert project.resolve_call(
            "repro.use", function, sites["self.engine.step"]) == \
            ("repro.ctrl", "Engine.step")


class TestReachability:
    def test_cycles_terminate(self):
        project = project_from({
            "repro/cyc.py": """\
                def a():
                    return b()

                def b():
                    return a()
            """,
        })
        reached = project.reachable([("repro.cyc", "a")])
        assert set(reached) == {("repro.cyc", "a"), ("repro.cyc", "b")}

    def test_cross_module_chain_with_provenance(self):
        project = project_from({
            "repro/entry.py": """\
                from repro.mid import step

                def run_shard(unit):
                    return step(unit)
            """,
            "repro/mid.py": """\
                from repro.leaf import work

                def step(unit):
                    return work(unit)
            """,
            "repro/leaf.py": """\
                def work(unit):
                    return unit
            """,
        })
        reached = project.reachable([("repro.entry", "run_shard")])
        assert reached[("repro.leaf", "work")] == (
            ("repro.entry", "run_shard"),
            ("repro.mid", "step"),
            ("repro.leaf", "work"))


class TestReturnTaint:
    def test_multi_hop_fixpoint(self):
        project = project_from({
            "repro/clocks.py": """\
                import time

                def now():
                    return time.time()

                def launder():
                    return now()

                def relaunder():
                    value = launder()
                    return value

                def innocent():
                    return 42
            """,
        })
        tainted = project.return_taint(
            "clock", lambda name, site: name == "time.time")
        assert ("repro.clocks", "now") in tainted
        assert ("repro.clocks", "launder") in tainted
        assert ("repro.clocks", "relaunder") in tainted
        assert ("repro.clocks", "innocent") not in tainted


class TestSuppressionLookup:
    def test_pragma_lines_honored_without_ast(self):
        project = project_from({
            "repro/a.py": """\
                import time

                def f():
                    t = time.time()  # repro: lint-ok[DET002]
                    return t
            """,
        })
        assert project.is_suppressed("repro/a.py", "DET002", 4)
        assert not project.is_suppressed("repro/a.py", "DET001", 4)
        assert not project.is_suppressed("repro/a.py", "DET002", 5)
        assert not project.is_suppressed("missing.py", "DET002", 4)
