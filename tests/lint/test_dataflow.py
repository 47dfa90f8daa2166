"""Interprocedural taint flow: positive/negative cases per rule."""

import textwrap

from repro.lint.engine import lint_paths
from repro.lint.rules import rules_for_codes


def lint_tree(tmp_path, files, select=None):
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    report = lint_paths([tmp_path], rules=rules_for_codes(select),
                        root=tmp_path)
    assert report.parse_errors == []
    return report.findings


class TestInterproceduralRng:
    def test_aliased_unseeded_constructor_flagged(self, tmp_path):
        # The written name ``make_rng`` classifies as nothing; only the
        # name resolved through the import table does.
        findings = lint_tree(tmp_path, {
            "repro/maker.py": """\
                from numpy.random import default_rng as make_rng

                def fresh():
                    return make_rng()
            """,
        }, select=["DET001"])
        assert [f.code for f in findings] == ["DET001"]
        assert "numpy.random.default_rng" in findings[0].message

    def test_seeded_alias_is_clean(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/maker.py": """\
                from numpy.random import default_rng as make_rng

                def fresh(seed):
                    return make_rng(seed)
            """,
        }, select=["DET001"]) == []

    def test_cross_module_laundered_generator_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/maker.py": """\
                from numpy.random import default_rng as make_rng

                def fresh():
                    return make_rng()
            """,
            "repro/user.py": """\
                from repro.maker import fresh

                def draw():
                    generator = fresh()
                    return generator.random()
            """,
        }, select=["DET001"])
        by_path = {f.path: f for f in findings}
        assert "repro/user.py" in by_path
        assert "repro.maker.fresh" in by_path["repro/user.py"].message

    def test_seeded_factory_not_tainted(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/maker.py": """\
                from numpy.random import default_rng

                def derive(seed):
                    return default_rng(seed)
            """,
            "repro/user.py": """\
                from repro.maker import derive

                def draw(seed):
                    return derive(seed).random()
            """,
        }, select=["DET001"]) == []


class TestInterproceduralClock:
    def test_aliased_clock_read_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/timer.py": """\
                from time import perf_counter as pc

                def stamp():
                    pc()
            """,
        }, select=["DET002"])
        assert [f.code for f in findings] == ["DET002"]
        assert "time.perf_counter" in findings[0].message

    def test_laundered_clock_value_flagged_at_caller(self, tmp_path):
        findings = lint_tree(tmp_path, {
            # the helper lives in an allowlisted timing module...
            "repro/fleet/executor.py": """\
                import time

                def host_elapsed():
                    return time.time()
            """,
            # ...but its value escapes into a non-allowlisted module.
            "repro/results.py": """\
                from repro.fleet.executor import host_elapsed

                def stamp_result():
                    return {"elapsed": host_elapsed()}
            """,
        }, select=["DET002"])
        assert [f.path for f in findings] == ["repro/results.py"]
        assert "repro.fleet.executor.host_elapsed" in \
            findings[0].message

    def test_allowlisted_caller_is_clean(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/fleet/executor.py": """\
                import time

                def host_elapsed():
                    return time.time()

                def report():
                    return host_elapsed()
            """,
        }, select=["DET002"]) == []

    def test_files_sharing_a_module_name_report_own_sites(self, tmp_path):
        # Outside a ``repro`` package a module is named by its stem, so
        # both conftest.py files are "conftest"; each reports its read.
        source = """\
            from time import perf_counter as pc

            def stamp():
                return pc()
        """
        findings = lint_tree(tmp_path, {"a/conftest.py": source,
                                        "b/conftest.py": source},
                             select=["DET002"])
        assert [(f.path, f.line) for f in findings] == [
            ("a/conftest.py", 4), ("b/conftest.py", 4)]

    def test_same_named_files_keep_their_own_symbols(self, tmp_path):
        # Each conftest resolves its calls against its own imports and
        # functions, whichever order the paths come in.
        lint_tree(tmp_path, {
            "a/conftest.py": """\
                import time


                def stamp():
                    return time.time()


                def caller():
                    return stamp()
            """,
            "b/conftest.py": """\
                def unrelated():
                    return 0
            """,
        }, select=["DET002"])
        for order in (("a", "b"), ("b", "a")):
            report = lint_paths([tmp_path / name for name in order],
                                rules=rules_for_codes(["DET002"]),
                                root=tmp_path)
            assert [(f.path, f.line, f.column) for f in report.findings] == [
                ("a/conftest.py", 5, 12), ("a/conftest.py", 9, 12)], order
            assert "call to conftest.stamp() returns a wall-clock value" \
                in report.findings[1].message

    def test_pragma_suppresses_project_finding(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/timer.py": """\
                from time import perf_counter as pc

                def stamp():
                    pc()  # repro: lint-ok[DET002]
            """,
        }, select=["DET002"]) == []


class TestInterproceduralCounter:
    def test_laundered_clock_into_counter_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/fleet/executor.py": """\
                import time

                def host_elapsed():
                    return time.time()
            """,
            "repro/stats.py": """\
                from repro.fleet.executor import host_elapsed

                def record(tel):
                    elapsed = host_elapsed()
                    tel.count("shard.elapsed", elapsed)
            """,
        }, select=["TEL001"])
        assert [f.code for f in findings] == ["TEL001"]
        assert findings[0].path == "repro/stats.py"
        assert "host_elapsed" in findings[0].message

    def test_deterministic_helper_into_counter_clean(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/calc.py": """\
                def unit_count(payloads):
                    return len(payloads)
            """,
            "repro/stats.py": """\
                from repro.calc import unit_count

                def record(tel, payloads):
                    tel.count("units", unit_count(payloads))
            """,
        }, select=["TEL001"]) == []


class TestKernelPurity:
    def test_cross_module_mutation_from_run_shard(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/worker.py": """\
                from repro.registry import remember

                def run_shard(unit):
                    remember(unit)
                    return unit
            """,
            "repro/registry.py": """\
                SEEN = []

                def remember(unit):
                    SEEN.append(unit)
            """,
        }, select=["FORK002"])
        assert [f.code for f in findings] == ["FORK002"]
        assert findings[0].path == "repro/registry.py"
        assert "run_shard" in findings[0].message

    def test_xir_kernel_entry_points_covered(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "repro/kernels.py": """\
                CALLS = 0

                class BatchedChip:
                    def xir_sense(self, rows):
                        global CALLS
                        CALLS = CALLS + 1
                        return rows
            """,
        }, select=["FORK002"])
        assert {f.code for f in findings} == {"FORK002"}
        assert any("xir_sense" in f.message for f in findings)

    def test_pure_chain_is_clean(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/worker.py": """\
                from repro.math import double

                def run_shard(unit):
                    return double(unit)
            """,
            "repro/math.py": """\
                SCALE = 2

                def double(unit):
                    return unit * SCALE
            """,
        }, select=["FORK002"]) == []

    def test_pragma_suppresses_kernel_purity(self, tmp_path):
        assert lint_tree(tmp_path, {
            "repro/registry.py": """\
                SEEN = []

                def run_shard(unit):
                    SEEN.append(unit)  # repro: lint-ok[FORK002]
                    return unit
            """,
        }, select=["FORK002"]) == []
