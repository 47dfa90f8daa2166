"""Per-rule fixture tests: every shipped rule has at least one snippet
that triggers it and one near-miss that passes clean."""

import textwrap

import pytest

from repro.lint import lint_paths, lint_source, registered_rules, rules_for_codes


def findings_for(code, source, module="repro.experiments.sample"):
    """Lint a snippet with one rule selected; return its findings."""
    return lint_source(textwrap.dedent(source), path="sample.py",
                       module=module, rules=rules_for_codes([code]))


def codes_of(findings):
    return [f.code for f in findings]


#: Places outside any top-level function or method body, each holding
#: ``{expr}`` once: the rules must see them as well as function bodies.
OUTSIDE_BODIES = {
    "class-body": """\
        class Holder:
            value = {expr}
    """,
    "nested-class-method": """\
        class Outer:
            class Inner:
                def read(self):
                    return {expr}
    """,
    "class-decorator": """\
        def tag(value):
            return lambda cls: cls

        @tag({expr})
        class Holder:
            pass
    """,
    "module-level": """\
        {expr}
    """,
}


def outside_bodies(imports, expr):
    """Parametrize ``source`` over OUTSIDE_BODIES with ``expr`` filled in."""
    return pytest.mark.parametrize(
        "source",
        [textwrap.dedent(imports) + textwrap.dedent(shape).format(expr=expr)
         for shape in OUTSIDE_BODIES.values()],
        ids=list(OUTSIDE_BODIES))


class TestDet001AmbientRng:
    def test_np_random_module_call_flagged(self):
        findings = findings_for("DET001", """\
            import numpy as np
            value = np.random.random()
        """)
        assert codes_of(findings) == ["DET001"]
        assert "np.random.random" in findings[0].message

    def test_stdlib_random_module_call_flagged(self):
        findings = findings_for("DET001", """\
            import random
            pick = random.choice([1, 2, 3])
        """)
        assert codes_of(findings) == ["DET001"]

    def test_global_seed_call_flagged(self):
        findings = findings_for("DET001", """\
            import numpy as np
            np.random.seed(2022)
        """)
        assert codes_of(findings) == ["DET001"]

    def test_unseeded_default_rng_flagged(self):
        findings = findings_for("DET001", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert codes_of(findings) == ["DET001"]
        assert "explicit seed" in findings[0].message

    def test_unseeded_bit_generator_flagged(self):
        findings = findings_for("DET001", """\
            import numpy as np
            gen = np.random.Generator(np.random.PCG64())
        """)
        assert codes_of(findings) == ["DET001"]

    def test_seeded_default_rng_clean(self):
        findings = findings_for("DET001", """\
            import numpy as np
            rng = np.random.default_rng(2022)
            seq = np.random.SeedSequence(7)
            gen = np.random.Generator(np.random.PCG64(42))
        """)
        assert findings == []

    def test_derived_generator_draw_clean(self):
        findings = findings_for("DET001", """\
            from repro.dram.rng import derive_rng

            def sample(master_seed):
                rng = derive_rng(master_seed, "sample")
                return rng.random(), rng.integers(0, 10)
        """)
        assert findings == []

    @outside_bodies("import numpy as np\n", "np.random.random()")
    def test_sites_outside_function_bodies_flagged(self, source):
        findings = findings_for("DET001", source)
        assert codes_of(findings) == ["DET001"]
        assert "np.random.random" in findings[0].message

    def test_method_named_random_on_object_clean(self):
        # self.rng.random() is a derived-stream draw, not ambient state.
        findings = findings_for("DET001", """\
            def draw(self):
                return self.rng.random()
        """)
        assert findings == []


class TestDet002WallClock:
    @pytest.mark.parametrize("expr", [
        "time.time()", "time.perf_counter()", "time.monotonic_ns()",
        "datetime.datetime.now()", "datetime.date.today()",
    ])
    def test_wall_clock_reads_flagged(self, expr):
        findings = findings_for("DET002", f"""\
            import datetime
            import time
            stamp = {expr}
        """)
        assert codes_of(findings) == ["DET002"]

    @outside_bodies("import time\n", "time.time()")
    def test_sites_outside_function_bodies_flagged(self, source):
        findings = findings_for("DET002", source)
        assert codes_of(findings) == ["DET002"]
        assert "time.time" in findings[0].message

    def test_allowlisted_module_clean(self):
        findings = findings_for("DET002", """\
            import time
            started = time.perf_counter()
        """, module="repro.telemetry.registry")
        assert findings == []

    def test_allowlist_is_prefix_scoped(self):
        # A *submodule* of an allowlisted module inherits the allowance;
        # a module that merely shares the prefix string does not.
        clean = findings_for("DET002", "import time\nt = time.time()\n",
                             module="repro.experiments.runner.helpers")
        dirty = findings_for("DET002", "import time\nt = time.time()\n",
                             module="repro.experiments.runner_extras")
        assert clean == []
        assert codes_of(dirty) == ["DET002"]

    def test_simulated_time_clean(self):
        findings = findings_for("DET002", """\
            def elapsed_ns(controller):
                return controller.cycle * 2.5
        """)
        assert findings == []

    def test_service_clock_is_the_real_time_boundary(self):
        # The serving layer's ONE sanctioned host-clock read lives in
        # repro.service.clock (SystemClock); every other service module
        # must go through an injected Clock so scripted replay stays
        # wall-clock-free.
        from repro.lint.builtin import WallClockRule

        assert "repro.service.clock" in WallClockRule.allowlist
        clean = findings_for("DET002", """\
            import time

            class SystemClock:
                def now(self):
                    return time.perf_counter()
        """, module="repro.service.clock")
        assert clean == []
        dirty = findings_for("DET002", """\
            import time

            def flush_deadline(opened_at, max_wait_s):
                return time.perf_counter() - opened_at > max_wait_s
        """, module="repro.service.batcher")
        assert codes_of(dirty) == ["DET002"]


class TestDet003UnsortedSetIteration:
    def test_for_over_set_call_flagged(self):
        findings = findings_for("DET003", """\
            def emit(banks):
                for bank in set(banks):
                    issue(bank)
        """)
        assert codes_of(findings) == ["DET003"]

    def test_for_over_set_union_flagged(self):
        # The exact shape of the real finding in controller/softmc.py.
        findings = findings_for("DET003", """\
            def touched(last_act, last_pre, open_banks):
                for bank in set(last_act) | set(last_pre) | set(open_banks):
                    yield bank
        """)
        assert codes_of(findings) == ["DET003"]

    def test_comprehension_over_set_literal_flagged(self):
        findings = findings_for("DET003", """\
            rows = [probe(r) for r in {3, 1, 2}]
        """)
        assert codes_of(findings) == ["DET003"]

    def test_list_of_set_method_union_flagged(self):
        findings = findings_for("DET003", """\
            order = list(set(a).union(b))
        """)
        assert codes_of(findings) == ["DET003"]

    def test_sorted_wrapping_clean(self):
        findings = findings_for("DET003", """\
            def emit(last_act, last_pre):
                for bank in sorted(set(last_act) | set(last_pre)):
                    issue(bank)
                rows = [r for r in sorted({3, 1, 2})]
        """)
        assert findings == []

    def test_iterating_lists_and_dicts_clean(self):
        # dict preserves insertion order; lists are ordered — no finding.
        findings = findings_for("DET003", """\
            def walk(mapping, items):
                for key in mapping:
                    yield key
                for item in list(items):
                    yield item
        """)
        assert findings == []


class TestDet004EnvironRead:
    @pytest.mark.parametrize("expr", [
        'os.environ["REPRO_X"]',
        'os.environ.get("REPRO_X")',
        'os.getenv("REPRO_X", "0")',
    ])
    def test_environment_reads_flagged(self, expr):
        findings = findings_for("DET004", f"""\
            import os
            value = {expr}
        """)
        assert codes_of(findings) == ["DET004"]
        assert len(findings) == 1  # one finding per site, not per node

    def test_fleet_entry_point_clean(self):
        findings = findings_for("DET004", """\
            import os
            workers = os.environ.get("REPRO_FLEET_WORKERS", "")
        """, module="repro.fleet.executor")
        assert findings == []

    def test_os_module_other_uses_clean(self):
        findings = findings_for("DET004", """\
            import os
            pid = os.getpid()
            path = os.fspath("x")
        """)
        assert findings == []


def fork_findings(tmp_path, source):
    """Lint a snippet as ``repro/experiments/sample.py`` with FORK002."""
    package = tmp_path / "repro" / "experiments"
    package.mkdir(parents=True)
    (package / "sample.py").write_text(textwrap.dedent(source))
    report = lint_paths([tmp_path], rules=rules_for_codes(["FORK002"]),
                        root=tmp_path)
    assert report.parse_errors == []
    return report.findings


def lines_of(findings):
    return [(f.code, f.line) for f in findings]


class TestFork002WorkerGlobalMutation:
    """Single-module worker mutations: the whole-program rule sees them
    through the same call graph it walks across modules."""

    def test_global_rebind_in_run_shard_flagged(self, tmp_path):
        findings = fork_findings(tmp_path, """\
            _CACHE = {}

            def run_shard(config, units):
                global _CACHE
                _CACHE = {}
                return []
        """)
        assert lines_of(findings) == [("FORK002", 4), ("FORK002", 5)]

    def test_container_mutation_in_helper_flagged(self, tmp_path):
        # Reachability: run_shard -> _record -> mutation of module state.
        findings = fork_findings(tmp_path, """\
            _SEEN = []

            def _record(unit):
                _SEEN.append(unit)

            def run_shard(config, units):
                for unit in units:
                    _record(unit)
                return list(units)
        """)
        assert lines_of(findings) == [("FORK002", 4)]
        assert "_SEEN" in findings[0].message

    def test_subscript_store_via_method_chain_flagged(self, tmp_path):
        findings = fork_findings(tmp_path, """\
            _RESULTS = {}

            def run_shard(config, units):
                for unit in units:
                    _RESULTS[unit] = compute(unit)
                return []
        """)
        assert lines_of(findings) == [("FORK002", 5)]

    def test_method_run_shard_reaches_self_calls(self, tmp_path):
        findings = fork_findings(tmp_path, """\
            _STATE = {}

            class Experiment:
                def run_shard(self, config, units):
                    return [self._one(u) for u in units]

                def _one(self, unit):
                    _STATE.setdefault(unit, 0)
                    return unit
        """)
        assert lines_of(findings) == [("FORK002", 8)]

    def test_local_state_and_unreachable_mutation_clean(self, tmp_path):
        findings = fork_findings(tmp_path, """\
            _REGISTRY = {}

            def register(name, value):
                _REGISTRY[name] = value  # import-time plumbing, not a worker

            def run_shard(config, units):
                local = {}
                for unit in units:
                    local[unit] = compute(unit)
                return sorted(local.items())
        """)
        assert findings == []

    def test_module_without_run_shard_clean(self, tmp_path):
        findings = fork_findings(tmp_path, """\
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
        """)
        assert findings == []


class TestTel001NondeterministicCounter:
    def test_wall_clock_into_count_flagged(self):
        findings = findings_for("TEL001", """\
            import time
            from repro.telemetry import active

            def record():
                tel = active()
                tel.count("work.elapsed", int(time.time()))
        """)
        assert codes_of(findings) == ["TEL001"]
        assert "histogram" in findings[0].message

    def test_rng_into_counter_add_flagged(self):
        findings = findings_for("TEL001", """\
            def record(tel, rng):
                tel.counter("work.jitter").add(int(rng.integers(0, 9)))
        """)
        assert codes_of(findings) == ["TEL001"]

    @outside_bodies("import time\nfrom repro.telemetry import active\n",
                    'active().count("x", int(time.time()))')
    def test_sites_outside_function_bodies_flagged(self, source):
        findings = findings_for("TEL001", source)
        assert codes_of(findings) == ["TEL001"]
        assert "time.time" in findings[0].message

    def test_deterministic_count_clean(self):
        findings = findings_for("TEL001", """\
            def record(tel, payloads):
                tel.count("experiment.units", len(payloads))
                tel.counter("experiment.runs").add(1)
        """)
        assert findings == []

    def test_wall_clock_into_histogram_exempt(self):
        # Histograms and phases are the sanctioned wall-clock sinks.
        findings = findings_for("TEL001", """\
            import time

            def record(tel, started):
                tel.observe("shard.wall_s", time.perf_counter() - started)
        """)
        assert findings == []

    def test_list_count_method_not_confused(self):
        # str/list .count() is not the telemetry API.
        findings = findings_for("TEL001", """\
            import time

            def tally(values):
                return values.count(int(time.time()))
        """)
        assert findings == []


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        assert set(registered_rules()) == {
            "DET001", "DET002", "DET003", "DET004", "FORK002", "PAR001",
            "PAR002", "TEL001"}

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown rule code"):
            rules_for_codes(["NOPE999"])

    def test_every_rule_documents_itself(self):
        for code, rule_class in registered_rules().items():
            assert rule_class.code == code
            assert rule_class.summary
            assert rule_class.rationale
