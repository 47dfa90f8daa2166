"""Suppression-pragma semantics: placement, code lists, the ``*`` wildcard."""

import textwrap

from repro.lint import lint_paths, lint_source, rules_for_codes
from repro.lint.model import parse_suppressions


def lint(source, **kwargs):
    return lint_source(textwrap.dedent(source), path="sample.py",
                       module="repro.experiments.sample", **kwargs)


class TestPragmaPlacement:
    def test_same_line_suppresses(self):
        assert lint("""\
            import numpy as np
            v = np.random.random()  # repro: lint-ok[DET001]
        """) == []

    def test_line_above_suppresses(self):
        assert lint("""\
            import numpy as np
            # repro: lint-ok[DET001]
            v = np.random.random()
        """) == []

    def test_closing_line_of_multiline_statement_suppresses(self):
        assert lint("""\
            import numpy as np
            v = np.random.choice(
                [1, 2, 3],
            )  # repro: lint-ok[DET001]
        """) == []

    def test_unrelated_line_does_not_suppress(self):
        findings = lint("""\
            import numpy as np
            # repro: lint-ok[DET001]

            v = np.random.random()
        """)
        assert [f.code for f in findings] == ["DET001"]


class TestPragmaScope:
    def test_wrong_code_does_not_suppress(self):
        findings = lint("""\
            import numpy as np
            v = np.random.random()  # repro: lint-ok[DET002]
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_multiple_codes_in_one_pragma(self):
        assert lint("""\
            import numpy as np
            import time
            v = np.random.random() + time.time()  # repro: lint-ok[DET001, DET002]
        """) == []

    def test_star_suppresses_everything_on_the_line(self):
        assert lint("""\
            import numpy as np
            import time
            v = np.random.random() + time.time()  # repro: lint-ok[*]
        """) == []

    def test_pragma_only_covers_its_own_line(self):
        findings = lint("""\
            import numpy as np
            a = np.random.random()  # repro: lint-ok[DET001]
            b = np.random.random()
        """)
        assert len(findings) == 1
        assert findings[0].line == 3


class TestDecoratedDefs:
    def test_pragma_above_decorator_suppresses_def_line(self):
        # The finding anchors on the ``def`` line (a default argument),
        # but the visually-adjacent spot for the pragma is above the
        # decorator stack.
        assert lint("""\
            import functools
            import numpy as np

            # repro: lint-ok[DET001]
            @functools.lru_cache(maxsize=None)
            def sample(v=np.random.random()):
                return v
        """) == []

    def test_pragma_above_decorator_covers_decorator_findings(self):
        assert lint("""\
            import time

            def timed(stamp):
                def wrap(fn):
                    return fn
                return wrap

            # repro: lint-ok[DET002]
            @timed(time.time())
            def sample():
                return 1
        """) == []

    def test_pragma_above_second_decorator_still_anchors(self):
        assert lint("""\
            import functools
            import numpy as np

            @functools.wraps
            # repro: lint-ok[DET001]
            @functools.lru_cache(maxsize=None)
            def sample(v=np.random.random()):
                return v
        """) == []

    def test_wrong_code_above_decorator_does_not_suppress(self):
        findings = lint("""\
            import functools
            import numpy as np

            # repro: lint-ok[DET002]
            @functools.lru_cache(maxsize=None)
            def sample(v=np.random.random()):
                return v
        """)
        assert [f.code for f in findings] == ["DET001"]

    def test_pragma_above_decorator_covers_aliased_def_line(self, tmp_path):
        # An aliased read resolves only through the import table; the
        # pragma above the decorator stack must cover it exactly like
        # the written-out ``time.perf_counter()`` below.
        (tmp_path / "sample.py").write_text(textwrap.dedent("""\
            import functools
            import time
            from time import perf_counter as pc

            # repro: lint-ok[DET002]
            @functools.lru_cache(maxsize=None)
            def sample(v=pc()):
                return v


            # repro: lint-ok[DET002]
            @functools.lru_cache(maxsize=None)
            def stamp(v=time.perf_counter()):
                return v
        """))
        report = lint_paths([tmp_path], rules=rules_for_codes(["DET002"]),
                            root=tmp_path)
        assert report.files_checked == 1
        assert report.findings == []

    def test_pragma_at_the_end_of_the_body_does_not_cover_decorators(self):
        source = """\
            import functools
            import time


            @functools.lru_cache(maxsize=int(time.time()) % 7 + 1)
            def add(x, y):
                total = x
                total += y
                return x + y  # repro: lint-ok[DET002]
        """
        rules = rules_for_codes(["DET002"])
        findings = lint(source, rules=rules)
        assert [(f.code, f.line, f.column) for f in findings] == [
            ("DET002", 5, 34)]
        assert lint(source.replace("  # repro: lint-ok[DET002]", ""),
                    rules=rules) == findings

    def test_pragma_on_the_def_line_covers_a_default_argument(self):
        assert lint("""\
            import functools
            import numpy as np

            @functools.lru_cache(maxsize=None)
            def sample(v=np.random.random()):  # repro: lint-ok[DET001]
                total = v
                return total
        """) == []

    def test_body_findings_not_covered_by_decorator_pragma(self):
        findings = lint("""\
            import functools
            import numpy as np

            # repro: lint-ok[DET001]
            @functools.lru_cache(maxsize=None)
            def sample():
                return np.random.random()
        """)
        assert [f.code for f in findings] == ["DET001"]
        assert findings[0].line == 7


class TestPragmaParsing:
    def test_parse_suppressions_shapes(self):
        source = textwrap.dedent("""\
            x = 1  # repro: lint-ok[DET001]
            y = 2  # repro: lint-ok[DET001,TEL001]
            z = 3  # repro: lint-ok[*]
            w = 4  # lint-ok without the marker prefix
            u = 5  # repro: lint-ok[not-a-code!]
        """)
        suppressions, standalone = parse_suppressions(source)
        assert suppressions[1] == frozenset({"DET001"})
        assert suppressions[2] == frozenset({"DET001", "TEL001"})
        assert suppressions[3] == frozenset({"*"})
        assert 4 not in suppressions
        assert 5 not in suppressions
        assert standalone == frozenset()  # all pragmas here are trailing

    def test_standalone_pragma_lines_detected(self):
        suppressions, standalone = parse_suppressions(
            "# repro: lint-ok[DET001]\nx = 1\n")
        assert suppressions[1] == frozenset({"DET001"})
        assert standalone == frozenset({1})
