"""Meta-test: the linter's verdict on this repository itself.

``src/repro`` must lint clean — the same gate CI applies.  If this test
fails you introduced a determinism/fork-safety hazard: fix it or add a
reviewed ``# repro: lint-ok[CODE]`` pragma.
"""

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_lints_clean():
    report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
    assert report.parse_errors == []
    assert report.files_checked >= 100
    assert report.findings == [], (
        "lint findings in src/repro:\n"
        + "\n".join(f.render() for f in report.findings))


def test_known_suppressions_still_present():
    # The intentional wall-clock sidecar timestamp in the result cache is
    # pragma-suppressed; if that line changes, the pragma must move with
    # it.
    cache_source = (REPO_ROOT / "src/repro/fleet/cache.py").read_text()
    assert "lint-ok[DET002]" in cache_source
