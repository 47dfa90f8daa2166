"""Cold start: ``import repro`` and the experiments that compute
statistics load neither ``scipy.stats`` nor ``scipy.optimize``.

Each check runs in a fresh interpreter, because this pytest process
has already imported ``scipy.stats`` (the exactness tests compare
against it).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

_REPORT = """
import sys
print("\\n".join(sorted(name for name in sys.modules
                        if name.startswith(("scipy.stats",
                                            "scipy.optimize")))))
"""


def _heavy_modules_after(code: str) -> list[str]:
    """The ``scipy.stats*`` / ``scipy.optimize*`` modules a fresh
    interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (_SRC, env.get("PYTHONPATH")) if path)
    completed = subprocess.run(
        [sys.executable, "-c", code + _REPORT], env=env,
        capture_output=True, text=True, check=True)
    return completed.stdout.split()


def test_import_loads_no_scipy_stats_or_optimize():
    assert _heavy_modules_after(
        "import repro, repro.experiments.runner, repro.service") == []


@pytest.mark.parametrize("experiment", ["fig9", "nist", "table1"])
def test_experiment_loads_no_scipy_stats_or_optimize(experiment):
    assert _heavy_modules_after(
        "from repro.experiments.base import ExperimentConfig\n"
        "from repro.experiments.runner import run_experiment\n"
        f"run_experiment({experiment!r}, ExperimentConfig(columns=64))\n"
    ) == []
