"""trial-sweep and device-sweep: cold CLI-style experiment sweeps.

One *repetition* imports ``repro`` fresh and calls
``run_experiment(name, ExperimentConfig(master_seed=seed,
backend="fused"), workers=0)`` for every experiment of the sweep, with
no result cache, exactly what a researcher regenerating the figures
waits for.  Every repetition runs in a fresh child process
(``python3 -m perfbench.sweeps``), so each is as cold as a CLI run.

Every part of a repetition (the imports, each experiment) is timed
and calibrated to the reference host speed with the kernel of
:mod:`perfbench.calibrate`, run right after the imports and after each
experiment.  An untraced run repeats the sweep until ``--seconds`` are
spent (at least :data:`MIN_REPS` times) and reports each part at its
fastest calibrated repetition, which drops the short stalls the
calibration cannot see.  ``setup_s`` is the median calibrated import
time of the repetitions.

Outputs are checked outside the timed region: each result is written
with ``repro.experiments.report.export_json`` and the SHA-256 of those
bytes is compared with ``digests.json`` and across repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .calibrate import calibrated, kernel_s, pin_thread
from .common import Outcome, peak_rss_mib, span
from .layers import EXPERIMENTS, install_layers
from .tracing import Patcher, Recorder

__all__ = ["DIGESTS_PATH", "MIN_REPS", "Rep", "child_rep", "compare_digests",
           "expected_digests", "load_digests", "run_rep", "run_sweep",
           "summarize_reps"]

ROOT = Path(__file__).resolve().parent.parent
#: Recorded digests: ``{seed: {experiment: sha256}}``.
DIGESTS_PATH = Path(__file__).with_name("digests.json")
#: Repetitions an untraced run makes even when ``--seconds`` is short.
MIN_REPS = 2
#: Every repetition must end this long after the run started, which
#: keeps a hung child from running the process past its time limit.
DEADLINE_S = 150.0


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, dict[str, str]]:
    return json.loads(path.read_text())


def expected_digests(seed: int, recorded: dict[str, dict[str, str]],
                     ) -> dict[str, str]:
    """The recorded digests that apply at ``seed``.

    At a recorded seed that is its whole record.  At any other seed it
    is the experiments whose recorded digest is the same at every
    recorded seed: their result does not depend on the seed (table1).
    """
    if str(seed) in recorded:
        return recorded[str(seed)]
    per_seed = list(recorded.values())
    if not per_seed:
        return {}
    return {name: digest for name, digest in per_seed[0].items()
            if all(other.get(name) == digest for other in per_seed[1:])}


def compare_digests(seed: int, digests: dict[str, str],
                    recorded: dict[str, dict[str, str]]) -> list[str] | None:
    """Experiments whose digest differs from :func:`expected_digests`.

    ``None`` means no recorded digest applies to any of ``digests``.  An
    experiment missing from ``digests`` (it raised) is not reported
    here, it already counts as failed.
    """
    expected = expected_digests(seed, recorded)
    checked = [name for name in digests if name in expected]
    if not checked:
        return None
    return [name for name in checked if expected[name] != digests[name]]


@dataclass
class Rep:
    """One repetition of a sweep: per-part times, digests, failures."""

    import_s: float
    #: Experiment -> seconds, for the experiments that returned.
    times: dict[str, float]
    digests: dict[str, str]
    #: Experiment -> why it failed.
    errors: dict[str, str]
    peak_rss_mib: float
    #: Reference kernel times: after the imports, then after each
    #: experiment (see :mod:`perfbench.calibrate`).
    kernels: list[float]

    def calibrated_times(self, names: tuple[str, ...]) -> dict[str, float]:
        """Each part that returned, at the reference speed."""
        parts = {"import": calibrated(self.import_s, self.kernels[0],
                                      self.kernels[0])}
        for index, name in enumerate(names):
            if name in self.times:
                parts[name] = calibrated(self.times[name],
                                         self.kernels[index],
                                         self.kernels[index + 1])
        return parts


def run_rep(workload: str, seed: int, out_dir: Path,
            recorder: Recorder | None) -> Rep:
    """One repetition in this process; times start just before the import."""
    names = EXPERIMENTS[workload]
    started = time.perf_counter()
    with span(recorder, "repro.import"):
        from repro.experiments import runner
        from repro.experiments.base import ExperimentConfig
        from repro.telemetry.registry import active as telemetry_active
    import_s = time.perf_counter() - started

    errors: dict[str, str] = {}
    patcher = Patcher(recorder) if recorder is not None else None
    results = {}
    times: dict[str, float] = {}
    kernels = [kernel_s()]
    try:
        if patcher is not None:
            install_layers(patcher)
        config = ExperimentConfig(master_seed=seed, backend="fused")
        for name in names:
            begun = time.perf_counter()
            try:
                with span(recorder, f"experiments.{name}"):
                    results[name] = runner.run_experiment(name, config,
                                                          workers=0)
                times[name] = time.perf_counter() - begun
            except Exception as error:  # one failed operation, keep going
                errors[name] = f"raised {type(error).__name__}: {error}"
            kernels.append(kernel_s())
        rss = peak_rss_mib()
    finally:
        if patcher is not None:
            patcher.restore()
    if telemetry_active() is not None:
        for name in names:
            errors.setdefault(name, "telemetry was active; the timings "
                                    "describe a different program")

    from repro.experiments.report import export_json

    digests = {}
    for name in names:
        if name in results:
            path = export_json(results[name], out_dir / f"{name}.json")
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return Rep(import_s, times, digests, errors, rss, kernels)


def child_rep(workload: str, seed: int, out_dir: Path,
               timeout_s: float) -> Rep:
    """One repetition in a fresh child process."""
    command = [sys.executable, "-m", "perfbench.sweeps", "--workload",
               workload, "--seed", str(seed), "--out", str(out_dir)]
    try:
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=timeout_s)
        if child.returncode != 0:
            raise RuntimeError(f"exit {child.returncode}: "
                               f"{child.stderr.strip()[-300:]}")
        return Rep(**json.loads(child.stdout.strip().splitlines()[-1]))
    except (subprocess.TimeoutExpired, RuntimeError, ValueError, TypeError,
            IndexError) as error:
        why = f"repetition failed: {type(error).__name__}: {error}"
        return Rep(0.0, {}, {}, dict.fromkeys(EXPERIMENTS[workload], why),
                   0.0, [])


def summarize_reps(workload: str, seed: int, reps: list[Rep],
                   out_dir: Path) -> Outcome:
    """Check every repetition's outputs and take each part's fastest time.

    Times are calibrated (:mod:`perfbench.calibrate`).  ``job_s`` is the
    fastest import plus each experiment's fastest run; ``p50_ms`` and
    ``capacity_rps`` treat the sweep as a backlog of experiments due when
    the imports end, completed in order at those times.  ``setup_s`` is
    the median import time.
    """
    from repro.service.workload import percentile

    names = EXPERIMENTS[workload]
    recorded = load_digests()
    notes: list[str] = []
    failed = 0
    for index, rep in enumerate(reps):
        problems = dict(rep.errors)
        mismatched = compare_digests(seed, rep.digests, recorded) or []
        for name in mismatched:
            problems.setdefault(name, "digest differs from the record")
        for name, digest in rep.digests.items():
            if digest != reps[0].digests.get(name, digest):
                problems.setdefault(name, "digest differs from the first "
                                          "repetition (nondeterminism)")
        failed += len(problems)
        notes.extend(f"  rep {index}: {name}: {why}"
                     for name, why in sorted(problems.items()))

    digests = {name: digest for rep in reversed(reps)
               for name, digest in rep.digests.items()}
    for name in names:
        if name in digests:
            notes.append(f"  {name:<7} sha256 {digests[name]}")
    checked = sorted(set(digests) & set(expected_digests(seed, recorded)))
    if str(seed) in recorded:
        notes.append(f"  seed {seed} is recorded: checked every digest")
    else:
        notes.append(f"  seed {seed} is not recorded: checked the "
                     f"seed-independent digests {checked}; compare the "
                     f"rest by hand (exports in {out_dir.name}/)")

    parts = [rep.calibrated_times(names) for rep in reps if rep.kernels]
    for index, rep in enumerate(reps):
        if rep.kernels:
            notes.append(
                f"  rep {index} raw: import {rep.import_s:.3f} s, "
                + ", ".join(f"{name} {seconds:.3f} s"
                            for name, seconds in rep.times.items())
                + "; kernel " + " ".join(f"{kernel:.3f}"
                                         for kernel in rep.kernels) + " s")
    fastest = {name: min(part[name] for part in parts if name in part)
               for name in ("import", *names)
               if any(name in part for part in parts)}
    imports = [part["import"] for part in parts]
    completed, elapsed = [], 0.0
    for name in names:
        if name in fastest:
            elapsed += fastest[name]
            completed.append(elapsed)
    notes.append(f"  {len(reps)} repetition(s); fastest per part, "
                 f"calibrated: " + ", ".join(
                     f"{name} {seconds:.3f} s"
                     for name, seconds in fastest.items()))
    metrics = {
        "job_s": fastest.get("import", 0.0) + elapsed,
        "setup_s": statistics.median(imports) if imports else 0.0,
        "p50_ms": percentile(completed, 0.5) * 1e3 if completed else 0.0,
        "capacity_rps": len(completed) / elapsed if elapsed else 0.0,
        "peak_rss_mib": max(rep.peak_rss_mib for rep in reps),
    }
    return Outcome(attempted=len(names) * len(reps), failed=failed,
                   metrics=metrics, notes=notes)


def run_sweep(workload: str, seed: int, seconds: float, out_dir: Path,
              recorder: Recorder | None) -> Outcome:
    """Run a sweep: one traced repetition, or fresh-process repetitions.

    Untraced, repetitions start while one more (at the fastest pace so
    far) fits in ``seconds``, and at least :data:`MIN_REPS` run.
    """
    if recorder is not None:
        allowed = os.sched_getaffinity(0)
        pin_thread(min(allowed))  # as a child repetition is
        try:
            rep = run_rep(workload, seed, out_dir, recorder)
        finally:
            os.sched_setaffinity(0, allowed)
        return summarize_reps(workload, seed, [rep], out_dir)
    started = time.perf_counter()
    reps: list[Rep] = []
    fastest = 0.0
    while len(reps) < MIN_REPS or (
            time.perf_counter() - started + fastest <= seconds):
        begun = time.perf_counter()
        timeout_s = DEADLINE_S - (begun - started)
        if timeout_s <= 0:
            break
        reps.append(child_rep(workload, seed, out_dir, timeout_s))
        took = time.perf_counter() - begun
        fastest = min(fastest, took) if fastest else took
        if reps[-1].errors and not reps[-1].times:
            break  # the child itself failed; another would too
    return summarize_reps(workload, seed, reps, out_dir)


def main(argv: list[str] | None = None) -> int:
    """Child entry point: run one repetition, print it as one JSON line."""
    parser = argparse.ArgumentParser(description="one sweep repetition")
    parser.add_argument("--workload", required=True, choices=EXPERIMENTS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    # The repetition and its calibration kernels share one CPU.
    pin_thread(min(os.sched_getaffinity(0)))
    rep = run_rep(args.workload, args.seed, args.out, None)
    print(json.dumps(vars(rep)))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.fspath(ROOT / "src"))
    sys.exit(main())
