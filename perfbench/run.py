"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trial-sweep --seed 1 --seconds 30 --trace 0

Each invocation is one fresh process running one workload
(``trial-sweep``, ``device-sweep`` or ``serve-10k``); a sweep repeats
itself in fresh child processes for ``--seconds``.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it first runs the
same workload untraced in a child process, then runs it once with span
wrappers around every layer's public entry points and prints the
per-layer metrics plus the tracing overhead.  The last line of
standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trial-sweep", "device-sweep", "serve-10k")
#: Total paced time of the untraced reference a serve-10k trace is
#: compared with; the overhead is taken over set-up and the drain
#: bursts, which do not depend on it.
REFERENCE_PACED_S = 4
#: Upper bound on the untraced reference child's run time.
REFERENCE_TIMEOUT_S = 150


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="how long the sweeps repeat; the total "
                             "paced time of serve-10k")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _busy_s(workload: str, metrics: dict[str, float]) -> float:
    """Compute-bound (calibrated) time of a run, from its end-to-end metrics.

    The paced segments of ``serve-10k`` wait on the clock, so its busy time
    is set-up plus the drain bursts at the reported capacity.
    """
    if workload == "serve-10k":
        from perfbench.serve import BURST_REQUESTS, ROUNDS

        return (metrics["setup_s"]
                + ROUNDS * BURST_REQUESTS / metrics["capacity_rps"])
    return metrics["job_s"]


def _reference_busy_s(args: argparse.Namespace, out_dir: Path) -> float:
    """Busy wall time of the same workload, untraced, in a child process.

    A sweep's reference is one repetition; serve-10k's is a whole run with
    shorter paced segments.
    """
    if args.workload != "serve-10k":
        from perfbench.layers import EXPERIMENTS
        from perfbench.sweeps import child_rep

        rep = child_rep(args.workload, args.seed, out_dir,
                        REFERENCE_TIMEOUT_S)
        # Arithmetic only: this process must not import repro before
        # its own traced repetition times the import.
        return sum(rep.calibrated_times(EXPERIMENTS[args.workload]).values())
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(min(args.seconds, REFERENCE_PACED_S)),
               "--trace", "0"]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                           timeout=REFERENCE_TIMEOUT_S, check=True)
    result = json.loads(child.stdout.strip().splitlines()[-1])
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    return _busy_s(args.workload, metrics)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "nothing to measure", file=sys.stderr)
        return 2
    # Single-threaded numeric libraries: the run's only busy threads are
    # the main thread and, on serve-10k, the batcher's engine thread.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    # The build step: byte-compile the package up front so no timed
    # import pays for compilation (a no-op once the caches are fresh).
    compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1)
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from perfbench.common import END_TO_END
    from perfbench.layers import PER_LAYER, layer_metrics, missing_layers
    from perfbench.tracing import Recorder, summarize

    run_name = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace
                                                     else "")
    out_dir = ROOT / ".perfbench" / run_name
    reference_s = _reference_busy_s(args, out_dir) if args.trace else None
    recorder = Recorder(f"{run_name}-{os.getpid()}") if args.trace else None
    if args.workload == "serve-10k":
        from perfbench.serve import run_serve

        outcome = run_serve(args.seed, args.seconds, recorder)
    else:
        from perfbench.sweeps import run_sweep

        outcome = run_sweep(args.workload, args.seed, args.seconds, out_dir,
                            recorder)

    correct = outcome.failed == 0
    print(f"{args.workload} seed {args.seed}: {outcome.attempted} "
          f"operation(s), {outcome.failed} failed")
    for line in outcome.notes:
        print(line)
    if recorder is None:
        values = outcome.metrics
        units = dict(END_TO_END)
    else:
        totals = summarize(recorder.spans)
        missing = missing_layers(args.workload, totals)
        if missing:
            correct = False
            print(f"  TRACE GUARD: no calls recorded for {missing}; a "
                  f"wrapper is patched where no caller looks it up")
        from repro.controller.plan import plan_cache_info
        from repro.xir import xir_cache_info

        busy_s = _busy_s(args.workload, outcome.metrics)
        values = layer_metrics(totals, {
            **outcome.layer_extra,
            "controller.plan.misses": plan_cache_info()["misses"],
            "xir.compile.misses": xir_cache_info()["misses"],
            "trace.overhead_pct": 100.0 * (busy_s - reference_s) / reference_s,
        })
        units = {name: unit for name, unit, _ in PER_LAYER}
        path = recorder.write_jsonl(out_dir / "spans.jsonl")
        print(f"  {len(recorder.spans)} spans written to {path}")
    for name, value in values.items():
        print(f"  {name:<30} {value:14.4f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    # Import the harness as the ``perfbench`` package, never as loose
    # modules from the script's own directory.
    sys.path[0] = str(ROOT)
    sys.exit(main())
