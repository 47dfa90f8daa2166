"""Built-in rule set: the determinism invariants of this repository,
encoded as static checks.

Every result in this reproduction carries a byte-identity guarantee —
scalar, batched, re-sharded, and N-worker runs of the same (experiment,
config, seed) must produce identical output (see ``docs/fleet.md`` and
``docs/telemetry.md``).  The golden files and identity tests enforce
that *dynamically*; these rules flag the common ways new code breaks it
*statically*, before anything executes:

* DET001 — ambient global-state RNG,
* DET002 — wall-clock reads outside the timing allowlist,
* DET003 — iteration over unordered set values,
* DET004 — environment reads outside fleet/config entry points,
* TEL001 — wall-clock/RNG values fed into telemetry *counters*.

Each rule reads the module summaries of the linked project; DET001,
DET002 and TEL001 run the name classifiers and taint fixpoints of
:mod:`.dataflow`.  The catalog with full rationale lives in
``docs/linting.md``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from . import dataflow
from .callgraph import Project
from .model import Finding
from .rules import Rule, register

__all__ = [
    "AmbientRngRule",
    "WallClockRule",
    "UnsortedSetIterationRule",
    "EnvironReadRule",
    "NondeterministicCounterRule",
]


# ----------------------------------------------------------------------
# DET001 — ambient global-state RNG
# ----------------------------------------------------------------------

@register
class AmbientRngRule(Rule):
    code = "DET001"
    summary = "ambient global-state RNG call or unseeded generator"
    rationale = (
        "Every random stream in this simulator is derived from the "
        "master seed via repro.dram.rng.derive_rng, so reruns, shards, "
        "and batched lanes replay identical draws.  The legacy "
        "np.random.* / random.* module APIs share hidden process-global "
        "state, and default_rng()/PCG64() without a seed pull OS "
        "entropy — either silently breaks byte-identity and poisons "
        "golden files.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from dataflow.iter_rng_findings(self, project)


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------

@register
class WallClockRule(Rule):
    code = "DET002"
    summary = "wall-clock read outside the timing allowlist"
    rationale = (
        "Simulated time is the SoftMC cycle counter; host wall-clock "
        "must never leak into results, result-cache keys, or trace "
        "bytes.  Only the telemetry phase/histogram machinery and the "
        "runner/fleet progress reporting are allowed to read clocks — "
        "their output is contractually excluded from the deterministic "
        "snapshot.")

    #: Modules whose *job* is timing; wall-clock reads here are the
    #: product, not a leak.  Keep this list short and intentional.
    allowlist: Tuple[str, ...] = (
        "repro.telemetry.registry",
        "repro.telemetry.tracer",
        "repro.experiments.runner",
        "repro.experiments.report",
        "repro.fleet.executor",
        # The run-program frontend's elapsed-time report goes to stderr
        # only; stdout stays the deterministic conformance surface.
        "repro.backends.frontend",
        # The service's real-time boundary: SystemClock is the ONE place
        # the serving layer reads the host clock; everything else takes
        # an injected Clock, and scripted replay injects ManualClock.
        "repro.service.clock",
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from dataflow.iter_clock_findings(self, project,
                                                self.allowlist)


# ----------------------------------------------------------------------
# DET003 — iteration over unordered set values
# ----------------------------------------------------------------------

@register
class UnsortedSetIterationRule(Rule):
    code = "DET003"
    summary = "iteration over set values without an enclosing sorted()"
    rationale = (
        "Set iteration order depends on insertion history and element "
        "hashes (and, for str keys, on PYTHONHASHSEED), so any loop over "
        "a set that feeds results, RNG-stream derivation, or command "
        "emission produces run-dependent orderings.  Wrapping the set in "
        "sorted() pins a total order; the cost is negligible at the "
        "sizes this simulator handles.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        for summary in project.by_path.values():
            for site in summary.set_iterations:
                yield self.project_finding(
                    summary.path, site,
                    "iterating a set produces an undefined order; "
                    "wrap the expression in sorted(...) to pin the "
                    "traversal")


# ----------------------------------------------------------------------
# DET004 — environment reads
# ----------------------------------------------------------------------

@register
class EnvironReadRule(Rule):
    code = "DET004"
    summary = "os.environ read outside fleet/config entry points"
    rationale = (
        "An experiment whose output depends on ambient environment "
        "variables cannot be replayed from its (experiment, config, "
        "seed) cache key.  Environment influence is funneled through "
        "the fleet entry points (worker count, cache directory), which "
        "resolve variables once and pass plain values down.")

    allowlist: Tuple[str, ...] = ("repro.fleet",)

    def check_project(self, project: Project) -> Iterator[Finding]:
        for summary in project.by_path.values():
            if dataflow.in_allowlist(summary.module, self.allowlist):
                continue
            for name, site in summary.environ_reads:
                yield self.project_finding(
                    summary.path, site,
                    f"{name} accessed in module {summary.module}; "
                    f"resolve environment variables in the fleet/config "
                    f"entry points and pass plain values down")


# ----------------------------------------------------------------------
# TEL001 — nondeterministic values in telemetry counters
# ----------------------------------------------------------------------

@register
class NondeterministicCounterRule(Rule):
    code = "TEL001"
    summary = "wall-clock or RNG value fed into a telemetry counter"
    rationale = (
        "Counters are the *deterministic* telemetry section: a serial "
        "run and an N-worker fleet run must produce identical counter "
        "snapshots (tests/telemetry asserts this).  Feeding a clock or "
        "RNG draw into Counter.add/Telemetry.count poisons that "
        "contract; wall-clock belongs in histograms or phase timers, "
        "which are excluded from the deterministic snapshot.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        yield from dataflow.iter_counter_findings(self, project)
