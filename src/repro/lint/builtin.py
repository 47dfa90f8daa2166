"""Built-in rule set: the determinism & fork-safety invariants of this
repository, encoded as static checks.

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

The catalog with full rationale lives in ``docs/linting.md``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from .model import Finding, ModuleContext
from .rules import Rule, dotted_name, register, walk_calls

__all__ = [
    "AmbientRngRule",
    "WallClockRule",
    "UnsortedSetIterationRule",
    "EnvironReadRule",
    "NondeterministicCounterRule",
]


# ----------------------------------------------------------------------
# shared matchers
# ----------------------------------------------------------------------

#: Legacy ``numpy.random`` module aliases whose function calls mutate the
#: hidden global ``RandomState``.
_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

#: ``np.random`` members that are *constructors/containers*, not ambient
#: draws; they are fine when given an explicit seed and are checked
#: separately for the unseeded case.
_NP_RANDOM_SAFE = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
}

#: Bit generators whose zero-argument construction seeds from the OS.
_UNSEEDED_CONSTRUCTORS = {
    "default_rng", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "RandomState", "Random",
}

#: Module-level functions of stdlib :mod:`random` (the shared
#: ``random.Random`` instance behind them is process-global state).
_STDLIB_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

#: Exact wall-clock reads from :mod:`time`.
_TIME_FUNCS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
}

#: Suffix-matched wall-clock reads from :mod:`datetime` (callers reach
#: them as ``datetime.now``, ``datetime.datetime.now``, ``dt.now``...).
_DATETIME_TAILS = ("datetime.now", "datetime.utcnow", "datetime.today",
                   "date.today")


def _is_wall_clock_call(call: ast.Call) -> Optional[str]:
    """The dotted name of a wall-clock read, or ``None``."""
    name = dotted_name(call.func)
    if name is None:
        return None
    if name in _TIME_FUNCS:
        return name
    for tail in _DATETIME_TAILS:
        if name == tail or name.endswith("." + tail):
            return name
    return None


def _is_ambient_rng_call(call: ast.Call) -> Optional[Tuple[str, str]]:
    """Classify an ambient-RNG call.

    Returns ``(kind, dotted_name)`` where ``kind`` is ``"global-state"``
    (the legacy ``np.random.*`` / ``random.*`` module APIs) or
    ``"unseeded"`` (a generator constructed without an explicit seed),
    or ``None`` when the call is deterministic.
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    tail = name.rsplit(".", 1)[-1]
    for prefix in _NP_RANDOM_PREFIXES:
        if name.startswith(prefix):
            if tail not in _NP_RANDOM_SAFE:
                return ("global-state", name)
            break
    if name.startswith("random.") and name.count(".") == 1:
        if tail in _STDLIB_RANDOM_FUNCS:
            return ("global-state", name)
    if tail in _UNSEEDED_CONSTRUCTORS and not call.args:
        seed_keywords = {"seed", "entropy", "key", "bit_generator", "x"}
        if not any(kw.arg in seed_keywords or kw.arg is None
                   for kw in call.keywords):
            qualifies = (
                name in ("default_rng", "Random", "RandomState")
                or any(name.startswith(p) for p in _NP_RANDOM_PREFIXES)
                or name.startswith("random."))
            if qualifies:
                return ("unseeded", name)
    return None


def _contains_rng_draw(node: ast.AST) -> Optional[str]:
    """Dotted name of an RNG draw anywhere under ``node``, or ``None``.

    Matches ambient calls (per DET001) *and* draws on derived generators
    — any ``<something>.rng.<method>(...)`` or ``rng.<method>(...)``
    where the method is a Generator sampling API.
    """
    draw_methods = {
        "random", "integers", "normal", "standard_normal", "uniform",
        "choice", "shuffle", "permutation", "bytes", "bits",
        "exponential", "poisson", "binomial",
    }
    for call in walk_calls(node):
        if _is_ambient_rng_call(call) is not None:
            name = dotted_name(call.func)
            return name if name is not None else "<rng>"
        name = dotted_name(call.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) >= 2 and parts[-1] in draw_methods:
            if "rng" in parts[:-1] or parts[-2].endswith("rng"):
                return name
    return None


def _module_allowlisted(module: str, allowlist: Sequence[str]) -> bool:
    return any(module == entry or module.startswith(entry + ".")
               for entry in allowlist)


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

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            verdict = _is_ambient_rng_call(call)
            if verdict is None:
                continue
            kind, name = verdict
            if kind == "global-state":
                message = (f"call to {name}() uses process-global RNG "
                           f"state; derive a stream with "
                           f"repro.dram.rng.derive_rng instead")
            else:
                message = (f"{name}() constructed without an explicit "
                           f"seed draws OS entropy; pass a seed derived "
                           f"from the master seed")
            yield self.finding(ctx, call, message)

    def check_project(self, project) -> Iterator[Finding]:
        from . import dataflow
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

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _module_allowlisted(ctx.module, self.allowlist):
            return
        for call in walk_calls(ctx.tree):
            name = _is_wall_clock_call(call)
            if name is None:
                continue
            yield self.finding(
                ctx, call,
                f"wall-clock read {name}() in module {ctx.module}; "
                f"simulated time comes from the SoftMC cycle counter "
                f"(allowlisted timing modules: "
                f"{', '.join(self.allowlist)})")

    def check_project(self, project) -> Iterator[Finding]:
        from . import dataflow
        yield from dataflow.iter_clock_findings(self, project,
                                                self.allowlist)


# ----------------------------------------------------------------------
# DET003 — iteration over unordered set values
# ----------------------------------------------------------------------

def _is_set_expression(node: ast.AST) -> bool:
    """True when ``node`` syntactically constructs a set/frozenset."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return (_is_set_expression(node.left)
                or _is_set_expression(node.right))
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference"):
            return _is_set_expression(node.func.value)
    return False


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

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                targets.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                targets.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("list", "tuple", "enumerate") and node.args:
                    targets.append(node.args[0])
            for target in targets:
                if _is_set_expression(target):
                    yield self.finding(
                        ctx, target,
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

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _module_allowlisted(ctx.module, self.allowlist):
            return
        for node in ast.walk(ctx.tree):
            name: Optional[str] = None
            if isinstance(node, ast.Attribute):
                # Exactly "os.environ" / "os.getenv": the innermost node
                # of every access pattern (subscript, .get, membership),
                # so each site is reported once.
                resolved = dotted_name(node)
                if resolved in ("os.environ", "os.getenv", "os.putenv"):
                    name = resolved
            elif isinstance(node, ast.Name) and node.id == "environ":
                name = "environ"
            if name is None:
                continue
            yield self.finding(
                ctx, node,
                f"{name} accessed in module {ctx.module}; resolve "
                f"environment variables in the fleet/config entry "
                f"points and pass plain values down")


# ----------------------------------------------------------------------
# TEL001 — nondeterministic values in telemetry counters
# ----------------------------------------------------------------------

#: Receivers that identify the telemetry registry at instrumented call
#: sites (``tel = active()`` is the repo-wide idiom).
_TELEMETRY_RECEIVERS = {
    "tel", "telemetry", "self.telemetry", "self._telemetry", "registry",
}
_TELEMETRY_FACTORIES = {"active", "_telemetry_active"}


def _is_telemetry_receiver(node: ast.AST) -> bool:
    name = dotted_name(node)
    if name is not None and name in _TELEMETRY_RECEIVERS:
        return True
    if isinstance(node, ast.Call):
        factory = dotted_name(node.func)
        if factory is not None:
            return factory.rsplit(".", 1)[-1] in _TELEMETRY_FACTORIES
    return False


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

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in walk_calls(ctx.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            value_args: List[ast.AST] = []
            if func.attr == "count" and _is_telemetry_receiver(func.value):
                value_args = list(call.args[1:]) + [
                    kw.value for kw in call.keywords if kw.arg == "n"]
            elif func.attr == "add" and isinstance(func.value, ast.Call):
                inner = func.value.func
                if (isinstance(inner, ast.Attribute)
                        and inner.attr == "counter"
                        and _is_telemetry_receiver(inner.value)):
                    value_args = list(call.args) + [
                        kw.value for kw in call.keywords if kw.arg == "n"]
            for arg in value_args:
                clock = next(
                    (name for inner_call in walk_calls(arg)
                     for name in [_is_wall_clock_call(inner_call)]
                     if name is not None), None)
                if clock is not None:
                    yield self.finding(
                        ctx, call,
                        f"wall-clock value from {clock}() fed into a "
                        f"telemetry counter; counters are deterministic "
                        f"— use a histogram or phase timer")
                    continue
                rng = _contains_rng_draw(arg)
                if rng is not None:
                    yield self.finding(
                        ctx, call,
                        f"RNG value from {rng}() fed into a telemetry "
                        f"counter; counters must be a pure function of "
                        f"(experiment, config, seed)")

    def check_project(self, project) -> Iterator[Finding]:
        from . import dataflow
        yield from dataflow.iter_counter_findings(self, project)
