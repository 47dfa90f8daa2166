"""Determinism rules over the linked :class:`Project`: the one
implementation each of DET001, DET002 and TEL001, plus FORK002.

A site is classified by its name *as written* first —
``time.perf_counter()``, ``np.random.random()``, and for counter feeds
a draw on a derived generator (``self.rng.normal()``) — and only then
through the two cross-module escape hatches:

* **aliased imports**: ``from time import perf_counter as pc; pc()``;
* **value laundering**: a helper that *returns* a clock read or an
  unseeded generator, called from a module where the direct call would
  have been flagged.

Names are resolved through the project import table before the second
classification, and two return-taint fixpoints (wall-clock and ambient
RNG) propagate sourcehood through arbitrarily deep call chains.  The
``iter_*_findings`` helpers are what the rule classes in ``builtin``
run; :class:`KernelPurityRule` (FORK002) proves worker and kernel
purity over the full call graph.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .callgraph import FunctionKey, Project
from .model import Finding
from .rules import Rule, register
from .summary import CallSite, CounterFeed, FunctionSummary, ModuleSummary

__all__ = [
    "KernelPurityRule",
    "classify_ambient_rng",
    "classify_wall_clock",
    "clock_taint",
    "in_allowlist",
    "iter_counter_findings",
    "iter_clock_findings",
    "iter_rng_findings",
    "rng_taint",
]


# ----------------------------------------------------------------------
# name classifiers
# ----------------------------------------------------------------------
# Each takes a dotted name — as written, or resolved to its absolute
# form — plus, for the unseeded-generator check, the call-site argument
# shape recorded in the summary.

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

_SEED_KEYWORDS = {"seed", "entropy", "key", "bit_generator", "x"}

#: Generator sampling methods: ``rng.<method>()`` is an RNG draw.
_DRAW_METHODS = {
    "random", "integers", "normal", "standard_normal", "uniform",
    "choice", "shuffle", "permutation", "bytes", "bits",
    "exponential", "poisson", "binomial",
}


def classify_wall_clock(name: str) -> Optional[str]:
    """The wall-clock primitive ``name`` denotes, or ``None``."""
    if name in _TIME_FUNCS:
        return name
    for tail in _DATETIME_TAILS:
        if name == tail or name.endswith("." + tail):
            return name
    return None


def classify_ambient_rng(name: str,
                         site: CallSite) -> Optional[Tuple[str, str]]:
    """Classify a call of ``name`` as ambient RNG.

    Returns ``("global-state", name)`` for the legacy module-level APIs,
    ``("unseeded", name)`` for a generator constructed without a seed,
    or ``None``.
    """
    tail = name.rsplit(".", 1)[-1]
    for prefix in _NP_RANDOM_PREFIXES:
        if name.startswith(prefix):
            if tail not in _NP_RANDOM_SAFE:
                return ("global-state", name)
            break
    if name.startswith("random.") and name.count(".") == 1:
        if tail in _STDLIB_RANDOM_FUNCS:
            return ("global-state", name)
    if tail in _UNSEEDED_CONSTRUCTORS and site.n_args == 0:
        if not any(kw in _SEED_KEYWORDS or kw == "*"
                   for kw in site.keywords):
            qualifies = (
                name in ("default_rng", "Random", "RandomState")
                or any(name.startswith(p) for p in _NP_RANDOM_PREFIXES)
                or name.startswith("random."))
            if qualifies:
                return ("unseeded", name)
    return None


def _is_rng_draw(site: CallSite) -> bool:
    """Ambient RNG, or a sampling call on a derived generator
    (``rng.integers()``, ``self._rng.normal()``), as written."""
    if classify_ambient_rng(site.name, site) is not None:
        return True
    parts = site.name.split(".")
    return (len(parts) >= 2 and parts[-1] in _DRAW_METHODS
            and ("rng" in parts[:-1] or parts[-2].endswith("rng")))


def in_allowlist(module: str, allowlist: Sequence[str]) -> bool:
    """True when ``module`` is an allowlist entry or inside one."""
    return any(module == entry or module.startswith(entry + ".")
               for entry in allowlist)


# ----------------------------------------------------------------------
# taint fixpoints
# ----------------------------------------------------------------------

def clock_taint(project: Project) -> FrozenSet[FunctionKey]:
    """Functions whose return value transitively reads the wall clock."""
    return project.return_taint(
        "clock", lambda name, site: classify_wall_clock(name) is not None)


def rng_taint(project: Project) -> FrozenSet[FunctionKey]:
    """Functions whose return value transitively carries ambient RNG."""
    return project.return_taint(
        "rng",
        lambda name, site: classify_ambient_rng(name, site) is not None)


# ----------------------------------------------------------------------
# DET002 — wall-clock reads
# ----------------------------------------------------------------------

def _clock_message(project: Project, summary: ModuleSummary,
                   function: FunctionSummary, site: CallSite,
                   tainted: FrozenSet[FunctionKey],
                   allowlist: Sequence[str]) -> Optional[str]:
    module, name = project.module_key(summary), summary.module
    if classify_wall_clock(site.name) is not None:
        return (f"wall-clock read {site.name}() in module {name}; "
                f"simulated time comes from the SoftMC cycle counter "
                f"(allowlisted timing modules: {', '.join(allowlist)})")
    clock = classify_wall_clock(project.resolve_name(module, site.name))
    if clock is not None:
        return (f"wall-clock read: {site.name}() resolves to {clock}() "
                f"in module {name}; simulated time comes from the "
                f"SoftMC cycle counter")
    target = project.resolve_call(module, function, site)
    if target is not None and target in tainted:
        return (f"call to {project.qualname(target)}() returns a "
                f"wall-clock value into module {name}; pass an "
                f"injected Clock or keep the value inside the timing "
                f"allowlist")
    return None


def iter_clock_findings(rule: Rule, project: Project,
                        allowlist: Sequence[str]) -> Iterator[Finding]:
    """Direct and aliased clock reads, and calls returning clock values,
    outside the allowlisted timing modules."""
    tainted = clock_taint(project)
    for summary, function in project.iter_functions():
        if in_allowlist(summary.module, allowlist):
            continue
        for site in function.calls:
            message = _clock_message(project, summary, function, site,
                                     tainted, allowlist)
            if message is not None:
                yield rule.project_finding(summary.path, site, message)


# ----------------------------------------------------------------------
# DET001 — ambient RNG
# ----------------------------------------------------------------------

def _rng_message(project: Project, module: str, function: FunctionSummary,
                 site: CallSite,
                 tainted: FrozenSet[FunctionKey]) -> Optional[str]:
    written = classify_ambient_rng(site.name, site)
    if written is not None:
        kind, name = written
        if kind == "global-state":
            return (f"call to {name}() uses process-global RNG state; "
                    f"derive a stream with repro.dram.rng.derive_rng "
                    f"instead")
        return (f"{name}() constructed without an explicit seed draws OS "
                f"entropy; pass a seed derived from the master seed")
    resolved = classify_ambient_rng(
        project.resolve_name(module, site.name), site)
    if resolved is not None:
        kind, name = resolved
        if kind == "global-state":
            return (f"{site.name}() resolves to {name}(), which uses "
                    f"process-global RNG state; derive a stream with "
                    f"repro.dram.rng.derive_rng instead")
        return (f"{site.name}() resolves to {name}() constructed without "
                f"an explicit seed; pass a seed derived from the master "
                f"seed")
    target = project.resolve_call(module, function, site)
    if target is not None and target in tainted:
        return (f"call to {project.qualname(target)}() returns a value "
                f"derived from ambient or unseeded RNG; thread a seeded "
                f"Generator through instead")
    return None


def iter_rng_findings(rule: Rule, project: Project) -> Iterator[Finding]:
    """Direct and aliased ambient RNG, and calls returning generators."""
    tainted = rng_taint(project)
    for summary, function in project.iter_functions():
        for site in function.calls:
            message = _rng_message(project, project.module_key(summary),
                                   function, site, tainted)
            if message is not None:
                yield rule.project_finding(summary.path, site, message)


# ----------------------------------------------------------------------
# TEL001 — nondeterministic values in telemetry counters
# ----------------------------------------------------------------------

_CLOCK_FEED = ("fed into a telemetry counter; counters are deterministic "
               "— use a histogram or phase timer")
_RNG_FEED = ("fed into a telemetry counter; counters must be a pure "
             "function of (experiment, config, seed)")


def iter_counter_findings(rule: Rule,
                          project: Project) -> Iterator[Finding]:
    """Clock and RNG values fed into counters: written, aliased, or
    laundered through a local or a helper's return value."""
    clock_fns = clock_taint(project)
    rng_fns = rng_taint(project)
    for summary, function in project.iter_functions():
        for feed in function.counter_feeds:
            message = _feed_message(project, project.module_key(summary),
                                    function, feed, clock_fns, rng_fns)
            if message is not None:
                yield rule.project_finding(summary.path, feed, message)


def _feed_message(project: Project, module: str,
                  function: FunctionSummary, feed: CounterFeed,
                  clock_fns: FrozenSet[FunctionKey],
                  rng_fns: FrozenSet[FunctionKey]) -> Optional[str]:
    # The value as written: a clock read anywhere wins over a draw.
    for site in feed.arg_calls:
        if classify_wall_clock(site.name) is not None:
            return f"wall-clock value from {site.name}() {_CLOCK_FEED}"
    for site in feed.arg_calls:
        if _is_rng_draw(site):
            return f"RNG value from {site.name}() {_RNG_FEED}"
    # Resolved: aliases, helper returns, and one-hop locals.
    assigned = dict(function.assigned_calls)
    sources: List[Tuple[CallSite, Optional[str]]] = [
        (site, None) for site in feed.arg_calls]
    sources.extend((assigned[name], name) for name in feed.arg_names
                   if name in assigned)
    for site, via in sources:
        absolute = project.resolve_name(module, site.name)
        target = project.resolve_call(module, function, site)
        if classify_wall_clock(absolute) is not None:
            return (f"wall-clock value from {site.name}() {_via(via)}"
                    f"{_CLOCK_FEED}")
        if target is not None and target in clock_fns:
            return (f"value returned by {project.qualname(target)}() reads "
                    f"the wall clock and is {_via(via)}{_CLOCK_FEED}")
        if classify_ambient_rng(absolute, site) is not None:
            return f"RNG value from {site.name}() {_via(via)}{_RNG_FEED}"
        if target is not None and target in rng_fns:
            return (f"value returned by {project.qualname(target)}() "
                    f"carries ambient RNG and is {_via(via)}{_RNG_FEED}")
    return None


def _via(via: Optional[str]) -> str:
    return f"(via local {via!r}) " if via is not None else ""


# ----------------------------------------------------------------------
# FORK002 — kernel purity over the whole call graph
# ----------------------------------------------------------------------

def _render_chain(project: Project,
                  chain: Tuple[FunctionKey, ...]) -> str:
    quals = [project.qualname(key) for key in chain]
    if len(quals) > 4:
        quals = quals[:2] + ["..."] + quals[-1:]
    return " -> ".join(quals)


@register
class KernelPurityRule(Rule):
    code = "FORK002"
    summary = ("module-level state mutated anywhere reachable from "
               "run_shard or an xir_* kernel (cross-module)")
    rationale = (
        "Fleet workers execute run_shard in forked/spawned processes "
        "(repro.fleet.executor); module-level mutations there are "
        "invisible to the parent, differ between fork and spawn start "
        "methods, and couple a unit's result to which units ran before "
        "it in the same worker.  This rule walks the whole-program "
        "call graph from every run_shard entry point and "
        "every xir_* batch kernel and flags any reachable function — "
        "in any module — that rebinds or mutates module-level state.  "
        "Kernels and workers must stay pure so shard count, worker "
        "reuse, and fused execution cannot change results.")

    def check_project(self, project: Project) -> Iterator[Finding]:
        entries: List[FunctionKey] = []
        for key in project.functions:
            name = key[1].rsplit(".", 1)[-1]
            if name == "run_shard" or name.startswith("xir_"):
                entries.append(key)
        reached = project.reachable(entries)
        # One finding per line (its first mutation); one pragma covers
        # the whole line anyway.
        reported = set()
        for key in sorted(reached):
            function = project.functions[key]
            if not function.mutations:
                continue
            module = key[0]
            path = project.path_of(module)
            chain = _render_chain(project, reached[key])
            for mutation in function.mutations:
                if (path, mutation.line) in reported:
                    continue
                reported.add((path, mutation.line))
                if mutation.kind == "global":
                    what = f"'global {mutation.detail}'"
                elif mutation.kind == "call":
                    what = f"mutating call {mutation.detail}"
                else:
                    what = f"mutation of module-level {mutation.detail!r}"
                yield self.project_finding(
                    path, mutation,
                    f"{what} in {project.qualname(key)}, reachable "
                    f"from a worker/kernel entry ({chain}); worker and "
                    f"kernel code must not touch module state")
