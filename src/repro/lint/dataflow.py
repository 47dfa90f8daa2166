"""Interprocedural taint data-flow over the linked :class:`Project`.

The per-module rules in :mod:`repro.lint.builtin` match *textual* call
names — ``time.perf_counter()``, ``np.random.random()`` — and therefore
miss the two cross-module escape hatches:

* **aliased imports**: ``from time import perf_counter as pc; pc()``;
* **value laundering**: a helper that *returns* a clock read or an
  unseeded generator, called from a module where the direct call would
  have been flagged.

This module closes both.  Names are resolved through the project import
table before classification, and two return-taint fixpoints (wall-clock
and ambient RNG) propagate sourcehood through arbitrarily deep call
chains.  The ``iter_*_findings`` helpers implement the project phase of
DET001/DET002/TEL001 (the rule classes in ``builtin`` delegate here);
:class:`KernelPurityRule` (FORK002) proves worker and kernel purity
over the full call graph.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Tuple

from .callgraph import FunctionKey, Project
from .model import Finding
from .rules import Rule, register
from .summary import CallSite

__all__ = [
    "KernelPurityRule",
    "classify_ambient_rng",
    "classify_wall_clock",
    "clock_taint",
    "iter_counter_findings",
    "iter_clock_findings",
    "iter_rng_findings",
    "rng_taint",
]


# ----------------------------------------------------------------------
# absolute-name classifiers
# ----------------------------------------------------------------------
# These intentionally mirror the textual matchers in ``builtin`` (same
# underlying name sets) but operate on *resolved* absolute names plus
# the call-site argument shape recorded in the summary.

_NP_RANDOM_PREFIXES = ("np.random.", "numpy.random.")

_NP_RANDOM_SAFE = {
    "default_rng", "SeedSequence", "Generator", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState",
}

_UNSEEDED_CONSTRUCTORS = {
    "default_rng", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "RandomState", "Random",
}

_STDLIB_RANDOM_FUNCS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

_TIME_FUNCS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
}

_DATETIME_TAILS = ("datetime.now", "datetime.utcnow", "datetime.today",
                   "date.today")

_SEED_KEYWORDS = {"seed", "entropy", "key", "bit_generator", "x"}


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
    """Classify a resolved call as ambient RNG.

    Returns ``("global-state", name)`` for the legacy module-level APIs,
    ``("unseeded", name)`` for a generator constructed without a seed,
    or ``None``.  Mirrors ``builtin._is_ambient_rng_call`` over
    ``(absolute name, argument shape)`` instead of an AST node.
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


def _emit(rule: Rule, project: Project, path: str, site_line: int,
          column: int, end_line: int, message: str) -> Optional[Finding]:
    if project.is_suppressed(path, rule.code, site_line,
                             end_line=end_line):
        return None
    return rule.project_finding(path, site_line, column, message)


# ----------------------------------------------------------------------
# DET002 project phase
# ----------------------------------------------------------------------

def _module_allowlisted(module: str, allowlist) -> bool:
    return any(module == entry or module.startswith(entry + ".")
               for entry in allowlist)


def iter_clock_findings(rule: Rule, project: Project,
                        allowlist) -> Iterator[Finding]:
    """Cross-module DET002: aliased reads + laundered clock values."""
    tainted = clock_taint(project)
    for key, function in project.iter_functions():
        module = key[0]
        if _module_allowlisted(module, allowlist):
            continue
        path = project.path_of(module)
        for site in function.calls:
            absolute = project.resolve_name(module, site.name)
            clock = classify_wall_clock(absolute)
            if clock is not None:
                if classify_wall_clock(site.name) is not None:
                    continue  # the per-module pass already flagged it
                finding = _emit(
                    rule, project, path, site.line, site.column,
                    site.end_line,
                    f"wall-clock read: {site.name}() resolves to "
                    f"{clock}() in module {module}; simulated time "
                    f"comes from the SoftMC cycle counter")
                if finding is not None:
                    yield finding
                continue
            target = project.resolve_call(module, function, site)
            if target is not None and target in tainted:
                finding = _emit(
                    rule, project, path, site.line, site.column,
                    site.end_line,
                    f"call to {project.qualname(target)}() returns a "
                    f"wall-clock value into module {module}; pass an "
                    f"injected Clock or keep the value inside the "
                    f"timing allowlist")
                if finding is not None:
                    yield finding


# ----------------------------------------------------------------------
# DET001 project phase
# ----------------------------------------------------------------------

def iter_rng_findings(rule: Rule, project: Project) -> Iterator[Finding]:
    """Cross-module DET001: aliased ambient RNG + laundered generators."""
    tainted = rng_taint(project)
    for key, function in project.iter_functions():
        module = key[0]
        path = project.path_of(module)
        for site in function.calls:
            absolute = project.resolve_name(module, site.name)
            verdict = classify_ambient_rng(absolute, site)
            if verdict is not None:
                if classify_ambient_rng(site.name, site) is not None:
                    continue  # textual form — per-module pass owns it
                kind, name = verdict
                if kind == "global-state":
                    message = (
                        f"{site.name}() resolves to {name}(), which "
                        f"uses process-global RNG state; derive a "
                        f"stream with repro.dram.rng.derive_rng instead")
                else:
                    message = (
                        f"{site.name}() resolves to {name}() "
                        f"constructed without an explicit seed; pass a "
                        f"seed derived from the master seed")
                finding = _emit(rule, project, path, site.line,
                                site.column, site.end_line, message)
                if finding is not None:
                    yield finding
                continue
            target = project.resolve_call(module, function, site)
            if target is not None and target in tainted:
                finding = _emit(
                    rule, project, path, site.line, site.column,
                    site.end_line,
                    f"call to {project.qualname(target)}() returns a "
                    f"value derived from ambient or unseeded RNG; "
                    f"thread a seeded Generator through instead")
                if finding is not None:
                    yield finding


# ----------------------------------------------------------------------
# TEL001 project phase
# ----------------------------------------------------------------------

def iter_counter_findings(rule: Rule,
                          project: Project) -> Iterator[Finding]:
    """Cross-module TEL001: laundered clock/RNG values into counters."""
    clock_fns = clock_taint(project)
    rng_fns = rng_taint(project)
    for key, function in project.iter_functions():
        module = key[0]
        path = project.path_of(module)
        assigned = dict(function.assigned_calls)
        for feed in function.counter_feeds:
            sources: List[Tuple[CallSite, Optional[str]]] = [
                (site, None) for site in feed.arg_calls]
            sources.extend(
                (assigned[name], name) for name in feed.arg_names
                if name in assigned)
            finding = _classify_feed(rule, project, module, path,
                                     function, feed, sources,
                                     clock_fns, rng_fns)
            if finding is not None:
                yield finding


def _classify_feed(rule, project, module, path, function, feed, sources,
                   clock_fns, rng_fns) -> Optional[Finding]:
    for site, via in sources:
        absolute = project.resolve_name(module, site.name)
        target = project.resolve_call(module, function, site)
        laundered = via is not None
        if classify_wall_clock(absolute) is not None:
            if not laundered and classify_wall_clock(site.name) is not None:
                continue  # per-module TEL001 already flagged this feed
            return _emit(
                rule, project, path, feed.line, feed.column,
                feed.end_line,
                f"wall-clock value from {site.name}() "
                f"{_via(via)}fed into a telemetry counter; counters "
                f"are deterministic — use a histogram or phase timer")
        if target is not None and target in clock_fns:
            return _emit(
                rule, project, path, feed.line, feed.column,
                feed.end_line,
                f"value returned by {project.qualname(target)}() reads "
                f"the wall clock and is {_via(via)}fed into a "
                f"telemetry counter; counters are deterministic — use "
                f"a histogram or phase timer")
        if classify_ambient_rng(absolute, site) is not None:
            if (not laundered
                    and classify_ambient_rng(site.name, site) is not None):
                continue
            return _emit(
                rule, project, path, feed.line, feed.column,
                feed.end_line,
                f"RNG value from {site.name}() {_via(via)}fed into a "
                f"telemetry counter; counters must be a pure function "
                f"of (experiment, config, seed)")
        if target is not None and target in rng_fns:
            return _emit(
                rule, project, path, feed.line, feed.column,
                feed.end_line,
                f"value returned by {project.qualname(target)}() "
                f"carries ambient RNG and is {_via(via)}fed into a "
                f"telemetry counter; counters must be a pure function "
                f"of (experiment, config, seed)")
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
        for key, _function in project.iter_functions():
            name = key[1].rsplit(".", 1)[-1]
            if name == "run_shard" or name.startswith("xir_"):
                entries.append(key)
        reached = project.reachable(entries)
        for key in sorted(reached):
            function = project.functions[key]
            if not function.mutations:
                continue
            module = key[0]
            path = project.path_of(module)
            chain = _render_chain(project, reached[key])
            for mutation in function.mutations:
                if project.is_suppressed(path, self.code, mutation.line,
                                         end_line=mutation.end_line):
                    continue
                if mutation.kind == "global":
                    what = f"'global {mutation.detail}'"
                elif mutation.kind == "call":
                    what = f"mutating call {mutation.detail}"
                else:
                    what = f"mutation of module-level {mutation.detail!r}"
                yield self.project_finding(
                    path, mutation.line, mutation.column,
                    f"{what} in {project.qualname(key)}, reachable "
                    f"from a worker/kernel entry ({chain}); worker and "
                    f"kernel code must not touch module state")
