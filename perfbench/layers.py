"""The layer table: which public entry points make up each layer.

Every per-layer metric the traced run prints is derived here from the
recorded spans (see :mod:`perfbench.tracing`).  Span names are layer
names; a metric is ``<layer>.<stat>``.  ``EXPECTED_CALLS`` lists, per
workload, the layers the benchmark's README table says do real work
there: a traced run that sees zero calls to one of them fails, because
that is what a wrapper patched at the wrong import site looks like.
"""

from __future__ import annotations

from typing import Any, Mapping

from .tracing import LayerTotals, Patcher, Target

__all__ = ["EXPECTED_CALLS", "EXPERIMENTS", "LAYERS", "PER_LAYER",
           "install_layers", "layer_metrics", "missing_layers"]

#: Experiments of each sweep, in the order they run.
EXPERIMENTS: dict[str, tuple[str, ...]] = {
    "trial-sweep": ("fig6", "fig9", "fig10", "nist"),
    "device-sweep": ("table1", "fig7", "fig8", "fig11", "fig12"),
}


def _result_lanes(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.n_lanes)


def _one_lane(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


def _self_lanes(args: tuple, kwargs: dict, result: Any) -> int:
    return int(args[0].n_lanes)


def _reference_rows(args: tuple, kwargs: dict, result: Any) -> int:
    references = args[0] if args else kwargs["references"]
    return int(references.shape[0])


def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _batch_lanes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[1] if len(args) > 1 else kwargs["requests"])


def _batch_index(args: tuple, kwargs: dict) -> int:
    return int(args[2] if len(args) > 2 else kwargs.get("batch_index", 0))


_MC = "repro.controller.batched"

#: layer -> the public entry points timed as that layer.
LAYERS: dict[str, tuple[Target, ...]] = {
    "dram.fabricate": (
        Target("repro.dram.batched", "BatchedChip.from_fleet", _result_lanes),
        Target("repro.dram.batched", "BatchedChip.from_chips", _result_lanes),
        Target("repro.dram.batched", "BatchedChip.from_subarray_views",
               _result_lanes),
        Target("repro.dram.chip", "DramChip.__init__", _one_lane),
    ),
    "dram.advance_time": (
        Target("repro.dram.batched", "BatchedChip.advance_time"),
    ),
    "controller.multi_row": (
        Target(_MC, "BatchedSoftMC.multi_row_activate"),
        Target(_MC, "BatchedSoftMC.half_m"),
    ),
    "controller.command": tuple(
        Target(_MC, f"BatchedSoftMC.{method}")
        for method in ("write_row", "fill_row", "read_row", "refresh_row",
                       "frac", "row_copy", "precharge_all")),
    "xir.compile": (
        Target("repro.xir.compile", "compile_program",
               sites=("repro.xir.executor",)),
    ),
    "xir.run": (
        Target("repro.xir.executor", "FusedRunner.run"),
        Target("repro.xir.executor", "FusedRunner.run_sweep"),
    ),
    "puf.evaluate": (
        Target("repro.xir.puf", "FusedFracPuf.evaluate_many", _self_lanes),
        Target("repro.puf.batched_puf", "BatchedFracPuf.evaluate_many",
               _self_lanes),
    ),
    "puf.match": (
        Target("repro.puf.auth", "match_probe", _reference_rows,
               sites=("repro.service.batcher",)),
    ),
    "puf.nist": (
        Target("repro.puf.nist.suite", "run_all",
               sites=("repro.experiments.nist_randomness",)),
    ),
    "core.attest": (
        Target("repro.core.verify", "batched_verify_frac_by_maj3",
               _result_len, sites=("repro.service.batcher",)),
    ),
    "service.enroll": (
        Target("repro.service.enrollment", "build_enrollment"),
    ),
    "service.execute": (
        Target("repro.service.batcher", "VerificationEngine.execute",
               _batch_lanes, _batch_index),
    ),
}

_SWEEP_LAYERS = ("repro.import",)

#: Layers that must show calls on each workload (the "should move"
#: column of the README table).
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "trial-sweep": _SWEEP_LAYERS + tuple(
        f"experiments.{name}" for name in EXPERIMENTS["trial-sweep"]) + (
        "dram.advance_time", "controller.multi_row", "xir.compile",
        "xir.run", "puf.nist"),
    "device-sweep": _SWEEP_LAYERS + tuple(
        f"experiments.{name}" for name in EXPERIMENTS["device-sweep"]) + (
        "dram.fabricate", "controller.command"),
    "serve-10k": ("repro.import", "dram.fabricate", "controller.command",
                  "puf.evaluate", "puf.match", "core.attest",
                  "service.enroll", "service.execute"),
}

_ALL_EXPERIMENTS = EXPERIMENTS["trial-sweep"] + EXPERIMENTS["device-sweep"]

#: Every per-layer metric: (name, unit, better).  BENCHMARK.json's
#: ``per_layer`` list mirrors this tuple (a self-test pins that).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"experiments.{name}_s", "s", "lower") for name in _ALL_EXPERIMENTS),
    ("repro.import_s", "s", "lower"),
    ("dram.fabricate.calls", "count", "lower"),
    ("dram.fabricate.lanes", "count", "lower"),
    ("dram.fabricate.self_s", "s", "lower"),
    ("dram.advance_time.calls", "count", "lower"),
    ("dram.advance_time.self_s", "s", "lower"),
    ("controller.multi_row.calls", "count", "lower"),
    ("controller.multi_row.self_s", "s", "lower"),
    ("controller.command.calls", "count", "lower"),
    ("controller.command.self_s", "s", "lower"),
    ("controller.plan.misses", "count", "lower"),
    ("xir.compile.calls", "count", "lower"),
    ("xir.compile.misses", "count", "lower"),
    ("xir.compile.self_s", "s", "lower"),
    ("xir.run.calls", "count", "lower"),
    ("xir.run.self_s", "s", "lower"),
    ("puf.evaluate.lanes", "count", "lower"),
    ("puf.evaluate.self_s", "s", "lower"),
    ("puf.match.calls", "count", "lower"),
    ("puf.match.rows", "count", "lower"),
    ("puf.match.self_s", "s", "lower"),
    ("puf.match.false_accepts", "count", "lower"),
    ("puf.nist.self_s", "s", "lower"),
    ("core.attest.lanes", "count", "lower"),
    ("core.attest.self_s", "s", "lower"),
    ("service.enroll.self_s", "s", "lower"),
    ("service.execute.batches", "count", "lower"),
    ("service.execute.fill_ratio", "ratio", "higher"),
    ("service.execute.p50_ms", "ms", "lower"),
    ("service.execute.p99_ms", "ms", "lower"),
    ("service.wait.p50_ms", "ms", "lower"),
    ("service.wait.p99_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def install_layers(patcher: Patcher) -> None:
    """Wrap every entry point of :data:`LAYERS`."""
    for layer, targets in LAYERS.items():
        for target in targets:
            patcher.install(layer, target)


def missing_layers(workload: str,
                   totals: Mapping[str, LayerTotals]) -> list[str]:
    """Layers expected on ``workload`` that recorded no call."""
    return [layer for layer in EXPECTED_CALLS[workload]
            if totals.get(layer, LayerTotals()).calls == 0]


def layer_metrics(totals: Mapping[str, LayerTotals],
                  extra: Mapping[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; layers that never ran read 0.

    ``extra`` carries the metrics that do not come from spans: cache
    miss counters, serving waits and batch statistics, tracing overhead.
    """

    def get(layer: str) -> LayerTotals:
        return totals.get(layer, LayerTotals())

    values: dict[str, float] = {}
    for name in _ALL_EXPERIMENTS:
        values[f"experiments.{name}_s"] = (
            get(f"experiments.{name}").total_ns / 1e9)
    values["repro.import_s"] = get("repro.import").total_ns / 1e9
    for layer in LAYERS:
        entry = get(layer)
        values[f"{layer}.calls"] = entry.calls
        values[f"{layer}.lanes"] = entry.units
        values[f"{layer}.rows"] = entry.units
        values[f"{layer}.self_s"] = entry.self_ns / 1e9
    values["service.execute.batches"] = get("service.execute").calls
    values.update(extra)
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
