"""Result serialization: JSON/CSV export and a full markdown report.

Every experiment result renders itself as a paper-style text table; for
plotting and regression tracking this module adds structured exports:

* :func:`result_to_dict` — a JSON-safe dict of any experiment result
  (dataclasses, NumPy arrays, and nested containers handled),
* :func:`export_json` / :func:`export_series_csv` — file writers,
* :func:`generate_report` — run a set of experiments and write a single
  RESULTS.md plus per-experiment JSON files; :func:`main` is
  ``python -m repro report``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .base import DEFAULT_CONFIG, ExperimentConfig
from .runner import EXPERIMENTS, add_run_arguments, parse_run, run_experiment

__all__ = ["result_to_dict", "export_json", "export_series_csv",
           "generate_report", "main"]


def result_to_dict(value: Any) -> Any:
    """Convert an experiment result into JSON-serializable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: result_to_dict(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        number = float(value)
        return number if np.isfinite(number) else repr(number)
    if isinstance(value, float):
        return value if np.isfinite(value) else repr(value)
    if isinstance(value, Mapping):
        return {_key_to_str(key): result_to_dict(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [result_to_dict(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    # Fall back to the object's public attributes (result-like objects).
    public = {name: getattr(value, name) for name in dir(value)
              if not name.startswith("_")
              and not callable(getattr(value, name))}
    if public:
        return {name: result_to_dict(item) for name, item in public.items()}
    return repr(value)  # pragma: no cover - last resort


def _key_to_str(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return ",".join(str(part) for part in key)
    return str(key)


def export_json(result: Any, path: str | Path) -> Path:
    """Write one experiment result as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result_to_dict(result), indent=2,
                               sort_keys=True) + "\n")
    return path


def export_series_csv(path: str | Path, header: Sequence[str],
                      rows: Iterable[Sequence[Any]]) -> Path:
    """Write a simple CSV (no quoting needed for our numeric series)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(str(cell) for cell in header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def generate_report(output_dir: str | Path,
                    config: ExperimentConfig = DEFAULT_CONFIG,
                    names: Sequence[str] | None = None, *,
                    workers: int = 0, cache=None) -> Path:
    """Run experiments and write RESULTS.md + per-experiment JSON.

    ``workers``/``cache`` are forwarded to
    :func:`repro.experiments.runner.run_experiment`: fleet-capable
    experiments fan out over worker processes, and a
    :class:`repro.fleet.ResultCache` lets repeated report generation
    skip every experiment whose (config, version) is unchanged.
    Returns the path of the markdown report.
    """
    output = Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)
    names = list(names) if names is not None else list(EXPERIMENTS)
    sections = ["# FracDRAM reproduction — experiment report",
                "",
                f"configuration: {config}", ""]
    for name in names:
        description, _ = EXPERIMENTS[name]
        started = time.time()
        hits_before = cache.hits if cache is not None else 0
        result = run_experiment(name, config, workers=workers, cache=cache)
        elapsed = time.time() - started
        cached = cache is not None and cache.hits > hits_before
        export_json(result, output / f"{name}.json")
        sections.append(f"## {name} — {description}")
        sections.append("")
        sections.append("```")
        sections.append(result.format_table())
        sections.append("```")
        sections.append(f"_completed in {elapsed:.1f}s"
                        + (" (cache hit)" if cached else "")
                        + f"; raw data in `{name}.json`_")
        sections.append("")
    sections.extend(_telemetry_section())
    report_path = output / "RESULTS.md"
    report_path.write_text("\n".join(sections))
    return report_path


def _telemetry_section() -> list[str]:
    """A deterministic telemetry summary for RESULTS.md.

    Only counters appear — sorted by key, no wall-clock timings or
    execution-shape notes — so a report generated serially, via an
    N-worker fleet, or from the result cache stays byte-identical for a
    fixed (config, seed) and remains safe to golden-compare.  Returns
    nothing when no telemetry session is active.
    """
    from ..telemetry import active

    telemetry = active()
    if telemetry is None:
        return []
    snapshot = telemetry.snapshot(deterministic=True)
    lines = ["## Telemetry", ""]
    if snapshot["counters"]:
        lines.append("| counter | value |")
        lines.append("|---|---|")
        lines.extend(f"| `{name}` | {value} |"
                     for name, value in snapshot["counters"].items())
    else:
        lines.append("_no counters recorded_")
    lines.append("")
    return lines


def main(argv: list[str] | None = None) -> int:
    """``python -m repro report``: run experiments, write RESULTS.md."""
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="run experiments and write RESULTS.md + JSON exports")
    parser.add_argument("--output", default="results",
                        help="report directory (default: results)")
    add_run_arguments(parser)
    arguments = parser.parse_args(argv)
    run = parse_run(arguments, output=arguments.output)
    if run is None:
        return 2
    with run.session():
        path = generate_report(arguments.output, run.config, run.names,
                               workers=run.workers, cache=run.cache)
    print(f"report written to {path}")
    if run.trace_out:
        print(f"trace written to {run.trace_out}")
    if run.cache is not None and run.cache.hits:
        print(f"({run.cache.hits} experiment(s) served from cache "
              f"{run.cache.directory})")
    return 0
