"""Trace-driven frontend: run SoftMC program files on either engine.

``python -m repro run-program prog.sfc --backend fused --devices 4``
parses a SoftMC/DRAM-Bender-style assembly program (see
:mod:`repro.controller.program`; ``LEAK`` makes retention studies
expressible) and executes it over a deterministic device fleet on the
``scalar`` reference (the default) or the ``fused`` lane engine.  Stdout
carries only the engine-agnostic
:meth:`~repro.backends.base.ProgramOutcome.render` text, so outputs from
the two engines diff clean — the ``backend-conformance`` CI job relies
on that.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..backend_names import BACKENDS, BackendError
from ..controller.program import Program, assemble_program
from ..dram.parameters import GeometryParams
from ..errors import ReproError
from . import execute_program
from .base import ProgramOutcome, ProgramRequest

__all__ = ["add_run_program_arguments", "build_request", "load_program",
           "main", "run_program_cli"]


def load_program(path: str | Path) -> Program:
    """Read and assemble a SoftMC program file."""
    path = Path(path)
    try:
        source = path.read_text()
    except OSError as error:
        raise BackendError(f"cannot read program {path}: {error}") from None
    return assemble_program(source, label=path.name)


def build_request(program: Program, *, devices: int = 1,
                  groups: tuple[str, ...] = ("B",), seed: int = 2022,
                  geometry: GeometryParams | None = None) -> ProgramRequest:
    """A fleet request: ``devices`` modules cycling through ``groups``."""
    if devices < 1:
        raise BackendError(f"--devices must be >= 1, got {devices}")
    if not groups:
        raise BackendError("at least one device group is required")
    serials = {group: 0 for group in groups}
    specs = []
    for index in range(devices):
        group = groups[index % len(groups)]
        specs.append((group, serials[group]))
        serials[group] += 1
    return ProgramRequest(
        program=program, devices=tuple(specs),
        geometry=geometry or GeometryParams(), master_seed=seed)


def add_run_program_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("program", help="SoftMC program file (.sfc)")
    parser.add_argument("--backend", default="scalar", choices=BACKENDS,
                        help="execution engine (conformance-gated: both "
                             "produce byte-identical output)")
    parser.add_argument("--devices", type=int, default=1, metavar="N",
                        help="fleet size (serials 0..N-1 per group)")
    parser.add_argument("--groups", nargs="*", default=["B"], metavar="G",
                        help="vendor groups to cycle devices through "
                             "(default: B)")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--columns", type=int, default=64,
                        help="row width in bits (WR payloads must match)")
    parser.add_argument("--rows-per-subarray", type=int, default=16)
    parser.add_argument("--subarrays", type=int, default=2)
    parser.add_argument("--banks", type=int, default=2)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a repro-trace/1 JSON-lines event trace")


def run_program_cli(arguments: argparse.Namespace) -> int:
    """Handler behind ``python -m repro run-program``.

    A program that fails to assemble or run, or a flag the model
    refuses (``GeometryParams`` raises ``ValueError`` for a zero
    dimension), prints one ``error:`` line and exits 2.
    """
    try:
        program = load_program(arguments.program)
        try:
            geometry = GeometryParams(
                n_banks=arguments.banks,
                subarrays_per_bank=arguments.subarrays,
                rows_per_subarray=arguments.rows_per_subarray,
                columns=arguments.columns)
        except ValueError as error:
            raise BackendError(str(error)) from None
        request = build_request(
            program, devices=arguments.devices,
            groups=tuple(arguments.groups), seed=arguments.seed,
            geometry=geometry)
        started = time.perf_counter()
        outcome = execute_program(request, arguments.backend,
                                  trace_path=arguments.trace_out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _report(outcome, arguments.backend, arguments,
            time.perf_counter() - started)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro run-program ...``)."""
    parser = argparse.ArgumentParser(
        prog="repro run-program",
        description="Execute a SoftMC assembly program on either engine "
                    "over a deterministic device fleet.")
    add_run_program_arguments(parser)
    return run_program_cli(parser.parse_args(argv))


def _report(outcome: ProgramOutcome, backend_name: str,
            arguments: argparse.Namespace, elapsed_s: float) -> None:
    # Stdout is the deterministic, engine-agnostic surface; everything
    # engine-specific goes to stderr so the engines diff clean.
    print(outcome.render(), end="")
    print(f"# backend {backend_name}: {len(outcome.devices)} device(s) "
          f"in {elapsed_s:.3f}s", file=sys.stderr)
    if arguments.trace_out:
        print(f"# trace written to {arguments.trace_out}", file=sys.stderr)
