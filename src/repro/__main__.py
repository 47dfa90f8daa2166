"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``experiments`` — run paper experiments (delegates to the runner),
* ``report`` — run experiments and write RESULTS.md + JSON exports,
* ``run-program`` — execute a SoftMC assembly program file on either
  execution engine, scalar or fused (see ``docs/backends.md``),
* ``trng`` — generate random bits from a simulated device,
* ``puf`` — print a device's PUF response to a challenge,
* ``assemble`` / ``disassemble`` — SoftMC program tooling,
* ``validate-trace`` — check JSON-lines telemetry traces against the
  ``repro-trace/1`` schema,
* ``trace-diff`` — compare two traces' events kind by kind, in any order
  (exit 1 naming the kinds that differ),
* ``lint`` — determinism & fork-safety static analysis over the source
  tree (see ``docs/linting.md``),
* ``serve`` — run the PUF-authentication service over a JSON-lines TCP
  transport (see ``docs/service.md``),
* ``bench-service`` — replay a seeded verification workload against the
  service, scripted (deterministic transcript) or live (asyncio
  coalescing, throughput + latency percentiles).

``experiments`` and ``report`` accept ``--telemetry`` / ``--trace-out
PATH`` to record counters, phase timers, and a structured event trace
(see ``docs/telemetry.md``).

A flag value the model refuses (``--columns 0``, a row outside the
device) prints one ``error:`` line on stderr and exits 2 before
anything runs: each command catches the refusal where it turns its
flags into a config.  So does an input file that cannot be read or
parsed (``assemble``, ``trace-diff``); trace-diff keeps exit 1 for
traces that differ.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from .errors import ReproError

#: What turning flags into a config raises for values the model refuses
#: (``GeometryParams`` raises a bare ``ValueError``).
_REFUSALS = (ReproError, ValueError)


def _refused(error: Exception) -> int:
    print(f"error: {error}", file=sys.stderr)
    return 2


def _cmd_validate_trace(arguments: argparse.Namespace) -> int:
    from .telemetry.schema import main as schema_main

    return schema_main(arguments.paths)


def _cmd_trace_diff(arguments: argparse.Namespace) -> int:
    from .telemetry import events_by_kind

    try:
        a, b = events_by_kind(arguments.a), events_by_kind(arguments.b)
    except (OSError, *_REFUSALS) as error:
        return _refused(error)
    differ = sorted(kind for kind in a.keys() | b.keys()
                    if a.get(kind) != b.get(kind))
    if differ:
        print(f"trace events differ in kinds: {', '.join(differ)}",
              file=sys.stderr)
        return 1
    print(f"trace events match in all {len(a)} kinds")
    return 0


def _cmd_trng(arguments: argparse.Namespace) -> int:
    from .dram.chip import DramChip
    from .dram.parameters import GeometryParams
    from .errors import ConfigurationError
    from .trng import QuacTrng

    try:
        if arguments.bits < 1:
            raise ConfigurationError("--bits must be at least 1")
        geometry = GeometryParams(n_banks=1, subarrays_per_bank=1,
                                  rows_per_subarray=16,
                                  columns=arguments.columns)
        chip = DramChip(arguments.group, geometry=geometry,
                        master_seed=arguments.seed)
        trng = QuacTrng(chip)
    except _REFUSALS as error:
        return _refused(error)
    bits, stats = trng.generate(arguments.bits)
    print("".join(str(int(bit)) for bit in bits))
    print(f"# {stats.whitened_bits} whitened bits from {stats.raw_bits} raw "
          f"({stats.throughput_mbps:.1f} Mbit/s modeled)", file=sys.stderr)
    return 0


def _cmd_puf(arguments: argparse.Namespace) -> int:
    from .dram.chip import DramChip
    from .puf import Challenge, FracPuf

    try:
        chip = DramChip(arguments.group, serial=arguments.serial,
                        master_seed=arguments.seed)
        puf = FracPuf(chip)
        challenge = Challenge(arguments.bank, arguments.row)
        chip.bank(challenge.bank).locate(challenge.row)
    except _REFUSALS as error:
        return _refused(error)
    response = puf.evaluate(challenge)
    print("".join(str(int(bit)) for bit in response))
    print(f"# group {arguments.group} serial {arguments.serial} "
          f"bank {arguments.bank} row {arguments.row} "
          f"weight {response.mean():.3f}", file=sys.stderr)
    return 0


def _cmd_assemble(arguments: argparse.Namespace) -> int:
    from .controller import assemble

    try:
        source = Path(arguments.program).read_text()
        sequence = assemble(source, label=arguments.program)
    except (OSError, *_REFUSALS) as error:
        return _refused(error)
    print(sequence.describe())
    return 0


def _cmd_disassemble(arguments: argparse.Namespace) -> int:
    from .controller import disassemble
    from .controller import sequences as seq
    from .errors import ConfigurationError

    builders = {
        "frac": lambda: seq.frac_sequence(0, arguments.row, arguments.n),
        "maj3": lambda: seq.multi_row_sequence(0, 1, 2),
        "half-m": lambda: seq.half_m_sequence(0, 8, 1),
        "row-copy": lambda: seq.row_copy_sequence(0, arguments.row,
                                                  arguments.row + 1),
    }
    try:
        # The builders take any integer row; the assembler refuses a
        # negative one, so the text printed here would not read back.
        if arguments.row < 0:
            raise ConfigurationError("--row must be non-negative")
        sequence = builders[arguments.primitive]()
    except _REFUSALS as error:
        return _refused(error)
    print(disassemble(sequence), end="")
    return 0


def _service_config(arguments: argparse.Namespace):
    from .errors import ConfigurationError
    from .service import ServiceConfig, frac_capable_groups

    if arguments.modules < 1:
        raise ConfigurationError("--modules must be at least 1")
    return ServiceConfig(
        master_seed=arguments.seed,
        columns=arguments.columns,
        n_challenges=arguments.challenges,
        groups=(tuple(arguments.groups) if arguments.groups
                else frac_capable_groups()))


def _service_db(arguments: argparse.Namespace, config):
    from .service import EnrollmentStore, build_enrollment

    if arguments.no_store:
        return build_enrollment(config, arguments.modules)
    store = EnrollmentStore(arguments.store_dir)
    db = store.load_or_build(config, arguments.modules)
    if store.hits:
        print(f"# enrollment served from {store.directory}", file=sys.stderr)
    return db


def _add_service_fleet_arguments(parser: argparse.ArgumentParser,
                                 default_modules: int) -> None:
    parser.add_argument("--modules", type=int, default=default_modules,
                        help="fleet size to enroll")
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--columns", type=int, default=64,
                        help="response width in bits")
    parser.add_argument("--challenges", type=int, default=2,
                        help="private challenge set size")
    parser.add_argument("--groups", nargs="*", default=None,
                        help="vendor groups to enroll (default: all "
                             "Frac-capable groups)")
    parser.add_argument("--store-dir", default=None,
                        help="enrollment store directory")
    parser.add_argument("--no-store", action="store_true",
                        help="re-enroll instead of using the store")
    parser.add_argument("--cache-stats", action="store_true",
                        help="print plan/xir compile-cache statistics "
                             "after the run")


def _cmd_serve(arguments: argparse.Namespace) -> int:
    import asyncio

    from .errors import ConfigurationError
    from .service import CoalescePolicy, PufAuthService

    try:
        config = _service_config(arguments)
        policy = CoalescePolicy(max_lanes=arguments.max_lanes,
                                max_wait_s=arguments.max_wait_ms / 1e3)
    except _REFUSALS as error:
        return _refused(error)
    db = _service_db(arguments, config)

    async def run() -> None:
        service = PufAuthService(db, policy=policy)
        await service.start()
        host, port = await service.serve_tcp(arguments.host, arguments.port)
        print(f"serving {db.n_modules} enrolled module(s) "
              f"on {host}:{port} (JSON lines; Ctrl-C to stop)")
        try:
            await asyncio.Event().wait()
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except ConfigurationError as error:
        return _refused(error)
    except KeyboardInterrupt:
        print("stopped")
    if arguments.cache_stats:
        from .experiments.runner import format_cache_stats

        print(format_cache_stats())
    return 0


def _cmd_bench_service(arguments: argparse.Namespace) -> int:
    import asyncio
    from contextlib import nullcontext

    from .service import (CoalescePolicy, PufAuthService, WorkloadSpec,
                          generate_schedule, percentile, replay_scripted)
    from .telemetry import session as telemetry_session
    from .telemetry.tracer import claim_trace_path

    try:
        config = _service_config(arguments)
        spec = WorkloadSpec(seed=arguments.workload_seed,
                            n_requests=arguments.requests,
                            rate_rps=arguments.rate,
                            impostor_fraction=arguments.impostors)
        policy = CoalescePolicy(max_lanes=arguments.max_lanes,
                                max_wait_s=arguments.max_wait_ms / 1e3)
        if arguments.trace_out is not None:
            claim_trace_path(arguments.trace_out).close()
    except _REFUSALS as error:
        return _refused(error)
    db = _service_db(arguments, config)
    schedule = generate_schedule(db, spec)
    use_telemetry = arguments.telemetry or arguments.trace_out is not None
    context = (telemetry_session(trace_path=arguments.trace_out)
               if use_telemetry else nullcontext(None))
    with context as telemetry:
        if arguments.live:
            from .service import SystemClock, drive_open_loop

            wall = SystemClock()

            async def run() -> tuple[list, float]:
                service = PufAuthService(db, policy=policy)
                await service.start()
                # Live mode reports real throughput to a human; the
                # elapsed wall time never reaches deterministic output.
                started = wall.now()  # repro: lint-ok[DET002]
                _, latencies = await drive_open_loop(
                    service.batcher, schedule, pace=not arguments.no_pace)
                elapsed = wall.now() - started  # repro: lint-ok[DET002]
                await service.stop()
                return latencies, elapsed

            latencies, elapsed = asyncio.run(run())
            rate = len(schedule) / elapsed if elapsed > 0 else float("inf")
            print(f"live: {len(schedule)} verifications in {elapsed:.3f} s "
                  f"({rate:.0f}/s)")
            print(f"latency p50 {percentile(latencies, 0.5)*1e3:.2f} ms, "
                  f"p99 {percentile(latencies, 0.99)*1e3:.2f} ms")
        else:
            summary = replay_scripted(db, schedule, policy,
                                      transcript_path=arguments.transcript)
            print(summary.format_summary())
            if summary.transcript_path is not None:
                # stderr, so stdout stays byte-identical across replays
                # that only differ in where the transcript landed.
                print(f"transcript written to {summary.transcript_path}",
                      file=sys.stderr)
    if use_telemetry and telemetry is not None:
        print(telemetry.format_summary(deterministic=not arguments.live))
    if arguments.cache_stats:
        from .experiments.runner import format_cache_stats

        print(format_cache_stats())
    return 0


#: Subcommands that own their flags, by the module whose ``main`` takes
#: the rest of the command line.  They are handed off before argparse
#: runs (argparse.REMAINDER cannot forward leading ``--options``), and
#: each module is imported only when its command runs.  ``experiments``
#: and ``report`` share their run flags through
#: :func:`repro.experiments.runner.add_run_arguments`.
_HANDOFFS = {
    "experiments": "repro.experiments.runner",
    "report": "repro.experiments.report",
    "lint": "repro.lint.cli",
    "run-program": "repro.backends.frontend",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FracDRAM reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # The handoffs are registered here only so ``repro -h`` lists them
    # alongside the other subcommands.
    subparsers.add_parser(
        "experiments", add_help=False, help="run paper experiments")
    subparsers.add_parser(
        "report", add_help=False, help="write RESULTS.md + JSON exports")

    trng = subparsers.add_parser("trng", help="generate random bits")
    trng.add_argument("--bits", type=int, default=1024)
    trng.add_argument("--group", default="B")
    trng.add_argument("--columns", type=int, default=4096)
    trng.add_argument("--seed", type=int, default=2022)
    trng.set_defaults(handler=_cmd_trng)

    puf = subparsers.add_parser("puf", help="evaluate a PUF challenge")
    puf.add_argument("--group", default="B")
    puf.add_argument("--serial", type=int, default=0)
    puf.add_argument("--bank", type=int, default=0)
    puf.add_argument("--row", type=int, default=1)
    puf.add_argument("--seed", type=int, default=2022)
    puf.set_defaults(handler=_cmd_puf)

    assemble = subparsers.add_parser(
        "assemble", help="assemble a SoftMC program file")
    assemble.add_argument("program")
    assemble.set_defaults(handler=_cmd_assemble)

    validate_trace = subparsers.add_parser(
        "validate-trace",
        help="validate repro-trace/1 JSON-lines trace files")
    validate_trace.add_argument("paths", nargs="+", metavar="TRACE")
    validate_trace.set_defaults(handler=_cmd_validate_trace)

    trace_diff = subparsers.add_parser(
        "trace-diff",
        help="compare two traces' events kind by kind, in any order")
    trace_diff.add_argument("a", metavar="TRACE_A")
    trace_diff.add_argument("b", metavar="TRACE_B")
    trace_diff.set_defaults(handler=_cmd_trace_diff)

    subparsers.add_parser(
        "lint", add_help=False,
        help="determinism & fork-safety static analysis "
             "(see docs/linting.md)")
    subparsers.add_parser(
        "run-program", add_help=False,
        help="execute a SoftMC program file on the scalar or fused "
             "engine (see docs/backends.md)")

    serve = subparsers.add_parser(
        "serve", help="serve PUF authentication over JSON-lines TCP")
    _add_service_fleet_arguments(serve, default_modules=256)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--max-lanes", type=int, default=32,
                       help="coalesced batch capacity")
    serve.add_argument("--max-wait-ms", type=float, default=5.0,
                       help="coalescing window (milliseconds)")
    serve.set_defaults(handler=_cmd_serve)

    bench_service = subparsers.add_parser(
        "bench-service",
        help="replay a seeded verification workload against the service")
    _add_service_fleet_arguments(bench_service, default_modules=256)
    bench_service.add_argument("--requests", type=int, default=512)
    bench_service.add_argument("--rate", type=float, default=2000.0,
                               help="open-loop arrival rate (req/s)")
    bench_service.add_argument("--impostors", type=float, default=0.125,
                               help="fraction of impostor requests")
    bench_service.add_argument("--workload-seed", type=int, default=0)
    bench_service.add_argument("--max-lanes", type=int, default=32)
    bench_service.add_argument("--max-wait-ms", type=float, default=5.0)
    bench_service.add_argument("--live", action="store_true",
                               help="drive the asyncio coalescer in real "
                                    "time instead of scripted replay")
    bench_service.add_argument("--no-pace", action="store_true",
                               help="with --live: submit back-to-back "
                                    "instead of honoring arrival times")
    bench_service.add_argument("--transcript", default=None, metavar="PATH",
                               help="scripted mode: write the JSON-lines "
                                    "transcript here")
    bench_service.add_argument("--telemetry", action="store_true")
    bench_service.add_argument("--trace-out", default=None, metavar="PATH",
                               help="write a JSON-lines event trace "
                                    "(implies --telemetry)")
    bench_service.set_defaults(handler=_cmd_bench_service)

    disassemble = subparsers.add_parser(
        "disassemble", help="print a primitive as SoftMC program text")
    disassemble.add_argument("primitive",
                             choices=("frac", "maj3", "half-m", "row-copy"))
    disassemble.add_argument("--row", type=int, default=1)
    disassemble.add_argument("--n", type=int, default=1)
    disassemble.set_defaults(handler=_cmd_disassemble)
    return parser


def main(argv: list[str] | None = None) -> int:
    arguments_in = list(sys.argv[1:] if argv is None else argv)
    try:
        if arguments_in and arguments_in[0] in _HANDOFFS:
            module = importlib.import_module(_HANDOFFS[arguments_in[0]])
            return module.main(arguments_in[1:])
        arguments = _parser().parse_args(arguments_in)
        return arguments.handler(arguments)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        # Redirect stdout to devnull so the interpreter's shutdown flush
        # does not raise a second time.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
