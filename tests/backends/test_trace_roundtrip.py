"""Trace round-trip: record an experiment, replay it, byte-for-byte.

Satellite property of the trace-driven frontend: a command trace
recorded from a real experiment slice (fig6 retention bracketing, fig9
MAJ3 coverage, fig11 PUF evaluation) converts to SoftMC assembly via
``TraceRecorder.program_text``, re-assembles with ``assemble_program``,
and re-executes on fresh identical silicon — reproducing every READ
result and the final cell state exactly.
"""

import numpy as np
import pytest

from repro.analysis.retention import RetentionProfiler
from repro.backends import ProgramRequest, chip_state_digest, execute_program
from repro.controller import TraceRecorder, assemble_program
from repro.core.ops import FracDram
from repro.dram.chip import DramChip
from repro.experiments.fig9_fmaj_coverage import coverage_maj3
from repro.puf import Challenge, FracPuf

from .conftest import CORPUS_GEOMETRY

SEED = 2022


def make_chip(group: str = "B", serial: int = 0) -> DramChip:
    return DramChip(group, geometry=CORPUS_GEOMETRY, serial=serial,
                    master_seed=SEED)


def record(drive, group: str = "B", serial: int = 0):
    """Run ``drive(fd)`` under a recorder; (chip, recorder, program text)."""
    chip = make_chip(group, serial)
    fd = FracDram(chip)
    recorder = TraceRecorder(fd.mc)
    drive(fd)
    recorder.stop()
    return chip, recorder, recorder.program_text(label="roundtrip")


def assert_replay_matches(chip, recorder, source, *, group="B", serial=0):
    """Replay ``source`` on fresh silicon; reads and state must match."""
    program = assemble_program(source, label="roundtrip")
    request = ProgramRequest(program=program, devices=((group, serial),),
                             geometry=CORPUS_GEOMETRY, master_seed=SEED)
    for backend in ("scalar", "fused"):
        outcome = execute_program(request, backend)
        (device,) = outcome.devices
        assert len(device.reads) == len(recorder.reads), (
            f"{backend}: replay returned {len(device.reads)} reads, "
            f"recording saw {len(recorder.reads)}")
        for index, (got, want) in enumerate(zip(device.reads,
                                                recorder.reads)):
            assert np.array_equal(got, want), (
                f"{backend}: read {index} diverged on replay")
        assert device.state_digest == chip_state_digest(chip), (
            f"{backend}: final cell state diverged on replay")


def test_fig6_retention_slice_roundtrips():
    def drive(fd):
        profiler = RetentionProfiler(fd, probe_times_s=(64.0, 512.0))
        profiler.bucket_row(0, 1, n_frac=2)

    chip, recorder, source = record(drive)
    assert "LEAK" in source  # the retention pauses survive the round trip
    assert recorder.leaks, "retention slice recorded no advance_time"
    assert_replay_matches(chip, recorder, source)


def test_fig9_maj3_coverage_slice_roundtrips():
    def drive(fd):
        coverage_maj3(fd, bank=0, subarray=0)

    chip, recorder, source = record(drive)
    assert recorder.reads, "coverage slice recorded no reads"
    assert_replay_matches(chip, recorder, source)


def test_fig11_puf_evaluation_roundtrips():
    chip = make_chip("B", serial=1)
    puf = FracPuf(chip)
    recorder = TraceRecorder(puf.fd.mc)
    response = puf.evaluate(Challenge(0, 1))
    recorder.stop()
    source = recorder.program_text(label="roundtrip")

    assert_replay_matches(chip, recorder, source, serial=1)
    # The PUF response is the last recorded read.
    assert np.array_equal(recorder.reads[-1], response)


def test_roundtrip_detects_divergent_silicon():
    """Negative control: replaying on different silicon must not match."""
    def drive(fd):
        fd.fill_row(0, 1, True)
        fd.frac(0, 1, 2)
        fd.precharge_all()
        fd.advance_time(512.0)
        fd.read_row(0, 1)

    chip, recorder, source = record(drive)
    program = assemble_program(source, label="roundtrip")
    request = ProgramRequest(program=program, devices=(("B", 7),),
                             geometry=CORPUS_GEOMETRY, master_seed=SEED)
    outcome = execute_program(request, "scalar")
    assert outcome.devices[0].state_digest != chip_state_digest(chip)


@pytest.mark.parametrize("group", ("B", "C"))
def test_roundtrip_across_groups(group):
    def drive(fd):
        fd.fill_row(1, 3, True)
        fd.frac(1, 3, 1)
        fd.precharge_all()
        fd.advance_time(128.0)
        fd.read_row(1, 3)

    chip, recorder, source = record(drive, group=group)
    assert_replay_matches(chip, recorder, source, group=group)
