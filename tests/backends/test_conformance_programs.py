"""Program-corpus conformance: every backend, byte-identical outcomes.

Each corpus program runs on both engines over a mixed device
fleet (including group J, which drops closely spaced commands); the
rendered :class:`~repro.backends.base.ProgramOutcome` — reads, cycle
counts, drop counts, cell-state digests, and telemetry counters — must
be byte-identical across backends.
"""

import pytest

from repro.backends import (
    BackendError,
    ProgramRequest,
    execute_program,
    validate_request,
)
from repro.controller import assemble_program

from .conftest import (
    CORPUS_DEVICES,
    CORPUS_GEOMETRY,
    corpus_paths,
    execute_corpus_program,
)


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_program_identical_across_backends(path, backends):
    reference = execute_corpus_program(path, "scalar")
    for backend in backends:
        assert execute_corpus_program(path, backend) == reference, (
            f"backend {backend!r} diverged from scalar on {path.name}")


@pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.stem)
def test_corpus_outcome_is_nontrivial(path):
    rendered = execute_corpus_program(path, "scalar")
    assert f"{len(CORPUS_DEVICES)} device(s)" in rendered
    assert "counters:" in rendered
    assert "controller.commands" in rendered


def test_render_reflects_dropped_commands(backends):
    # frac_charge_share's back-to-back commands are dropped by group J
    # but not by the fast groups; the split must agree everywhere.
    frac = next(p for p in corpus_paths() if p.stem == "frac_charge_share")
    outcomes = {b: execute_corpus_program(frac, b) for b in backends}
    assert len(set(outcomes.values())) == 1
    assert "dropped 0" in outcomes["scalar"]  # fast groups drop nothing


def test_execute_program_folds_counters_into_enclosing_session():
    """Program counters merge into an already-active telemetry session."""
    from repro.telemetry import session as telemetry_session

    path = corpus_paths()[0]
    with telemetry_session() as telemetry:
        execute_corpus_program(path, "scalar")
        counters = telemetry.snapshot(deterministic=True)["counters"]
    assert counters.get("controller.commands", 0) > 0


class TestRequestValidation:
    def _request(self, **overrides):
        program = assemble_program(
            "ACT 0 1\nWAIT 6\nRD 0 1\nWAIT 8\nPRE 0\nWAIT 4\n")
        defaults = dict(program=program, devices=(("B", 0),),
                        geometry=CORPUS_GEOMETRY, master_seed=2022)
        defaults.update(overrides)
        return ProgramRequest(**defaults)

    def test_valid_request_passes(self):
        validate_request(self._request())

    def test_empty_fleet_rejected(self):
        with pytest.raises(BackendError, match="at least one device"):
            validate_request(self._request(devices=()))

    def test_unknown_group_rejected(self):
        with pytest.raises(BackendError, match="group"):
            validate_request(self._request(devices=(("ZZ", 0),)))

    def test_negative_serial_rejected(self):
        with pytest.raises(BackendError, match="serial"):
            validate_request(self._request(devices=(("B", -1),)))

    def test_out_of_range_bank_rejected(self):
        program = assemble_program(
            "ACT 7 1\nWAIT 6\nRD 7 1\nWAIT 8\nPRE 7\nWAIT 4\n")
        with pytest.raises(BackendError, match="bank"):
            validate_request(self._request(program=program))

    def test_out_of_range_row_rejected(self):
        program = assemble_program(
            "ACT 0 999\nWAIT 6\nRD 0 999\nWAIT 8\nPRE 0\nWAIT 4\n")
        with pytest.raises(BackendError, match="row"):
            validate_request(self._request(program=program))

    def test_wrong_write_width_rejected(self):
        program = assemble_program(
            "ACT 0 1\nWAIT 6\nWR 0 1 1010\nWAIT 8\nPRE 0\nWAIT 4\n")
        with pytest.raises(BackendError, match="bits"):
            execute_program(self._request(program=program), "scalar")
