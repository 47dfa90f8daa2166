"""Differential fuzzing: random valid programs, every backend agrees.

Hypothesis generates block-structured SoftMC programs — in-spec
write/read blocks, Frac charge-sharing blocks, Half-m blocks whose PRE
lands inside the sense amplifiers' amplify window, hardware loops, and
LEAK retention pauses, over bounded banks/rows — and both engines must
produce a byte-identical rendered outcome: returned read
data, final cell-state digests, cycle/drop accounting, and telemetry
counters (including the ``controller.jedec.*`` timing-observation
counts).

Blocks are self-closing (every block leaves all banks precharged), which
keeps generated programs physically valid: RD/WR always follow an ACT
with enough WAIT for the sense amplifiers, and LEAK only ever fires with
the device idle.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backends import BACKENDS, ProgramRequest, execute_program
from repro.controller import assemble_program

from .conftest import CORPUS_GEOMETRY

N_BANKS = CORPUS_GEOMETRY.n_banks
N_ROWS = CORPUS_GEOMETRY.subarrays_per_bank * CORPUS_GEOMETRY.rows_per_subarray
COLUMNS = CORPUS_GEOMETRY.columns

#: Mixes a fast group with group J (minimum command spacing, drops).
FUZZ_DEVICES = (("B", 0), ("J", 0), ("C", 1))

banks = st.integers(min_value=0, max_value=N_BANKS - 1)
rows = st.integers(min_value=0, max_value=N_ROWS - 1)
payloads = st.lists(st.integers(0, 1), min_size=COLUMNS,
                    max_size=COLUMNS).map(lambda bits: "".join(map(str, bits)))


@st.composite
def write_blocks(draw):
    bank, row, bits = draw(banks), draw(rows), draw(payloads)
    return [f"ACT {bank} {row}", "WAIT 6", f"WR {bank} {row} {bits}",
            "WAIT 8", f"PRE {bank}", "WAIT 4"]


@st.composite
def read_blocks(draw):
    bank, row = draw(banks), draw(rows)
    repeats = draw(st.integers(min_value=1, max_value=3))
    body = [f"ACT {bank} {row}", "WAIT 6", f"RD {bank} {row}", "WAIT 8",
            f"PRE {bank}", "WAIT 4"]
    if repeats == 1:
        return body
    return [f"LOOP {repeats}", *body, "ENDLOOP"]


@st.composite
def frac_blocks(draw):
    """Interrupted ACT->PRE->ACT charge sharing, the Frac idiom."""
    bank, row_a, row_b = draw(banks), draw(rows), draw(rows)
    repeats = draw(st.integers(min_value=1, max_value=3))
    return [f"LOOP {repeats}", f"ACT {bank} {row_a}", f"PRE {bank}",
            f"ACT {bank} {row_b}", "WAIT 11", "ENDLOOP", "PREA", "WAIT 4"]


@st.composite
def half_m_blocks(draw):
    """ACT->PRE->ACT, then a PRE 1-6 cycles later: inside the amplify
    window it freezes partially amplified bit-lines into the open rows."""
    bank, row_a, row_b = draw(banks), draw(rows), draw(rows)
    later = draw(st.integers(min_value=1, max_value=6))
    wait = [f"WAIT {later - 1}"] if later > 1 else []
    return [f"ACT {bank} {row_a}", f"PRE {bank}", f"ACT {bank} {row_b}",
            *wait, f"PRE {bank}", "WAIT 11", "PREA", "WAIT 4"]


@st.composite
def leak_blocks(draw):
    seconds = draw(st.integers(min_value=1, max_value=900))
    trailing_wait = draw(st.integers(min_value=0, max_value=6))
    block = [f"LEAK {seconds}"]
    if trailing_wait:
        block.append(f"WAIT {trailing_wait}")
    return block


programs = st.lists(
    st.one_of(write_blocks(), read_blocks(), frac_blocks(), half_m_blocks(),
              leak_blocks()),
    min_size=1, max_size=6,
).map(lambda blocks: "\n".join(line for block in blocks for line in block)
      + "\n")


def execute(source: str, backend: str) -> str:
    program = assemble_program(source, label="fuzz")
    request = ProgramRequest(program=program, devices=FUZZ_DEVICES,
                             geometry=CORPUS_GEOMETRY, master_seed=2022)
    return execute_program(request, backend).render()


@settings(deadline=None, max_examples=25)
@given(source=programs)
# Close-aborts of a glitch-opened set by another row.  Sensed: the
# driven bit-lines overwrite the old set plus the new pair's rows, and
# the WR then drives all of them (group J, which drops the glitch,
# writes its open row 8 through row 2).  Unsensed: the new pair's
# glitch set replaces the old one (the leading PRE makes group J drop
# every ACT of the chain).
@example(source="ACT 0 8\nPRE 0\nACT 0 1\nWAIT 11\nACT 0 8\nPRE 0\n"
                "ACT 0 2\nWAIT 6\nWR 0 2 " + "01" * 16 + "\nWAIT 8\n"
                "PREA\nWAIT 4\n")
@example(source="PRE 0\nACT 0 8\nPRE 0\nACT 0 1\nPRE 0\nACT 0 2\n"
                "WAIT 11\nPREA\nWAIT 4\n")
def test_fuzzed_programs_identical_across_backends(source):
    reference = execute(source, "scalar")
    for backend in BACKENDS:
        if backend == "scalar":
            continue
        assert execute(source, backend) == reference, (
            f"backend {backend!r} diverged on fuzzed program:\n{source}")


@settings(deadline=None, max_examples=10)
@given(source=programs)
def test_fuzzed_outcomes_account_for_every_device(source):
    rendered = execute(source, "scalar")
    assert f"{len(FUZZ_DEVICES)} device(s)" in rendered
    for index in range(len(FUZZ_DEVICES)):
        assert f"device {index}:" in rendered
