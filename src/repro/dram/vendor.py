"""DRAM group profiles A-L, encoding Table I of the paper.

Each :class:`GroupProfile` bundles the capability matrix entry for one of
the twelve evaluated DDR3 chip groups with the calibration parameters that
make the rest of the paper's results *emerge* from the physics model:

* decoder glitch structure (three-/four-row activation support),
* which opened-row position couples strongest to the bit-line (the
  "primary" row — this decides each group's favorite F-MAJ configuration),
* sense-amp offset statistics (these set the PUF Hamming weight per group,
  e.g. group A's 0.21),
* leakage population mix (the Fig. 6 long/monotonic/other category split),
* whether the chip enforces command spacing (groups J/K/L drop
  too-close commands, which is why Frac has no effect on them).

The capability booleans (``frac_capable`` etc.) are *expected* behaviour
used for reporting; the simulator does not read them — capabilities emerge
from ``decoder`` and ``enforces_command_spacing``, and the Table I
experiment verifies that the emergent behaviour matches the declared
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from scipy.special import ndtri

from ..errors import ConfigurationError
from .decoder import DecoderProfile
from .parameters import ElectricalParams, VariationParams
from .subarray import CouplingProfile

__all__ = ["GroupProfile", "PreferredFMajConfig", "GROUPS", "get_group", "group_ids"]

#: Paper convention: chips sit on modules of eight x8 devices.
CHIPS_PER_MODULE: int = 8


@dataclass(frozen=True)
class PreferredFMajConfig:
    """The best F-MAJ configuration found for a group (Section VI-A.2).

    ``frac_position`` indexes the ordered opened-row tuple (R1..R4);
    ``init_ones`` selects the initial row value before Frac (all ones gives
    a fractional value above Vdd/2, all zeros below); ``n_frac`` is the
    number of Frac operations.
    """

    frac_position: int
    init_ones: bool
    n_frac: int


@dataclass(frozen=True)
class GroupProfile:
    """One row of Table I plus the physics calibration for that group."""

    group_id: str
    vendor: str
    freq_mhz: int
    n_chips: int
    frac_capable: bool
    three_row: bool
    four_row: bool
    decoder: DecoderProfile
    coupling: CouplingProfile = field(default_factory=CouplingProfile)
    variation: VariationParams = field(default_factory=VariationParams)
    electrical: ElectricalParams = field(default_factory=ElectricalParams)
    preferred_fmaj: PreferredFMajConfig | None = None
    #: Approximate fraction of response bits reading one after 10x Frac
    #: (per-group PUF Hamming weight; reported in Figure 11).
    expected_hamming_weight: float = 0.5

    def __post_init__(self) -> None:
        if self.three_row and not self.decoder.supports_three_row:
            raise ConfigurationError(
                f"group {self.group_id}: three_row declared but decoder lacks triples")
        if self.four_row and not self.decoder.supports_four_row:
            raise ConfigurationError(
                f"group {self.group_id}: four_row declared but decoder lacks quads")
        if self.frac_capable and self.decoder.enforces_command_spacing:
            raise ConfigurationError(
                f"group {self.group_id}: command-spacing enforcement defeats Frac")

    @property
    def n_modules(self) -> int:
        return max(1, self.n_chips // CHIPS_PER_MODULE)

    def with_variation(self, **overrides: float) -> "GroupProfile":
        """Copy of this profile with variation parameters overridden."""
        return replace(self, variation=replace(self.variation, **overrides))


def _offset_mean_for_weight(hamming_weight: float, sigma: float) -> float:
    """Sense-amp offset mean that yields a target PUF Hamming weight.

    After ~10 Frac ops the cell residue is negligible, so a column reads
    one iff its offset is below ~zero: HW = Phi(-mean/sigma), inverted
    with scipy's probit ``ndtri``.  ``GROUPS`` calls this for every group
    when the module is imported, which is why ``scipy.special`` is on
    ``import repro``'s path (``docs/performance.md``, "Cold start").
    """
    return float(-ndtri(hamming_weight) * sigma)


def _make_group(
    group_id: str,
    vendor: str,
    freq_mhz: int,
    n_chips: int,
    *,
    frac: bool,
    three_row: bool = False,
    four_row: bool = False,
    enforces_spacing: bool = False,
    hamming_weight: float = 0.5,
    offset_sigma: float = 0.008,
    read_noise: float = 0.0002,
    strong_fraction: float = 0.85,
    primary_triple: int = 1,
    primary_quad: int = 1,
    primary_mean: float = 0.18,
    primary_sigma: float = 0.12,
    primary_module_sigma: float = 0.0,
    multirow_bias: float = 0.0,
    bias_module_sigma: float = 0.0,
    weight_jitter: float = 0.04,
    halfm_amp_mean: float = 0.9,
    preferred_fmaj: PreferredFMajConfig | None = None,
) -> GroupProfile:
    decoder = DecoderProfile(
        triple_bit_pairs=frozenset({(0, 1)}) if three_row else frozenset(),
        quad_bit_pairs=frozenset({(0, 3)} if three_row else {(0, 1)}) if four_row
        else frozenset(),
        enforces_command_spacing=enforces_spacing,
    )
    variation = VariationParams(
        sa_offset_mean=_offset_mean_for_weight(hamming_weight, offset_sigma),
        sa_offset_sigma=offset_sigma,
        read_noise_sigma=read_noise,
        strong_cell_fraction=strong_fraction,
        primary_weight_mean=primary_mean,
        primary_weight_sigma=primary_sigma,
        primary_weight_module_sigma=primary_module_sigma,
        multirow_bias_mean=multirow_bias,
        multirow_bias_module_sigma=bias_module_sigma,
        weight_jitter_sigma=weight_jitter,
        halfm_amp_mean=halfm_amp_mean,
    )
    return GroupProfile(
        group_id=group_id,
        vendor=vendor,
        freq_mhz=freq_mhz,
        n_chips=n_chips,
        frac_capable=frac,
        three_row=three_row,
        four_row=four_row,
        decoder=decoder,
        coupling=CouplingProfile(
            primary_position_triple=primary_triple,
            primary_position_quad=primary_quad,
        ),
        variation=variation,
        preferred_fmaj=preferred_fmaj,
        expected_hamming_weight=hamming_weight,
    )


# Table I.  Group B supports both three-row (bit pair (0,1): e.g. rows
# {0,1,2} from R1=1,R2=2) and four-row activation (bit pair (0,3): rows
# {0,1,8,9} from R1=8,R2=1).  Groups C/D only open 2^k-row hypercubes
# (bit pair (0,1): rows {0,1,2,3} from R1=1,R2=2).  Preferred F-MAJ
# configurations reproduce Section VI-A.2: B -> frac in R2, init ones,
# 2x Frac; C -> frac in R1, init ones; D -> frac in R4, init zeros.
GROUPS: dict[str, GroupProfile] = {
    "A": _make_group("A", "SK Hynix", 1066, 16, frac=True,
                     hamming_weight=0.21, strong_fraction=0.86),
    "B": _make_group("B", "SK Hynix", 1333, 80, frac=True,
                     three_row=True, four_row=True,
                     hamming_weight=0.35, strong_fraction=0.80,
                     primary_triple=1, primary_quad=1,
                     primary_mean=0.18, primary_sigma=0.12,
                     primary_module_sigma=0.03,
                     multirow_bias=0.004, bias_module_sigma=0.001,
                     weight_jitter=0.10,
                     preferred_fmaj=PreferredFMajConfig(1, True, 2)),
    "C": _make_group("C", "SK Hynix", 1333, 160, frac=True, four_row=True,
                     hamming_weight=0.45, strong_fraction=0.88,
                     primary_quad=0, primary_mean=0.45, primary_sigma=0.30,
                     primary_module_sigma=0.15,
                     multirow_bias=0.010, bias_module_sigma=0.004,
                     weight_jitter=0.14,
                     preferred_fmaj=PreferredFMajConfig(0, True, 1)),
    "D": _make_group("D", "SK Hynix", 1600, 16, frac=True, four_row=True,
                     hamming_weight=0.50, strong_fraction=0.84,
                     primary_quad=3, primary_mean=0.40, primary_sigma=0.28,
                     primary_module_sigma=0.10,
                     multirow_bias=-0.008, bias_module_sigma=0.003,
                     weight_jitter=0.12,
                     preferred_fmaj=PreferredFMajConfig(3, False, 1)),
    "E": _make_group("E", "Samsung", 1066, 32, frac=True,
                     hamming_weight=0.30, strong_fraction=0.78),
    "F": _make_group("F", "Samsung", 1333, 48, frac=True,
                     hamming_weight=0.45, strong_fraction=0.80),
    "G": _make_group("G", "Samsung", 1600, 32, frac=True,
                     hamming_weight=0.50, read_noise=0.0006,
                     strong_fraction=0.88),
    "H": _make_group("H", "TimeTec", 1333, 32, frac=True,
                     hamming_weight=0.40, strong_fraction=0.84),
    "I": _make_group("I", "Corsair", 1333, 32, frac=True,
                     hamming_weight=0.55, strong_fraction=0.90),
    "J": _make_group("J", "Micron", 1333, 16, frac=False,
                     enforces_spacing=True),
    "K": _make_group("K", "Elpida", 1333, 32, frac=False,
                     enforces_spacing=True),
    "L": _make_group("L", "Nanya", 1333, 32, frac=False,
                     enforces_spacing=True),
}


def group_ids() -> tuple[str, ...]:
    """All group identifiers, A through L."""
    return tuple(GROUPS)


def get_group(group_id: str) -> GroupProfile:
    """Look up a group profile by its Table I letter."""
    try:
        return GROUPS[group_id.upper()]
    except KeyError:
        raise ConfigurationError(
            f"unknown DRAM group {group_id!r}; expected one of {', '.join(GROUPS)}"
        ) from None
