"""Shared configuration for the PUF-authentication service.

A :class:`ServiceConfig` pins everything a served fleet's behaviour is a
function of: the per-module geometry, the private challenge set, the
Frac depth, the acceptance threshold, and the coalescing policy.  Two
services built from equal configs (and the same ``master_seed``) enroll
byte-identical golden responses and make identical decisions — the
property the enrollment store's content-addressed keys and the scripted
transcript diffs rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dram.parameters import GeometryParams
from ..dram.vendor import GROUPS
from ..errors import ConfigurationError
from ..puf.auth import DEFAULT_THRESHOLD
from ..puf.frac_puf import PUF_N_FRAC, Challenge, challenge_set

__all__ = [
    "CoalescePolicy",
    "ServiceConfig",
    "frac_capable_groups",
    "module_id",
    "parse_module_id",
]


def frac_capable_groups() -> tuple[str, ...]:
    """Vendor groups a Frac PUF can be built on (Table I), sorted."""
    return tuple(sorted(
        group_id for group_id, profile in GROUPS.items()
        if not profile.decoder.enforces_command_spacing))


def module_id(group_id: str, serial: int) -> str:
    """Canonical enrolled identity: ``<group>-<serial:05d>``."""
    return f"{group_id}-{serial:05d}"


def parse_module_id(identity: str) -> tuple[str, int]:
    """Inverse of :func:`module_id`."""
    group_id, _, serial = identity.rpartition("-")
    if not group_id or not serial.isdigit():
        raise ConfigurationError(f"malformed module id {identity!r}")
    return group_id, int(serial)


@dataclass(frozen=True)
class CoalescePolicy:
    """When the request batcher closes a coalesced batch.

    A batch opens when a request arrives at an empty queue and closes —
    flushing onto the device-batched engine — when it holds
    ``max_lanes`` requests (a *capacity* flush) or when ``max_wait_s``
    seconds have passed since the batch opened (a *window* flush),
    whichever comes first.  An arrival stamped at or after the window
    deadline flushes the open batch before joining a new one.
    """

    max_lanes: int = 32
    max_wait_s: float = 0.005

    def __post_init__(self) -> None:
        if self.max_lanes < 1:
            raise ConfigurationError("max_lanes must be >= 1")
        if self.max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be >= 0")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one PUF-authentication deployment."""

    master_seed: int = 2022
    #: Per-module geometry: one bank/sub-array keeps fabrication cheap
    #: enough to enroll 10k+ simulated modules; ``columns`` is the
    #: response width in bits.
    columns: int = 64
    rows_per_subarray: int = 16
    subarrays_per_bank: int = 1
    n_banks: int = 1
    #: Size of the private challenge set each module answers.
    n_challenges: int = 2
    n_frac: int = PUF_N_FRAC
    threshold: float = DEFAULT_THRESHOLD
    #: Vendor groups the enrolled fleet cycles through.
    groups: tuple[str, ...] = field(default_factory=frac_capable_groups)
    #: Run the MAJ3 fractional-value attestation (Section IV-B2) on
    #: every served batch; reported per request, never part of the
    #: accept/reject decision (which stays pure Authenticator matching).
    #: Only lanes of three-row-capable groups (Table I: B) attest —
    #: other groups report ``attested=None``.
    attest_maj3: bool = True
    #: Minimum verified fraction for a lane to count as attested.
    maj3_floor: float = 0.5
    #: Cohort width for enrollment passes over the batched engine.
    enroll_batch: int = 128
    coalesce: CoalescePolicy = field(default_factory=CoalescePolicy)

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigurationError("need at least one vendor group")
        capable = set(frac_capable_groups())
        bad = sorted(set(self.groups) - capable)
        if bad:
            raise ConfigurationError(
                f"groups {bad} drop out-of-spec commands; a Frac PUF "
                f"service cannot enroll them (Table I)")
        if self.n_challenges < 1:
            raise ConfigurationError("n_challenges must be >= 1")
        if not 0.0 < self.threshold < 0.5:
            raise ConfigurationError("threshold must be in (0, 0.5)")
        if self.enroll_batch < 1:
            raise ConfigurationError("enroll_batch must be >= 1")
        self.challenges()  # the geometry must hold n_challenges rows

    def geometry(self) -> GeometryParams:
        return GeometryParams(
            n_banks=self.n_banks,
            subarrays_per_bank=self.subarrays_per_bank,
            rows_per_subarray=self.rows_per_subarray,
            columns=self.columns,
        )

    def challenges(self) -> list[Challenge]:
        """The deployment's private challenge set.

        Challenges sweep banks/rows in address order, skipping each
        sub-array's reserved all-ones initialization row — the same
        layout the Figure 11 HD studies use.
        """
        return challenge_set(self.geometry(), self.n_challenges)

    def fleet_specs(self, n_modules: int) -> list[tuple[str, int]]:
        """``(group_id, serial)`` for each of ``n_modules`` modules.

        Modules cycle through the configured vendor groups round-robin,
        so a fleet of any size mixes vendors the way the paper's 582
        tested chips did.
        """
        if n_modules < 1:
            raise ConfigurationError("fleet needs at least one module")
        n_groups = len(self.groups)
        return [(self.groups[index % n_groups], index // n_groups)
                for index in range(n_modules)]
