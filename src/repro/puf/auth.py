"""PUF-based device authentication (the use case motivating Section VI-B).

An :class:`Authenticator` enrolls devices by storing reference responses
to a private challenge set, then authenticates an unknown device by
re-evaluating the challenges and accepting the enrolled identity with the
smallest mean Hamming distance, provided it clears the decision threshold.
The threshold sits between the expected intra-HD (~0) and the minimum
inter-HD (>= 0.27 in the paper), so both false accepts and false rejects
are negligible.

Matching is bit-packed.  A :class:`PackedReferences` packs the stacked
``(n_enrolled, n_challenges, bits)`` reference matrix into 64-bit words
once per enrollment, and :func:`match_probe` scores a probe against
every enrolled identity with one XOR and a popcount per word.  The
exact integer Hamming totals pick the candidate rows, and only those
get the float distance, computed with the historical per-device
formula, so decisions and distances are bit-identical to it and ties
keep the first-enrolled identity.  :mod:`repro.service` builds its
serving path on the same matcher, so the scalar and served decisions
are identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, InsufficientDataError
from .frac_puf import Challenge, FracPuf

__all__ = ["AuthDecision", "Authenticator", "PackedReferences",
           "match_probe"]

#: Default accept threshold: comfortably above the paper's max intra-HD
#: (0.07 across environments) and below its min inter-HD (0.27).
DEFAULT_THRESHOLD: float = 0.15


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of an authentication attempt."""

    accepted: bool
    device_id: str | None
    mean_distance: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.accepted:
            return f"accepted as {self.device_id!r} (HD={self.mean_distance:.3f})"
        return f"rejected (best HD={self.mean_distance:.3f})"


class PackedReferences:
    """An enrolled ``(n_enrolled, n_challenges, bits)`` matrix, packed.

    Each challenge's bits are zero-padded to whole 64-bit words and
    packed; the words are stored word-major, ``(n_challenges * words,
    n_enrolled)``, so summing a row's popcounts over its words is an
    add across the outer axis.  The bool matrix is kept as a read-only
    view (:attr:`bits`): the float distances of the candidate rows are
    taken from it, and a write through it would leave the packed words
    stale.
    """

    def __init__(self, references: np.ndarray) -> None:
        bits = np.asarray(references, dtype=bool).view()
        if bits.ndim != 3:
            raise ValueError(
                f"expected (n_enrolled, n_challenges, bits) references, "
                f"got shape {bits.shape}")
        bits.flags.writeable = False
        n_enrolled, n_challenges, width = bits.shape
        self.bits = bits
        self.shape = (n_enrolled, n_challenges, width)
        self.words = np.ascontiguousarray(_pack_words(bits).reshape(
            n_enrolled, n_challenges * -(-width // 64)).T)


def _pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis into zero-padded ``uint64`` words."""
    padding = -bits.shape[-1] % 64
    if padding:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (padding,), dtype=bool)],
            axis=-1)
    return np.packbits(bits, axis=-1).view(np.uint64)


def _popcount_totals(references: PackedReferences,
                     probe: np.ndarray) -> np.ndarray:
    """Differing bits between ``probe`` and every enrolled row.

    The per-word popcounts are summed in the narrowest unsigned type
    that holds the largest possible total (64 bits per word), not in
    the ``uint64`` a plain ``sum`` accumulates in: the totals are exact
    either way, and the narrow add moves a fraction of the memory.
    """
    words = _pack_words(probe).reshape(-1, 1)
    return np.add.reduce(
        np.bitwise_count(references.words ^ words), axis=0,
        dtype=np.min_scalar_type(64 * references.words.shape[0]))


def match_probe(references: np.ndarray | PackedReferences, probe: np.ndarray,
                ) -> tuple[int, float]:
    """Best enrolled index for a probe, plus its mean Hamming distance.

    ``references`` is the stacked ``(n_enrolled, n_challenges, bits)``
    matrix, packed or as bools (packed on the way in), and ``probe`` a
    ``(n_challenges, bits)`` response set.  The per-identity distance
    is the mean of per-challenge normalized HDs, computed with the same
    reduction order as the historical scalar loop (per-challenge mean
    first, then the mean over challenges), so the floats are
    bit-identical.  Ties resolve to the lowest index, i.e.
    first-enrolled-wins.

    The scan compares exact integer totals: a row whose total exceeds
    the minimum is at least ``1 / (n_challenges * bits)`` farther away,
    far beyond float rounding, so only rows at the minimum total are
    given the float distance.
    """
    if not isinstance(references, PackedReferences):
        references = PackedReferences(references)
    if references.shape[0] == 0:
        raise InsufficientDataError("no devices enrolled")
    probe = np.asarray(probe, dtype=bool)
    if probe.shape != references.shape[1:]:
        raise ValueError(
            f"length mismatch: {references.shape[1:]} vs {probe.shape}")
    if probe.size == 0:
        raise InsufficientDataError("cannot compute HD of empty vectors")
    totals = _popcount_totals(references, probe)
    candidates = np.flatnonzero(totals == totals.min())
    per_challenge = np.mean(references.bits[candidates] ^ probe[np.newaxis],
                            axis=2)
    distances = np.mean(per_challenge, axis=1)
    best = int(np.argmin(distances))
    return int(candidates[best]), float(distances[best])


class Authenticator:
    """Enrollment database + matching logic."""

    def __init__(self, challenges: list[Challenge],
                 threshold: float = DEFAULT_THRESHOLD) -> None:
        if not challenges:
            raise ConfigurationError("need at least one challenge")
        if not 0.0 < threshold < 0.5:
            raise ConfigurationError("threshold must be in (0, 0.5)")
        self.challenges = list(challenges)
        self.threshold = threshold
        self._ids: list[str] = []
        self._references: list[np.ndarray] = []
        self._packed: PackedReferences | None = None

    @property
    def enrolled_ids(self) -> tuple[str, ...]:
        return tuple(self._ids)

    @property
    def references(self) -> np.ndarray:
        """The stacked ``(n_enrolled, n_challenges, bits)`` matrix.

        A read-only view: the packed copy the matcher scans is built
        from it.
        """
        return self._packed_references().bits

    def _packed_references(self) -> PackedReferences:
        if self._packed is None:
            if not self._references:
                raise InsufficientDataError("no devices enrolled")
            self._packed = PackedReferences(np.stack(self._references))
        return self._packed

    def enroll(self, device_id: str, puf: FracPuf) -> None:
        """Record the device's reference responses."""
        self.enroll_response(device_id, puf.evaluate_many(self.challenges))

    def enroll_response(self, device_id: str, reference: np.ndarray) -> None:
        """Record pre-evaluated reference responses for ``device_id``."""
        if device_id in self._ids:
            raise ConfigurationError(f"device {device_id!r} already enrolled")
        reference = np.asarray(reference, dtype=bool)
        expected = (len(self.challenges),)
        if reference.ndim != 2 or reference.shape[:1] != expected:
            raise ConfigurationError(
                f"reference must be (n_challenges, bits) = ({expected[0]}, "
                f"*), got shape {reference.shape}")
        self._ids.append(device_id)
        self._references.append(reference)
        self._packed = None  # stacked and packed again on next use

    def authenticate(self, puf: FracPuf) -> AuthDecision:
        """Identify the device behind ``puf`` against the enrollment DB."""
        return self.decide(puf.evaluate_many(self.challenges))

    def decide(self, probe: np.ndarray) -> AuthDecision:
        """Match a pre-evaluated ``(n_challenges, bits)`` response set."""
        index, best_distance = match_probe(self._packed_references(),
                                           probe)
        accepted = best_distance <= self.threshold
        return AuthDecision(accepted,
                            self._ids[index] if accepted else None,
                            best_distance)
