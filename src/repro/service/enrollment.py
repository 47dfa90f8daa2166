"""Persistent enrollment database of golden PUF responses.

Enrollment is the service's write path: every module of the simulated
fleet answers the deployment's private challenge set once at noise
epoch 0, and the stacked responses, bit-packed once per database,
become the golden references the read path matches probes against.
The whole fleet is enrolled as cohorts of
:meth:`~repro.dram.batched.BatchedChip.from_fleet` lanes, so
a 10k-module enrollment is a few hundred fused engine passes instead of
10k scalar ones — and each lane is byte-identical to the scalar
``FracPuf`` enrollment of that module.

Because a golden response is a pure function of ``(package version,
service config, fleet size)``, the on-disk :class:`EnrollmentStore` is
content-addressed exactly like the fleet result cache
(:mod:`repro.fleet.cache`): a BLAKE2b digest of those inputs names the
entry, corrupt entries read as misses and are rebuilt, and writes go
through an atomic same-directory replace.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from ..dram.batched import BatchedChip
from ..errors import ConfigurationError, InsufficientDataError
from ..fleet.cache import cache_key, default_cache_dir
from ..puf.auth import Authenticator, PackedReferences
from ..puf.batched_puf import BatchedFracPuf
from ..telemetry.registry import active as _telemetry_active
from .config import ServiceConfig, module_id

__all__ = ["EnrollmentDb", "EnrollmentStore", "build_enrollment"]


class EnrollmentDb:
    """Golden responses for an enrolled fleet, packed once for matching."""

    def __init__(self, config: ServiceConfig,
                 specs: list[tuple[str, int]],
                 references: np.ndarray) -> None:
        references = np.asarray(references, dtype=bool)
        if references.ndim != 3 or references.shape[0] != len(specs):
            raise ConfigurationError(
                f"references must be (n_modules, n_challenges, bits), got "
                f"shape {references.shape} for {len(specs)} modules")
        self.config = config
        self.specs = [(str(group), int(serial)) for group, serial in specs]
        #: What the read path's :func:`~repro.puf.auth.match_probe` scans.
        self.packed = PackedReferences(references)
        self.ids = tuple(module_id(group, serial)
                         for group, serial in self.specs)
        self._index = {identity: index
                       for index, identity in enumerate(self.ids)}

    @property
    def references(self) -> np.ndarray:
        """The ``(n_modules, n_challenges, bits)`` bool matrix, read-only."""
        return self.packed.bits

    @property
    def n_modules(self) -> int:
        return len(self.specs)

    def index_of(self, identity: str) -> int:
        try:
            return self._index[identity]
        except KeyError:
            raise InsufficientDataError(
                f"module {identity!r} is not enrolled") from None

    def identity(self, index: int) -> str:
        return self.ids[index]

    def authenticator(self) -> Authenticator:
        """A scalar :class:`Authenticator` twin of this database.

        The service's batched matching and the scalar authenticator are
        built from the same reference rows, so their decisions are
        identical — the equivalence the service tests and benchmark
        assert.
        """
        auth = Authenticator(self.config.challenges(),
                             threshold=self.config.threshold)
        for identity, reference in zip(self.ids, self.references):
            auth.enroll_response(identity, reference)
        return auth


def build_enrollment(config: ServiceConfig, n_modules: int) -> EnrollmentDb:
    """Enroll ``n_modules`` simulated modules at noise epoch 0.

    Runs in ``enroll_batch``-wide cohorts on the device-batched engine;
    lane ``i`` of each cohort produces the same bytes the scalar
    ``FracPuf(make_chip(...)).evaluate_many`` enrollment would.
    """
    specs = config.fleet_specs(n_modules)
    challenges = config.challenges()
    geometry = config.geometry()
    telemetry = _telemetry_active()
    blocks: list[np.ndarray] = []
    for start in range(0, len(specs), config.enroll_batch):
        cohort = specs[start:start + config.enroll_batch]
        device = BatchedChip.from_fleet(
            cohort, geometry=geometry, master_seed=config.master_seed,
            epochs=[0] * len(cohort))
        puf = BatchedFracPuf(device, n_frac=config.n_frac)
        blocks.append(puf.evaluate_many(challenges))
        if telemetry is not None:
            telemetry.count("service.enroll.batches")
            telemetry.count("service.enroll.modules", len(cohort))
    return EnrollmentDb(config, specs, np.concatenate(blocks, axis=0))


class EnrollmentStore:
    """Content-addressed on-disk store for :class:`EnrollmentDb` entries.

    Entries are ``enroll-<digest>.npz`` (the reference matrix) with a
    ``.json`` sidecar holding human-readable metadata.  The digest
    covers the package version, the canonical config fingerprint and the
    fleet size, so a simulator upgrade or any config change misses and
    rebuilds.  Damaged entries are treated as misses — the store is an
    accelerator, never a source of truth.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = (Path(directory) if directory
                          else default_cache_dir() / "enrollments")
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @staticmethod
    def key(config: ServiceConfig, n_modules: int) -> str:
        return cache_key("enroll", config, {"n_modules": int(n_modules)})

    def _entry(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def _meta(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def fetch(self, config: ServiceConfig,
              n_modules: int) -> EnrollmentDb | None:
        """The stored database, or ``None`` on a miss/damaged entry."""
        key = self.key(config, n_modules)
        try:
            with np.load(self._entry(key)) as archive:
                references = archive["references"]
            db = EnrollmentDb(config, config.fleet_specs(n_modules),
                              references)
        except (OSError, KeyError, ValueError, ConfigurationError):
            self.misses += 1
            return None
        if db.references.shape[1:] != (config.n_challenges, config.columns):
            self.misses += 1  # stale entry from a different layout
            return None
        self.hits += 1
        telemetry = _telemetry_active()
        if telemetry is not None:
            telemetry.count("service.enroll.store_hits")
        return db

    def store(self, db: EnrollmentDb) -> Path:
        """Persist ``db``; returns the entry path."""
        key = self.key(db.config, db.n_modules)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._entry(key)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, references=db.references)
        temporary = path.with_suffix(".npz.tmp")
        temporary.write_bytes(buffer.getvalue())
        temporary.replace(path)  # atomic within a directory
        sidecar = {
            "key": key,
            "n_modules": db.n_modules,
            "n_challenges": int(db.references.shape[1]),
            "response_bits": int(db.references.shape[2]),
            "groups": sorted({group for group, _ in db.specs}),
        }
        self._meta(key).write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        self.stores += 1
        return path

    def load_or_build(self, config: ServiceConfig,
                      n_modules: int) -> EnrollmentDb:
        """Fetch the enrollment, building and persisting it on a miss."""
        db = self.fetch(config, n_modules)
        if db is not None:
            return db
        db = build_enrollment(config, n_modules)
        self.store(db)
        return db

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EnrollmentStore({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores})")
