"""Per-run provenance manifests written next to cached sweep results.

A cached :class:`~repro.experiments.results.RunRecord` answers *what* a
simulation produced; the manifest answers *where it came from*: the exact
config fingerprint and workload-spec hash that keyed the cache entry, the
``RESULTS_VERSION`` the record was produced under, how long the simulation
took, and on which host.  When a figure looks wrong months later, the
manifest is the difference between re-deriving provenance and reading it.

Manifests are advisory: the sweep cache never *reads* them for correctness
(the content-hash key does that), so a missing or stale manifest can only
cost debugging convenience, never poison a result.
"""

from __future__ import annotations

import json
import os
import platform
import socket
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA_VERSION = 1


def host_info() -> dict:
    """Stable facts about the machine producing a result."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class RunManifest:
    """Provenance for one cached (workload, configuration) simulation."""

    cache_key: str
    workload: str
    config_label: str
    results_version: int
    spec_hash: str
    config_fingerprint: dict
    #: Host seconds this pair cost: its simulation, plus the trace build
    #: when this pair built the trace its sweep request shares (the first
    #: pair of its spec to simulate; every pair of a process-pool sweep).
    wall_time_s: float
    #: Engine callbacks dispatched by the producing simulation (0 when the
    #: manifest predates throughput accounting).
    events_processed: int = 0
    #: Simulator throughput (events_processed over the simulation's own wall
    #: clock, excluding workload build time) — makes per-run throughput
    #: regressions visible without a benchmark run.
    events_per_sec: float = 0.0
    #: Per-domain operating-point residency of the producing run
    #: (``DvfsResidency.to_json()``); ``None`` when the manifest predates
    #: residency accounting.
    dvfs_residency: dict | None = None
    #: Per-GPM core-domain energy attribution of the producing run
    #: (list of ``GpmEnergy.as_dict()``); ``None`` when the run had no
    #: DVFS/residency pricing or predates per-GPM attribution.
    per_gpm_energy: list | None = None
    host: dict = field(default_factory=host_info)
    created_at: str = ""
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()

    # ----------------------------------------------------------- serialization

    def to_json(self) -> dict:
        """The fields in declaration order, as ``asdict`` gives them, but
        without its recursive copy: the dict and list fields are shared."""
        return {name: getattr(self, name) for name in _RUN_MANIFEST_FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "RunManifest":
        return cls(
            cache_key=data["cache_key"],
            workload=data["workload"],
            config_label=data["config_label"],
            results_version=data["results_version"],
            spec_hash=data["spec_hash"],
            config_fingerprint=data["config_fingerprint"],
            wall_time_s=data["wall_time_s"],
            events_processed=data.get("events_processed", 0),
            events_per_sec=data.get("events_per_sec", 0.0),
            dvfs_residency=data.get("dvfs_residency"),
            per_gpm_energy=data.get("per_gpm_energy"),
            host=data.get("host", {}),
            created_at=data.get("created_at", ""),
            schema_version=data.get("schema_version", MANIFEST_SCHEMA_VERSION),
        )

    # ---------------------------------------------------------------------- io

    @staticmethod
    def path_for(record_path: Path) -> Path:
        """Manifest path corresponding to a cached record path."""
        return record_path.with_suffix(".manifest.json")

    def write(self, path: str | Path) -> Path:
        # Deferred: repro.service imports this module for ServiceManifest.
        from repro.service.store import write_json_atomic

        target = Path(path)
        write_json_atomic(target, self.to_json())
        return target

    @classmethod
    def read(cls, path: str | Path) -> "RunManifest":
        with Path(path).open() as handle:
            return cls.from_json(json.load(handle))


_RUN_MANIFEST_FIELDS = tuple(f.name for f in fields(RunManifest))


#: Bump when the service-manifest layout changes incompatibly.
SERVICE_MANIFEST_SCHEMA_VERSION = 1


@dataclass
class ServiceManifest:
    """Provenance for one job served by :mod:`repro.service`.

    Where :class:`RunManifest` describes how a cached *simulation* was
    produced, a ``ServiceManifest`` describes how one *request* was served:
    which lane scheduled it, whether the result came from the store, an
    in-flight coalesce, or a fresh simulation, and how long each stage
    took.  Every response from ``POST /v1/jobs`` carries one.
    """

    job_id: str
    cache_key: str
    workload: str
    config_label: str
    client: str
    lane: str
    #: ``"hit"`` / ``"miss"`` / ``"coalesced"`` — how the result was served.
    cache: str
    #: Terminal job state (``completed`` for hits, which never queue).
    state: str
    queue_wait_s: float
    exec_s: float
    total_s: float
    results_version: int
    spec_hash: str
    #: Roofline prediction attached when the request asked for screening
    #: provenance (predicted energy/delay/EDP vs. what was served); ``None``
    #: otherwise.  Advisory only — never part of the cache identity.
    screen: dict | None = None
    created_at: str = ""
    schema_version: int = SERVICE_MANIFEST_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.created_at:
            self.created_at = datetime.now(timezone.utc).isoformat()

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ServiceManifest":
        return cls(
            job_id=data["job_id"],
            cache_key=data["cache_key"],
            workload=data["workload"],
            config_label=data["config_label"],
            client=data["client"],
            lane=data["lane"],
            cache=data["cache"],
            state=data["state"],
            queue_wait_s=data["queue_wait_s"],
            exec_s=data["exec_s"],
            total_s=data["total_s"],
            results_version=data["results_version"],
            spec_hash=data["spec_hash"],
            screen=data.get("screen"),
            created_at=data.get("created_at", ""),
            schema_version=data.get(
                "schema_version", SERVICE_MANIFEST_SCHEMA_VERSION
            ),
        )
