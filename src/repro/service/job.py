"""Job objects: what a client submits and what the service tracks.

A :class:`JobRequest` is the immutable submission — a (workload spec, GPU
configuration) pair plus execution knobs.  A :class:`Job` is the service's
mutable tracking record for one *admitted leader* request (coalesced
duplicates share the leader's job).  A :class:`JobOutcome` is what every
waiter receives: the cached/simulated ``RunRecord`` payload plus a
:class:`~repro.trace.manifest.ServiceManifest` describing how it was served.

``request_from_recipe`` decodes the wire format of ``POST /v1/jobs``: a flat
JSON recipe naming a Table II workload and the config axes the paper's
studies sweep (GPM count, topology, bandwidth, core operating point, power
cap).  Malformed recipes raise :class:`~repro.errors.ConfigError` — which is
exactly what admission rejects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError
from repro.gpu.config import GpuConfig
from repro.service.keys import cache_key
from repro.service.priority import Lane, classify
from repro.trace.manifest import ServiceManifest
from repro.workloads.spec import WorkloadSpec


class JobState(enum.Enum):
    """Lifecycle of one admitted job."""

    PENDING = "pending"      # admitted, waiting in a lane
    RUNNING = "running"      # on a worker; never evicted
    COMPLETED = "completed"
    FAILED = "failed"        # the simulation itself raised
    EVICTED = "evicted"      # dropped while pending (stale / queue bound)

    @property
    def terminal(self) -> bool:
        return self in (JobState.COMPLETED, JobState.FAILED, JobState.EVICTED)


@dataclass(frozen=True)
class JobRequest:
    """One immutable submission: what to simulate and how."""

    spec: WorkloadSpec
    config: GpuConfig
    #: Ask the service to attach the analytical roofline prediction for this
    #: (workload, config) to the response manifest.  Advisory provenance
    #: only: it never changes what is simulated or stored, so it stays
    #: outside the cache key.
    screen: str | None = None

    def __post_init__(self) -> None:
        if self.screen is not None:
            from repro.roofline.screen import SCREEN_MODES

            if self.screen not in SCREEN_MODES:
                raise ConfigError(
                    f"screen must be one of {SCREEN_MODES} or None,"
                    f" got {self.screen!r}"
                )

    def key(self) -> str:
        """Content address of this request's result."""
        return cache_key(self.spec, self.config)

    def lane(self) -> Lane:
        return classify(self.spec, self.config)


@dataclass
class Job:
    """Service-side tracking record for one admitted (leader) request."""

    id: str
    request: JobRequest
    client: str
    key: str
    lane: Lane
    state: JobState = JobState.PENDING
    #: Monotonic clock readings (service-relative seconds).
    submitted_at: float = 0.0
    enqueued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: FIFO tiebreak within equal effective priority; set by the queue.
    seq: int = -1
    #: asyncio.Future every waiter (leader + coalesced) awaits.
    future: Any = None
    #: Wall-clock seconds the simulation took (leader's execution).
    exec_s: float = 0.0

    @property
    def queue_wait_s(self) -> float:
        if self.started_at <= 0.0:
            return 0.0
        return max(0.0, self.started_at - self.enqueued_at)


@dataclass(frozen=True)
class JobOutcome:
    """What one waiter receives back from the service."""

    #: The RunRecord payload (``RunRecord.to_json()`` form).  Single-flight
    #: waiters share the leader's object, so payloads are bit-identical.
    record: dict
    manifest: ServiceManifest
    #: ``"hit"`` (served from the store), ``"miss"`` (simulated for this
    #: request), or ``"coalesced"`` (joined an identical in-flight request).
    cache: str

    def to_json(self) -> dict:
        return {
            "cache": self.cache,
            "job": self.manifest.to_json(),
            "record": self.record,
        }


# ---------------------------------------------------------------- wire recipe

#: Recipe fields accepted by ``POST /v1/jobs`` (anything else is a typo and
#: is rejected at admission rather than silently ignored).
RECIPE_FIELDS = frozenset(
    {
        "workload", "ctas", "kernels", "full", "gpms", "topology",
        "bandwidth", "cap_watts", "core_mhz", "screen",
        "phases", "tenants",
    }
)

#: Keys one ``phases`` entry may carry (``phase`` is required).
PHASE_RECIPE_FIELDS = frozenset({"phase", "ctas", "kernels"})


def _phase_entries(phases: Any) -> tuple[tuple[str, int, int], ...]:
    """Decode/validate the ``phases`` recipe field into schedule entries."""
    if not isinstance(phases, (list, tuple)) or not phases:
        raise ConfigError(
            "phases must be a non-empty list of phase objects"
        )
    entries = []
    for entry in phases:
        if not isinstance(entry, dict):
            raise ConfigError(
                f"each phase must be an object, got {type(entry).__name__}"
            )
        unknown = set(entry) - PHASE_RECIPE_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown phase field(s): {', '.join(sorted(unknown))}"
            )
        if "phase" not in entry:
            raise ConfigError("each phase entry needs a 'phase' name")
        name = entry["phase"]
        if not isinstance(name, str):
            raise ConfigError(
                f"phase name must be a string, got {type(name).__name__}"
            )
        entries.append((
            name,
            int(entry.get("ctas", 256 if name == "prefill" else 16)),
            int(entry.get("kernels", 1)),
        ))
    return tuple(entries)


def request_from_recipe(recipe: dict) -> JobRequest:
    """Decode one wire-format job recipe into a validated :class:`JobRequest`.

    The recipe spans the axes the paper's studies sweep — V/f point x
    topology x GPM count, plus an optional power cap — on any Table II
    workload (optionally shrunken).  Every constructor on this path
    validates eagerly, so a malformed recipe raises
    :class:`~repro.errors.ConfigError` before any engine time is spent.
    """
    import dataclasses

    from repro.dvfs.config import DvfsConfig
    from repro.dvfs.operating_point import K40_VF_CURVE
    from repro.gpu.config import (
        BandwidthSetting,
        TopologyKind,
        table_iii_config,
    )
    from repro.workloads.llm import schedule_spec, validate_clients
    from repro.workloads.suite import all_specs, shrunken_spec

    if not isinstance(recipe, dict):
        raise ConfigError(f"job recipe must be an object, got {type(recipe).__name__}")
    unknown = set(recipe) - RECIPE_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown job recipe field(s): {', '.join(sorted(unknown))}"
        )
    phases = recipe.get("phases")
    tenants = recipe.get("tenants")
    if tenants is not None and phases is None:
        raise ConfigError("tenants requires a phases schedule")
    if phases is not None:
        # A phase schedule *is* the workload: the shrink knobs parameterize
        # Table II namesakes and cannot also apply.
        clashes = sorted(
            {"workload", "ctas", "kernels", "full"} & set(recipe)
        )
        if clashes:
            raise ConfigError(
                f"phases cannot be combined with: {', '.join(clashes)}"
            )
        if tenants is not None and not isinstance(tenants, (list, tuple)):
            raise ConfigError("tenants must be a list of client ids")
        try:
            spec = schedule_spec(
                _phase_entries(phases),
                clients=(
                    None if tenants is None
                    else validate_clients(tuple(tenants))
                ),
            )
        except (TypeError, ValueError) as error:
            raise ConfigError(str(error)) from error
    else:
        workload = recipe.get("workload")
        specs = all_specs()
        if not isinstance(workload, str) or workload not in specs:
            raise ConfigError(
                f"workload must be one of {sorted(specs)}, got {workload!r}"
            )
        try:
            if recipe.get("full"):
                spec = specs[workload]
            else:
                spec = shrunken_spec(
                    workload,
                    total_ctas=int(recipe.get("ctas", 64)),
                    # Same default as shrunken_spec; an explicit null keeps
                    # the namesake workload's own kernel count.
                    kernels=(
                        1 if "kernels" not in recipe
                        else None if recipe["kernels"] is None
                        else int(recipe["kernels"])
                    ),
                )
        except (TypeError, ValueError) as error:
            raise ConfigError(str(error)) from error
    try:
        topology = TopologyKind(recipe.get("topology", "ring"))
        bandwidth = BandwidthSetting(recipe.get("bandwidth", "2x-BW"))
        config = table_iii_config(
            int(recipe.get("gpms", 4)), bandwidth, topology=topology
        )
        if recipe.get("core_mhz") is not None:
            point = K40_VF_CURVE.point_at(float(recipe["core_mhz"]) * 1e6)
            config = dataclasses.replace(
                config, dvfs=DvfsConfig.core_only(point)
            )
        if recipe.get("cap_watts") is not None:
            config = dataclasses.replace(
                config, power_cap_watts=float(recipe["cap_watts"])
            )
        screen = recipe.get("screen")
        if screen is not None:
            screen = str(screen)
    except (TypeError, ValueError) as error:
        # Enum misses and non-numeric knobs surface as ValueError/TypeError;
        # admission speaks ConfigError.
        raise ConfigError(str(error)) from error
    return JobRequest(spec=spec, config=config, screen=screen)


def recipe_from_request(request: JobRequest) -> dict | None:
    """Best-effort inverse of :func:`request_from_recipe` (client helpers).

    Only recipe-expressible requests encode; anything custom (hand-built
    specs, per-GPM DVFS, compression) returns ``None`` — callers fall back
    to in-process submission.
    """
    from repro.workloads.suite import all_specs

    spec, config = request.spec, request.config
    base = all_specs().get(spec.abbr)
    if base is None:
        return None
    recipe: dict = {"workload": spec.abbr, "gpms": config.num_gpms}
    if spec == base:
        recipe["full"] = True
    else:
        from repro.workloads.suite import shrunken_spec

        shrunk = shrunken_spec(
            spec.abbr, total_ctas=spec.total_ctas, kernels=spec.kernels
        )
        if spec != shrunk:
            return None
        recipe["ctas"] = spec.total_ctas
        recipe["kernels"] = spec.kernels
    if config.interconnect is not None:
        recipe["topology"] = config.interconnect.kind.value
    if config.power_cap_watts is not None:
        recipe["cap_watts"] = config.power_cap_watts
    if config.dvfs is not None:
        return None  # operating points don't round-trip through core_mhz alone
    if config.compression is not None:
        return None
    if request.screen is not None:
        recipe["screen"] = request.screen
    reference = request_from_recipe(recipe)
    if reference.key() != request.key():
        return None
    return recipe
