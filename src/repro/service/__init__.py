"""Sweep-as-a-service: an async job queue in front of the simulator.

``repro.service`` gives the batch :class:`~repro.experiments.runner.SweepRunner`
a production front door.  Requests flow through admission validation (bad
configurations are rejected before any engine time is spent), a priority
scheduler with size-classed lanes and aging (small interactive runs preempt
32-GPM batch sweeps, nothing starves), per-client token-bucket rate limits
and stale-job eviction, and finally a worker pool that executes through the
sweep runner's :func:`~repro.experiments.runner.run_pair`.  Results land in
the content-addressed store the sweep runner shares
(:mod:`repro.service.store`), keyed by ``RESULTS_VERSION``-aware
fingerprints (:mod:`repro.service.keys`), with single-flight dedup so identical in-flight requests coalesce to one
simulation and repeats are O(1) cache hits.

The layer is observable end to end through PR 1's
:class:`~repro.trace.MetricsRegistry` (queue depth, lane occupancy,
admission rejections, cache hit rate, latency histograms — see
``docs/SERVICE.md``) and is driven by ``repro serve`` / ``repro submit``.

The execution-side names (``SweepService``, ``ServiceThread``,
``ServiceClient``) resolve lazily: they pull in the
experiment runner, which itself imports :mod:`repro.service.keys`, so eager
imports here would cycle.
"""

from repro.service.evict import EvictionPolicy
from repro.service.job import (
    Job,
    JobOutcome,
    JobRequest,
    JobState,
    request_from_recipe,
)
from repro.service.keys import (
    RESULTS_VERSION,
    cache_key,
    config_fingerprint,
    spec_fingerprint,
    spec_hash,
)
from repro.service.limiter import RateLimiter, TokenBucket
from repro.service.metrics import ServiceMetrics
from repro.service.priority import AgingPolicy, Lane, classify
from repro.service.queue import JobQueue
from repro.service.store import ResultStore, SingleFlight

#: Lazily resolved attribute -> defining submodule.
_LAZY = {
    "SweepService": "repro.service.server",
    "ServiceConfig": "repro.service.server",
    "ServiceThread": "repro.service.server",
    "ServiceClient": "repro.service.client",
}

__all__ = [
    "AgingPolicy",
    "EvictionPolicy",
    "Job",
    "JobOutcome",
    "JobQueue",
    "JobRequest",
    "JobState",
    "Lane",
    "RESULTS_VERSION",
    "RateLimiter",
    "ResultStore",
    "ServiceClient",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceThread",
    "SingleFlight",
    "SweepService",
    "TokenBucket",
    "cache_key",
    "classify",
    "config_fingerprint",
    "request_from_recipe",
    "spec_fingerprint",
    "spec_hash",
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
