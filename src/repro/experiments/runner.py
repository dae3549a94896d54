"""Sweep execution with disk caching and optional process parallelism.

The full reproduction needs ~25 configurations x 14 workloads of simulation.
Each (workload, configuration) pair is deterministic, so results are cached
as JSON under ``.cache/`` keyed by a content hash of the workload spec, the
configuration, and a results-format version.  Benches therefore pay the
simulation cost once; re-pricing studies (link energy, amortization) never
re-simulate at all.

Like the paper's trace-driven simulator, which captures each application's
trace once and replays it on every configuration, a serial sweep request
builds each distinct spec's workload once and simulates its configurations
back to back.  The process pool keeps one task per pair, so a one-spec grid
(a sweet-spot search) still spreads across workers.

Set ``REPRO_SWEEP_PROCESSES`` to control parallelism (default: half the
cores, capped at 12); ``REPRO_CACHE_DIR`` to relocate the cache.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.errors import ConfigError, ExperimentError
from repro.experiments.results import RunRecord
from repro.gpu.config import GpuConfig
from repro.gpu.simulator import simulate

# Result identity (fingerprints, spec hash, cache key, RESULTS_VERSION)
# lives in repro.service.keys — the public content-address API shared with
# the sweep service.
from repro.service.keys import (
    RESULTS_VERSION,
    cache_key,
    config_fingerprint,
    spec_hash,
)
from repro.service.store import (
    MEMORY_CAPACITY,
    ResultStore,
    default_cache_dir,
)
from repro.trace.manifest import RunManifest
from repro.trace.metrics import MetricsRegistry
from repro.workloads.generator import build_workload
from repro.workloads.spec import WorkloadSpec


def _default_processes() -> int:
    override = os.environ.get("REPRO_SWEEP_PROCESSES")
    if override:
        return max(1, int(override))
    return max(1, min(12, (os.cpu_count() or 2) - 1))


def _default_progress() -> bool:
    return os.environ.get("REPRO_PROGRESS", "").lower() in {"1", "true", "yes"}


@dataclass(frozen=True)
class SweepSettings:
    """Execution knobs for a sweep."""

    cache_dir: Path = field(default_factory=default_cache_dir)
    processes: int = field(default_factory=_default_processes)
    use_cache: bool = True
    #: Emit per-simulation progress lines on stderr (or REPRO_PROGRESS=1).
    progress: bool = field(default_factory=_default_progress)

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ConfigError(
                f"sweep processes must be >= 1, got {self.processes!r}"
            )


@dataclass(frozen=True)
class _PairTiming:
    """Worker-side throughput accounting for one simulated pair."""

    wall_time_s: float
    events_processed: int
    events_per_sec: float


def _timed_runs(
    spec: WorkloadSpec, configs: list[GpuConfig]
) -> Iterator[tuple[RunRecord, _PairTiming]]:
    """Simulate ``spec`` on each configuration in turn, building its trace
    once.

    The workload is a pure function of the spec, so every configuration
    replays the same trace.  The first pair's ``wall_time_s`` carries the
    build; ``events_per_sec`` is simulation-only for every pair.  Pairs are
    yielded as they finish, and time the caller spends between them is
    charged to no pair.
    """
    start = time.perf_counter()
    workload = build_workload(spec)
    for config in configs:
        metrics = MetricsRegistry()
        result = simulate(workload, config, metrics=metrics)
        timing = _PairTiming(
            wall_time_s=time.perf_counter() - start,
            events_processed=result.events_processed,
            events_per_sec=result.events_per_sec,
        )
        record = RunRecord(
            workload=spec.abbr,
            category=spec.category.value,
            config_label=config.label(),
            num_gpms=config.num_gpms,
            seconds=result.seconds,
            counters=result.counters,
            metrics=metrics.to_json(),
            residency=result.residency.to_json(),
        )
        yield record, timing
        start = time.perf_counter()


def _timed_run_pair(
    args: tuple[WorkloadSpec, GpuConfig]
) -> tuple[RunRecord, _PairTiming]:
    """One pair, trace build included (a process-pool task)."""
    spec, config = args
    [run] = _timed_runs(spec, [config])
    return run


def run_pair(spec: WorkloadSpec, config: GpuConfig) -> RunRecord:
    """Simulate one (workload, configuration) pair (no caching).

    Sweep workers run the same :func:`_timed_runs` and the service calls
    this, so both produce byte-identical records.
    """
    return _timed_run_pair((spec, config))[0]


class SweepRunner:
    """Executes (workload, configuration) grids with caching.

    A serial :meth:`run` groups the pairs it must simulate by spec hash and
    replays one trace per group; records still land at their input index.

    Besides the records themselves, the runner aggregates every record's
    component metrics into :attr:`metrics` (merging per-worker registries via
    the parallel Welford combine) and writes a provenance manifest beside
    each freshly simulated cache entry.  Records live in the shared
    :class:`~repro.service.store.ResultStore`, whose bounded memory tier
    keeps each entry's decoded record: a runner reads and decodes an entry
    at most once, and serves every later request for its key (in this sweep
    or a later one, simulated or loaded) from memory.  With ``use_cache``
    off nothing is kept, so every pair simulates.
    """

    def __init__(self, settings: SweepSettings | None = None):
        self.settings = settings or SweepSettings()
        self.store = ResultStore(
            self.settings.cache_dir,
            use_disk=self.settings.use_cache,
            memory_capacity=MEMORY_CAPACITY if self.settings.use_cache else 0,
        )
        self.cache_hits = 0
        self.cache_misses = 0
        #: Duplicate (spec, config) pairs within one grid that were served
        #: by another pair's simulation instead of dispatching their own.
        self.dedup_skips = 0
        #: Merged component metrics across every record this runner returned.
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------ cache

    def _store_manifest(
        self,
        key: str,
        spec: WorkloadSpec,
        config: GpuConfig,
        timing: _PairTiming,
        record: RunRecord | None = None,
    ) -> None:
        """Write run provenance beside the cached record (advisory only)."""
        if not self.settings.use_cache:
            return
        per_gpm_energy = None
        if record is not None and record.residency is not None:
            from repro.core.energy_model import EnergyParams
            from repro.dvfs.residency import DvfsResidency

            params = EnergyParams.for_operating_point(
                config, residency=DvfsResidency.from_json(record.residency)
            )
            breakdown = record.energy(params)
            per_gpm_energy = [
                gpm.as_dict() for gpm in breakdown.per_gpm
            ] or None
        manifest = RunManifest(
            cache_key=key,
            workload=spec.abbr,
            config_label=config.label(),
            results_version=RESULTS_VERSION,
            spec_hash=spec_hash(spec),
            config_fingerprint=config_fingerprint(config),
            wall_time_s=timing.wall_time_s,
            events_processed=timing.events_processed,
            events_per_sec=timing.events_per_sec,
            dvfs_residency=None if record is None else record.residency,
            per_gpm_energy=per_gpm_energy,
        )
        manifest.write(RunManifest.path_for(self.store.path(key)))

    def _report(self, done: int, total: int, label: str, wall_time_s: float) -> None:
        if self.settings.progress:
            print(
                f"[sweep] {done}/{total} simulated: {label}"
                f" ({wall_time_s:.1f}s)",
                file=sys.stderr,
                flush=True,
            )

    # ------------------------------------------------------------------- runs

    def _worker_count(self, missing_count: int) -> int:
        """Sweep processes to launch: never more than the pairs to simulate
        or the machine's cores, since extra processes gain nothing."""
        return min(
            self.settings.processes, missing_count, os.cpu_count() or 1
        )

    def run(
        self, pairs: list[tuple[WorkloadSpec, GpuConfig]]
    ) -> list[RunRecord]:
        """Run every pair, serving cached results and simulating the rest.

        Results come back in input order.
        """
        if not pairs:
            raise ExperimentError("an empty sweep is almost certainly a bug")
        records: list[RunRecord | None] = []
        missing: list[tuple[int, tuple[WorkloadSpec, GpuConfig]]] = []
        keys: list[str] = []
        # Content-address -> input index of the pair that will simulate it.
        # Duplicate pairs within one grid (same fingerprint, possibly
        # distinct objects) dispatch exactly once; followers copy the
        # leader's record after the pool drains.
        leader_for_key: dict[str, int] = {}
        followers: list[int] = []
        for index, (spec, config) in enumerate(pairs):
            key = cache_key(spec, config)
            keys.append(key)
            cached = self.store.get_record(key)
            if cached is None:
                records.append(None)
                if key in leader_for_key:
                    followers.append(index)
                    self.dedup_skips += 1
                else:
                    leader_for_key[key] = index
                    missing.append((index, (spec, config)))
                    self.cache_misses += 1
            else:
                # The content-hash key guarantees (spec, config) identity;
                # the label is derived presentation data, so re-stamp it
                # rather than replay however the caching run spelled it.
                records.append(
                    replace(
                        cached,
                        workload=spec.abbr,
                        config_label=config.label(),
                    )
                )
                self.cache_hits += 1

        total = len(missing)
        if missing and self.settings.progress:
            print(
                f"[sweep] {len(pairs)} pairs: {self.cache_hits} cached,"
                f" {total} to simulate"
                f" (processes={self._worker_count(total)})",
                file=sys.stderr,
                flush=True,
            )
        done = 0

        def _finish(index: int, record: RunRecord, timing: _PairTiming) -> None:
            # Store as each simulation completes, so an interrupted sweep
            # resumes where it stopped.  Records land at their input index
            # and each manifest sits beside its own cache entry, so the
            # nondeterministic as_completed arrival order affects neither
            # result ordering nor on-disk layout.
            nonlocal done
            spec, config = pairs[index]
            records[index] = record
            self.store.put(keys[index], record.to_json(), record)
            self._store_manifest(keys[index], spec, config, timing, record)
            done += 1
            self._report(
                done,
                total,
                f"{spec.abbr} on {config.label()}",
                timing.wall_time_s,
            )

        if missing:
            # Cached pairs were short-circuited above; only genuinely missing
            # work reaches the pool.
            workers = self._worker_count(len(missing))
            if workers > 1 and len(missing) > 1:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        pool.submit(_timed_run_pair, pair): index
                        for index, pair in missing
                    }
                    for future in as_completed(futures):
                        record, timing = future.result()
                        _finish(futures[future], record, timing)
            else:
                # One trace per distinct spec: build it once and replay it
                # on each of the spec's configurations back to back.
                by_spec: dict[str, list[int]] = {}
                for index, (spec, _config) in missing:
                    by_spec.setdefault(spec_hash(spec), []).append(index)
                for indices in by_spec.values():
                    runs = _timed_runs(
                        pairs[indices[0]][0],
                        [pairs[index][1] for index in indices],
                    )
                    for index, (record, timing) in zip(indices, runs):
                        _finish(index, record, timing)

        for index in followers:
            spec, config = pairs[index]
            leader_record = records[leader_for_key[keys[index]]]
            records[index] = replace(
                leader_record,
                workload=spec.abbr,
                config_label=config.label(),
            )

        results = [record for record in records if record is not None]
        for record in results:
            if record.metrics:
                self.metrics.merge(MetricsRegistry.from_json(record.metrics))
        return results

    def run_grid(
        self, specs: list[WorkloadSpec], configs: list[GpuConfig]
    ) -> dict[str, dict[str, RunRecord]]:
        """Cartesian sweep; returns ``results[config_label][workload]``."""
        records = self.run(
            [(spec, config) for config in configs for spec in specs]
        )
        grid: dict[str, dict[str, RunRecord]] = {}
        for record in records:
            grid.setdefault(record.config_label, {})[record.workload] = record
        return grid
