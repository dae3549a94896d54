"""Differential pin: one shared trace per sweep request, record for record.

A serial :class:`~repro.experiments.runner.SweepRunner` builds each
distinct spec's workload once and replays it on every configuration of
the request.  The trace is a pure function of the spec, so the records
must equal, with zero tolerance, what an independent ``run_pair`` (its
own build, its own run) produces for each pair.  The configurations span
the paths a replay could leak state through: a single GPM, a ring, a
switch, a compressed link and a governed run.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.dvfs.idle import IdleConfig
from repro.experiments import runner as runner_module
from repro.experiments.runner import SweepRunner, SweepSettings, run_pair
from repro.gpu.config import TopologyKind, table_iii_config
from repro.interconnect.compression import CompressionConfig
from repro.service.keys import cache_key
from repro.trace.manifest import RunManifest
from repro.workloads.suite import shrunken_spec

CONFIGS = [
    table_iii_config(1),
    table_iii_config(4),
    table_iii_config(4, topology=TopologyKind.SWITCH),
    replace(table_iii_config(4), compression=CompressionConfig(data_ratio=2.0)),
    replace(table_iii_config(4), idle=IdleConfig(governor="race-to-idle")),
]


def _runner(tmp_path) -> SweepRunner:
    return SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))


def test_shared_trace_records_equal_per_pair_records(tmp_path):
    spec = shrunken_spec("Stream", 48, 2)
    records = _runner(tmp_path).run([(spec, config) for config in CONFIGS])
    for config, record in zip(CONFIGS, records):
        assert record.to_json() == run_pair(spec, config).to_json()


def test_one_build_per_distinct_spec(tmp_path, monkeypatch):
    builds = []
    real = runner_module.build_workload

    def counting(spec):
        builds.append(spec.abbr)
        return real(spec)

    monkeypatch.setattr(runner_module, "build_workload", counting)
    stream = shrunken_spec("Stream", 16)
    bprop = shrunken_spec("BPROP", 16)
    # Interleaved specs still group: one build each, not one per pair.
    pairs = [(spec, config) for config in CONFIGS for spec in (stream, bprop)]
    records = _runner(tmp_path).run(pairs)

    assert sorted(builds) == ["BPROP", "Stream"]
    assert [(r.workload, r.config_label) for r in records] == [
        (spec.abbr, config.label()) for spec, config in pairs
    ]


def test_build_time_is_charged_to_the_building_pair(tmp_path, monkeypatch):
    build_s = 0.3
    real = runner_module.build_workload

    def slow(spec):
        time.sleep(build_s)
        return real(spec)

    monkeypatch.setattr(runner_module, "build_workload", slow)
    spec = shrunken_spec("BPROP", 16)
    configs = CONFIGS[:3]
    runner = _runner(tmp_path)
    runner.run([(spec, config) for config in configs])
    manifests = [
        RunManifest.read(
            RunManifest.path_for(runner.store.path(cache_key(spec, config)))
        )
        for config in configs
    ]
    assert manifests[0].wall_time_s >= build_s
    assert all(m.wall_time_s < build_s for m in manifests[1:])
    # Throughput stays simulation-only, the building pair's included.
    for manifest in manifests:
        assert manifest.events_processed / manifest.events_per_sec < build_s
