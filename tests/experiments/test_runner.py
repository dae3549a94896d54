"""Sweep runner: caching, determinism, grid shapes."""

import dataclasses
from collections import Counter

import pytest

from repro.errors import ExperimentError
from repro.experiments.runner import SweepRunner, SweepSettings, run_pair
from repro.experiments.results import RunRecord
from repro.gpu.config import BandwidthSetting, table_iii_config
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.service.keys import cache_key, config_fingerprint
from repro.service.store import ResultStore
from repro.workloads.spec import WorkloadSpec


def tiny_spec(seed=1, **overrides) -> WorkloadSpec:
    base = dict(
        name="Tiny", abbr="Tiny", category=WorkloadCategory.COMPUTE,
        total_ctas=64, warps_per_cta=1, kernels=1, segments_per_warp=1,
        compute_per_segment=4, accesses_per_segment=1,
        compute_mix={Opcode.FFMA32: 1.0},
        footprint_bytes=64 * 4096,
        seed=seed,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


@pytest.fixture
def runner(tmp_path):
    return SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))


class TestRunPair:
    def test_produces_record(self):
        record = run_pair(tiny_spec(), table_iii_config(1))
        assert record.workload == "Tiny"
        assert record.num_gpms == 1
        assert record.seconds > 0
        assert record.counters.total_instructions > 0


class TestCaching:
    def test_cache_roundtrip(self, runner, tmp_path):
        pair = (tiny_spec(), table_iii_config(1))
        first = runner.run([pair])[0]
        assert runner.cache_misses == 1
        second = runner.run([pair])[0]
        assert runner.cache_hits == 1
        assert second.seconds == first.seconds
        assert second.counters.instructions == first.counters.instructions
        assert list(tmp_path.glob("*.json"))

    def test_different_config_different_key(self, runner):
        spec = tiny_spec()
        runner.run([(spec, table_iii_config(1))])
        runner.run([(spec, table_iii_config(2, BandwidthSetting.BW_2X))])
        assert runner.cache_misses == 2

    def test_different_spec_different_key(self, runner):
        config = table_iii_config(1)
        runner.run([(tiny_spec(seed=1), config)])
        runner.run([(tiny_spec(seed=2), config)])
        assert runner.cache_misses == 2

    def test_corrupt_cache_entry_resimulated(self, runner, tmp_path):
        pair = (tiny_spec(), table_iii_config(1))
        runner.run([pair])
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        fresh = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        record = fresh.run([pair])[0]
        assert fresh.cache_misses == 1
        assert record.seconds > 0

    def test_cached_record_relabelled_from_requested_config(
        self, runner, tmp_path
    ):
        # The content-hash key pins (spec, config) identity, but the label
        # is derived presentation data: a record cached under an older label
        # spelling must come back stamped with the current config.label().
        import json

        pair = (tiny_spec(), table_iii_config(1))
        runner.run([pair])
        for path in tmp_path.glob("*.json"):
            if path.name.endswith(".manifest.json"):
                continue
            blob = json.loads(path.read_text())
            blob["config_label"] = "1-GPM/stale-spelling"
            blob["workload"] = "StaleName"
            path.write_text(json.dumps(blob))
        fresh = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        record = fresh.run([pair])[0]
        assert fresh.cache_hits == 1
        assert record.config_label == table_iii_config(1).label()
        assert record.workload == "Tiny"

    def test_cache_disabled(self, tmp_path):
        runner = SweepRunner(
            SweepSettings(cache_dir=tmp_path, processes=1, use_cache=False)
        )
        pair = (tiny_spec(), table_iii_config(1))
        runner.run([pair])
        runner.run([pair])
        assert runner.cache_misses == 2
        assert not list(tmp_path.glob("*.json"))

    def test_manifest_records_throughput(self, runner, tmp_path):
        from repro.trace.manifest import RunManifest

        runner.run([(tiny_spec(), table_iii_config(1))])
        manifests = list(tmp_path.glob("*.manifest.json"))
        assert len(manifests) == 1
        manifest = RunManifest.read(manifests[0])
        assert manifest.events_processed > 0
        assert manifest.wall_time_s > 0
        assert manifest.events_per_sec > 0

    def test_round_robin_partitioning_gets_its_own_entry(self, runner):
        from repro.gpu.cta_scheduler import CtaPartitioning

        contiguous = table_iii_config(2)
        round_robin = dataclasses.replace(
            contiguous, partitioning=CtaPartitioning.ROUND_ROBIN
        )
        spec = tiny_spec()
        first = runner.run([(spec, contiguous), (spec, round_robin)])
        assert runner.cache_misses == 2
        assert first[0].counters != first[1].counters
        again = runner.run([(spec, round_robin)])
        assert runner.cache_hits == 1
        assert again[0].counters == first[1].counters

    def test_cache_hit_short_circuits_before_submission(self, runner):
        # A fully cached sweep must simulate nothing: no worker submission,
        # no new manifest, just replayed records.
        pair = (tiny_spec(), table_iii_config(1))
        runner.run([pair])
        parallel = SweepRunner(
            SweepSettings(cache_dir=runner.settings.cache_dir, processes=8)
        )
        records = parallel.run([pair, pair])
        assert parallel.cache_hits == 2
        assert parallel.cache_misses == 0
        assert len(records) == 2


class TestMemoryTier:
    """One runner reads and decodes each cache entry at most once."""

    @staticmethod
    def _requests():
        # Overlapping sweep requests, as the figures issue them: each one
        # re-asks for the baseline and shares grid points with the others.
        a, b = tiny_spec(seed=1), tiny_spec(seed=2, abbr="Tiny2", name="T2")
        one, two, four = (table_iii_config(n) for n in (1, 2, 4))
        return [
            [(a, one), (a, two), (b, one)],
            [(a, one), (b, one), (b, two)],
            [(a, two), (a, four), (b, two), (a, one)],
            [(b, one)],
        ]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_each_key_loaded_at_most_once(self, tmp_path, monkeypatch, warm):
        requests = self._requests()
        pairs = [pair for request in requests for pair in request]
        distinct = {cache_key(spec, config) for spec, config in pairs}
        if warm:
            SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1)).run(
                pairs
            )
        loads = Counter()
        disk_load = ResultStore.load

        def counted_load(store, key):
            loads[key] += 1
            return disk_load(store, key)

        monkeypatch.setattr(ResultStore, "load", counted_load)
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        served = [runner.run(request) for request in requests]
        assert set(loads) == distinct
        assert max(loads.values()) == 1
        assert runner.cache_misses == (0 if warm else len(distinct))
        # Memory hits count as hits.
        assert runner.cache_hits == len(pairs) - runner.cache_misses

        # Each request served exactly as a fresh runner serves it from disk.
        for request, records in zip(requests, served):
            fresh = SweepRunner(
                SweepSettings(cache_dir=tmp_path, processes=1)
            ).run(request)
            assert [record.to_json() for record in records] == [
                record.to_json() for record in fresh
            ]

    def test_memory_hit_relabelled_from_requested_config(self, runner):
        # The config name is not part of the key, so a renamed config is a
        # memory hit that must still carry the requested label.
        spec, config = tiny_spec(), table_iii_config(1)
        renamed = dataclasses.replace(config, name="1-GPM/renamed")
        [first] = runner.run([(spec, config)])
        [again] = runner.run([(spec, renamed)])
        assert runner.cache_hits == 1
        assert again.config_label == renamed.label() != first.config_label
        assert again.counters == first.counters


class TestGrid:
    def test_grid_shape(self, runner):
        specs = [tiny_spec(seed=1), tiny_spec(seed=2, abbr="Tiny2", name="T2")]
        configs = [table_iii_config(1), table_iii_config(2)]
        grid = runner.run_grid(specs, configs)
        assert set(grid) == {configs[0].label(), configs[1].label()}
        for label in grid:
            assert set(grid[label]) == {"Tiny", "Tiny2"}

    def test_empty_sweep_rejected(self, runner):
        with pytest.raises(ExperimentError):
            runner.run([])


class TestCacheKeyStability:
    """Adding DVFS must not re-key configurations that never configure it."""

    # Keys for configurations that never configure DVFS or a power cap,
    # pinned under RESULTS_VERSION 4 (the per-GPM counter-shard record
    # format).  If any of these change without a deliberate RESULTS_VERSION
    # bump, every cache entry is orphaned and the paper's sweeps re-simulate
    # from scratch — treat such a failure as a bug in config_fingerprint,
    # not as a fixture to refresh.
    PINNED = {
        ("Stream", 1): "91e9c12e66c0cf097bf9a905",
        ("Stream", 4): "63743f7a76657f9e44624fd3",
        ("BPROP", 2): "83d71f8bc6d959507b56a944",
    }

    def test_pre_dvfs_keys_pinned(self):
        from repro.workloads.suite import WORKLOAD_SPECS

        assert cache_key(
            WORKLOAD_SPECS["Stream"], table_iii_config(1)
        ) == self.PINNED[("Stream", 1)]
        assert cache_key(
            WORKLOAD_SPECS["Stream"], table_iii_config(4)
        ) == self.PINNED[("Stream", 4)]
        assert cache_key(
            WORKLOAD_SPECS["BPROP"],
            table_iii_config(2, BandwidthSetting.BW_1X),
        ) == self.PINNED[("BPROP", 2)]

    def test_unconfigured_dvfs_absent_from_fingerprint(self):
        assert "dvfs" not in config_fingerprint(table_iii_config(2))

    def test_configured_dvfs_changes_key(self):
        from repro.dvfs.config import DvfsConfig
        from repro.dvfs.operating_point import K40_VF_CURVE
        from repro.workloads.suite import WORKLOAD_SPECS

        spec = WORKLOAD_SPECS["Stream"]
        plain = table_iii_config(4)
        slowed = dataclasses.replace(
            plain,
            dvfs=DvfsConfig.core_only(K40_VF_CURVE.point_at(562.0e6)),
        )
        # Even the anchor point re-keys: an explicit DvfsConfig is part of
        # the configuration, only its *absence* preserves old identities.
        anchored = dataclasses.replace(
            plain, dvfs=DvfsConfig.core_only(K40_VF_CURVE.anchor)
        )
        keys = {
            cache_key(spec, plain),
            cache_key(spec, slowed),
            cache_key(spec, anchored),
        }
        assert len(keys) == 3
        assert cache_key(spec, plain) == self.PINNED[("Stream", 4)]

    def test_unconfigured_cap_absent_from_fingerprint(self):
        assert "power_cap_watts" not in config_fingerprint(
            table_iii_config(2)
        )

    def test_configured_cap_changes_key(self):
        from repro.workloads.suite import WORKLOAD_SPECS

        spec = WORKLOAD_SPECS["Stream"]
        plain = table_iii_config(4)
        capped = dataclasses.replace(plain, power_cap_watts=150.0)
        tighter = dataclasses.replace(plain, power_cap_watts=120.0)
        keys = {
            cache_key(spec, plain),
            cache_key(spec, capped),
            cache_key(spec, tighter),
        }
        assert len(keys) == 3
        # The capped key is itself stable run-to-run (cacheable), and the
        # uncapped config still resolves to its pre-DVFS pinned identity.
        assert cache_key(spec, capped) == cache_key(
            spec, dataclasses.replace(plain, power_cap_watts=150.0)
        )
        assert cache_key(spec, plain) == self.PINNED[("Stream", 4)]


class TestOperatingPointGrid:
    def test_run_grid_expands_point_axis(self, runner):
        from repro.dvfs.operating_point import K40_VF_CURVE

        points = (K40_VF_CURVE.point_at(480.0e6), K40_VF_CURVE.anchor)
        specs = [tiny_spec()]
        configs = [table_iii_config(1), table_iii_config(2)]
        grid = runner.run_grid(specs, configs, operating_points=points)
        assert len(grid) == len(configs) * len(points)
        assert sum(label.count("@core@") for label in grid) == 4
        for label, row in grid.items():
            assert set(row) == {"Tiny"}

    def test_point_axis_slows_the_clock(self, runner):
        from repro.dvfs.operating_point import K40_VF_CURVE

        points = (K40_VF_CURVE.point_at(324.0e6), K40_VF_CURVE.anchor)
        grid = runner.run_grid(
            [tiny_spec()], [table_iii_config(1)], operating_points=points
        )
        by_point = {
            label: row["Tiny"].seconds for label, row in grid.items()
        }
        slow = next(v for k, v in by_point.items() if "k40-324" in k)
        fast = next(v for k, v in by_point.items() if "k40-boost" in k)
        assert slow > fast


class TestSerialization:
    def test_record_json_roundtrip(self):
        record = run_pair(tiny_spec(), table_iii_config(1))
        clone = RunRecord.from_json(record.to_json())
        assert clone.workload == record.workload
        assert clone.seconds == record.seconds
        assert clone.counters.instructions == record.counters.instructions
        assert clone.counters.sm_idle_cycles == pytest.approx(
            record.counters.sm_idle_cycles
        )


class TestWorkerCount:
    """Sweep processes are clamped to the pairs to simulate and the cores."""

    def _runner(self, tmp_path, processes):
        return SweepRunner(
            SweepSettings(cache_dir=tmp_path, processes=processes)
        )

    def test_unsharded_sweeps_keep_full_pool(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 8)
        runner = self._runner(tmp_path, processes=8)
        assert runner._worker_count(100) == 8

    def test_missing_count_still_clamps(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 16)
        runner = self._runner(tmp_path, processes=8)
        assert runner._worker_count(3) == 3

    def test_unknown_cpu_count_defaults_to_one(self, tmp_path, monkeypatch):
        import repro.experiments.runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: None)
        runner = self._runner(tmp_path, processes=8)
        assert runner._worker_count(100) == 1

    def test_progress_line_reports_the_pool_that_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.experiments.runner as runner_mod

        # processes=8 on one core runs serially; the line must say so.
        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 1)
        runner = SweepRunner(
            SweepSettings(cache_dir=tmp_path, processes=8, progress=True)
        )
        runner.run([(tiny_spec(), table_iii_config(n)) for n in (1, 2, 4)])
        err = capsys.readouterr().err
        assert "3 to simulate (processes=1)" in err
