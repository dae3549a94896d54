"""SweepRunner in-grid dedupe: duplicate pairs dispatch one simulation."""

from repro.experiments import runner as runner_module
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.gpu.config import table_iii_config
from repro.workloads.suite import shrunken_spec


def _settings(tmp_path, **kwargs) -> SweepSettings:
    return SweepSettings(cache_dir=tmp_path, processes=1, **kwargs)


class TestInGridDedupe:
    def test_duplicate_pairs_simulate_once(self, tmp_path, monkeypatch):
        calls = []
        real = runner_module._timed_runs

        def counting(spec, configs):
            calls.extend((spec, config) for config in configs)
            return real(spec, configs)

        monkeypatch.setattr(runner_module, "_timed_runs", counting)
        spec = shrunken_spec("Stream", total_ctas=8)
        config = table_iii_config(1)
        runner = SweepRunner(_settings(tmp_path))
        records = runner.run([(spec, config)] * 3)

        assert len(calls) == 1
        assert runner.cache_misses == 1
        assert runner.dedup_skips == 2
        assert len(records) == 3
        assert {r.to_json()["seconds"] for r in records} == {
            records[0].to_json()["seconds"]
        }
        # Followers carry the full leader payload.
        assert records[1].counters == records[0].counters
        assert records[2].metrics == records[0].metrics

    def test_distinct_object_same_fingerprint_dedupes(self, tmp_path):
        # Equality is by content address, not object identity.
        spec = shrunken_spec("Stream", total_ctas=8)
        runner = SweepRunner(_settings(tmp_path))
        runner.run([(spec, table_iii_config(1)), (spec, table_iii_config(1))])
        assert runner.cache_misses == 1
        assert runner.dedup_skips == 1

    def test_distinct_pairs_are_not_deduped(self, tmp_path):
        spec = shrunken_spec("Stream", total_ctas=8)
        runner = SweepRunner(_settings(tmp_path))
        runner.run([(spec, table_iii_config(1)), (spec, table_iii_config(2))])
        assert runner.cache_misses == 2
        assert runner.dedup_skips == 0

    def test_results_stay_in_input_order(self, tmp_path):
        stream = shrunken_spec("Stream", total_ctas=8)
        bprop = shrunken_spec("BPROP", total_ctas=8)
        config = table_iii_config(1)
        runner = SweepRunner(_settings(tmp_path))
        records = runner.run(
            [(stream, config), (bprop, config), (stream, config)]
        )
        assert [r.workload for r in records] == ["Stream", "BPROP", "Stream"]
        assert runner.dedup_skips == 1
