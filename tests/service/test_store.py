"""Result store: two-tier lookup, shared disk layout, crash safety."""

import dataclasses
import io
import json
import sys
import threading

import pytest

from repro.experiments.results import RunRecord
from repro.experiments.runner import SweepRunner, SweepSettings, run_pair
from repro.gpu.config import table_iii_config
from repro.gpu.counters import CounterSet
from repro.service.job import Job, JobRequest
from repro.service.keys import cache_key
from repro.service.priority import Lane
from repro.service.server import ServiceConfig, ServiceThread
from repro.service.store import ResultStore, SingleFlight
from repro.trace.manifest import RunManifest
from repro.workloads.suite import shrunken_spec


def _payload(seconds: float = 1.0) -> dict:
    """A minimal valid ``RunRecord.to_json()`` payload."""
    return RunRecord(
        workload="Stream", category="memory", config_label="1-GPM",
        num_gpms=1, seconds=seconds, counters=CounterSet(),
    ).to_json()


class TestResultStore:
    def test_miss_then_put_then_hit(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        assert store.get("abc") is None
        store.put("abc", {"value": 1})
        assert store.get("abc") == {"value": 1}

    def test_disk_survives_a_new_store_instance(self, tmp_path):
        ResultStore(cache_dir=tmp_path).put("abc", _payload())
        fresh = ResultStore(cache_dir=tmp_path)
        assert len(fresh) == 0  # memory tier empty
        assert fresh.get("abc") == _payload()  # served from disk
        assert len(fresh) == 1  # and promoted

    def test_memory_only_mode_never_touches_disk(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, use_disk=False)
        store.put("abc", {"value": 1})
        assert store.get("abc") == {"value": 1}
        assert list(tmp_path.iterdir()) == []

    def test_memory_tier_is_bounded_lru(self, tmp_path):
        store = ResultStore(
            cache_dir=tmp_path, use_disk=False, memory_capacity=2
        )
        store.put("a", {"n": 1})
        store.put("b", {"n": 2})
        assert store.get("a") == {"n": 1}  # refresh a
        store.put("c", {"n": 3})  # evicts b (least recently used)
        assert store.get("b") is None
        assert store.get("a") == {"n": 1}
        assert store.get("c") == {"n": 3}

    def test_zero_capacity_keeps_no_memory_tier(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, memory_capacity=0)
        store.put("abc", _payload())
        assert len(store) == 0
        assert store.get("abc") == _payload()
        assert len(store) == 0

    def test_payload_reads_keep_no_decoded_record(self, tmp_path):
        # The service's path: entries hold payloads alone.
        ResultStore(cache_dir=tmp_path).put("abc", _payload())
        store = ResultStore(cache_dir=tmp_path)
        assert store.get("abc") == _payload()
        assert store._memory["abc"][1] is None
        # A record lookup decodes it once and keeps it beside the payload.
        record = store.get_record("abc")
        assert record.to_json() == _payload()
        assert store.get_record("abc") is record
        assert store.get("abc") == _payload()

    def test_record_lookups_serve_repeats_from_memory(self, tmp_path):
        ResultStore(cache_dir=tmp_path).put("abc", _payload())
        store = ResultStore(cache_dir=tmp_path)
        record = store.get_record("abc")
        (tmp_path / "abc.json").unlink()
        assert store.get_record("abc") is record
        assert store.get_record("missing") is None
        # A put that passes the decoded record keeps it.
        fresh = RunRecord.from_json(_payload(seconds=2.0))
        store.put("def", fresh.to_json(), fresh)
        assert store.get_record("def") is fresh

    def test_corrupt_disk_entry_is_dropped_not_served(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert store.get("bad") is None
        assert not (tmp_path / "bad.json").exists()

    def test_layout_is_shared_with_the_sweep_runner(self, tmp_path):
        # A record simulated by the batch sweep runner must be a service
        # store hit (and vice versa): same directory, same file name, same
        # payload schema.
        spec = shrunken_spec("Stream", total_ctas=8)
        config = table_iii_config(1)
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        [record] = runner.run([(spec, config)])
        assert runner.cache_misses == 1

        key = cache_key(spec, config)
        store = ResultStore(cache_dir=tmp_path)
        assert store.get(key) == record.to_json()

        # And the reverse direction: a service-side put is a runner hit.
        store.put(key, record.to_json())
        runner2 = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        runner2.run([(spec, config)])
        assert runner2.cache_hits == 1
        assert runner2.cache_misses == 0

    def test_runner_entry_is_a_service_hit(self, tmp_path):
        spec = shrunken_spec("Stream", total_ctas=8)
        config = table_iii_config(1)
        [record] = SweepRunner(
            SweepSettings(cache_dir=tmp_path, processes=1)
        ).run([(spec, config)])
        with ServiceThread(
            ServiceConfig(workers=1, cache_dir=tmp_path)
        ) as thread:
            outcome = thread.submit(JobRequest(spec=spec, config=config))
        assert outcome.cache == "hit"
        assert outcome.record == record.to_json()

    def test_put_is_atomic_no_tmp_left_behind(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put("abc", {"value": 1})
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["abc.json"]
        assert json.loads((tmp_path / "abc.json").read_text()) == {"value": 1}


def _asdict_record_json(record: RunRecord) -> dict:
    """``RunRecord.to_json`` as it was built from ``dataclasses.asdict``."""

    def counters_json(raw: dict) -> dict:
        raw["instructions"] = {
            opcode.value: count for opcode, count in raw["instructions"].items()
        }
        raw["per_gpm"] = [counters_json(dict(shard)) for shard in raw["per_gpm"]]
        return raw

    data = dataclasses.asdict(record)
    data["counters"] = counters_json(data.pop("counters"))
    return data


class TestByteIdentity:
    """Records and manifests are written byte for byte as ``json.dump`` of
    their ``asdict`` forms wrote them."""

    @pytest.fixture(scope="class")
    def record(self):
        return run_pair(shrunken_spec("Stream", total_ctas=16), table_iii_config(4))

    def test_record_json_equals_asdict_form(self, record):
        assert record.metrics and record.residency
        assert len(record.counters.per_gpm) == 4
        got, want = record.to_json(), _asdict_record_json(record)
        assert got == want
        # Key order at every level, not just equality.
        assert json.dumps(got) == json.dumps(want)

    def test_put_writes_json_dump_bytes(self, record, tmp_path):
        payload = record.to_json()
        ResultStore(cache_dir=tmp_path).put("key", payload)
        expected = io.StringIO()
        json.dump(payload, expected)
        assert (tmp_path / "key.json").read_bytes() == expected.getvalue().encode()

    def test_manifest_json_and_file_equal_asdict_form(self, record, tmp_path):
        manifest = RunManifest(
            cache_key="key", workload="Stream", config_label="4-GPM",
            results_version=4, spec_hash="cafe",
            config_fingerprint={"num_gpms": 4, "gpm": {"num_sms": 16}},
            wall_time_s=0.5, events_processed=1234, events_per_sec=5e4,
            dvfs_residency=record.residency,
            per_gpm_energy=[{"gpm": 0, "joules": 1.5}, {"gpm": 1, "joules": 2.5}],
        )
        want = dataclasses.asdict(manifest)
        assert json.dumps(manifest.to_json()) == json.dumps(want)
        path = manifest.write(tmp_path / "key.manifest.json")
        expected = io.StringIO()
        json.dump(want, expected)
        assert path.read_bytes() == expected.getvalue().encode()


class TestConcurrentWriters:
    def test_writers_on_one_key_leave_one_valid_entry(self, tmp_path):
        # Each writer owns its own store, as separate processes would.  With
        # a shared fixed temporary name, one writer's rename could steal the
        # other's half-written file; unique names make each write whole.
        key = "k" * 24
        writers = 8
        barrier = threading.Barrier(writers)
        errors: list[BaseException] = []

        def write(index: int) -> None:
            store = ResultStore(cache_dir=tmp_path, memory_capacity=0)
            payload = _payload(seconds=float(index + 1))
            manifest = RunManifest(
                cache_key=key, workload="Stream", config_label="1-GPM",
                results_version=4, spec_hash="s", config_fingerprint={},
                wall_time_s=float(index),
            )
            try:
                barrier.wait()
                for _ in range(20):
                    store.put(key, payload)
                    manifest.write(RunManifest.path_for(store.path(key)))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(writers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{key}.json", f"{key}.manifest.json"
        ]
        loaded = ResultStore(cache_dir=tmp_path).load(key)
        assert loaded is not None
        assert loaded[1].seconds in {float(i + 1) for i in range(writers)}
        manifest = RunManifest.read(tmp_path / f"{key}.manifest.json")
        assert manifest.cache_key == key


#: Ways an entry on disk can be unreadable; each must read as a miss.
CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "invalid-json": lambda text: "{not json",
    "not-a-record": lambda text: json.dumps({"value": 1}),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
class TestTolerantReads:
    def _corrupt(self, path, corruption: str) -> None:
        path.write_text(CORRUPTIONS[corruption](path.read_text()))

    def test_unreadable_entry_is_a_miss_everywhere(self, tmp_path, corruption):
        spec = shrunken_spec("Stream", total_ctas=8)
        config = table_iii_config(1)
        expected = run_pair(spec, config).to_json()
        path = tmp_path / f"{cache_key(spec, config)}.json"
        ResultStore(cache_dir=tmp_path).put(cache_key(spec, config), expected)

        # The sweep runner re-simulates and rewrites the entry.
        self._corrupt(path, corruption)
        runner = SweepRunner(SweepSettings(cache_dir=tmp_path, processes=1))
        [record] = runner.run([(spec, config)])
        assert runner.cache_misses == 1
        assert record.to_json() == expected
        assert json.loads(path.read_text()) == expected

        # So does the service.
        self._corrupt(path, corruption)
        with ServiceThread(
            ServiceConfig(workers=1, cache_dir=tmp_path)
        ) as thread:
            outcome = thread.submit(JobRequest(spec=spec, config=config))
        assert outcome.cache == "miss"
        assert outcome.record == expected
        assert json.loads(path.read_text()) == expected


class TestSingleFlight:
    def _job(self, key: str) -> Job:
        return Job(
            id=f"job-{key}", request=None, client="test",
            key=key, lane=Lane.STANDARD,
        )

    def test_leader_then_finish(self):
        flight = SingleFlight()
        assert flight.leader_job("k") is None
        leader = self._job("k")
        flight.start("k", leader)
        assert flight.leader_job("k") is leader
        assert len(flight) == 1
        flight.finish("k")
        assert flight.leader_job("k") is None
        assert len(flight) == 0

    def test_finish_is_idempotent(self):
        flight = SingleFlight()
        flight.start("k", self._job("k"))
        flight.finish("k")
        flight.finish("k")  # no error
        assert flight.keys() == []

    def test_distinct_keys_fly_independently(self):
        flight = SingleFlight()
        a, b = self._job("a"), self._job("b")
        flight.start("a", a)
        flight.start("b", b)
        assert flight.keys() == ["a", "b"]
        flight.finish("a")
        assert flight.leader_job("b") is b
