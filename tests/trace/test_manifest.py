"""Unit tests for run provenance manifests."""

import gc
import json
from pathlib import Path

from repro.trace import MANIFEST_SCHEMA_VERSION, RunManifest, host_info


def _manifest(**overrides) -> RunManifest:
    fields = dict(
        cache_key="abc123",
        workload="Stream",
        config_label="4-GPM",
        results_version=3,
        spec_hash="deadbeef",
        config_fingerprint={"num_gpms": 4},
        wall_time_s=1.25,
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRunManifest:
    def test_auto_fills_host_and_timestamp(self):
        manifest = _manifest()
        assert manifest.created_at  # ISO timestamp filled in __post_init__
        assert manifest.host["python"] == host_info()["python"]
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION

    def test_json_roundtrip(self):
        manifest = _manifest()
        restored = RunManifest.from_json(manifest.to_json())
        assert restored == manifest

    def test_path_for_replaces_record_suffix(self):
        record = Path("/cache/sweeps/0123abcd.json")
        assert RunManifest.path_for(record) == Path(
            "/cache/sweeps/0123abcd.manifest.json"
        )

    def test_write_and_read(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(tmp_path / "run.manifest.json")
        assert RunManifest.read(path) == manifest
        # Atomic write leaves no temp file behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_indented_manifest_still_reads(self, tmp_path):
        # Caches filled before manifests were written compactly hold
        # indented, key-sorted files; they must keep loading.
        manifest = _manifest()
        path = tmp_path / "old.manifest.json"
        path.write_text(json.dumps(manifest.to_json(), indent=2, sort_keys=True))
        assert RunManifest.read(path) == manifest

    def test_write_leaves_no_cyclic_garbage(self, tmp_path):
        # The C encoder allocates no closures; the pure-Python one (selected
        # by ``indent``) leaves cyclic garbage behind on every write.
        manifest = _manifest()
        manifest.write(tmp_path / "warm.manifest.json")  # deferred imports
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            manifest.write(tmp_path / "run.manifest.json")
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_from_json_tolerates_missing_optional_fields(self):
        data = _manifest().to_json()
        for optional in ("host", "created_at", "schema_version"):
            data.pop(optional)
        restored = RunManifest.from_json(data)
        assert restored.cache_key == "abc123"
        assert restored.schema_version == MANIFEST_SCHEMA_VERSION

    def test_throughput_fields_roundtrip(self):
        manifest = _manifest(events_processed=12345, events_per_sec=9876.5)
        restored = RunManifest.from_json(manifest.to_json())
        assert restored.events_processed == 12345
        assert restored.events_per_sec == 9876.5

    def test_pre_throughput_manifests_still_load(self):
        # Manifests written before throughput accounting lack both fields.
        data = _manifest().to_json()
        data.pop("events_processed")
        data.pop("events_per_sec")
        restored = RunManifest.from_json(data)
        assert restored.events_processed == 0
        assert restored.events_per_sec == 0.0

    def test_manifests_with_a_screen_note_still_load(self):
        # Manifests written while screened sweeps recorded a per-run
        # ``screen`` note carry a key the manifest no longer has.
        manifest = _manifest()
        data = manifest.to_json()
        data["screen"] = {"mode": "roofline", "predicted_rank": 0}
        restored = RunManifest.from_json(data)
        assert restored == manifest
        assert "screen" not in restored.to_json()
