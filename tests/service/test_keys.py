"""Golden pins for the public result-identity API (repro.service.keys).

The cache key is a published content address: the sweep cache, the service
result store, and any external tooling all address results by it.  These
tests pin the emitted keys byte-for-byte, so an accidental change to the
fingerprint composition (or to ``RESULTS_VERSION`` handling) fails loudly
instead of silently orphaning every cached result.
"""

import dataclasses
import hashlib
import json

from repro.dvfs.config import DvfsConfig
from repro.dvfs.idle import IdleConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.gpu.config import table_iii_config
from repro.gpu.cta_scheduler import CtaPartitioning
from repro.interconnect.compression import CompressionConfig
from repro.service import keys
from repro.workloads.suite import all_specs, shrunken_spec

#: Byte-for-byte golden keys.  If a change is *intentional* (simulator
#: semantics changed), bump RESULTS_VERSION in repro.service.keys and
#: re-pin; never re-pin without the bump.
PINNED = {
    ("Stream", 1): "cd2bc0e6c6e44c2cc70bac45",
    ("Stream", 4): "aacd2977396edbda4a95fb6b",
    ("BPROP", 2): "4e749c813031cb0d906a0207",
}
PINNED_CAPPED_STREAM_4 = "5ba1e6193d97289de5b2ea46"
PINNED_DVFS_STREAM_4 = "c97eb090864c1c5e6c65fb69"
PINNED_ROUND_ROBIN_STREAM_4 = "db9b0fd012031c16422fa906"
PINNED_STREAM_SPEC_HASH = "1253a4ed579b3c2d6ca23d2a"


def _spec(abbr: str):
    return shrunken_spec(abbr, total_ctas=16)


class TestGoldenKeys:
    def test_results_version_is_pinned(self):
        assert keys.RESULTS_VERSION == 4

    def test_cache_keys_are_byte_stable(self):
        for (abbr, gpms), want in PINNED.items():
            got = keys.cache_key(_spec(abbr), table_iii_config(gpms))
            assert got == want, f"{abbr}/{gpms}-GPM key drifted: {got}"

    def test_capped_config_key_is_byte_stable(self):
        config = dataclasses.replace(
            table_iii_config(4), power_cap_watts=150.0
        )
        assert keys.cache_key(_spec("Stream"), config) == (
            PINNED_CAPPED_STREAM_4
        )

    def test_dvfs_config_key_is_byte_stable(self):
        config = dataclasses.replace(
            table_iii_config(4),
            dvfs=DvfsConfig.core_only(K40_VF_CURVE.point_at(562e6)),
        )
        assert keys.cache_key(_spec("Stream"), config) == (
            PINNED_DVFS_STREAM_4
        )

    def test_round_robin_config_key_is_byte_stable(self):
        # Round-robin CTA partitioning has its own content address, and the
        # contiguous twin keeps its pre-partitioning key.
        spec = _spec("Stream")
        contiguous = table_iii_config(4)
        round_robin = dataclasses.replace(
            contiguous, partitioning=CtaPartitioning.ROUND_ROBIN
        )
        assert keys.cache_key(spec, round_robin) == (
            PINNED_ROUND_ROBIN_STREAM_4
        )
        assert keys.cache_key(spec, contiguous) == PINNED[("Stream", 4)]
        assert PINNED_ROUND_ROBIN_STREAM_4 != PINNED[("Stream", 4)]

    def test_spec_hash_is_byte_stable(self):
        assert keys.spec_hash(_spec("Stream")) == PINNED_STREAM_SPEC_HASH

    def test_key_is_sha256_of_key_blob(self):
        spec, config = _spec("Stream"), table_iii_config(1)
        blob = keys.key_blob(spec, config)
        assert keys.cache_key(spec, config) == (
            hashlib.sha256(blob.encode()).hexdigest()[:24]
        )


class TestSubsystemGating:
    """Optional subsystems join the fingerprint only when configured."""

    def test_plain_config_fingerprint_has_no_optional_sections(self):
        fingerprint = keys.config_fingerprint(table_iii_config(4))
        assert "compression" not in fingerprint
        assert "dvfs" not in fingerprint
        assert "power_cap_watts" not in fingerprint
        assert "partitioning" not in fingerprint

    def test_cap_changes_the_key(self):
        spec = _spec("Stream")
        plain = table_iii_config(4)
        capped = dataclasses.replace(plain, power_cap_watts=150.0)
        other = dataclasses.replace(plain, power_cap_watts=200.0)
        assert keys.cache_key(spec, plain) != keys.cache_key(spec, capped)
        assert keys.cache_key(spec, capped) != keys.cache_key(spec, other)

    def test_key_is_object_identity_not_object_instance(self):
        spec = _spec("Stream")
        a, b = table_iii_config(4), table_iii_config(4)
        assert a is not b
        assert keys.cache_key(spec, a) == keys.cache_key(spec, b)

    def test_flat_spec_fingerprint_has_no_phases_section(self):
        # Phase schedules are an optional subsystem like caps/DVFS: absent
        # from flat-spec fingerprints so every pre-phase key stays valid.
        fingerprint = keys.spec_fingerprint(_spec("Stream"))
        assert "phases" not in fingerprint

    def test_phase_schedule_changes_the_key(self):
        config = table_iii_config(4)
        flat = shrunken_spec("Stream", total_ctas=16)
        phased = shrunken_spec("LLMServe", total_ctas=16, kernels=1)
        assert "phases" in keys.spec_fingerprint(phased)
        assert keys.cache_key(flat, config) != keys.cache_key(phased, config)
        # Deterministic: an identical schedule maps to the identical key.
        again = shrunken_spec("LLMServe", total_ctas=16, kernels=1)
        assert keys.cache_key(phased, config) == keys.cache_key(again, config)


def _asdict_spec_fingerprint(spec) -> dict:
    """``spec_fingerprint`` as it was built from ``dataclasses.asdict``."""
    flat = dataclasses.asdict(spec)
    phases = flat.pop("phases", None)
    return keys._canonical_mixes(
        {key: value for key, value in flat.items() if key != "compute_mix"}
    ) | {"mix": {op.value: w for op, w in spec.compute_mix.items()}} | (
        {} if phases is None
        else {"phases": [keys._canonical_mixes(phase) for phase in phases]}
    )


def _asdict_key_blob(spec, config) -> str:
    """``key_blob`` with both fingerprints' dataclass fields taken from
    ``dataclasses.asdict``, as the keys were first derived."""
    return json.dumps(
        {
            "version": keys.RESULTS_VERSION,
            "spec": _asdict_spec_fingerprint(spec),
            "config": keys.config_fingerprint(config)
            | {"gpm": dataclasses.asdict(config.gpm)},
        },
        sort_keys=True,
        default=str,
    )


def _key_configs() -> list:
    """A plain config plus one per optional section of the fingerprint."""
    plain = table_iii_config(4)
    return [
        table_iii_config(1),
        plain,
        dataclasses.replace(
            plain, dvfs=DvfsConfig.core_only(K40_VF_CURVE.point_at(562e6))
        ),
        dataclasses.replace(plain, idle=IdleConfig(governor="race-to-idle")),
        dataclasses.replace(
            plain, compression=CompressionConfig(data_ratio=2.0)
        ),
        dataclasses.replace(plain, power_cap_watts=150.0),
        dataclasses.replace(plain, partitioning=CtaPartitioning.ROUND_ROBIN),
    ]


class TestAsdictIdentity:
    """The copy-free fingerprints encode to the bytes ``asdict`` gave."""

    def test_every_registered_spec_on_every_config_section(self):
        specs = all_specs()
        assert any(spec.phases for spec in specs.values())
        configs = _key_configs()
        for spec in specs.values():
            for config in configs:
                assert keys.key_blob(spec, config) == (
                    _asdict_key_blob(spec, config)
                ), f"{spec.abbr} on {config.label()}"

    def test_shrunken_and_phase_schedule_specs(self):
        config = table_iii_config(2)
        for abbr in ("Stream", "BPROP", "LLMServe", "LLMPrefill"):
            spec = shrunken_spec(abbr, total_ctas=16, kernels=1)
            assert keys.key_blob(spec, config) == (
                _asdict_key_blob(spec, config)
            ), abbr
            assert keys.spec_hash(spec) == hashlib.sha256(
                json.dumps(
                    _asdict_spec_fingerprint(spec), sort_keys=True, default=str
                ).encode()
            ).hexdigest()[:24]
