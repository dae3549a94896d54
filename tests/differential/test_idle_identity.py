"""Differential harness: idle-off bit-identity.

The idle subsystem's contract is that it is *purely additive*: a
configuration with ``idle=None`` must produce byte-for-byte the results it
produced before sleep states existed, and a configuration whose sleep
ladder can never engage (entry latency = ∞ means no finite gap clears the
break-even) must be bit-identical to the plain ungoverned run — counters,
kernel timing, DVFS residency, per-GPM priced energy, cache identity.

Every golden (workload, configuration) pair is driven through both sides
with **zero tolerance**.  The cache-identity half pins the conditional
fingerprint convention: idle-off configs must not mention idle in their
key (so every pre-idle cache entry stays a hit at ``RESULTS_VERSION`` 4),
while idle-enabled configs must never collide with their idle-off twins.
"""

from __future__ import annotations

import math
from dataclasses import asdict, replace

import pytest

from repro.core.energy_model import EnergyParams
from repro.dvfs.idle import CLOCK_GATED, POWER_GATED, IdleConfig
from repro.gpu.simulator import RunResult, simulate
from repro.service.keys import (
    RESULTS_VERSION,
    cache_key,
    config_fingerprint,
    key_blob,
)
from repro.tools.regen_goldens import (
    GOLDEN_CONFIGS,
    GOLDEN_SPECS,
    counters_to_json,
    diff_counters,
    diff_residency,
    golden_cases,
)
from repro.workloads.generator import build_workload

#: The golden pairs whose configs are idle-free (the pre-idle surface).
IDLE_OFF_CASES = [
    pytest.param(spec_key, config_key, id=case)
    for case, spec_key, config_key in golden_cases()
    if GOLDEN_CONFIGS[config_key].idle is None
]


def _never_engages() -> IdleConfig:
    """A sleep ladder that can never be entered: entry latency = ∞."""
    return IdleConfig(
        clock_gated=replace(CLOCK_GATED, entry_latency_cycles=math.inf),
        power_gated=replace(POWER_GATED, entry_latency_cycles=math.inf),
    )


def _assert_bit_identical(plain: RunResult, gated: RunResult) -> None:
    diffs = diff_counters(
        counters_to_json(plain.counters), counters_to_json(gated.counters)
    )
    assert not diffs, "counter divergence:\n" + "\n".join(diffs)
    assert asdict(plain.counters) == asdict(gated.counters)
    assert gated.events_processed == plain.events_processed
    assert [asdict(stats) for stats in gated.kernel_stats] == [
        asdict(stats) for stats in plain.kernel_stats
    ]


def _energy_surface(result: RunResult, config) -> dict:
    params = EnergyParams.for_operating_point(
        config, residency=result.residency
    )
    breakdown = result.energy_breakdown(params)
    return {
        "total": breakdown.total,
        "components": breakdown.as_dict(),
        "per_gpm": [asdict(gpm) for gpm in breakdown.per_gpm],
    }


@pytest.mark.parametrize(("spec_key", "config_key"), IDLE_OFF_CASES)
class TestNeverEngagingLadderIsIdentity:
    """idle with entry=∞ == no idle at all, on the full result surface."""

    def test_counters_and_residency_match(self, spec_key, config_key):
        spec = GOLDEN_SPECS[spec_key]
        config = GOLDEN_CONFIGS[config_key]
        gated_config = replace(config, idle=_never_engages())
        plain = simulate(build_workload(spec), config)
        gated = simulate(build_workload(spec), gated_config)
        _assert_bit_identical(plain, gated)
        # Sleep-free histograms serialize with no sleep entries at all, so
        # the JSON forms must be *equal*, not merely equivalent.
        assert gated.residency.to_json() == plain.residency.to_json()
        assert gated.residency.total_sleep_cycles == 0.0
        assert not diff_residency(
            plain.residency.to_json(), gated.residency.to_json()
        )

    def test_priced_energy_matches_exactly(self, spec_key, config_key):
        spec = GOLDEN_SPECS[spec_key]
        config = GOLDEN_CONFIGS[config_key]
        gated_config = replace(config, idle=_never_engages())
        plain = simulate(build_workload(spec), config)
        gated = simulate(build_workload(spec), gated_config)
        # Price both runs under their own config: the never-engaging ladder
        # must not perturb a single float anywhere in the breakdown.
        assert _energy_surface(gated, gated_config) == _energy_surface(
            plain, config
        )


class TestIdleOffCacheIdentity:
    """Idle-off keys are byte-stable; idle-on keys never collide with them."""

    def test_results_version_unchanged(self):
        # Idle-off runs are bit-identical to the pre-idle simulator, so the
        # version must NOT be bumped: every existing cache entry and golden
        # stays valid.  (Bumping it here would be a semantics regression.)
        assert RESULTS_VERSION == 4

    @pytest.mark.parametrize(("spec_key", "config_key"), IDLE_OFF_CASES)
    def test_idle_off_fingerprint_has_no_idle_key(self, spec_key, config_key):
        fingerprint = config_fingerprint(GOLDEN_CONFIGS[config_key])
        assert "idle" not in fingerprint

    @pytest.mark.parametrize(("spec_key", "config_key"), IDLE_OFF_CASES)
    def test_idle_on_key_never_collides(self, spec_key, config_key):
        spec = GOLDEN_SPECS[spec_key]
        config = GOLDEN_CONFIGS[config_key]
        gated = replace(config, idle=IdleConfig())
        assert cache_key(spec, gated) != cache_key(spec, config)
        # Distinct ladders get distinct keys too: the sleep parameters are
        # runtime behaviour, not presentation.
        deeper = replace(
            config,
            idle=IdleConfig(
                clock_gated=replace(CLOCK_GATED, exit_latency_cycles=200.0)
            ),
        )
        assert cache_key(spec, deeper) != cache_key(spec, gated)

    def test_idle_off_key_blob_is_byte_stable(self):
        # The exact blob for one golden pair, pinned: if this changes, every
        # pre-idle cache entry on every machine is orphaned.
        spec = GOLDEN_SPECS["stream-micro"]
        config = GOLDEN_CONFIGS["1gpm"]
        blob = key_blob(spec, config)
        assert '"version": 4' in blob
        assert "idle" not in blob

