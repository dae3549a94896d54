"""Property wall for the idle subsystem (Hypothesis + regressions).

Four invariants pin the sleep-state machinery:

* **partition**: active + gated fractions of any histogram sum to *exactly*
  1.0 — not approximately — for any number of bucket kinds (the
  largest-bucket complement is taken once, over all buckets);
* **non-negativity / cap**: sleep transitions never drive any energy
  component negative, and a power cap attached on top of the ladder is
  respected by every governor decision;
* **race dominance**: with zero residual power and zero exit latency,
  race-to-idle can only ever *remove* energy relative to the static sprint
  run it otherwise equals — it must never lose;
* **deadline**: the paced governor never misses a deadline that the
  race-to-idle run proves feasible.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.energy_model import EnergyParams
from repro.dvfs.idle import CLOCK_GATED, POWER_GATED, IdleConfig, SleepState
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.dvfs.residency import ResidencyHistogram
from repro.gpu.config import (
    GpmConfig,
    GpuConfig,
    InterconnectConfig,
    TopologyKind,
)
from repro.gpu.simulator import simulate
from repro.workloads.generator import build_workload
from repro.workloads.suite import shrunken_spec

# Positive, finite, wildly-scaled cycle counts: the partition invariant
# must survive subnormal-adjacent ratios and 1e12-cycle outliers alike.
cycle_counts = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
curve_points = st.sampled_from(K40_VF_CURVE.points)

#: A third sleep state so histograms can exceed the two built-in kinds.
DROWSY = SleepState(
    name="drowsy",
    entry_latency_cycles=10.0,
    exit_latency_cycles=20.0,
    residual_fraction=0.6,
)


def _study_config(idle: IdleConfig | None = None, **kwargs) -> GpuConfig:
    """The bursty-golden shape: 8 small GPMs on a ring."""
    return GpuConfig(
        num_gpms=8,
        gpm=GpmConfig(num_sms=2, slots_per_sm=2),
        interconnect=InterconnectConfig(
            kind=TopologyKind.RING,
            per_gpm_bandwidth_gbps=256.0,
            link_latency_cycles=15.0,
            energy_pj_per_bit=0.54,
        ),
        idle=idle,
        **kwargs,
    )


def _bursty_workload(kernels: int = 4):
    return build_workload(shrunken_spec("BPROP", total_ctas=33, kernels=kernels))


class TestPartitionInvariant:
    @given(
        active=st.dictionaries(curve_points, cycle_counts, min_size=1, max_size=4),
        sleep=st.dictionaries(
            st.sampled_from([CLOCK_GATED, POWER_GATED, DROWSY]),
            cycle_counts,
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_fractions_partition_time_exactly(self, active, sleep):
        hist = ResidencyHistogram()
        for point, cycles in active.items():
            hist.add(point, cycles)
        for state, cycles in sleep.items():
            hist.add_sleep(state, cycles)
        fractions = hist.fractions()
        assert sum(fractions.values()) == 1.0  # exactly, not approx
        assert all(share >= 0.0 for share in fractions.values())
        # The awake renormalization partitions awake time just as exactly.
        assert sum(hist.active_fractions().values()) == 1.0

    def test_three_bucket_kinds_regression(self):
        # The original complement trick only spanned the active buckets;
        # with one active + two sleep buckets the naive sum landed at
        # 1.0 ± ulp.  One complement over ALL buckets fixes it — pin that.
        hist = ResidencyHistogram()
        hist.add(K40_VF_CURVE.anchor, 0.1)
        hist.add_sleep(CLOCK_GATED, 0.3)
        hist.add_sleep(POWER_GATED, 0.2)
        assert sum(hist.fractions().values()) == 1.0
        # And with several active points beside the sleep buckets.
        hist.add(K40_VF_CURVE.points[0], 0.7)
        hist.add(K40_VF_CURVE.points[-1], 1e-9)
        hist.add_sleep(DROWSY, 1e9)
        fractions = hist.fractions()
        assert len(fractions) == 6
        assert sum(fractions.values()) == 1.0


class TestEnergySafety:
    @given(
        residual=st.floats(min_value=0.0, max_value=1.0),
        entry=st.floats(min_value=0.0, max_value=500.0),
        exit_latency=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=5, deadline=None)
    def test_sleep_never_makes_energy_negative(
        self, residual, entry, exit_latency
    ):
        idle = IdleConfig(
            clock_gated=SleepState(
                name="clock-gated",
                entry_latency_cycles=entry,
                exit_latency_cycles=exit_latency,
                residual_fraction=residual,
            ),
            power_gated=None,
            governor="race-to-idle",
        )
        config = _study_config(idle)
        result = simulate(_bursty_workload(kernels=2), config)
        params = EnergyParams.for_operating_point(
            config, residency=result.residency
        )
        breakdown = result.energy_breakdown(params)
        assert breakdown.total >= 0.0
        assert all(
            value >= 0.0 for value in breakdown.as_dict().values()
        ), breakdown.as_dict()
        assert all(gpm.total >= 0.0 for gpm in breakdown.per_gpm)

    def test_cap_respected_with_sleep_states(self):
        # A cap on top of the ladder: every governor decision's waterfill
        # estimate must stay under budget even while modules gate.
        config = _study_config(
            IdleConfig(governor="race-to-idle"), power_cap_watts=400.0
        )
        result = simulate(_bursty_workload(kernels=4), config)
        assert result.residency.total_sleep_cycles > 0.0
        assert result.governor is not None and result.governor.trace
        for decision in result.governor.trace:
            assert decision.estimated_chip_watts <= config.power_cap_watts


class TestRaceDominance:
    @given(workload_name=st.sampled_from(["BPROP", "MiniAMR"]))
    @settings(max_examples=2, deadline=None)
    def test_free_gating_race_never_loses_to_static_sprint(
        self, workload_name
    ):
        # Zero residual + zero exit latency: gating is free.  The race run
        # then differs from the static sprint run only by sleeping through
        # gaps, so timing is identical and energy can only go down.
        workload = build_workload(
            shrunken_spec(workload_name, total_ctas=33, kernels=4)
        )
        free_gate = IdleConfig(
            clock_gated=replace(
                CLOCK_GATED, exit_latency_cycles=0.0, residual_fraction=0.0
            ),
            power_gated=None,
            governor="race-to-idle",
        )
        race_config = _study_config(free_gate)
        static_config = _study_config(IdleConfig.governor_only("race-to-idle"))
        race = simulate(workload, race_config)
        static = simulate(workload, static_config)
        assert race.counters.elapsed_cycles == static.counters.elapsed_cycles
        race_energy = race.energy_breakdown(
            EnergyParams.for_operating_point(
                race_config, residency=race.residency
            )
        ).total
        static_energy = static.energy_breakdown(
            EnergyParams.for_operating_point(
                static_config, residency=static.residency
            )
        ).total
        assert race_energy <= static_energy * (1.0 + 1e-9)
        # And it strictly wins when anything actually gated.
        if race.residency.total_sleep_cycles > 0.0:
            assert race_energy < static_energy


class TestDeadlinePacing:
    @given(slack=st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=3, deadline=None)
    def test_feasible_deadline_is_never_missed(self, slack):
        # Feasibility proven by construction: the race run's own elapsed
        # time, padded by the slack, is a deadline the chip can meet.
        workload = _bursty_workload(kernels=4)
        race = simulate(
            workload, _study_config(IdleConfig(governor="race-to-idle"))
        )
        deadline = race.counters.elapsed_cycles * (1.0 + slack)
        paced_config = _study_config(
            IdleConfig(governor="deadline-paced", deadline_cycles=deadline)
        )
        paced = simulate(workload, paced_config)
        assert paced.counters.elapsed_cycles <= deadline
        # Pacing must actually pace: with real slack the paced run takes
        # longer than the sprint (else the governor is just racing).
        if slack >= 0.5:
            assert (
                paced.counters.elapsed_cycles
                > race.counters.elapsed_cycles
            )

    def test_infinite_deadline_camps_on_the_floor(self):
        workload = _bursty_workload(kernels=2)
        paced = simulate(
            workload,
            _study_config(
                IdleConfig(governor="deadline-paced", deadline_cycles=1e15)
            ),
        )
        floor_hz = K40_VF_CURVE.points[0].frequency_hz
        assert paced.governor is not None
        trace = paced.governor.trace
        assert trace
        # The first interval has no window history yet (the governor starts
        # at the top, conservatively); every decision after that should camp
        # on the curve floor — no deadline pressure exists.
        assert trace[-1].point.frequency_hz == floor_hz
        first_cycle = trace[0].at_cycle
        later = [d for d in trace if d.at_cycle > first_cycle]
        assert later
        assert {d.point.frequency_hz for d in later} == {floor_hz}
