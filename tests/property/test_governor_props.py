"""Property-based tests for the power-capping governor and residency.

Three invariants the capped-DVFS subsystem promises:

* *the budget is never exceeded*: for any utilization history, every
  allocation the governor hands back satisfies
  ``chip_watts(points) <= cap_watts`` — exactly, in float64, not just
  approximately (the waterfill checks the same summation it promises);
* *residency fractions are a partition of time*: every domain's
  time-at-point fractions sum to exactly 1.0 in float64 (the largest bucket
  is priced as the complement of the others, placed last);
* *an infinite cap is the ungoverned run*: attaching the governor with no
  effective budget reproduces the plain simulation bit for bit.
"""

import math
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.dvfs.governor import (
    DEFAULT_GPM_ANCHOR_WATTS,
    GpmObservation,
    GpmPowerModel,
    PowerCapGovernor,
)
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.dvfs.residency import DvfsResidency, ResidencyHistogram

utilizations = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def utilization_histories(draw):
    """(num_gpms, [interval utilizations per GPM]) driving a governed chip."""
    num_gpms = draw(st.integers(min_value=1, max_value=8))
    intervals = draw(
        st.lists(
            st.lists(
                utilizations, min_size=num_gpms, max_size=num_gpms
            ),
            min_size=1,
            max_size=6,
        )
    )
    return num_gpms, intervals


class TestBudgetInvariant:
    @given(
        history=utilization_histories(),
        fraction=st.floats(min_value=0.55, max_value=1.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_never_exceeded_at_any_interval(self, history, fraction):
        num_gpms, intervals = history
        cap = fraction * num_gpms * DEFAULT_GPM_ANCHOR_WATTS
        governor = PowerCapGovernor(cap_watts=cap)
        model = governor.power_model
        points = governor.initial_points(num_gpms)
        assert model.chip_watts(governor.curve, points) <= cap
        now = 0.0
        for interval in intervals:
            now += 1000.0
            observations = [
                GpmObservation(gpm_id=i, utilization=u, current=points[i])
                for i, u in enumerate(interval)
            ]
            points = governor.on_chip_interval(observations, now, 1000.0)
            # The exact float invariant, same summation order as the governor.
            assert model.chip_watts(governor.curve, points) <= cap
        # Every recorded estimate respected the budget too.
        for decision in governor.trace:
            assert decision.estimated_chip_watts <= cap

    @given(history=utilization_histories())
    @settings(max_examples=30, deadline=None)
    def test_infinite_cap_always_allocates_the_ceiling(self, history):
        num_gpms, intervals = history
        governor = PowerCapGovernor(cap_watts=math.inf)
        points = governor.initial_points(num_gpms)
        for interval in intervals:
            observations = [
                GpmObservation(gpm_id=i, utilization=u, current=points[i])
                for i, u in enumerate(interval)
            ]
            points = governor.decide_chip(observations, 0.0, 1000.0)
            assert all(point == K40_VF_CURVE.anchor for point in points)


class TestResidencyInvariants:
    @st.composite
    @staticmethod
    def residencies(draw):
        cycles = st.floats(
            min_value=0.0, max_value=1e9,
            allow_nan=False, allow_infinity=False,
        )
        points = st.sampled_from(K40_VF_CURVE.points)

        def histogram():
            return st.lists(
                st.tuples(points, cycles), min_size=1, max_size=6
            )

        num_gpms = draw(st.integers(min_value=1, max_value=4))
        core = []
        for _ in range(num_gpms):
            hist = ResidencyHistogram()
            for point, amount in draw(histogram()):
                hist.add(point, amount)
            core.append(hist)
        dram = ResidencyHistogram()
        interconnect = ResidencyHistogram()
        for point, amount in draw(histogram()):
            dram.add(point, amount)
        for point, amount in draw(histogram()):
            interconnect.add(point, amount)
        return DvfsResidency(
            core=tuple(core), dram=dram, interconnect=interconnect
        )

    @given(residency=residencies())
    @settings(max_examples=80, deadline=None)
    def test_fractions_sum_to_one_per_domain(self, residency):
        for hist in (*residency.core, residency.dram, residency.interconnect):
            fractions = hist.fractions()
            if fractions:  # empty histogram -> domain never ran
                # Exact, not approximate: summing in iteration order
                # computes s + fl(1.0 - s), which rounds to 1.0.
                assert sum(fractions.values()) == 1.0

    @given(residency=residencies())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_preserves_every_bucket(self, residency):
        restored = DvfsResidency.from_json(residency.to_json())
        assert restored.num_gpms == residency.num_gpms
        for mine, theirs in zip(
            (*residency.core, residency.dram, residency.interconnect),
            (*restored.core, restored.dram, restored.interconnect),
        ):
            assert theirs.cycles == {
                replace(point, name=point.label()): amount
                for point, amount in mine.cycles.items()
            } or theirs.total_cycles == mine.total_cycles


class TestInfiniteCapBitIdentity:
    @given(
        workload_name=st.sampled_from(["Stream", "BPROP"]),
        num_gpms=st.sampled_from([1, 2]),
    )
    @settings(max_examples=5, deadline=None)
    def test_infinite_cap_reproduces_the_ungoverned_run(
        self, workload_name, num_gpms
    ):
        from repro.gpu.config import table_iii_config
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec(workload_name, total_ctas=8, kernels=1)
        workload = build_workload(spec)
        config = table_iii_config(num_gpms)
        plain = simulate(workload, config)
        capped = simulate(workload, replace(config, power_cap_watts=math.inf))
        assert capped.counters == plain.counters
        assert capped.cycles == plain.cycles
        assert capped.counters.sm_busy_cycles == plain.counters.sm_busy_cycles
