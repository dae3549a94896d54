"""Property-based tests for the closed-form roofline predictor.

The predictor is a pure function of (spec, config), so whole families of
inputs can be checked at once: predictions must be finite and non-negative,
delay must not *decrease* when a workload issues more memory accesses per
segment, and predicted inter-GPM traffic must not decrease when the access
mix shifts from local streaming toward globally shared data.  A final group
pins the screening contract: with ``k >= grid`` the screen must select the
whole grid and rank it with the exact search's tie-break.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.dvfs.operating_point import K40_VF_CURVE
from repro.gpu.config import table_iii_config
from repro.roofline import RooflinePredictor
from repro.roofline.screen import screen_operating_points
from repro.workloads.suite import shrunken_spec

#: Fractions drawn in exact 1/16 steps so they always sum to exactly 1.0.
SIXTEENTHS = st.integers(min_value=0, max_value=16)

gpm_counts = st.sampled_from([1, 2, 4])
accesses = st.integers(min_value=1, max_value=8)
points = st.sampled_from(K40_VF_CURVE.points)


@st.composite
def specs(draw, min_shared: int = 0):
    """A small workload spec with an exactly normalized access mix."""
    stream = draw(st.integers(min_value=0, max_value=16 - min_shared))
    reuse = draw(st.integers(min_value=0, max_value=16 - min_shared - stream))
    halo = draw(
        st.integers(min_value=0, max_value=16 - min_shared - stream - reuse)
    )
    shared = 16 - stream - reuse - halo
    return dataclasses.replace(
        shrunken_spec("Stream", total_ctas=16, kernels=1),
        accesses_per_segment=draw(accesses),
        frac_stream=stream / 16,
        frac_reuse=reuse / 16,
        frac_halo=halo / 16,
        frac_shared=shared / 16,
        store_fraction=draw(st.sampled_from([0.0, 0.25, 0.5])),
    )


class TestNonNegativity:
    @settings(max_examples=60, deadline=None)
    @given(spec=specs(), num_gpms=gpm_counts)
    def test_predictions_finite_and_nonnegative(self, spec, num_gpms):
        prediction = RooflinePredictor().predict(
            spec, table_iii_config(num_gpms)
        )
        assert math.isfinite(prediction.delay_s) and prediction.delay_s > 0.0
        assert math.isfinite(prediction.energy_j) and prediction.energy_j > 0.0
        assert prediction.edp > 0.0 and prediction.ed2p > 0.0
        assert prediction.mean_power_w > 0.0
        counters = prediction.counters
        assert counters.l2_l1_txns >= 0
        assert counters.dram_l2_txns >= 0
        assert counters.inter_gpm_byte_hops >= 0
        assert counters.sm_idle_cycles >= 0.0


class TestMonotonicity:
    @settings(max_examples=40, deadline=None)
    @given(spec=specs(), num_gpms=gpm_counts, extra=st.integers(1, 8))
    def test_delay_monotone_in_memory_intensity(self, spec, num_gpms, extra):
        """More accesses per segment can only slow the prediction down."""
        config = table_iii_config(num_gpms)
        predictor = RooflinePredictor()
        lighter = predictor.predict(spec, config)
        heavier = predictor.predict(
            dataclasses.replace(
                spec, accesses_per_segment=spec.accesses_per_segment + extra
            ),
            config,
        )
        assert heavier.delay_s >= lighter.delay_s
        assert heavier.energy_j >= lighter.energy_j

    @settings(max_examples=40, deadline=None)
    @given(
        spec=specs(min_shared=0),
        num_gpms=st.sampled_from([2, 4]),
        shift=st.integers(min_value=1, max_value=16),
    )
    def test_remote_traffic_monotone_in_shared_fraction(
        self, spec, num_gpms, shift
    ):
        """Shifting mix from local streaming to shared data adds traffic."""
        stream_16ths = round(spec.frac_stream * 16)
        moved = min(shift, stream_16ths)
        if moved == 0:
            return
        shifted = dataclasses.replace(
            spec,
            frac_stream=(stream_16ths - moved) / 16,
            frac_shared=(round(spec.frac_shared * 16) + moved) / 16,
        )
        config = table_iii_config(num_gpms)
        predictor = RooflinePredictor()
        local = predictor.predict(spec, config)
        remote = predictor.predict(shifted, config)
        assert (
            remote.counters.inter_gpm_byte_hops
            >= local.counters.inter_gpm_byte_hops
        )


class TestScreenContract:
    @settings(max_examples=25, deadline=None)
    @given(spec=specs(), num_gpms=gpm_counts, guard=st.integers(0, 3))
    def test_k_at_grid_size_selects_everything(self, spec, num_gpms, guard):
        """With top_k >= grid the screen is exhaustive: nothing is skipped."""
        grid = K40_VF_CURVE.points[:5]
        chosen, disposition = screen_operating_points(
            RooflinePredictor(),
            spec,
            table_iii_config(num_gpms),
            grid,
            top_k=len(grid),
            guard=guard,
        )
        assert chosen == grid  # grid order, all points
        assert disposition.simulated_points == disposition.scored_points == len(grid)

    @settings(max_examples=25, deadline=None)
    @given(spec=specs(), num_gpms=gpm_counts)
    def test_entries_ranked_best_first_with_shared_tie_break(
        self, spec, num_gpms
    ):
        grid = K40_VF_CURVE.points[:6]
        _, disposition = screen_operating_points(
            RooflinePredictor(),
            spec,
            table_iii_config(num_gpms),
            grid,
            top_k=2,
            guard=1,
        )
        ranking = [
            (entry.predicted_score, entry.frequency_hz, entry.label)
            for entry in disposition.entries
        ]
        assert ranking == sorted(ranking)
        # The simulated set is exactly the ranked prefix.
        assert [entry.simulated for entry in disposition.entries] == (
            [True] * 3 + [False] * 3
        )
