"""Roofline fast path: screened-vs-exhaustive simulation cost and agreement.

The acceptance bar in numbers: on a dense V/f x GPM grid, screening with
the closed-form predictor and simulating only the top-k+guard points per
curve cuts the simulated pairs by >= 5x while reporting the same best
operating point.  Both arms run with ``use_cache=False``, so every pair a
search asks for is simulated, and each arm's runner counts the pairs it
simulated as cache misses.  The cost is counted in simulated pairs, not
seconds: a wall-clock ratio measured inside the test suite moves with
host load, so it appears only in the failure message.

The grid is a 20-point ladder interpolated over the K40 curve span — the
regime screening exists for: dense enough that exhaustive simulation is
expensive and neighbouring points are nearly tied, so only a calibrated
analytic model can afford to rank all of them.
"""

import time

from repro.dvfs.operating_point import K40_VF_CURVE
from repro.dvfs.sweetspot import SweetSpotSearch
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.gpu.config import table_iii_config
from repro.workloads.suite import shrunken_spec

#: 20 evenly spaced frequencies across the K40 span, voltages interpolated
#: off the table.  Table frequencies keep their table identity.
_LO = K40_VF_CURVE.min_frequency_hz
_HI = K40_VF_CURVE.max_frequency_hz
_N_POINTS = 20
GRID_POINTS = tuple(
    K40_VF_CURVE.point_at(
        _LO + i * (_HI - _LO) / (_N_POINTS - 1),
        name=f"dense-{round((_LO + i * (_HI - _LO) / (_N_POINTS - 1)) / 1e6)}",
    )
    for i in range(_N_POINTS)
)
GPM_COUNTS = (1, 2, 4)
WORKLOADS = ("LuleshUns", "Nekbone-12")
TOP_K = 1
GUARD = 1


def _runner() -> SweepRunner:
    # No cache on either arm: the point is simulated wall-clock, and the two
    # arms share cache keys by design so a shared cache would zero the
    # second arm's cost.
    return SweepRunner(SweepSettings(use_cache=False, processes=1))


def _counted_search(specs, configs, **screen):
    """Run one search; return its spots, the pairs it simulated and its
    wall time."""
    runner = _runner()
    start = time.perf_counter()
    spots = SweetSpotSearch(runner, points=GRID_POINTS, **screen).search(
        specs, configs
    )
    return spots, runner.cache_misses, time.perf_counter() - start


def test_roofline_screen_speedup():
    specs = [
        shrunken_spec(name, total_ctas=48, kernels=1) for name in WORKLOADS
    ]
    configs = [table_iii_config(n) for n in GPM_COUNTS]

    exhaustive, exhaustive_pairs, exhaustive_s = _counted_search(specs, configs)
    screened, screened_pairs, screened_s = _counted_search(
        specs, configs, screen="roofline", top_k=TOP_K, guard=GUARD
    )

    # Same winner on every curve — the screen is a filter, not a substitute.
    exact_best = {
        (spot.config_label, spot.workload): spot.point.label()
        for spot in exhaustive
    }
    for spot in screened:
        assert (
            spot.point.label() == exact_best[(spot.config_label, spot.workload)]
        )
        assert spot.disposition.simulated_points == TOP_K + GUARD

    # The acceptance bar: screening simulates >= 5x fewer pairs on a dense
    # grid: every point of every curve against top_k + guard per curve.
    curves = len(specs) * len(configs)
    assert exhaustive_pairs == curves * _N_POINTS
    assert screened_pairs == curves * (TOP_K + GUARD)
    saving = exhaustive_pairs / screened_pairs
    assert saving >= 5.0, (
        f"screening simulates only {saving:.1f}x fewer pairs"
        f" ({exhaustive_pairs} vs {screened_pairs});"
        f" wall time {exhaustive_s / screened_s:.1f}x less"
    )
