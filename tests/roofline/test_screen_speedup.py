"""Roofline fast path: screened-vs-exhaustive wall clock and agreement.

The acceptance bar in numbers: on a dense V/f x GPM grid, screening with
the closed-form predictor and simulating only the top-k+guard points per
curve cuts sweep wall-clock by >= 5x while reporting the same best
operating point.  Both arms run with ``use_cache=False`` so the comparison
measures engine time, not cache replays.

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


def _timed_search(specs, configs, **screen):
    start = time.perf_counter()
    spots = SweetSpotSearch(_runner(), points=GRID_POINTS, **screen).search(
        specs, configs
    )
    return spots, time.perf_counter() - start


def test_roofline_screen_speedup():
    specs = [
        shrunken_spec(name, total_ctas=48, kernels=1) for name in WORKLOADS
    ]
    configs = [table_iii_config(n) for n in GPM_COUNTS]

    exhaustive, exhaustive_s = _timed_search(specs, configs)
    screened, screened_s = _timed_search(
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

    # The acceptance bar: screening pays for itself >= 5x on a dense grid.
    speedup = exhaustive_s / screened_s
    assert speedup >= 5.0, f"screened speedup only {speedup:.1f}x"
