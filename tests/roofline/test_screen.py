"""Screened sweeps: bit-identity, winner agreement, and provenance.

The screening contract is that it NEVER changes simulated results — only
which grid points get simulated.  These tests pin that down end to end:
screened sweeps hit the exact sweep's cache entries (same keys, same
bytes), a screen wide enough to cover the grid reports the same winner as
the exhaustive search, and the results version the keys hash under
stays pinned.
"""

import pytest

from repro.dvfs.operating_point import K40_VF_CURVE
from repro.dvfs.sweetspot import SweetSpotSearch, with_operating_point
from repro.errors import ExperimentError
from repro.experiments.runner import SweepRunner, SweepSettings
from repro.gpu.config import table_iii_config
from repro.service.keys import RESULTS_VERSION, cache_key
from repro.workloads.suite import shrunken_spec

POINTS = tuple(K40_VF_CURVE.point_at(mhz * 1e6) for mhz in (324, 562, 875))


def make_runner(tmp_path):
    return SweepRunner(
        SweepSettings(cache_dir=tmp_path / "sweeps", processes=1)
    )


@pytest.fixture(scope="module")
def spec():
    return shrunken_spec("Stream", total_ctas=16, kernels=1)


def test_results_version_pinned():
    # Screening must not disturb result identity: the cache keys screened
    # sweeps share with exact sweeps hash under this version.  Bump it only
    # for changes that really invalidate every cached record.
    assert RESULTS_VERSION == 4


class TestSweetSpotScreening:
    def test_full_width_screen_matches_exact_winner(self, spec, tmp_path):
        config = table_iii_config(2)
        exact = SweetSpotSearch(
            make_runner(tmp_path), points=POINTS
        ).search_one(spec, config)
        screened = SweetSpotSearch(
            make_runner(tmp_path),
            points=POINTS,
            screen="roofline",
            top_k=len(POINTS),
            guard=0,
        ).search_one(spec, config)
        assert screened.point == exact.point
        assert screened.best.delay_s == exact.best.delay_s
        assert screened.best.energy_j == exact.best.energy_j
        assert screened.disposition is not None
        assert screened.disposition.simulated_points == len(POINTS)
        assert exact.disposition is None

    def test_screened_sweep_reuses_exact_cache_entries(self, spec, tmp_path):
        """Same keys, same bytes: the screen changes *which*, never *what*."""
        config = table_iii_config(2)
        runner = make_runner(tmp_path)
        SweetSpotSearch(runner, points=POINTS).search_one(spec, config)
        cache_dir = runner.settings.cache_dir
        before = {
            path.name: path.read_bytes()
            for path in cache_dir.glob("*.json")
            if not path.name.endswith(".manifest.json")
        }
        assert len(before) == len(POINTS)

        # A screened search against the same cache must simulate nothing:
        # every selected point resolves to an already-cached key.
        screened = SweetSpotSearch(
            SweepRunner(SweepSettings(cache_dir=cache_dir, processes=1)),
            points=POINTS,
            screen="roofline",
            top_k=1,
            guard=1,
        ).search_one(spec, config)
        after = {
            path.name: path.read_bytes()
            for path in cache_dir.glob("*.json")
            if not path.name.endswith(".manifest.json")
        }
        assert after == before
        assert len(screened.samples) == 2  # top_k + guard simulated points
        expected_keys = {
            cache_key(spec, with_operating_point(config, point))
            for point in POINTS
        }
        assert {name[: -len(".json")] for name in before} == expected_keys

    def test_screened_best_within_guarded_top_k(self, spec, tmp_path):
        """The headline acceptance property on a small grid: the screened
        search (top-k plus guard) finds the exhaustive winner."""
        config = table_iii_config(2)
        exact = SweetSpotSearch(
            make_runner(tmp_path), points=POINTS
        ).search_one(spec, config)
        screened = SweetSpotSearch(
            SweepRunner(
                SweepSettings(
                    cache_dir=tmp_path / "sweeps", processes=1
                )
            ),
            points=POINTS,
            screen="roofline",
            top_k=1,
            guard=1,
        ).search_one(spec, config)
        assert screened.point == exact.point

    def test_bad_screen_knobs_rejected(self):
        runner = SweepRunner(SweepSettings(use_cache=False))
        with pytest.raises(ExperimentError):
            SweetSpotSearch(runner, screen="oracle")
        with pytest.raises(ExperimentError):
            SweetSpotSearch(runner, screen="roofline", top_k=0)
        with pytest.raises(ExperimentError):
            SweetSpotSearch(runner, screen="roofline", guard=-1)
