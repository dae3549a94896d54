"""Page placement policies."""

from collections import Counter

import pytest

from repro.errors import ConfigError
from repro.memory.pages import PagePlacement, PlacementPolicy
from repro.units import PAGE_BYTES


class TestFirstTouch:
    def test_first_toucher_becomes_home(self):
        placement = PagePlacement(num_gpms=4)
        assert placement.home(0x1000, toucher_gpm=2) == 2
        # second toucher does not move the page
        assert placement.home(0x1000, toucher_gpm=3) == 2

    def test_same_page_same_home(self):
        placement = PagePlacement(num_gpms=4)
        placement.home(0, toucher_gpm=1)
        assert placement.home(PAGE_BYTES - 1, toucher_gpm=3) == 1

    def test_different_pages_independent(self):
        placement = PagePlacement(num_gpms=4)
        placement.home(0, toucher_gpm=1)
        assert placement.home(PAGE_BYTES, toucher_gpm=3) == 3

    def test_toucher_bounds_checked(self):
        placement = PagePlacement(num_gpms=2)
        with pytest.raises(ConfigError):
            placement.home(0, toucher_gpm=2)
        with pytest.raises(ConfigError):
            placement.home(0, toucher_gpm=-1)


class TestStriped:
    def test_pages_stripe_by_number(self):
        placement = PagePlacement(num_gpms=4, policy=PlacementPolicy.STRIPED)
        for page in range(8):
            home = placement.home(page * PAGE_BYTES, toucher_gpm=0)
            assert home == page % 4

    def test_distribution_balanced(self):
        placement = PagePlacement(num_gpms=4, policy=PlacementPolicy.STRIPED)
        homes = Counter(
            placement.home(page * PAGE_BYTES, toucher_gpm=0) for page in range(64)
        )
        assert homes == {0: 16, 1: 16, 2: 16, 3: 16}


class TestInterleavedRegion:
    def test_shared_region_stripes_even_under_first_touch(self):
        threshold = 16 * PAGE_BYTES
        placement = PagePlacement(num_gpms=4, interleaved_from=threshold)
        # Below the threshold: first touch.
        assert placement.home(0, toucher_gpm=3) == 3
        # At/above the threshold: striped regardless of toucher.
        for page in range(16, 24):
            home = placement.home(page * PAGE_BYTES, toucher_gpm=0)
            assert home == page % 4

    def test_threshold_can_be_set_later(self):
        placement = PagePlacement(num_gpms=2)
        placement.set_interleaved_from(4 * PAGE_BYTES)
        assert placement.home(5 * PAGE_BYTES, toucher_gpm=0) == 5 % 2
        placement.set_interleaved_from(None)
        assert placement.home(7 * PAGE_BYTES, toucher_gpm=0) == 0


class TestValidation:
    def test_bad_gpm_count(self):
        with pytest.raises(ConfigError):
            PagePlacement(num_gpms=0)

    def test_bad_page_size(self):
        with pytest.raises(ConfigError):
            PagePlacement(num_gpms=1, page_bytes=3000)

    def test_first_touch_counter(self):
        placement = PagePlacement(num_gpms=2)
        placement.home(0, toucher_gpm=0)
        placement.home(0, toucher_gpm=1)           # already mapped
        placement.home(PAGE_BYTES, toucher_gpm=1)  # new page
        assert placement.first_touches == 2
