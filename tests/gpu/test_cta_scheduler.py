"""Distributed CTA partitioning."""

import pytest

from repro.errors import ConfigError
from repro.gpu.cta_scheduler import CtaPartitioning, partition_ctas


class TestContiguous:
    def test_even_split(self):
        partitions = partition_ctas(8, 4)
        assert partitions == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_uneven_split_differs_by_at_most_one(self):
        partitions = partition_ctas(10, 4)
        sizes = [len(p) for p in partitions]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # contiguity preserved
        flattened = [cta for partition in partitions for cta in partition]
        assert flattened == list(range(10))

    def test_more_gpms_than_ctas(self):
        partitions = partition_ctas(2, 4)
        assert [len(p) for p in partitions] == [1, 1, 0, 0]

    def test_single_gpm_gets_everything(self):
        assert partition_ctas(5, 1) == [[0, 1, 2, 3, 4]]

    def test_adjacent_ctas_share_gpm(self):
        """The locality property first-touch depends on: CTA i and i+1 land
        on the same GPM except at partition boundaries."""
        partitions = partition_ctas(1024, 8)
        boundary_pairs = 0
        gpm_of = {}
        for gpm, ctas in enumerate(partitions):
            for cta in ctas:
                gpm_of[cta] = gpm
        for cta in range(1023):
            if gpm_of[cta] != gpm_of[cta + 1]:
                boundary_pairs += 1
        assert boundary_pairs == 7  # one per internal partition boundary


class TestRoundRobin:
    def test_interleaving(self):
        partitions = partition_ctas(8, 4, CtaPartitioning.ROUND_ROBIN)
        assert partitions == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_destroys_adjacency(self):
        partitions = partition_ctas(64, 4, CtaPartitioning.ROUND_ROBIN)
        for ctas in partitions:
            assert all(b - a == 4 for a, b in zip(ctas, ctas[1:]))


class TestValidation:
    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            partition_ctas(0, 4)
        with pytest.raises(ConfigError):
            partition_ctas(4, 0)
