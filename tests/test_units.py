"""Unit-conversion and numeric-helper tests."""

import math

import pytest

from repro import units


class TestConversions:
    def test_cycles_to_seconds_uses_clock(self):
        assert units.cycles_to_seconds(1e9, clock_hz=1e9) == pytest.approx(1.0)

    def test_bad_clock_rejected(self):
        with pytest.raises(ValueError):
            units.cycles_to_seconds(1.0, clock_hz=0.0)
        with pytest.raises(ValueError):
            units.cycles_to_seconds(1.0, clock_hz=-1.0)

    def test_gbps_to_bytes_per_cycle(self):
        # 256 GB/s at 745 MHz is ~343.6 bytes per cycle.
        bpc = units.gbps_to_bytes_per_cycle(256.0)
        assert bpc == pytest.approx(256e9 / 745e6)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            units.gbps_to_bytes_per_cycle(-1.0)

    def test_energy_conversions(self):
        assert units.nj(5.45) == pytest.approx(5.45e-9)

    def test_pj_per_bit_to_joules_per_byte(self):
        # 10 pJ/bit over one byte = 80 pJ.
        assert units.pj_per_bit_to_joules_per_byte(10.0) == pytest.approx(80e-12)

    def test_table_1b_transaction_sizes_consistent(self):
        # EPT / (pJ/bit) recovers the transaction size claimed in DESIGN.md.
        shared_bits = 5.45e-9 / (5.32e-12)
        assert round(shared_bits) == 1024  # 128 B
        dram_bits = 7.82e-9 / (30.55e-12)
        assert round(dram_bits) == 256  # 32 B


class TestStatistics:
    def test_geomean_simple(self):
        assert units.geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geomean_single(self):
        assert units.geomean([7.0]) == pytest.approx(7.0)

    def test_geomean_rejects_empty(self):
        with pytest.raises(ValueError):
            units.geomean([])

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            units.geomean([-3.0])

    def test_mean(self):
        assert units.mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            units.mean([])

    def test_percent_change(self):
        assert units.percent_change(3.0, 2.0) == pytest.approx(50.0)
        assert units.percent_change(1.0, 2.0) == pytest.approx(-50.0)

    def test_percent_change_zero_baseline(self):
        with pytest.raises(ValueError):
            units.percent_change(1.0, 0.0)


class TestIntegerHelpers:
    def test_is_power_of_two(self):
        assert units.is_power_of_two(1)
        assert units.is_power_of_two(4096)
        assert not units.is_power_of_two(0)
        assert not units.is_power_of_two(-2)
        assert not units.is_power_of_two(96)

    def test_sector_line_relationship(self):
        assert units.CACHE_LINE_BYTES == units.SECTORS_PER_LINE * units.SECTOR_BYTES
        assert math.log2(units.PAGE_BYTES).is_integer()
