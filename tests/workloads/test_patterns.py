"""Deterministic access-pattern primitives."""

import numpy as np

from repro.workloads import patterns


class TestSplitmix:
    def test_deterministic(self):
        assert patterns.splitmix64(42) == patterns.splitmix64(42)

    def test_avalanche(self):
        a = patterns.splitmix64(1)
        b = patterns.splitmix64(2)
        assert bin(a ^ b).count("1") > 16  # many bits flip

    def test_mix_key_order_sensitive(self):
        assert patterns.mix_key(1, 2) != patterns.mix_key(2, 1)

    def test_array_matches_scalar_shape(self):
        states = np.arange(16, dtype=np.uint64)
        hashed = patterns.splitmix64_array(states)
        assert hashed.shape == (16,)
        assert hashed.dtype == np.uint64
        assert len(set(hashed.tolist())) == 16

    def test_array_deterministic(self):
        states = np.arange(8, dtype=np.uint64)
        a = patterns.splitmix64_array(states)
        b = patterns.splitmix64_array(states)
        assert (a == b).all()

