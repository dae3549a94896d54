"""Deterministic access-pattern primitives for the workload generators.

All randomness is derived from SplitMix64 over structured keys, so a warp's
address stream is a pure function of (workload seed, kernel, CTA, warp,
position) — identical across runs, machines, and GPM counts.  That last
property matters: strong scaling must present *the same* memory behaviour to
every configuration, or speedups would be generator artifacts.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One SplitMix64 step: a high-quality 64-bit mix of the input."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_key(*parts: int) -> int:
    """Fold several integers into one 64-bit key (order-sensitive)."""
    state = 0x243F6A8885A308D3
    for part in parts:
        state = splitmix64((state ^ (part & _MASK64)) & _MASK64)
    return state


def splitmix64_array(states: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 over a uint64 array (wrapping arithmetic)."""
    z = (states + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)).astype(
        np.uint64
    )
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)).astype(
        np.uint64
    )
    return z ^ (z >> np.uint64(31))
