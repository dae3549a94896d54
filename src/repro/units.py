"""Units, physical constants, and small numeric helpers shared across the package.

Every module in :mod:`repro` agrees on the following conventions:

* **time** inside the performance simulator is measured in *core clock cycles*
  (floats are allowed — bandwidth servers produce fractional completion times).
  Wall-clock seconds are obtained with :func:`cycles_to_seconds`.
* **energy** is always expressed in *joules*; per-event costs in the tables are
  stored in nanojoules or picojoules-per-bit and converted here, in one place.
* **bandwidth** configuration values are given in GB/s (decimal, 1e9 bytes) and
  converted to bytes/cycle for the simulator with :func:`gbps_to_bytes_per_cycle`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

#: Core clock of the modeled GPM, matching the NVIDIA Tesla K40 boost clock.
DEFAULT_CLOCK_HZ: float = 745.0e6

#: Decimal giga, used for GB/s bandwidth figures (as in vendor datasheets).
GIGA: float = 1.0e9

#: Binary sizes used for cache and memory capacities.
KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Warp width of the modeled architecture.
WARP_SIZE: int = 32

#: Cache line size (bytes).  A fully coalesced warp access covers one line.
CACHE_LINE_BYTES: int = 128

#: Sector size (bytes).  L2<->L1 and DRAM<->L2 transactions move sectors.
SECTOR_BYTES: int = 32

#: Sectors per cache line.
SECTORS_PER_LINE: int = CACHE_LINE_BYTES // SECTOR_BYTES

#: Page size used by the first-touch placement policy (bytes).
PAGE_BYTES: int = 64 * KIB

NANO: float = 1.0e-9
PICO: float = 1.0e-12
MILLI: float = 1.0e-3


def nj(value_nanojoules: float) -> float:
    """Convert nanojoules to joules."""
    return value_nanojoules * NANO


def pj_per_bit_to_joules_per_byte(pj_per_bit: float) -> float:
    """Convert an energy-per-bit figure (pJ/bit) to joules per byte."""
    return pj_per_bit * PICO * 8.0


def cycles_to_seconds(cycles: float, clock_hz: float = DEFAULT_CLOCK_HZ) -> float:
    """Convert a cycle count into wall-clock seconds."""
    if clock_hz <= 0:
        raise ValueError(f"clock_hz must be positive, got {clock_hz!r}")
    return cycles / clock_hz


def gbps_to_bytes_per_cycle(
    gigabytes_per_second: float, clock_hz: float = DEFAULT_CLOCK_HZ
) -> float:
    """Convert a GB/s bandwidth figure into bytes per core clock cycle."""
    if gigabytes_per_second < 0:
        raise ValueError(
            f"bandwidth must be non-negative, got {gigabytes_per_second!r}"
        )
    return gigabytes_per_second * GIGA / clock_hz


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    Raises :class:`ValueError` on an empty iterable or non-positive entries;
    a silent 0/NaN here would corrupt every downstream summary row.
    """
    acc = 0.0
    count = 0
    for value in values:
        if value <= 0:
            raise ValueError(f"geomean requires positive values, got {value!r}")
        acc += math.log(value)
        count += 1
    if count == 0:
        raise ValueError("geomean of an empty sequence is undefined")
    return math.exp(acc / count)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on an empty iterable."""
    total = 0.0
    count = 0
    for value in values:
        total += value
        count += 1
    if count == 0:
        raise ValueError("mean of an empty sequence is undefined")
    return total / count


def percent_change(new: float, old: float) -> float:
    """Relative change of ``new`` vs ``old`` in percent (positive = increase)."""
    if old == 0:
        raise ValueError("percent_change is undefined for a zero baseline")
    return (new - old) / old * 100.0


def is_power_of_two(value: int) -> bool:
    """True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0
