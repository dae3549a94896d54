"""Distributed thread-block (CTA) scheduling across GPMs.

Following the multi-module GPU proposals the paper builds on, CTAs are
partitioned across GPMs in *contiguous chunks*: CTA ids [0, C) are split into
``num_gpms`` consecutive ranges.  Adjacent CTAs of real kernels touch adjacent
data, so contiguous assignment plus first-touch page placement localizes the
bulk of each GPM's working set in its own DRAM stack — the locality capture
the paper assumes (Section V-A1).

A round-robin partitioner is included as the locality-oblivious baseline for
ablation studies: it interleaves CTA ids across GPMs, destroying the
correlation between CTA adjacency and GPM residency.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigError


class CtaPartitioning(enum.Enum):
    """How the grid is split across modules."""

    CONTIGUOUS = "contiguous"
    ROUND_ROBIN = "round_robin"


def partition_ctas(
    num_ctas: int,
    num_gpms: int,
    scheme: CtaPartitioning = CtaPartitioning.CONTIGUOUS,
) -> list[list[int]]:
    """Split CTA ids [0, num_ctas) into one work list per GPM.

    Contiguous partitioning assigns each GPM a consecutive range; when the
    grid does not divide evenly, the first ``num_ctas % num_gpms`` GPMs take
    one extra CTA, so sizes differ by at most one.
    """
    if num_ctas <= 0:
        raise ConfigError(f"num_ctas must be positive, got {num_ctas}")
    if num_gpms <= 0:
        raise ConfigError(f"num_gpms must be positive, got {num_gpms}")

    if scheme is CtaPartitioning.ROUND_ROBIN:
        partitions: list[list[int]] = [[] for _ in range(num_gpms)]
        for cta in range(num_ctas):
            partitions[cta % num_gpms].append(cta)
        return partitions

    base = num_ctas // num_gpms
    extra = num_ctas % num_gpms
    partitions = []
    start = 0
    for gpm in range(num_gpms):
        size = base + (1 if gpm < extra else 0)
        partitions.append(list(range(start, start + size)))
        start += size
    return partitions

