"""Inter-GPM link compression (a Section V-E discussion item, made concrete).

The paper's discussion argues that data-compression techniques proposed for
on-chip traffic "need to be re-applied ... among GPU modules".  This module
implements that: a compression stage in front of the inter-GPM network that
shrinks payloads before they reserve link capacity.

Compression is modeled at the macro level the rest of the library works at:

* a *compression ratio* per traffic class (request headers are incompressible
  metadata; data payloads compress by the configured factor);
* a per-byte (de)compression energy cost, charged on the *uncompressed*
  bytes at both endpoints — compression is not free, and whether it pays is
  exactly the bandwidth-vs-energy trade the paper's Section V-C analyzes for
  links themselves;
* latency overhead per message for the compression pipeline.

The ablation experiment (:mod:`repro.experiments.compression_study`) sweeps
the ratio on the bandwidth-starved 32-GPM on-board design, where every byte
removed from the ring is worth far more than the joules spent removing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.interconnect.link import Link
from repro.interconnect.topology import Route, Topology


@dataclass(frozen=True)
class CompressionConfig:
    """Link-compression parameters."""

    #: Uncompressed/compressed size for data payloads (1.0 = off).
    data_ratio: float = 1.0
    #: Energy to compress + decompress one uncompressed byte (pJ/byte).
    codec_pj_per_byte: float = 2.0
    #: Added latency per compressed message (cycles).
    codec_latency_cycles: float = 8.0
    #: Payloads at or below this size skip compression (headers, requests).
    min_payload_bytes: int = 64

    def __post_init__(self) -> None:
        if self.data_ratio < 1.0:
            raise ConfigError(
                f"compression ratio must be >= 1.0, got {self.data_ratio}"
            )
        if self.codec_pj_per_byte < 0:
            raise ConfigError("codec energy must be non-negative")
        if self.codec_latency_cycles < 0:
            raise ConfigError("codec latency must be non-negative")
        if self.min_payload_bytes < 0:
            raise ConfigError("min_payload_bytes must be non-negative")

    @property
    def enabled(self) -> bool:
        return self.data_ratio > 1.0


class CompressedTopology(Topology):
    """Wraps any topology with a payload-compression stage.

    Wire bytes shrink by the configured ratio (so links serialize and charge
    energy for less data), while the codec's own energy is accounted per
    *uncompressed* byte in :attr:`codec_bytes` for the energy model.
    """

    def __init__(self, inner: Topology, config: CompressionConfig):
        # Deliberately does NOT call super().__init__: this class delegates
        # state to `inner` and only overrides the transfer path.
        self.inner = inner
        self.config = config
        self.num_gpms = inner.num_gpms
        self.routes = inner.routes
        self.codec_bytes = 0
        self.compressed_messages = 0

    @property
    def traffic(self):
        return self.inner.traffic

    def route(self, src: int, dst: int) -> tuple[list[Link], int]:
        """Delegates routing to the wrapped topology."""
        return self.inner.route(src, dst)

    def links(self) -> list[Link]:
        """The wrapped topology's links."""
        return self.inner.links()

    def transfer_time(
        self, route: Route, nbytes: int, earliest: float | None = None
    ) -> float:
        """Compress eligible payloads, then transfer through the inner network."""
        config = self.config
        if not config.enabled or nbytes <= config.min_payload_bytes:
            return self.inner.transfer_time(route, nbytes, earliest)
        wire_bytes = max(1, round(nbytes / config.data_ratio))
        self.codec_bytes += nbytes
        self.compressed_messages += 1
        completion = self.inner.transfer_time(route, wire_bytes, earliest)
        return completion + config.codec_latency_cycles

    def max_utilization(self, elapsed: float) -> float:
        """Bottleneck-link utilization of the wrapped topology."""
        return self.inner.max_utilization(elapsed)
