"""Software coherence at kernel boundaries."""

from repro.memory.cache import Cache, CacheConfig
from repro.memory.coherence import SoftwareCoherence


def _l2() -> Cache:
    return Cache(CacheConfig(capacity_bytes=4096, line_bytes=128, associativity=2))


class TestKernelBoundary:
    def test_remote_lines_dropped_local_kept(self):
        protocol = SoftwareCoherence()
        l2a, l2b = _l2(), _l2()
        protocol.register_l2(0, l2a)
        protocol.register_l2(1, l2b)

        l2a.access(0x000, home=0)   # local to GPM 0
        l2a.access(0x080, home=1)   # remote
        l2b.access(0x100, home=1)   # local to GPM 1
        l2b.access(0x180, home=0)   # remote

        dropped = protocol.kernel_boundary()
        assert dropped == 2
        assert l2a.probe(0x000)
        assert not l2a.probe(0x080)
        assert l2b.probe(0x100)
        assert not l2b.probe(0x180)

    def test_boundary_counters(self):
        protocol = SoftwareCoherence()
        l2 = _l2()
        protocol.register_l2(0, l2)
        l2.access(0x000, home=1)
        protocol.kernel_boundary()
        l2.access(0x080, home=1)
        protocol.kernel_boundary()
        assert protocol.boundaries == 2
        assert protocol.lines_invalidated == 2

    def test_boundary_with_no_remote_lines_is_noop(self):
        protocol = SoftwareCoherence()
        l2 = _l2()
        protocol.register_l2(0, l2)
        l2.access(0x000, home=0)
        assert protocol.kernel_boundary() == 0
        assert l2.probe(0x000)
