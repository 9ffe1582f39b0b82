"""Additional Machine-facade edge cases and timing-visible behaviours."""

import pytest

from repro import Machine, MachineConfig, relocate
from repro.cache.hierarchy import HierarchyConfig


@pytest.fixture
def m():
    return Machine()


class TestPrefetchPath:
    def test_prefetch_warms_the_cache(self, m):
        addr = m.malloc(256)
        m.prefetch(addr, lines=2)
        m.execute(2000)  # let the fills complete
        before = m.stats().load_misses
        m.load(addr)
        m.load(addr + m.config.hierarchy.line_size)
        assert m.stats().load_misses == before

    def test_prefetch_costs_one_instruction(self, m):
        addr = m.malloc(64)
        before = m.stats().instructions
        m.prefetch(addr, lines=8)
        assert m.stats().instructions == before + 1

    def test_prefetch_never_stalls(self, m):
        addr = m.malloc(1 << 12)
        m.execute(4)
        before = m.cycles
        m.prefetch(addr + 2048, lines=4)
        # Only the issue slot is charged, never the fill latency.
        assert m.cycles - before < 2.0

    def test_prefetch_block_clamped(self, m):
        addr = m.malloc(1 << 12)
        m.prefetch(addr, lines=999)
        assert (
            m.prefetcher.stats.lines_requested
            == m.config.max_prefetch_block
        )


class TestMallocEdges:
    def test_malloc_custom_alignment(self, m):
        addr = m.malloc(64, align=256)
        assert addr % 256 == 0

    def test_free_interior_pointer_rejected(self, m):
        addr = m.malloc(64)
        from repro.core.errors import DoubleFreeError
        with pytest.raises(DoubleFreeError):
            m.free(addr + 8)

    def test_malloc_cost_scales_with_size(self, m):
        before = m.stats().instructions
        m.malloc(64)
        small = m.stats().instructions - before
        before = m.stats().instructions
        m.malloc(1 << 14)
        large = m.stats().instructions - before
        assert large > small


class TestForwardedTiming:
    def test_each_hop_adds_latency(self, m):
        """A two-hop chain costs more than a one-hop chain to dereference."""
        pool = m.create_pool(1 << 14)

        def chain_cost(generations):
            obj = m.malloc(8)
            m.store(obj, 1)
            for _ in range(generations):
                relocate(m, obj, pool.allocate(8), 1)
            # Warm everything, then time a dereference.
            m.load(obj)
            start = m.cycles
            m.load(obj)
            return m.cycles - start

        assert chain_cost(2) > chain_cost(1) > chain_cost(0)

    def test_forwarded_store_latency_tracked(self, m):
        obj = m.malloc(8)
        relocate(m, obj, m.create_pool(4096).allocate(8), 1)
        m.store(obj, 9)
        stats = m.stats()
        assert stats.stores.forwarded == 1
        assert stats.stores.forwarding_cycles > 0

    def test_hop_limit_respected_through_machine(self):
        machine = Machine(MachineConfig(hop_limit=2))
        pool = machine.create_pool(1 << 14)
        obj = machine.malloc(8)
        machine.store(obj, 3)
        for _ in range(5):  # five generations > limit of 2
            relocate(machine, obj, pool.allocate(8), 1)
        assert machine.load(obj) == 3  # false alarms resolved, not fatal
        assert machine.forwarding.stats.cycle_check_invocations >= 1


class TestForwardingCycles:
    """A cycle is counted alike whichever walk finds it."""

    @staticmethod
    def _two_word_cycle():
        machine = Machine(MachineConfig(heap_size=64 << 10, pool_region_size=64 << 10))
        a = machine.malloc(16)
        b = machine.malloc(16)
        machine.memory.write_word_tagged(a, b, 1)
        machine.memory.write_word_tagged(b, a, 1)
        return machine, a

    @pytest.mark.parametrize("op", ["load", "free"])
    def test_cycle_is_counted(self, op):
        from repro.core.errors import ForwardingCycleError

        machine, a = self._two_word_cycle()
        with pytest.raises(ForwardingCycleError):
            getattr(machine, op)(a)
        assert machine.forwarding.stats.cycles_detected == 1
        assert machine.forwarding.stats.cycle_check_invocations == 1
        assert machine.stats().cycle_checks == 1


class TestStatsSnapshot:
    def test_snapshot_is_decoupled_from_live_state(self, m):
        addr = m.malloc(8)
        m.store(addr, 1)
        snap = m.stats()
        loads_at_snap = snap.loads.count
        m.load(addr)
        assert snap.loads.count == loads_at_snap
        assert m.stats().loads.count == loads_at_snap + 1

    def test_pool_bytes_aggregate_across_pools(self, m):
        a = m.create_pool(4096, "a")
        b = m.create_pool(4096, "b")
        a.allocate(128)
        b.allocate(64)
        assert m.stats().relocation.pool_bytes == 192


class TestGeometryConfig:
    def test_line_size_changes_take_effect(self):
        machine = Machine(MachineConfig(hierarchy=HierarchyConfig(line_size=256)))
        assert machine.hierarchy.l1.line_size == 256
        # L2 line never shrinks below L1's.
        assert machine.hierarchy.l2.line_size == 256

    def test_default_l2_line_is_128(self):
        machine = Machine()
        assert machine.hierarchy.l2.line_size == 128
        assert machine.hierarchy.l1.line_size == 32
