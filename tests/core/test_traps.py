"""Tests for user-level forwarding traps: profiler and pointer fixup."""

import pytest

from repro import (
    ChainedTrapHandler,
    ForwardingProfiler,
    Machine,
    PointerFixupTrap,
    relocate,
)


@pytest.fixture
def m():
    return Machine()


def relocated_object(m):
    old = m.malloc(16)
    new = m.create_pool(4096).allocate(16)
    m.store(old, 5)
    relocate(m, old, new, 2)
    return old, new


class TestForwardingProfiler:
    def test_records_events_and_hops(self, m):
        old, _ = relocated_object(m)
        profiler = ForwardingProfiler()
        m.set_trap_handler(profiler)
        m.load(old)
        m.load(old + 8)
        m.store(old, 9)
        profile = profiler.profile
        assert profile.events == 3
        assert profile.total_hops == 3
        assert profile.write_events == 1

    def test_regions_bucketize_initial_addresses(self, m):
        old, _ = relocated_object(m)
        profiler = ForwardingProfiler(granularity=4096)
        m.set_trap_handler(profiler)
        m.load(old)
        ((region, count),) = profiler.profile.top_regions(1)
        assert region == old >> 12
        assert count == 1

    def test_granularity_validation(self):
        with pytest.raises(ValueError):
            ForwardingProfiler(granularity=1000)

    def test_silent_without_forwarding(self, m):
        profiler = ForwardingProfiler()
        m.set_trap_handler(profiler)
        addr = m.malloc(8)
        m.store(addr, 1)
        m.load(addr)
        assert profiler.profile.events == 0


class TestPointerFixupTrap:
    def test_fixup_eliminates_future_forwarding(self, m):
        """The paper's on-the-fly optimization: update the stray pointer at
        first trap so later dereferences go straight to the new home."""
        old, new = relocated_object(m)
        # The application's stray pointer lives in simulated memory.
        pointer_cell = m.malloc(8)
        m.store(pointer_cell, old)

        def fixup(machine, event):
            if machine.load(pointer_cell) == event.initial_address:
                machine.store(pointer_cell, event.final_address)
                return True
            return False

        trap = PointerFixupTrap(fixup)
        m.set_trap_handler(trap)

        # First dereference: forwarded, then fixed.
        assert m.load(m.load(pointer_cell)) == 5
        assert trap.invocations == 1
        assert trap.fixes == 1

        forwarded_before = m.stats().loads.forwarded
        # Second dereference: pointer now points at the new location.
        assert m.load(m.load(pointer_cell)) == 5
        assert m.stats().loads.forwarded == forwarded_before

    def test_unsuccessful_fixup_counted(self, m):
        old, _ = relocated_object(m)
        trap = PointerFixupTrap(lambda machine, event: False)
        m.set_trap_handler(trap)
        m.load(old)
        assert trap.invocations == 1
        assert trap.fixes == 0


class TestChainedTrapHandler:
    def test_both_handlers_run(self, m):
        old, new = relocated_object(m)
        profiler = ForwardingProfiler()
        seen = []
        chained = ChainedTrapHandler(profiler, lambda mm, e: seen.append(e.hops))
        m.set_trap_handler(chained)
        m.load(old)
        assert profiler.profile.events == 1
        assert seen == [1]


class TestTrapCost:
    def test_trap_handler_adds_cycles(self, m):
        old, _ = relocated_object(m)
        # Baseline: forwarded load without a handler.
        m.load(old)
        baseline = m.cycles
        machine2 = Machine()
        old2, _ = relocated_object(machine2)
        machine2.set_trap_handler(lambda mm, e: None)
        machine2.load(old2)
        assert machine2.cycles > baseline * 0.99  # handler path not cheaper


class TestInstall:
    def test_handler_changes_only_through_set_trap_handler(self, m):
        """Installing a handler is a costed entry, so the attribute is
        read-only: an assignment would skip the user-trap stall."""
        handler = ForwardingProfiler()
        m.set_trap_handler(handler)
        assert m.trap_handler is handler
        with pytest.raises(AttributeError):
            m.trap_handler = None
        m.set_trap_handler(None)
        assert m.trap_handler is None
