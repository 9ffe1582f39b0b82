"""Unit tests for the forwarding engine (chain walking, cycles, stats)."""

import pytest

from repro.core.errors import ForwardingCycleError
from repro.core.forwarding import ForwardingEngine
from repro.core.memory import TaggedMemory


@pytest.fixture
def mem():
    return TaggedMemory(64 * 1024)


@pytest.fixture
def engine(mem):
    return ForwardingEngine(mem, hop_limit=8)


def forward(mem, old, new):
    """Make the word at ``old`` forward to ``new``."""
    mem.write_word_tagged(old, new, 1)


class TestResolve:
    def test_unforwarded_address_is_its_own_final(self, engine):
        final, hops = engine.resolve(0x100)
        assert final == 0x100
        assert hops == 0

    def test_single_hop(self, mem, engine):
        forward(mem, 0x100, 0x800)
        final, hops = engine.resolve(0x100)
        assert final == 0x800
        assert hops == 1

    def test_chain_of_hops(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        forward(mem, 0x300, 0x400)
        final, hops = engine.resolve(0x100)
        assert final == 0x400
        assert hops == 3

    def test_byte_offset_preserved_across_hops(self, mem, engine):
        """Figure 1: a 32-bit load at old+4 forwards to new+4."""
        forward(mem, 0x100, 0x800)
        final, hops = engine.resolve(0x104)
        assert final == 0x804
        assert hops == 1

    def test_mid_chain_entry_resolves_to_same_final(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        assert engine.resolve(0x200)[0] == 0x300
        assert engine.resolve(0x100)[0] == 0x300

    def test_hop_callback_sees_each_old_word(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        touched = []
        engine.resolve(0x104, touched.append)
        assert touched == [0x100, 0x200]

    def test_no_callback_on_fast_path(self, mem, engine):
        touched = []
        engine.resolve(0x100, touched.append)
        assert touched == []


class TestCycleHandling:
    def test_self_cycle_detected(self, mem, engine):
        forward(mem, 0x100, 0x100)
        with pytest.raises(ForwardingCycleError):
            engine.resolve(0x100)
        assert engine.stats.cycles_detected == 1

    def test_two_node_cycle_detected(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x100)
        with pytest.raises(ForwardingCycleError):
            engine.resolve(0x100)

    def test_long_acyclic_chain_is_false_alarm(self, mem, engine):
        """A chain longer than the hop limit must resolve, not abort."""
        base = 0x1000
        links = 20  # hop limit is 8
        for index in range(links):
            forward(mem, base + index * 8, base + (index + 1) * 8)
        final, hops = engine.resolve(base)
        assert final == base + links * 8
        assert hops == links
        assert engine.stats.cycle_check_invocations >= 1
        assert engine.stats.cycles_detected == 0

    def test_cycle_beyond_hop_limit_detected(self, mem, engine):
        base = 0x1000
        for index in range(30):
            forward(mem, base + index * 8, base + (index + 1) * 8)
        forward(mem, base + 30 * 8, base)  # close the loop
        with pytest.raises(ForwardingCycleError):
            engine.resolve(base)

    def test_hop_limit_validation(self, mem):
        with pytest.raises(ValueError):
            ForwardingEngine(mem, hop_limit=0)


class TestChain:
    def test_chain_lists_all_words(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        assert engine.chain(0x100) == [0x100, 0x200, 0x300]
        assert engine.stats == type(engine.stats)()  # an acyclic walk counts nothing

    def test_chain_of_unforwarded_word(self, engine):
        assert engine.chain(0x500) == [0x500]

    def test_chain_ignores_byte_offset(self, mem, engine):
        forward(mem, 0x100, 0x200)
        assert engine.chain(0x104) == [0x100, 0x200]

    def test_chain_raises_on_cycle(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x100)
        with pytest.raises(ForwardingCycleError):
            engine.chain(0x100)
        # Counted as resolve counts it: one check that found a cycle.
        assert engine.stats.cycle_check_invocations == 1
        assert engine.stats.cycles_detected == 1


class TestStats:
    def test_references_counted(self, mem, engine):
        engine.resolve(0x100)
        engine.resolve(0x108)
        forward(mem, 0x200, 0x300)
        engine.resolve(0x200)
        stats = engine.stats
        assert stats.references == 3
        assert stats.forwarded_references == 1
        assert stats.total_hops == 1

    def test_hop_histogram(self, mem, engine):
        forward(mem, 0x100, 0x200)
        forward(mem, 0x300, 0x400)
        forward(mem, 0x400, 0x500)
        engine.resolve(0x100)
        engine.resolve(0x300)
        assert engine.stats.hop_histogram == {1: 1, 2: 1}

    def test_merge(self, mem, engine):
        from repro.core.forwarding import ForwardingStats

        a = ForwardingStats()
        a.record(2)
        b = ForwardingStats()
        b.record(2)
        b.record(0)
        a.merge(b)
        assert a.references == 3
        assert a.forwarded_references == 2
        assert a.hop_histogram == {2: 2}

    def test_chain_length_bound_to_registry(self, mem, engine):
        from repro.obs import Registry

        registry = Registry()
        engine.stats.register_metrics(registry, "fwd")
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        engine.resolve(0x100)
        assert registry.snapshot().get("fwd.chain_length") == {2: 1}


class TestEvents:
    def test_walks_emitted_with_hop_count(self, mem, engine):
        from repro.obs import EventLog

        engine.events = EventLog(capacity=8)
        forward(mem, 0x100, 0x200)
        forward(mem, 0x200, 0x300)
        engine.resolve(0x104)
        engine.resolve(0x500)  # unforwarded: no event
        payload = engine.events.to_payload()
        assert payload["counts"] == {"fwd.walk": 1}
        record = payload["records"][0]
        assert record["args"] == {"initial": 0x104, "final": 0x304, "hops": 2}
