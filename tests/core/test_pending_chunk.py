"""The fast path's pending chunk: drains are invisible to every reader.

The fast path appends each cheap operation to a pending chunk and costs
it later through the generated kernel.  These tests check the drain
rule: after any single operation, every public reader of cost state --
component attributes, ``stats()``, ``metrics``, ``cycles`` -- sees
exactly what a general-path machine (``fast_path=False``) shows, with no
``stats()`` call in between to force the drain.  They also check the
cycle guard past which the kernel's residual elision stops being exact.
"""

from dataclasses import asdict, replace

import pytest

from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import Machine, MachineConfig
from repro.cpu.timing import TimingConfig

#: Small memory: these tests build hundreds of machines.
SMALL = MachineConfig(heap_size=1 << 20, pool_region_size=1 << 20)


def _machines(config=SMALL):
    return (
        Machine(replace(config, fast_path=True)),
        Machine(replace(config, fast_path=False)),
    )


def _warm_up(m):
    """Cost state worth comparing: misses, MSHR fills, a dirty L1."""
    base = m.malloc(8192)
    for offset in range(0, 8192, 96):
        m.store(base + offset, offset)
    for offset in range(0, 4096, 40):
        m.load(base + offset)
    m.execute(5)
    return base


#: One operation of each pending entry kind, run after the warm-up.
OPERATIONS = {
    "load": lambda m, a: m.load(a + 8),
    "store": lambda m, a: m.store(a + 16, 7),
    "load_subword": lambda m, a: m.load(a + 2, 2),
    "store_subword": lambda m, a: m.store(a + 5, 0xAB, 1),
    "read_fbit": lambda m, a: m.read_fbit(a + 24),
    "unforwarded_read": lambda m, a: m.unforwarded_read(a + 32),
    "unforwarded_write": lambda m, a: m.unforwarded_write(a + 40, 9, 0),
    "prefetch": lambda m, a: m.prefetch(a + 6000, lines=3),
    "execute": lambda m, a: m.execute(11),
    "malloc": lambda m, a: m.malloc(200),
    "free": lambda m, a: m.free(a),
}


def _hierarchy_view(hierarchy):
    return {
        "l1": asdict(hierarchy.l1.stats),
        "l2": asdict(hierarchy.l2.stats),
        "l1_tags": list(hierarchy.l1._tags),
        "l2_tags": list(hierarchy.l2._tags),
        "mshr": asdict(hierarchy.mshr.stats),
        "miss_classes": asdict(hierarchy.miss_classes),
        "traffic": asdict(hierarchy.traffic),
    }


def _timing_view(timing):
    return {
        "cycle": timing.cycle,
        "instructions": timing.instructions,
        "slots": asdict(timing.slot_breakdown()),
        "misspeculations": timing.misspeculations,
        "store_buffer": sorted(timing._store_buffer),
    }


def _speculator_view(speculator):
    return asdict(speculator.stats), list(speculator._queue)


#: Every public reader of cost state, each read first thing after the
#: operation (so the reader itself must drain).
READERS = {
    "timing": lambda m: _timing_view(m.timing),
    "hierarchy": lambda m: _hierarchy_view(m.hierarchy),
    "prefetcher": lambda m: asdict(m.prefetcher.stats),
    "speculator": lambda m: _speculator_view(m.speculator),
    "load_latency": lambda m: asdict(m.load_latency),
    "store_latency": lambda m: asdict(m.store_latency),
    "forwarding": lambda m: asdict(m.forwarding.stats),
    "cycles": lambda m: m.cycles,
    "stats": lambda m: m.stats().dump(),
    "metrics": lambda m: m.metrics.snapshot().flat(),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_every_reader_sees_the_pending_operation(operation, reader):
    fast, general = _machines()
    results = []
    for m in (fast, general):
        base = _warm_up(m)
        results.append(OPERATIONS[operation](m, base))
    assert results[0] == results[1]
    assert READERS[reader](fast) == READERS[reader](general)


def test_held_registry_drains_on_snapshot():
    fast, general = _machines()
    registries = [m.metrics for m in (fast, general)]
    for m in (fast, general):
        _warm_up(m)
    assert registries[0].snapshot().flat() == registries[1].snapshot().flat()


def test_trap_handler_references_are_costed_before_the_trap_returns():
    dumps = []
    for m in _machines():
        base = _warm_up(m)
        target = m.malloc(64)
        far = m.malloc(4096) + 2048  # a line nothing has touched yet
        m.unforwarded_write(base + 48, target, 1)  # base+48 -> target
        m.set_trap_handler(lambda machine, event: machine.load(far))
        m.store(target, 1)  # so the forwarded load below misspeculates
        m.load(base + 48)  # the misspeculation flush, then the trap
        m.load(far + 8)  # combines with the handler's in-flight fill
        dumps.append(m.stats().dump())
    assert dumps[0] == dumps[1]


def test_a_full_chunk_drains_itself():
    fast, general = _machines()
    for m in (fast, general):
        base = m.malloc(1 << 16)
        for index in range(70_000):
            m.load(base + (index * 24) % (1 << 16))
    assert fast.stats().dump() == general.stats().dump()


class TestCycleGuard:
    """Past the residual-elision bound the fast path turns itself off."""

    #: A hit latency half a cycle inside the OoO window: the kernel
    #: elides the hit-arm stall check (for uncounted accesses, and for
    #: loads when speculation is off), which is exact only while every
    #: reference starts below 2**49.  From 2**54 on, rounding makes
    #: ``(start + 3) - start`` come out as 4, so a hit really stalls.
    EDGE = replace(
        SMALL,
        hierarchy=HierarchyConfig(l1_hit_latency=3.0),
        timing=TimingConfig(ooo_window=3.5),
        speculation_window=0,
    )

    @pytest.mark.parametrize("config", [SMALL, EDGE], ids=["default", "edge"])
    @pytest.mark.parametrize("cycle", [2.0**49, 2.0**54], ids=["2^49", "2^54"])
    def test_matches_the_general_path_bit_for_bit(self, config, cycle):
        machines = _machines(config)
        for m in machines:
            base = _warm_up(m)
            m.timing.cycle = cycle
            for offset in range(0, 4096, 8):
                m.load(base + offset)
                m.read_fbit(base + offset)
                m.store(base + offset + 4096, offset)
            m.execute(7)
        fast, general = machines
        assert fast.stats().dump() == general.stats().dump()
