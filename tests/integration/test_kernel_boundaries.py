"""Boundary cases of the fused kernel's rewrites (``repro.core.kernel``).

Each rewrite is a program transformation that must keep every behaviour
of the layered path.  Random programs almost never reach the edge where
a wrong version differs (they rarely forward a store at all), so these
streams are built to sit on it:

* **speculation by stretch** -- a forwarded store stays in the window
  for exactly ``W`` counted stores, and a counters-only stretch leaves
  the window holding its last ``W`` stores;
* **MSHR expiry only when the file is full** -- an allocating line's
  expired entry lingers, then a full-file stall's two earliest fills
  tie, so the tie-break reads the insertion order;
* **the sorted store buffer** -- equal ready times, an insert below an
  older entry, an expiry at exactly ``now`` and full-buffer stalls.

Every stream runs on both Machine paths, and is captured and replayed
through the specialized kernel and through the layered
:class:`~repro.trace.replay.ReplaySession` under every chunking; all of
them must agree on the stats, the speculation window, the MSHR file's
live fills in order, and the store buffer.
"""

from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import Machine, MachineConfig
from repro.cpu.timing import TimingConfig, TimingModel
from repro.trace import Trace, TraceRecorder
from repro.trace.format import CHUNK_EVENTS
from repro.trace.kernels import SpecializedSession
from repro.trace.replay import ReplaySession, drive_sessions

#: Every entry its own chunk, chunks that split the streams mid-window,
#: and one chunk for the whole stream.
CHUNKINGS = (1, 7, CHUNK_EVENTS)

SMALL = MachineConfig(heap_size=0x10000, pool_region_size=0x10000)
W = SMALL.speculation_window
#: ``A``'s word forwards to ``B``; the filler stores touch neither.
A = SMALL.heap_base
B = A + 0x1000
FILLER = A + 0x2000

#: Width 1 and no per-instruction overhead: every reference starts one
#: whole cycle after the last, so fills and stores tie on purpose.
INTEGRAL = TimingConfig(width=1, inst_overhead=0.0)


def _forwarded_store_then_load(k):
    """A store through ``A`` (forwarded to ``B``), ``k`` unforwarded
    stores, then an unforwarded load of ``B``: a misspeculation while
    the forwarded store is still in the window, i.e. iff ``k < W``."""
    return (
        [("unforwarded_write", A, B, 1), ("store", A, 1)]
        + [("store", FILLER + 8 * i, i) for i in range(k)]
        + [("load", B)]
    )


def _store_then_forwarded_load(j):
    """An unforwarded store to ``B``, ``j`` unforwarded stores, then a
    load through ``A`` (forwarded to ``B``): a misspeculation while the
    store to ``B`` is still in the window, i.e. iff ``j < W``.  On the
    fast path every store before the load is costed by one
    counters-only stretch, so the window the load is checked against is
    the one that stretch's refill rebuilt."""
    return (
        [("unforwarded_write", A, B, 1), ("store", B, 1)]
        + [("store", FILLER + 8 * i, i) for i in range(j)]
        + [("load", A)]
    )


def _execute(machine, program):
    for name, *args in program:
        getattr(machine, name)(*args)
    return machine.stats()


def _state(stats, timing, hierarchy, speculator):
    """Everything a kernel rewrite could get wrong, comparable across
    engines: the stats, the speculation window, the MSHR file's live
    fills in insertion order, its counters, and the store buffer."""
    now = timing.cycle
    mshr = hierarchy.mshr
    return {
        "stats": stats.dump(),
        "window": (
            list(speculator._queue), speculator._by_final, speculator._counts,
        ),
        "live_fills": [
            (line, ready) for line, ready in mshr._inflight.items() if ready > now
        ],
        "mshr": asdict(mshr.stats),
        "l1": asdict(hierarchy.l1.stats),
        "store_buffer": sorted(timing._store_buffer),
    }


def _direct(program, config):
    machine = Machine(config)
    stats = _execute(machine, program)
    return _state(stats, machine.timing, machine.hierarchy, machine.speculator)


def _capture(program, config, chunk_events):
    recorder = TraceRecorder(chunk_events=chunk_events)
    stats = _execute(Machine(config, sink=recorder), program)
    return Trace(
        app="synthetic",
        variant="N",
        scale=1.0,
        seed=0,
        line_size=config.hierarchy.line_size,
        line_size_sensitive=False,
        checksum=0,
        extras={},
        captured_stats=stats.dump(),
        event_count=recorder.event_count,
        chunks=recorder.finish(),
        has_forwarded=recorder.has_forwarded,
    )


def _replays(trace, config):
    """The specialized and the layered replay of ``trace``, one decode."""
    sessions = [SpecializedSession(trace, config), ReplaySession(trace, config)]
    drive_sessions(trace, sessions)
    return [
        _state(s.finish().stats, s.timing, s.hierarchy, s.speculator)
        for s in sessions
    ]


def _assert_every_engine_agrees(program, config):
    """Both Machine paths, then both replays under every chunking, end
    in one state; returns it."""
    fast = _direct(program, config)
    assert _direct(program, replace(config, fast_path=False)) == fast
    for chunk_events in CHUNKINGS:
        specialized, layered = _replays(
            _capture(program, config, chunk_events), config
        )
        assert layered == fast, chunk_events
        assert specialized == fast, chunk_events
    return fast


class TestSpeculationByStretch:
    @pytest.mark.parametrize("k", range(W + 3))
    def test_forwarded_store_leaves_the_window_after_w_stores(self, k):
        state = _assert_every_engine_agrees(_forwarded_store_then_load(k), SMALL)
        assert state["stats"]["misspeculations"] == (1 if k < W else 0)

    @pytest.mark.parametrize("j", range(W + 3))
    def test_counters_stretch_refills_the_last_w_stores(self, j):
        state = _assert_every_engine_agrees(_store_then_forwarded_load(j), SMALL)
        assert state["stats"]["misspeculations"] == (1 if j < W else 0)
        assert len(state["window"][0]) == min(W, j + 1)


class TestMSHRExpiry:
    #: Direct-mapped 4-line L1 (``X`` and ``Y`` share a set) and three
    #: MSHRs; memory fills take 100 cycles and L2 fills 14.
    CONFIG = replace(
        SMALL,
        hierarchy=HierarchyConfig(l1_size=128, l1_assoc=1, mshr_capacity=3),
        timing=INTEGRAL,
    )
    X = SMALL.heap_base
    Y = X + 128            # X's L1 set, another L2 line
    Z = X + 0x1000 + 32    # the other lines get sets of their own
    V = X + 0x2000 + 64

    def test_full_stall_tie_frees_the_older_fill(self):
        program = [
            ("store", self.X, 1),    # starts at 1: memory fill, ready 101
            ("execute", 200),        # X's fill completes; its entry may linger
            ("store", self.Y, 2),    # starts at 202: evicts X, ready 302
            ("execute", 85),
            ("store", self.X, 3),    # starts at 288: L2 fill, ready 302, ties Y
            ("store", self.Z, 4),    # starts at 289: ready 389; the file is full
            ("store", self.V, 5),    # starts at 290: stalls to 302, frees Y
            ("load", self.Y),        # starts at 291: Y's fill is gone, no merge
        ]
        state = _assert_every_engine_agrees(program, self.CONFIG)
        assert state["mshr"]["full_stalls"] == 2
        assert state["mshr"]["combines"] == 0
        assert state["stats"]["l1_load_misses_full"] == 1


class TestStoreBuffer:
    CONFIG = replace(
        SMALL,
        hierarchy=HierarchyConfig(),
        timing=replace(INTEGRAL, store_buffer_depth=2),
    )
    P = SMALL.heap_base
    Q = P + 0x1000
    R = P + 0x2000
    S = P + 0x3000

    def test_equal_ready_times_and_full_buffer_stalls(self):
        program = [
            ("store", self.P, 1),        # starts at 1: ready 101
            ("store", self.P + 8, 2),    # merges with P's fill: ready 101 too
            ("store", self.Q, 3),        # full: stalls to 101, ready 103
            ("store", self.P + 16, 4),   # starts at 102: a hit, ready 103 too
            ("store", self.P + 24, 5),   # starts at 103: both 103s expire
            ("store", self.R, 6),        # starts at 104: ready 204
            ("store", self.P, 7),        # a hit, ready 106, below R's
            ("store", self.S, 8),        # starts at 106: the 106 expires
            ("store", self.P + 8, 9),    # starts at 107, full: stalls to 204
        ]
        state = _assert_every_engine_agrees(program, self.CONFIG)
        assert state["stats"]["slots"]["store_stall"] == 98.0 + 97.0

    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 12)), max_size=60
        ),
        depth=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_buffer_matches_the_scan(self, steps, depth):
        """``TimingModel.store_completes`` against the unsorted scan it
        replaced (filter, ``min``, ``remove``, ``append``), on small
        integral times, so ties and exact expiries are common."""
        timing = TimingModel(replace(INTEGRAL, store_buffer_depth=depth))
        buffer: list[float] = []
        cycle = stalled = 0.0
        for advance, latency in steps:
            timing.execute(advance)
            cycle += advance
            ready = cycle + latency
            timing.store_completes(ready)
            buffer = [t for t in buffer if t > cycle]
            if len(buffer) >= depth:
                earliest = min(buffer)
                if earliest - cycle > 0.0:
                    stalled += earliest - cycle
                    cycle += earliest - cycle
                buffer.remove(earliest)
            if ready > cycle:
                buffer.append(ready)
            assert timing.cycle == cycle
            assert timing.store_stall_cycles == stalled
            assert timing._store_buffer == sorted(buffer)
