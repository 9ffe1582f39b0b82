"""Replay a captured trace against a different machine configuration.

The key observation (which is also why capture-once-replay-many is sound
at all) is that a reference stream splits cleanly into two halves:

* **Config-invariant state.**  Forwarding chains, allocator placement,
  memory contents, relocation bookkeeping -- all fully determined by the
  event stream itself, identical under every cache configuration the
  stream may legally be replayed against.
* **Config-dependent accounting.**  The cache hierarchy, the timing
  model, the prefetcher, and the dependence speculator -- the things a
  sweep actually varies and measures.

Replay therefore does *not* rebuild a full :class:`~repro.core.machine.
Machine`.  The config-invariant half was simulated once, at capture: the
machine resolved every load and store with its own chain walk and
emitted the result, and the recorder (:mod:`repro.trace.recorder`)
sealed that stream, so a trace *is* the resolved stream -- every
forwarded reference annotated with its final address and hop addresses.
Replay drives only the config-dependent components with it, through
the same cost table the machine's general path uses
(:func:`repro.core.machine.layered_costs`).  Config-invariant counters
(relocation activity, forwarding hop totals, heap footprint) are copied
from the capture's stats, which is exact by definition.

Decode is *streaming*: :func:`iter_resolved_chunks` inflates and
unpacks one :class:`ResolvedChunk` at a time (flat ``kinds``/``ops``
arrays plus a sparse extras dict), so resident memory is O(chunk)
rather than O(trace), and a :class:`ReplaySession` consumes chunks
incrementally -- which is what lets the batch engine unpack each chunk
once and drive *every* config in a group over it before pulling the
next.

This is what makes a replay measurably cheaper than a direct run: the
application logic is gone *and* so are the tagged memory, the forwarding
walks, and the allocator.  The fidelity tests pin the mirroring by
asserting replayed stats equal direct-run stats exactly, app by app.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.apps.base import AppResult, Variant
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.kernel import LOAD, LOAD_FWD, PREFETCH, STORE, STORE_FWD
from repro.core.machine import MachineConfig, layered_costs
from repro.core.stats import MachineStats, ReferenceLatencyStats, RelocationStats
from repro.cpu.prefetch import SoftwarePrefetcher
from repro.cpu.speculation import DependenceSpeculator
from repro.cpu.timing import TimingModel
from repro.trace.format import Trace


class TraceReplayError(Exception):
    """The trace cannot legally drive the requested configuration."""


class ResolvedChunk:
    """One chunk of entries in struct-of-arrays form.

    ``kinds[i]`` is the entry kind (the constants of
    :mod:`repro.core.kernel`), ``ops[i]`` its primary integer
    operand (address, word, count, ...), and ``extras`` a sparse dict
    holding the rare multi-operand payloads: ``i -> lines`` for
    prefetches and ``i -> (final_address, hop_tuple)`` for forwarded
    references.  The flat layout is what the exec-specialized kernels
    index directly, with no per-entry tuple allocation.
    """

    __slots__ = ("n", "kinds", "ops", "extras")

    def __init__(self, kinds: bytes, ops: array, extras: dict) -> None:
        self.n = len(kinds)
        self.kinds = kinds
        self.ops = ops
        self.extras = extras

    def entries(self) -> Iterator[tuple]:
        """The tuple view of this chunk: ``(kind, op[, final, hops])`` or
        ``(kind, op, lines)`` per entry (diagnostics and tests)."""
        kinds = self.kinds
        ops = self.ops
        extras = self.extras
        for i in range(self.n):
            kind = kinds[i]
            if kind == LOAD_FWD or kind == STORE_FWD:
                final, hops = extras[i]
                yield (kind, ops[i], final, hops)
            elif kind == PREFETCH:
                yield (kind, ops[i], extras[i])
            else:
                yield (kind, ops[i])


def iter_resolved_chunks(trace: Trace) -> Iterator[ResolvedChunk]:
    """Yield the trace's chunks, one at a time, ready for a session.

    Each chunk is inflated, checked against its column digests and
    unpacked (:meth:`repro.trace.format.Chunk.unpack`); nothing is
    resolved here, because the recorder stored the resolution.
    """
    for index, chunk in enumerate(trace.chunks):
        yield ResolvedChunk(*chunk.unpack(index))


def drive_sessions(trace: Trace, sessions: Iterable) -> None:
    """Feed every chunk to every session, in stream order.

    Each chunk is unpacked exactly once however many sessions ride
    along -- the batch engine's decode-once loop, without its spans and
    per-cell error handling.
    """
    sessions = list(sessions)
    for chunk in iter_resolved_chunks(trace):
        for session in sessions:
            session.run_chunk(chunk)


def check_line_size(trace: Trace, config: MachineConfig) -> None:
    """Reject replays a line-size-sensitive trace cannot legally serve.

    Shared by the general path here and the specialized kernels in
    :mod:`repro.trace.kernels`, so both refuse exactly the same
    (trace, config) pairs with the same message.
    """
    if trace.line_size_sensitive:
        line_size = config.hierarchy.line_size
        if line_size != trace.line_size:
            raise TraceReplayError(
                f"trace of line-size-sensitive app {trace.app!r} was "
                f"captured at {trace.line_size}B lines; cannot replay at "
                f"{line_size}B"
            )


def build_components(session, config: MachineConfig) -> None:
    """Give a replay session fresh config-dependent components.

    ``hierarchy``, ``timing``, ``prefetcher``, ``speculator`` and the
    ``load_latency``/``store_latency`` stats: the cost state both replay
    engines advance, built exactly as a
    :class:`~repro.core.machine.Machine` builds its own.
    """
    session.hierarchy = MemoryHierarchy(config.hierarchy)
    session.timing = TimingModel(config.timing)
    session.prefetcher = SoftwarePrefetcher(
        session.hierarchy, config.max_prefetch_block
    )
    session.speculator = (
        DependenceSpeculator(config.speculation_window)
        if config.speculation_window > 0
        else None
    )
    session.load_latency = ReferenceLatencyStats()
    session.store_latency = ReferenceLatencyStats()


def captured_result(session, timeline=None) -> AppResult:
    """A session's :class:`AppResult`: replayed costs, captured invariants.

    The config-dependent counters come from the session's components;
    forwarding totals, relocation bookkeeping and the heap footprint are
    copied from the capture, and checksum/extras from the captured
    application run.  Shared by both replay engines.
    """
    trace = session.trace
    captured = trace.captured_stats
    stats = MachineStats.collect(
        timing=session.timing,
        hierarchy=session.hierarchy,
        loads=session.load_latency,
        stores=session.store_latency,
        speculator=session.speculator,
        prefetcher=session.prefetcher,
        forwarding_hops=captured["forwarding_hops"],
        cycle_checks=captured["cycle_checks"],
        forwarding_chain_hist={
            int(hops): count
            for hops, count in captured.get("forwarding_chain_hist", {}).items()
        },
        relocation=RelocationStats(**captured["relocation"]),
        heap_high_water=captured["heap_high_water"],
    )
    return AppResult(
        app=trace.app,
        variant=Variant(trace.variant),
        checksum=trace.checksum,
        stats=stats,
        extras=dict(trace.extras),
        timeline=timeline,
    )


class ReplaySession:
    """One config's replay state, consuming resolved chunks incrementally.

    Construction builds the config-dependent components (hierarchy,
    timing, prefetcher, speculator, latency stats); :meth:`run_chunk`
    advances them over one chunk; :meth:`finish` folds in the capture's
    config-invariant counters and returns the :class:`AppResult`.

    Every entry is costed by :func:`repro.core.machine.layered_costs`,
    the table the Machine's general path costs its own entries with, so
    this session reproduces a direct run by construction, shares no code
    with the generated kernel, and serves as the oracle the specialized
    engine is checked against.
    """

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig,
        *,
        on_window=None,
    ) -> None:
        check_line_size(trace, config)
        self.trace = trace
        self.config = config
        #: Live streaming hook handed to the session's Timeline (see
        #: :attr:`repro.obs.timeline.Timeline.on_window`); inert unless
        #: the config samples a timeline.
        self.on_window = on_window
        build_components(self, config)
        hierarchy = self.hierarchy
        timing = self.timing
        load_latency = self.load_latency
        store_latency = self.store_latency
        self._handlers = layered_costs(
            config, hierarchy, timing, self.speculator, self.prefetcher,
            load_latency, store_latency,
        )

        # Timeline sampling mirrors the direct run's general path: tick
        # once per data reference, after its cost lands, at the
        # *initial* address.  The sampler reads only config-dependent
        # counters (which replay maintains bit-exactly), so a replayed
        # run's window series is identical to the direct run's.
        self.timeline = None
        # Adaptive configs imply a timeline at adapt.interval (mirroring
        # Machine.__init__): the engine's references are already baked
        # into the captured stream, so replay only reproduces the window
        # series -- same boundaries, because the stream preserves tick
        # order.
        interval = config.timeline_interval
        if interval == 0 and config.adapt is not None:
            interval = config.adapt.interval
        if interval > 0:
            from repro.obs.registry import Registry
            from repro.obs.timeline import Timeline

            registry = Registry()
            timing.register_metrics(registry)
            hierarchy.register_metrics(registry)
            load_latency.register_metrics(registry, "ref.load")
            store_latency.register_metrics(registry, "ref.store")
            self.timeline = Timeline(
                interval,
                registry,
                mshr=hierarchy.mshr,
                clock=lambda: timing.cycle,
                region_bytes=config.heatmap_region_bytes,
            )
            self.timeline.on_window = self.on_window

    def run_chunk(self, chunk: ResolvedChunk) -> None:
        kinds = chunk.kinds
        ops = chunk.ops
        get_extra = chunk.extras.get
        handlers = self._handlers
        timeline = self.timeline
        if timeline is None:
            for i in range(chunk.n):
                handlers[kinds[i]](ops[i], get_extra(i))
        else:
            tick = timeline.tick
            note_forwarded = timeline.note_forwarded
            for i in range(chunk.n):
                kind = kinds[i]
                handlers[kind](ops[i], get_extra(i))
                if kind == LOAD or kind == STORE:
                    tick(ops[i])
                elif kind == LOAD_FWD or kind == STORE_FWD:
                    note_forwarded(ops[i])
                    tick(ops[i])

    def finish(self) -> AppResult:
        if self.timeline is not None:
            self.timeline.finish()
        return captured_result(
            self, self.timeline.to_payload() if self.timeline is not None else None
        )


def replay_trace(trace: Trace, config: MachineConfig) -> AppResult:
    """Replay ``trace`` against ``config``; stats match a direct run.

    Returns an :class:`AppResult` whose config-dependent stats come from
    driving ``config``'s hierarchy/timing/speculator with the resolved
    chunks, whose config-invariant stats come from the capture, and
    whose checksum/extras come from the captured application run.
    """
    session = ReplaySession(trace, config)
    drive_sessions(trace, [session])
    return session.finish()
