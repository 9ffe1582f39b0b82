"""The simulated machine: tagged memory, forwarding, caches, and timing.

:class:`Machine` is the facade every application and optimization in this
reproduction programs against.  Its data-reference methods implement the
paper's semantics end to end:

1. a reference presents an **initial address**;
2. the forwarding engine chases any chain to the **final address**, with
   each hop performing a real (timed, cache-polluting) memory access;
3. the final access goes through the two-level cache hierarchy;
4. the timing model attributes the latency to graduation-slot categories;
5. the dependence speculator checks for initial/final address collisions.

The paper's ISA extensions (Figure 3) -- ``Read_FBit``,
``Unforwarded_Read`` and ``Unforwarded_Write`` -- are methods here too, so
software such as ``relocate()`` pays its costs through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.adapt.config import AdaptConfig
from repro.cache.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.core.errors import DoubleFreeError, MemoryAccessError
from repro.core.forwarding import ForwardingEngine
from repro.core.kernel import (
    ACCESS_R,
    ACCESS_W,
    CYCLE_GUARD,
    EXEC,
    FREE,
    LOAD,
    LOAD_FWD,
    MALLOC,
    PREFETCH,
    STORE,
    STORE_FWD,
    TRAP,
    run_stream,
    specializable,
)
from repro.core.memory import TaggedMemory, WORD_MASK, WORD_SIZE
from repro.core.stats import MachineStats, ReferenceLatencyStats, RelocationStats
from repro.cpu.prefetch import SoftwarePrefetcher
from repro.cpu.speculation import DependenceSpeculator
from repro.cpu.timing import TimingConfig, TimingModel
from repro.mem.allocator import HeapAllocator
from repro.mem.pool import RelocationPool

#: The simulated NULL pointer.
NULL = 0

#: Entries the fast path's pending chunk holds before it drains; the
#: trace format's chunk size, so the kernel sees replay-sized chunks.
PENDING_ENTRIES = 65536

#: A drain that starts at or above this cycle costs its chunk on the
#: layered path and turns the fast path off for good.  A chunk that
#: starts below it would have to add 2**48 cycles -- over 2**32 per
#: entry -- before any of its references could start at
#: :data:`~repro.core.kernel.CYCLE_GUARD`, where the proof of the kernel's
#: residual elision ends; one entry adds an instruction count plus a few
#: memory latencies.
DRAIN_GUARD = CYCLE_GUARD / 2


@dataclass(frozen=True)
class ForwardingEvent:
    """Passed to a user-level trap handler when a reference is forwarded.

    Mirrors the lightweight user-level trap of Section 3.2: the handler
    learns which initial address was stale and where the data now lives,
    so it can profile the miss or repair the offending pointer.
    """

    initial_address: int
    final_address: int
    hops: int
    is_write: bool


#: Signature of a user-level forwarding trap handler.
TrapHandler = Callable[["Machine", ForwardingEvent], None]


@dataclass
class MachineConfig:
    """Configuration of the whole simulated system."""

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    #: Base of the application heap; low memory is reserved so NULL (0)
    #: never aliases a live object.
    heap_base: int = 0x10000
    heap_size: int = 24 << 20
    #: Region reserved for relocation pools, carved on demand.
    pool_region_size: int = 24 << 20
    hop_limit: int = 16
    #: Depth of the dependence-speculation store window (0 disables).
    speculation_window: int = 32
    #: Instruction cost of malloc bookkeeping (beyond per-byte clearing).
    malloc_base_cost: int = 16
    #: Instruction cost of the forwarding-aware free wrapper.
    free_base_cost: int = 8
    #: Largest block prefetch (lines) a single instruction may request.
    max_prefetch_block: int = 8
    #: Extra cycles charged to a user-level trap handler invocation.
    user_trap_cycles: float = 10.0
    #: Defer the cost of unforwarded references (and the other cheap
    #: operations) to chunks drained through the generated kernel of
    #: :mod:`repro.core.kernel`.  The fast and general paths produce
    #: bit-identical statistics (enforced by the differential parity
    #: tests); this switch exists so those tests -- and any future
    #: debugging -- can force the general path, the specification.
    fast_path: bool = True
    #: Data references per timeline window; 0 (the default) disables the
    #: sampler entirely.  A sampled config runs the general path, which
    #: ticks the sampler after each data reference.
    timeline_interval: int = 0
    #: Capacity of the structured event ring; 0 (the default) disables
    #: event emission.  Enabling events forces the general reference
    #: path, because the fused kernel inlines the cache internals some
    #: events come from (L2 inclusion victims).
    events_capacity: int = 0
    #: Heatmap region granularity (bytes, power of two) for the timeline
    #: sampler and the adaptive profile; the default matches the
    #: timeline's historical fixed 64 KB regions.
    heatmap_region_bytes: int = 64 * 1024
    #: Online adaptive relocation policy (:class:`repro.adapt.AdaptConfig`);
    #: ``None`` (the default) disables the engine entirely.  Configuring
    #: it implies a timeline (using ``adapt.interval`` as the window
    #: width when ``timeline_interval`` is 0) and forces the general
    #: reference path, mirroring the events gate.
    adapt: AdaptConfig | None = None

    def __post_init__(self) -> None:
        region = self.heatmap_region_bytes
        if region < 1 or region & (region - 1):
            raise ValueError(
                f"heatmap_region_bytes must be a power of two, got {region}"
            )

    @property
    def memory_size(self) -> int:
        return self.heap_base + self.heap_size + self.pool_region_size

    def with_line_size(self, line_size: int) -> "MachineConfig":
        """Copy of this config with a different cache line size."""
        return replace(self, hierarchy=replace(self.hierarchy, line_size=line_size))


def _costed(name: str) -> property:
    """A component attribute that drains the pending chunk on every read."""
    slot = "_" + name

    def get(self: "Machine"):
        if self._kinds:
            self._drain()
        return getattr(self, slot)

    return property(get, doc=f"The machine's {name}, every pending entry costed.")


def layered_costs(
    config: MachineConfig,
    hierarchy: MemoryHierarchy,
    timing: TimingModel,
    speculator: DependenceSpeculator | None,
    prefetcher: SoftwarePrefetcher,
    load_latency: ReferenceLatencyStats,
    store_latency: ReferenceLatencyStats,
) -> list:
    """Cost handlers for chunk entries, over the layered components.

    ``handlers[kind](op, extra)`` charges one entry of that kind: a load
    or store (forwarded or not), ``Read_FBit`` / ``Unforwarded_Read`` /
    ``Unforwarded_Write``, ``execute``, ``prefetch``, ``malloc``,
    ``free``, or the installation of a trap handler.  This is the one
    layered cost model: the Machine's general path costs each entry it
    emits through it, and so does :class:`repro.trace.replay.
    ReplaySession`, so a replay reproduces the general path by
    construction.

    The handlers share one piece of state the components do not carry,
    the trap flag: a ``TRAP`` entry sets it, and a forwarded reference
    made while it is set pays ``user_trap_cycles`` before its
    speculation check.  The trapping reference is thus costed in full
    before its handler runs, and the handler's references are younger.
    """
    access = hierarchy.access
    execute = timing.execute
    load_completes = timing.load_completes
    store_completes = timing.store_completes
    malloc_base = config.malloc_base_cost
    free_base = config.free_base_cost
    user_trap_cycles = config.user_trap_cycles
    trap = [False]

    def load(address, _extra):
        execute(1)
        start = timing.cycle
        result = access(address, False, start)
        load_completes(result.ready)
        load_latency.count += 1
        load_latency.ordinary_cycles += result.ready - start
        if speculator is not None and speculator.on_load(address, address):
            timing.misspeculation_flush()

    def store(address, _extra):
        execute(1)
        start = timing.cycle
        result = access(address, True, start)
        store_completes(result.ready)
        store_latency.count += 1
        store_latency.ordinary_cycles += result.ready - start
        if speculator is not None:
            speculator.on_store(address, address)

    def access_r(word, _extra):
        execute(1)
        load_completes(access(word, False, timing.cycle).ready)

    def access_w(word, _extra):
        execute(1)
        store_completes(access(word, True, timing.cycle).ready)

    def forwarded(address, extra, is_store):
        final, hops = extra
        execute(1)
        hop_cycles = 0.0
        for word in hops:  # each hop touches, and pollutes, the old location
            start = timing.cycle
            result = access(word, False, start)
            load_completes(result.ready, True)
            hop_cycles += result.ready - start
        start = timing.cycle
        result = access(final, is_store, start)
        if is_store:
            store_completes(result.ready, True)
            latency = store_latency
        else:
            load_completes(result.ready, True)
            latency = load_latency
        latency.count += 1
        latency.ordinary_cycles += result.ready - start
        latency.forwarded += 1
        nhops = len(hops)
        latency.forwarding_cycles += hop_cycles + timing.forwarding_trap_cost(nhops)
        timing.forwarding_trap(nhops)
        if trap[0]:
            timing.stall(user_trap_cycles, "inst")
        if speculator is not None:
            if is_store:
                speculator.on_store(address, final)
            elif speculator.on_load(address, final):
                timing.misspeculation_flush()

    def set_trap(installed, _extra):
        trap[0] = bool(installed)

    def prefetch(address, lines):
        execute(1)
        prefetcher.prefetch_block(address, lines, timing.cycle)

    handlers: list = [None] * (TRAP + 1)
    handlers[LOAD] = load
    handlers[STORE] = store
    handlers[LOAD_FWD] = lambda address, extra: forwarded(address, extra, False)
    handlers[STORE_FWD] = lambda address, extra: forwarded(address, extra, True)
    handlers[TRAP] = set_trap
    handlers[EXEC] = lambda count, _extra: execute(count)
    handlers[ACCESS_R] = access_r
    handlers[ACCESS_W] = access_w
    handlers[PREFETCH] = prefetch
    handlers[MALLOC] = lambda nbytes, _extra: execute(malloc_base + (nbytes >> 6))
    handlers[FREE] = lambda chain, _extra: execute(free_base + 2 * chain)
    return handlers


class Machine:
    """A complete simulated system instance.

    Every operation with a config-dependent cost becomes one *entry* of
    the machine's stream: a kind from :mod:`repro.core.kernel`, an
    integer operand, and for a prefetch or a forwarded reference an
    extra (the line count, or the ``(final, hops)`` of the forwarding
    walk).  The machine resolves forwarding in one place, the chain walk
    of :meth:`ForwardingEngine.resolve` on the access path, and costs
    entries on one of two paths.  The **general path** (:meth:`_emit`,
    used by :meth:`_load_general` / :meth:`_store_general` and the
    general arms of the other operations) costs each entry at once
    through :func:`layered_costs`, the specification.  The **fast path**
    defers costing: when the config is inside the kernel's feature
    matrix and the referenced word's forwarding bit is clear,
    ``load``/``store`` do the data access at once and only append the
    entry to a *pending chunk* -- as do ``Read_FBit``,
    ``Unforwarded_Read``/``Write``, ``execute``, ``prefetch``, ``malloc``
    and ``free``.  Loaded values never depend on timing, so costing can
    wait: a drain runs the chunk through the generated kernel of
    :mod:`repro.core.kernel` once it holds :data:`PENDING_ENTRIES`
    entries, or before anything reads or writes cost state -- the
    general path, :meth:`stats`, :attr:`metrics`, :attr:`cycles`, and
    every component attribute (``timing``, ``hierarchy``,
    ``prefetcher``, ``speculator``, ``load_latency``, ``store_latency``,
    ``forwarding``).  The two paths produce bit-identical
    :class:`MachineStats`; the differential parity tests enforce that
    across every application and variant.

    ``sink``, when given, receives the stream in order: each drained
    pending chunk as ``sink.extend(kinds, ops, extras)`` and each
    general-path entry as ``sink.append(kind, op, extra)``.  This is how
    :class:`repro.trace.recorder.TraceRecorder` captures a trace; the
    sink never changes what the machine does or costs.
    """

    __slots__ = (
        "config",
        "memory",
        "_forwarding",
        "_hierarchy",
        "_timing",
        "heap",
        "_prefetcher",
        "_speculator",
        "pools",
        "_trap_handler",
        "_sink",
        "_costs",
        "_load_latency",
        "_store_latency",
        "relocation_stats",
        "_pool_bump",
        "_pool_limit",
        "_pool_region_base",
        "_fast_enabled",
        "_kinds",
        "_ops",
        "_extras",
        "_kernels",
        "_words",
        "_fbits",
        "_nwords",
        "_registry",
        "events",
        "timeline",
        "adapt",
    )

    timing = _costed("timing")
    hierarchy = _costed("hierarchy")
    prefetcher = _costed("prefetcher")
    speculator = _costed("speculator")
    load_latency = _costed("load_latency")
    store_latency = _costed("store_latency")
    forwarding = _costed("forwarding")

    def __init__(self, config: MachineConfig | None = None, sink=None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        self.memory = TaggedMemory(cfg.memory_size)
        self._forwarding = ForwardingEngine(self.memory, cfg.hop_limit)
        self._hierarchy = MemoryHierarchy(cfg.hierarchy)
        self._timing = TimingModel(cfg.timing)
        self.heap = HeapAllocator(self.memory, cfg.heap_base, cfg.heap_size)
        self._prefetcher = SoftwarePrefetcher(self._hierarchy, cfg.max_prefetch_block)
        self._speculator = (
            DependenceSpeculator(cfg.speculation_window)
            if cfg.speculation_window > 0
            else None
        )
        self.pools: list[RelocationPool] = []
        self._pool_region_base = cfg.heap_base + cfg.heap_size
        self._pool_bump = self._pool_region_base
        self._pool_limit = self._pool_bump + cfg.pool_region_size
        self._trap_handler: TrapHandler | None = None
        self._sink = sink
        # Per-reference latency accounting (Figure 10(c,d)).
        self._load_latency = ReferenceLatencyStats()
        self._store_latency = ReferenceLatencyStats()
        self.relocation_stats = RelocationStats()
        self._costs = layered_costs(
            cfg, self._hierarchy, self._timing, self._speculator,
            self._prefetcher, self._load_latency, self._store_latency,
        )
        # Timeline sampling, the event log and adaptive relocation live
        # outside the generated kernel's feature matrix; those configs run
        # the general path throughout.  Every miss-path mechanism is
        # inside it, so mechanism runs (and captures) take the fast path.
        self._fast_enabled = cfg.fast_path and specializable(cfg)
        # The pending chunk, in the layout replay decodes to, and the
        # kernels its drains have used, by speculation mode.
        self._kinds = bytearray()
        self._ops: list = []
        self._extras: dict = {}
        self._kernels: dict = {}
        self._words = self.memory._words
        self._fbits = self.memory._fbits
        self._nwords = self.memory._nwords
        # Lazily built repro.obs registry (see the ``metrics`` property);
        # never touched by the reference hot paths.
        self._registry = None
        # Observability side-channels (DESIGN.md 5d).  Both default off
        # and add nothing to the reference hot path when disabled.
        self.events = None
        if cfg.events_capacity > 0:
            from repro.obs.events import EventLog

            timing = self._timing
            self.events = EventLog(cfg.events_capacity, clock=lambda: timing.cycle)
            self._forwarding.events = self.events
            self._hierarchy.events = self.events
        self.timeline = None
        self.adapt = None
        # The adaptive engine feeds off timeline windows: configuring it
        # implies a timeline (at ``adapt.interval`` when no explicit
        # ``timeline_interval`` is set).
        interval = cfg.timeline_interval
        if interval == 0 and cfg.adapt is not None:
            interval = cfg.adapt.interval
        if interval > 0:
            from repro.obs.timeline import Timeline

            timing = self._timing
            self.timeline = Timeline(
                interval,
                self.metrics,
                mshr=self._hierarchy.mshr,
                clock=lambda: timing.cycle,
                events=self.events,
                region_bytes=cfg.heatmap_region_bytes,
            )
        if cfg.adapt is not None:
            from repro.adapt.engine import AdaptEngine

            self.adapt = AdaptEngine(self, cfg.adapt)
            self.adapt.install()

    # ------------------------------------------------------------------
    # The entry stream
    # ------------------------------------------------------------------
    def _pend(self, kind: int, op: int) -> None:
        kinds = self._kinds
        kinds.append(kind)
        self._ops.append(op)
        if len(kinds) >= PENDING_ENTRIES:
            self._drain()

    def _drain(self) -> None:
        """Cost every pending entry, in order, then empty the chunk."""
        kinds = self._kinds
        timing = self._timing
        load_latency = self._load_latency
        store_latency = self._store_latency
        counted = load_latency.count + store_latency.count
        if timing.cycle < DRAIN_GUARD:
            # Forwarded references and TRAP entries are never pended, so
            # the kernel's trap flag is never read.
            run_stream(
                self._kernels, self.config, kinds, self._ops, self._extras,
                self._hierarchy, timing, self._speculator, self._prefetcher,
                load_latency, store_latency, False,
            )
        else:
            self._fast_enabled = False
            handlers = self._costs
            ops = self._ops
            extra = self._extras.get
            for index, kind in enumerate(kinds):
                handlers[kind](ops[index], extra(index))
        # ForwardingEngine.resolve counts every reference; the fast path
        # never calls it, so the drained loads and stores are added here.
        self._forwarding.stats.references += (
            load_latency.count + store_latency.count - counted
        )
        if self._sink is not None:
            self._sink.extend(kinds, self._ops, self._extras)
        del kinds[:]
        del self._ops[:]
        self._extras.clear()

    def _sync(self) -> None:
        """Drain before reading or writing cost state."""
        if self._kinds:
            self._drain()

    def _emit(self, kind: int, op: int, extra=None) -> None:
        """The general path: cost one entry now and pass it to the sink."""
        if self._kinds:
            self._drain()
        self._costs[kind](op, extra)
        if self._sink is not None:
            self._sink.append(kind, op, extra)

    # ------------------------------------------------------------------
    # Data references (forwarding-aware)
    # ------------------------------------------------------------------
    def load(self, address: int, size: int = WORD_SIZE) -> int:
        """Forwarding-aware load of ``size`` bytes; returns the value."""
        if self._fast_enabled:
            index = address >> 3
            if 0 <= index < self._nwords and not self._fbits[index]:
                kinds = self._kinds
                kinds.append(LOAD)
                self._ops.append(address)
                if len(kinds) >= PENDING_ENTRIES:
                    self._drain()
                if size == WORD_SIZE and not address & 7:
                    return self._words[index]
                return self.memory.read_data(address, size)
        return self._load_general(address, size)

    def store(self, address: int, value: int, size: int = WORD_SIZE) -> None:
        """Forwarding-aware store of ``size`` bytes."""
        if self._fast_enabled:
            index = address >> 3
            if 0 <= index < self._nwords and not self._fbits[index]:
                kinds = self._kinds
                kinds.append(STORE)
                self._ops.append(address)
                if len(kinds) >= PENDING_ENTRIES:
                    self._drain()
                if size == WORD_SIZE and not address & 7:
                    self._words[index] = value & WORD_MASK
                else:
                    self.memory.write_data(address, value, size)
                return
        self._store_general(address, value, size)

    def _load_general(self, address: int, size: int = WORD_SIZE) -> int:
        """General (reference) load path: forwarding, timeline, traps."""
        final, hops = self._reference(address, LOAD, LOAD_FWD)
        value = self.memory.read_data(final, size)
        self._retire(address, final, hops, False)
        return value

    def _store_general(self, address: int, value: int, size: int = WORD_SIZE) -> None:
        """General (reference) store path: forwarding, timeline, traps."""
        final, hops = self._reference(address, STORE, STORE_FWD)
        self.memory.write_data(final, value, size)
        self._retire(address, final, hops, True)

    def _reference(self, address: int, kind: int, forwarded_kind: int) -> tuple[int, int]:
        """Resolve one data reference, then emit and cost its entry.

        The engine's walk yields the hop words, so a forwarded reference
        is emitted as ``forwarded_kind`` with ``(final, hops)``; a walk
        that raises (a cycle, an out-of-range hop) emits and costs
        nothing.  Returns the final address and the hop count.
        """
        walk: list = []
        final, hops = self._forwarding.resolve(address, walk.append)
        if hops:
            self._emit(forwarded_kind, address, (final, tuple(walk)))
        else:
            self._emit(kind, address)
        return final, hops

    def _retire(self, address: int, final: int, hops: int, is_write: bool) -> None:
        """After a data reference's access: the timeline tick, then a trap.

        The tick follows the reference's full cost, so a window boundary
        observes it -- and so a replay, which ticks after each entry,
        lands its boundaries on the same references.  A user trap
        handler runs last: its references are younger than the trapping
        one in cost, data and timeline alike, the order the stream
        records.
        """
        timeline = self.timeline
        if timeline is not None:
            if hops:
                timeline.note_forwarded(address)
            timeline.tick(address)
        if hops and self._trap_handler is not None:
            self._trap_handler(self, ForwardingEvent(address, final, hops, is_write))

    # ------------------------------------------------------------------
    # ISA extensions (Figure 3) -- forwarding mechanism disabled
    # ------------------------------------------------------------------
    def read_fbit(self, address: int) -> int:
        """``Read_FBit``: test whether a word holds a forwarding address.

        The bit travels with the line, so this is a timed cache access of
        the word itself (Section 3.2: the bit cannot be tested until the
        line reaches the primary cache).
        """
        word = address & ~7
        index = word >> 3
        if self._fast_enabled and 0 <= index < self._nwords:
            self._pend(ACCESS_R, word)
            return self._fbits[index]
        self._emit(ACCESS_R, word)
        return self.memory.read_fbit(word)

    def unforwarded_read(self, address: int) -> int:
        """``Unforwarded_Read``: read a word with forwarding disabled."""
        word = address & ~7
        index = word >> 3
        if self._fast_enabled and 0 <= index < self._nwords:
            self._pend(ACCESS_R, word)
            return self._words[index]
        self._emit(ACCESS_R, word)
        return self.memory.read_word(word)

    def unforwarded_write(self, address: int, value: int, fbit: int) -> None:
        """``Unforwarded_Write``: atomically set a word and its bit."""
        word = address & ~7
        index = word >> 3
        if self._fast_enabled and 0 <= index < self._nwords:
            self._pend(ACCESS_W, word)
            self._words[index] = value & WORD_MASK
            self._fbits[index] = 1 if fbit else 0
            return
        self._emit(ACCESS_W, word)
        self.memory.write_word_tagged(word, value, fbit)

    # ------------------------------------------------------------------
    # Prefetch and plain computation
    # ------------------------------------------------------------------
    def prefetch(self, address: int, lines: int = 1) -> None:
        """Issue one (block) software prefetch instruction."""
        if self._fast_enabled:
            self._extras[len(self._kinds)] = lines
            self._pend(PREFETCH, address)
        else:
            self._emit(PREFETCH, address, lines)

    def execute(self, instructions: int) -> None:
        """Account for ``instructions`` non-memory instructions."""
        if self._fast_enabled:
            kinds = self._kinds
            kinds.append(EXEC)
            self._ops.append(instructions)
            if len(kinds) >= PENDING_ENTRIES:
                self._drain()
        else:
            self._emit(EXEC, instructions)

    def raw_write(self, address: int, value: int) -> None:
        """Untimed raw word write (no caches, no forwarding, no cost).

        This is the escape hatch for modelling *magical* memory updates --
        notably the perfect-forwarding pointer fixup of Figure 10's
        ``Perf`` bound, which repairs stale pointers for free.  It emits
        no entry: a write that retargets a forwarding word only matters
        to later walks, which read memory and record what they find.
        """
        self.memory.write_word(address, value)

    # ------------------------------------------------------------------
    # Heap and pools
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int, align: int = WORD_SIZE) -> int:
        """Allocate a heap block; charges allocator bookkeeping time."""
        if self._fast_enabled:
            self._pend(MALLOC, nbytes)
        else:
            self._emit(MALLOC, nbytes)
        return self.heap.allocate(nbytes, align)

    def free(self, address: int) -> None:
        """Forwarding-aware deallocation wrapper (Section 3.3).

        Every heap block reachable along the forwarding chain of the
        object's first word is released, so relocated copies do not leak
        when the application frees the object by any of its addresses.
        """
        chain = self._forwarding.chain(address)
        if self.events is not None:
            self.events.emit("mem.free", address=address, chain=len(chain))
        if self._fast_enabled:
            self._pend(FREE, len(chain))
        else:
            self._emit(FREE, len(chain))
        freed_any = False
        in_pool = False
        for word_address in chain:
            if self.heap.owns(word_address):
                self.heap.release(word_address)
                freed_any = True
            elif self._pool_region_base <= word_address < self._pool_bump:
                # Pool (arena) memory is reclaimed wholesale, never block by
                # block; freeing a relocated copy by its pool address is a
                # no-op, and the original heap stub -- unreachable from here,
                # since chains only run old-to-new -- stays resident.  That
                # residue is exactly the paper's Table 1 "space overhead".
                in_pool = True
        if not freed_any and not in_pool:
            raise DoubleFreeError(address)

    def create_pool(self, size: int, name: str = "pool") -> RelocationPool:
        """Carve a contiguous relocation pool out of the pool region."""
        requested = size
        size = (size + WORD_SIZE - 1) & ~(WORD_SIZE - 1)
        if self._pool_bump + size > self._pool_limit:
            raise MemoryAccessError(self._pool_bump, size, "pool region exhausted")
        pool = RelocationPool(self._pool_bump, size, name)
        self._pool_bump += size
        index = len(self.pools)
        self.pools.append(pool)
        events = self.events
        if events is not None:
            events.emit("pool.create", index=index, size=requested, name=name)

            def on_allocate(address: int, nbytes: int, align: int) -> None:
                events.emit(
                    "pool.alloc", index=index, address=address, nbytes=nbytes
                )

            pool.on_allocate = on_allocate
        return pool

    # ------------------------------------------------------------------
    # User-level traps (Section 3.2)
    # ------------------------------------------------------------------
    def set_trap_handler(self, handler: TrapHandler | None) -> None:
        """Install (or clear) the user-level forwarding trap handler.

        Emits a ``TRAP`` entry: a forwarded reference made while a
        handler is installed pays ``user_trap_cycles``.
        """
        self._emit(TRAP, 1 if handler is not None else 0)
        self._trap_handler = handler

    @property
    def trap_handler(self) -> TrapHandler | None:
        """The installed handler; read-only, so every change of it goes
        through :meth:`set_trap_handler` and its ``TRAP`` entry."""
        return self._trap_handler

    # ------------------------------------------------------------------
    # Relocation bookkeeping (Table 1 counters)
    # ------------------------------------------------------------------
    def note_relocation(self, relocations: int = 1, words: int = 0) -> None:
        """Credit relocation activity to this machine's Table 1 counters.

        The relocation runtime (``relocate()`` and the optimizers built on
        it) calls this instead of mutating ``relocation_stats`` directly,
        so the bookkeeping reaches the event log.
        """
        if self.events is not None:
            self.events.emit("reloc.move", count=relocations, words=words)
        stats = self.relocation_stats
        stats.relocations += relocations
        stats.words_relocated += words

    def note_optimizer_invocation(self) -> None:
        """Count one invocation of a higher-level layout optimization."""
        if self.events is not None:
            self.events.emit("opt.invoke")
        self.relocation_stats.optimizer_invocations += 1

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def cycles(self) -> float:
        self._sync()
        return self._timing.cycle

    def stats(self) -> MachineStats:
        """Snapshot every counter the experiments report."""
        self._sync()
        forwarding = self._forwarding.stats
        return MachineStats.collect(
            timing=self._timing,
            hierarchy=self._hierarchy,
            loads=replace(self._load_latency),
            stores=replace(self._store_latency),
            speculator=self._speculator,
            prefetcher=self._prefetcher,
            forwarding_hops=forwarding.total_hops,
            cycle_checks=forwarding.cycle_check_invocations,
            forwarding_chain_hist=forwarding.hop_histogram,
            relocation=replace(
                self.relocation_stats,
                pool_bytes=sum(pool.used_bytes for pool in self.pools),
            ),
            heap_high_water=self.heap.stats.high_water,
        )

    @property
    def metrics(self):
        """This machine's live ``repro.obs`` registry (built on first use).

        Every component's counters are *bound* -- read only at snapshot
        time, after the registry drains the pending chunk -- so the
        reference hot paths never touch the registry (the hot-path flush
        contract; see DESIGN.md §5c).  The canonical names match
        :meth:`MachineStats.to_snapshot`, with extra per-component detail
        (per-level hits, MSHR activity, traffic split by fill/writeback)
        available only on the live registry.
        """
        self._sync()
        registry = self._registry
        if registry is None:
            from repro.obs.registry import GAUGE, Registry

            registry = Registry()
            registry.flush = self._sync
            timing = self._timing
            timing.register_metrics(registry)
            self._hierarchy.register_metrics(registry)
            self._forwarding.stats.register_metrics(registry, "fwd")
            self._prefetcher.register_metrics(registry, "prefetch")
            if self._speculator is not None:
                self._speculator.register_metrics(registry, "spec")
            else:
                registry.bind("spec.misspeculations", lambda: timing.misspeculations)
            self._load_latency.register_metrics(registry, "ref.load")
            self._store_latency.register_metrics(registry, "ref.store")
            relocation = self.relocation_stats
            registry.bind("reloc.count", lambda: relocation.relocations)
            registry.bind("reloc.words", lambda: relocation.words_relocated)
            registry.bind(
                "reloc.optimizer_invocations",
                lambda: relocation.optimizer_invocations,
            )
            pools = self.pools
            registry.bind(
                "reloc.pool_bytes", lambda: sum(pool.used_bytes for pool in pools)
            )
            heap = self.heap.stats
            registry.bind("heap.high_water", lambda: heap.high_water, kind=GAUGE)
            self._registry = registry
        return registry
