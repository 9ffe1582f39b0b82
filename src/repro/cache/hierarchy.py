"""Two-level cache hierarchy with miss combining and bandwidth accounting.

This is the memory-system model behind every experiment in the paper:

* **Figure 5** needs the execution-time effect of line size on locality,
  which comes from the hit/miss behaviour modeled here.
* **Figure 6(a)** needs load misses split into *full* and *partial*
  (miss-combining) classes -- provided by the MSHR file.
* **Figure 6(b)** needs the bytes moved between the primary and secondary
  caches and between the secondary cache and main memory.

The hierarchy is inclusive, write-back, write-allocate, with a unified L2.
Experiments sweep the L1 line size while the (longer) L2 line stays
fixed, as on the R10000-class machines of the paper's era.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.cache.cache import Cache
from repro.cache.misspath import build_misspath
from repro.cache.mshr import MSHRFile


class AccessKind(Enum):
    """Where a data reference was ultimately served from."""

    L1_HIT = "l1_hit"
    L2_HIT = "l2_hit"
    MEMORY = "memory"
    #: Combined with an outstanding miss to the same line (partial miss).
    PARTIAL = "partial"
    #: Served by a miss-path stage (victim/miss cache or stream buffer).
    #: Still a *miss* for classification purposes -- the L1 itself did
    #: not have the line -- but it never reaches the L2.
    MISS_PATH = "misspath"


@dataclass(slots=True)
class AccessResult:
    """Outcome of one reference: classification plus absolute ready time."""

    kind: AccessKind
    ready: float

    @property
    def is_miss(self) -> bool:
        return self.kind is not AccessKind.L1_HIT


@dataclass
class HierarchyConfig:
    """Geometry and latency parameters of the modeled memory system.

    Defaults are the scaled configuration documented in DESIGN.md Section 5:
    a 4 KB 2-way L1 D-cache and a 16 KB 4-way unified L2, scaled down from
    the paper's machine in proportion to our reduced working sets so the
    applications run in the same miss regime (working sets comfortably
    exceed L2, as the paper's inputs exceeded its off-chip cache).
    """

    line_size: int = 32
    l1_size: int = 4 * 1024
    l1_assoc: int = 2
    l2_size: int = 16 * 1024
    l2_assoc: int = 4
    #: L2 line size; stays fixed while experiments sweep the L1 line size
    #: (as in an R10000-class machine: 32 B L1 lines, 128 B L2 lines).
    #: Never smaller than the L1 line.
    l2_line_size: int = 128
    l1_hit_latency: float = 1.0
    l2_hit_latency: float = 12.0
    memory_latency: float = 70.0
    #: Transfer bandwidth of the L1<->L2 interface: longer lines take
    #: longer to move, which is why long lines *hurt* when spatial
    #: locality is absent (the Figure 5 "N degrades with line size" shape).
    l1_bus_bytes_per_cycle: float = 16.0
    #: Transfer bandwidth of the L2<->memory interface.
    mem_bus_bytes_per_cycle: float = 8.0
    mshr_capacity: int = 8
    policy: str = "lru"
    #: L1 miss-path mechanism (:data:`repro.cache.misspath.MECHANISMS`).
    #: ``"none"`` keeps the exact baseline hierarchy -- no stage objects
    #: exist.  Every mechanism, ``"none"`` included, runs the generated
    #: kernel, which calls the stages where :meth:`MemoryHierarchy.access`
    #: does.
    mechanism: str = "none"
    #: Victim-cache entries (``victim_cache``/``combined``).
    vc_entries: int = 8
    #: Miss-cache entries (``miss_cache``).
    mc_entries: int = 8
    #: Stream-buffer count and per-buffer depth (``stream_buffers``/
    #: ``combined``).
    sb_count: int = 4
    sb_depth: int = 4
    #: Extra cycles (beyond the L1 hit latency) to serve a miss from a
    #: miss-path stage -- the local swap/refill cost, far below any L2
    #: round trip.
    misspath_hit_latency: float = 2.0

    @property
    def l2_fill_latency(self) -> float:
        """Latency of an L1 miss served by the L2 (incl. line transfer)."""
        return self.l2_hit_latency + self.line_size / self.l1_bus_bytes_per_cycle

    @property
    def full_miss_latency(self) -> float:
        """Latency of a miss that goes all the way to memory."""
        l2_line = max(self.l2_line_size, self.line_size)
        return (
            self.l2_fill_latency
            + self.memory_latency
            + l2_line / self.mem_bus_bytes_per_cycle
        )


@dataclass(slots=True)
class TrafficStats:
    """Bytes moved across the two off-core interfaces (Figure 6(b))."""

    l1_l2_fill_bytes: int = 0
    l1_l2_writeback_bytes: int = 0
    l2_mem_fill_bytes: int = 0
    l2_mem_writeback_bytes: int = 0

    @property
    def l1_l2_bytes(self) -> int:
        return self.l1_l2_fill_bytes + self.l1_l2_writeback_bytes

    @property
    def l2_mem_bytes(self) -> int:
        return self.l2_mem_fill_bytes + self.l2_mem_writeback_bytes

    @property
    def total_bytes(self) -> int:
        return self.l1_l2_bytes + self.l2_mem_bytes


@dataclass(slots=True)
class MissClassStats:
    """Full/partial miss counts split by loads and stores (Figure 6(a))."""

    load_full: int = 0
    load_partial: int = 0
    store_full: int = 0
    store_partial: int = 0

    @property
    def load_misses(self) -> int:
        return self.load_full + self.load_partial

    @property
    def store_misses(self) -> int:
        return self.store_full + self.store_partial


class MemoryHierarchy:
    """L1 D-cache + unified L2 + main memory, with MSHR-based combining."""

    __slots__ = (
        "config",
        "l1",
        "l2",
        "mshr",
        "traffic",
        "miss_classes",
        "prefetch_fills",
        "prefetch_redundant",
        "events",
        "misspath",
        "_l2_line_size",
        "_line_size",
        "_line_shift",
    )

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        cfg = self.config
        l2_line = max(cfg.l2_line_size, cfg.line_size)
        self.l1 = Cache(cfg.l1_size, cfg.line_size, cfg.l1_assoc, cfg.policy, "L1D")
        self.l2 = Cache(cfg.l2_size, l2_line, cfg.l2_assoc, cfg.policy, "L2")
        self.mshr = MSHRFile(cfg.mshr_capacity)
        self._l2_line_size = l2_line
        self.traffic = TrafficStats()
        self.miss_classes = MissClassStats()
        self.prefetch_fills = 0
        self.prefetch_redundant = 0
        #: Optional :class:`repro.obs.events.EventLog`; when set, L2
        #: inclusion victims emit ``cache.l2_victim`` events carrying the
        #: number of L1 lines invalidated.
        self.events = None
        #: Optional :class:`repro.cache.misspath.MissPath`; ``None`` with
        #: the default config, which is what keeps the baseline zero-cost.
        self.misspath = build_misspath(cfg)
        self._line_size = cfg.line_size
        self._line_shift = self.l1.line_shift

    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Line-align a byte address."""
        return (address >> self._line_shift) << self._line_shift

    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool, now: float) -> AccessResult:
        """Perform one demand reference at time ``now``.

        Accesses never span lines: the machine enforces natural alignment
        and the minimum line size (32 B) exceeds the maximum access size
        (one 8-byte word).
        """
        line = self.line_address(address)
        # An outstanding fill to the same line makes this a partial miss:
        # it combines with the fill and waits only the residual latency.
        ready = self.mshr.lookup(line, now)
        if ready is not None:
            self.mshr.combine(line, now)
            self.l1.lookup(address, is_write)  # recency/dirty update
            if is_write:
                self.miss_classes.store_partial += 1
            else:
                self.miss_classes.load_partial += 1
            return AccessResult(AccessKind.PARTIAL, ready)

        if self.l1.lookup(address, is_write):
            return AccessResult(AccessKind.L1_HIT, now + self.config.l1_hit_latency)

        if is_write:
            self.miss_classes.store_full += 1
        else:
            self.miss_classes.load_full += 1

        misspath = self.misspath
        if misspath is not None:
            dirty = misspath.probe(line)
            if dirty is not None:
                # Served beside L1: swap/refill the line in, route the
                # displaced L1 victim back through the stage pipeline,
                # and never touch the L2, the MSHRs, or the bus traffic.
                evicted_l1 = self.l1.fill(line, dirty=bool(dirty) or is_write)
                if evicted_l1 is not None:
                    self._route_victim(evicted_l1)
                cfg = self.config
                return AccessResult(
                    AccessKind.MISS_PATH,
                    now + cfg.l1_hit_latency + cfg.misspath_hit_latency,
                )

        kind, latency = self._fill_from_below(line, is_write)
        ready = self.mshr.allocate(line, now, latency)
        return AccessResult(kind, ready)

    def prefetch(self, address: int, now: float) -> bool:
        """Start a non-binding fill of the line holding ``address``.

        Returns True if a fill was actually started (i.e. the line was not
        already resident or in flight).  Prefetches never stall the core;
        they only consume MSHRs and bandwidth.
        """
        line = self.line_address(address)
        if self.mshr.lookup(line, now) is not None or self.l1.contains(line):
            self.prefetch_redundant += 1
            return False
        if self.misspath is not None:
            # A stage copy would go stale (and a victim-cache copy would
            # duplicate L1) once the prefetch lands; drop it first.
            self.misspath.invalidate(line)
        _, latency = self._fill_from_below(line, is_write=False)
        self.mshr.allocate(line, now, latency)
        self.prefetch_fills += 1
        return True

    # ------------------------------------------------------------------
    def _fill_from_below(self, line: int, is_write: bool) -> tuple[AccessKind, float]:
        """Bring ``line`` into L1 (and L2 if needed); returns (kind, latency)."""
        cfg = self.config
        if self.l2.lookup(line, False):
            kind = AccessKind.L2_HIT
            latency = cfg.l2_fill_latency
        else:
            kind = AccessKind.MEMORY
            latency = cfg.full_miss_latency
            self.traffic.l2_mem_fill_bytes += self._l2_line_size
            evicted_l2 = self.l2.fill(line)
            if evicted_l2 is not None:
                # Inclusion: dropping an L2 line drops every L1 line it
                # contains (the L2 line may span several L1 lines), and
                # every copy a miss-path stage holds beside L1.
                if self.misspath is not None:
                    for offset in range(0, self._l2_line_size, self._line_size):
                        self.misspath.invalidate(evicted_l2.line_address + offset)
                events = self.events
                if events is None:
                    for offset in range(0, self._l2_line_size, self._line_size):
                        self.l1.invalidate(evicted_l2.line_address + offset)
                else:
                    invalidated = 0
                    for offset in range(0, self._l2_line_size, self._line_size):
                        if self.l1.invalidate(evicted_l2.line_address + offset):
                            invalidated += 1
                    events.emit(
                        "cache.l2_victim",
                        line=evicted_l2.line_address,
                        dirty=bool(evicted_l2.dirty),
                        l1_invalidated=invalidated,
                    )
                if evicted_l2.dirty:
                    self.traffic.l2_mem_writeback_bytes += self._l2_line_size
        self.traffic.l1_l2_fill_bytes += self._line_size
        evicted_l1 = self.l1.fill(line, dirty=is_write)
        misspath = self.misspath
        if misspath is not None:
            if evicted_l1 is not None:
                self._route_victim(evicted_l1)
            # Miss cache copies / stream-buffer reallocation follow every
            # fill from below (demand and prefetch alike).
            misspath.on_demand_fill(line)
        elif evicted_l1 is not None and evicted_l1.dirty:
            self.traffic.l1_l2_writeback_bytes += self._line_size
            # The write-back lands in L2 and dirties it there.
            self.l2.fill(evicted_l1.line_address, dirty=True)
        return kind, latency

    def _route_victim(self, evicted_l1) -> None:
        """Send one L1 victim through the miss path; spill lands in L2.

        Without a victim cache the stage pipeline passes the victim
        straight through, so the spill handling below reproduces the
        baseline write-back path exactly (clean victims vanish, dirty
        victims cost one L1<->L2 writeback and dirty their L2 line).
        """
        spilled = self.misspath.accept_victim(
            evicted_l1.line_address, evicted_l1.dirty
        )
        if spilled is not None and spilled[1]:
            self.traffic.l1_l2_writeback_bytes += self._line_size
            self.l2.fill(spilled[0], dirty=True)

    # ------------------------------------------------------------------
    def register_metrics(
        self, registry, prefix: str = "cache", bw_prefix: str = "bw"
    ) -> None:
        """Register every memory-system counter with an ``repro.obs`` registry.

        Getters go through ``self`` rather than the current stat structs
        because :meth:`reset_stats` replaces ``traffic``/``miss_classes``
        wholesale; a bound metric must survive that.
        """
        self.l1.register_metrics(registry, f"{prefix}.l1")
        self.l2.register_metrics(registry, f"{prefix}.l2")
        self.mshr.register_metrics(registry, f"{prefix}.mshr")
        registry.bind(
            f"{prefix}.l1.miss.load_full", lambda: self.miss_classes.load_full
        )
        registry.bind(
            f"{prefix}.l1.miss.load_partial",
            lambda: self.miss_classes.load_partial,
        )
        registry.bind(
            f"{prefix}.l1.miss.store_full", lambda: self.miss_classes.store_full
        )
        registry.bind(
            f"{prefix}.l1.miss.store_partial",
            lambda: self.miss_classes.store_partial,
        )
        registry.bind(f"{prefix}.l2.miss.total", lambda: self.l2.stats.misses)
        if self.misspath is not None:
            self.misspath.register_metrics(registry, f"{prefix}.misspath")
        registry.bind(f"{prefix}.prefetch.fills", lambda: self.prefetch_fills)
        registry.bind(
            f"{prefix}.prefetch.redundant", lambda: self.prefetch_redundant
        )
        registry.bind(
            f"{bw_prefix}.l1_l2.fill_bytes",
            lambda: self.traffic.l1_l2_fill_bytes,
        )
        registry.bind(
            f"{bw_prefix}.l1_l2.writeback_bytes",
            lambda: self.traffic.l1_l2_writeback_bytes,
        )
        registry.bind(
            f"{bw_prefix}.l1_l2.bytes", lambda: self.traffic.l1_l2_bytes
        )
        registry.bind(
            f"{bw_prefix}.l2_mem.fill_bytes",
            lambda: self.traffic.l2_mem_fill_bytes,
        )
        registry.bind(
            f"{bw_prefix}.l2_mem.writeback_bytes",
            lambda: self.traffic.l2_mem_writeback_bytes,
        )
        registry.bind(
            f"{bw_prefix}.l2_mem.bytes", lambda: self.traffic.l2_mem_bytes
        )

    def reset_stats(self) -> None:
        """Zero all counters while keeping cache contents intact."""
        self.traffic = TrafficStats()
        self.miss_classes = MissClassStats()
        self.prefetch_fills = 0
        self.prefetch_redundant = 0
        self.l1.stats.__init__()
        self.l2.stats.__init__()
        self.mshr.stats.__init__()
        if self.misspath is not None:
            self.misspath.stats.__init__()
