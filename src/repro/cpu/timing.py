"""Coarse out-of-order timing model based on graduation slots.

The paper reports execution time as a breakdown of *graduation slots*
(Figure 5): on a 4-wide machine every cycle offers 4 slots, and each slot
either graduates an instruction (**busy**) or is lost to the oldest
instruction being a load miss (**load stall**), a store miss backing up the
store buffer (**store stall**), or anything else (**inst stall**).

A full cycle-accurate OoO pipeline is out of scope (DESIGN.md Section 2);
instead this model captures the first-order effects the paper's results
rest on:

* instructions graduate at up to ``width`` per cycle, with a fixed
  per-instruction inefficiency charged to inst stall (dependences,
  branches, fetch gaps);
* a load whose data is ready at absolute time ``t`` can be overlapped with
  other work for up to ``ooo_window`` cycles -- beyond that, the machine
  stalls and the lost cycles are attributed to load stall;
* stores retire through a finite store buffer; only when the buffer is
  full does a store miss stall graduation (store stall);
* forwarding exceptions and dependence-misspeculation flushes insert
  bubbles attributed to inst stall, with forwarding time also tracked
  separately for Figure 10(d).
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass


@dataclass
class TimingConfig:
    """Parameters of the graduation model (DESIGN.md Section 5)."""

    #: Graduation width (slots per cycle).
    width: int = 4
    #: Extra cycles per instruction lost to dependences/branches/fetch;
    #: charged to inst stall.  0.1 gives a realistic base CPI of ~0.35.
    inst_overhead: float = 0.1
    #: Cycles of a load's latency the out-of-order window can hide.
    ooo_window: float = 8.0
    #: Store buffer depth; store misses stall only when it is full.
    store_buffer_depth: int = 16
    #: Fixed cost of entering/leaving the forwarding exception path.
    forwarding_trap_cycles: float = 4.0
    #: Additional cycles per forwarding hop beyond the cache accesses
    #: (address swap, re-issue).
    forwarding_hop_cycles: float = 2.0
    #: Pipeline flush penalty for an incorrect data-dependence speculation.
    misspeculation_penalty: float = 20.0


@dataclass
class SlotBreakdown:
    """Graduation-slot totals in the four categories of Figure 5."""

    busy: float
    load_stall: float
    store_stall: float
    inst_stall: float

    @property
    def total(self) -> float:
        return self.busy + self.load_stall + self.store_stall + self.inst_stall


class TimingModel:
    """Advances simulated time and attributes lost slots to causes."""

    __slots__ = (
        "config",
        "cycle",
        "instructions",
        "load_stall_cycles",
        "store_stall_cycles",
        "inst_stall_cycles",
        "forwarding_cycles",
        "misspeculations",
        "_store_buffer",
        "_ipc",
    )

    def __init__(self, config: TimingConfig | None = None) -> None:
        self.config = config or TimingConfig()
        self.cycle: float = 0.0
        self.instructions: int = 0
        self.load_stall_cycles: float = 0.0
        self.store_stall_cycles: float = 0.0
        self.inst_stall_cycles: float = 0.0
        #: Subset of stall time spent dereferencing forwarding addresses
        #: (trap + hop overhead + the forwarded accesses' own residuals);
        #: reported separately in Figure 10(d).
        self.forwarding_cycles: float = 0.0
        self.misspeculations: int = 0
        #: Ready times of the stores in the buffer, kept sorted.
        self._store_buffer: list[float] = []
        self._ipc = 1.0 / self.config.width

    # ------------------------------------------------------------------
    def execute(self, count: int = 1) -> None:
        """Graduate ``count`` ordinary (non-memory) instructions."""
        cfg = self.config
        self.instructions += count
        self.cycle += count * self._ipc
        overhead = count * cfg.inst_overhead
        self.inst_stall_cycles += overhead
        self.cycle += overhead

    def load_completes(self, ready: float, forwarding: bool = False) -> None:
        """Account for a load whose value is ready at absolute time ``ready``.

        The out-of-order window hides up to ``ooo_window`` cycles of the
        residual latency; the remainder stalls graduation.
        """
        residual = ready - self.cycle - self.config.ooo_window
        if residual > 0.0:
            self.load_stall_cycles += residual
            self.cycle += residual
            if forwarding:
                self.forwarding_cycles += residual

    def store_completes(self, ready: float, forwarding: bool = False) -> None:
        """Account for a store retiring into the store buffer.

        The buffer absorbs outstanding store misses; when full, graduation
        stalls until the oldest entry drains.  The buffer is kept sorted,
        so the stores that have completed by now are a prefix (one
        ``bisect_right`` and a slice delete) and the earliest entry is
        ``buffer[0]``.  Only the multiset of ready times is observable,
        so the layout is free.
        """
        buffer = self._store_buffer
        now = self.cycle
        if buffer and buffer[0] <= now:
            del buffer[:bisect_right(buffer, now)]
        if len(buffer) >= self.config.store_buffer_depth:
            stall = buffer[0] - now
            if stall > 0.0:
                self.store_stall_cycles += stall
                self.cycle += stall
                if forwarding:
                    self.forwarding_cycles += stall
            del buffer[0]
        if ready > self.cycle:
            insort(buffer, ready)

    def forwarding_trap_cost(self, hops: int) -> float:
        """Exception-path overhead (cycles) of a reference with ``hops`` hops."""
        cfg = self.config
        return cfg.forwarding_trap_cycles + hops * cfg.forwarding_hop_cycles

    def forwarding_trap(self, hops: int) -> None:
        """Charge the exception-path overhead of a forwarded reference."""
        penalty = self.forwarding_trap_cost(hops)
        self.inst_stall_cycles += penalty
        self.forwarding_cycles += penalty
        self.cycle += penalty

    def misspeculation_flush(self) -> None:
        """Charge a data-dependence misspeculation pipeline flush."""
        self.misspeculations += 1
        penalty = self.config.misspeculation_penalty
        self.inst_stall_cycles += penalty
        self.cycle += penalty

    def stall(self, cycles: float, category: str = "inst") -> None:
        """Insert an explicit stall attributed to ``category``."""
        if cycles <= 0.0:
            return
        if category == "load":
            self.load_stall_cycles += cycles
        elif category == "store":
            self.store_stall_cycles += cycles
        else:
            self.inst_stall_cycles += cycles
        self.cycle += cycles

    # ------------------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Register timing counters with an ``repro.obs`` registry.

        All getters are bound (snapshot-time) reads of this model's flat
        slots; the per-reference accounting methods stay untouched-hot.
        Slot metrics mirror :meth:`slot_breakdown`'s width scaling.
        """
        width = self.config.width
        registry.bind("time.cycles", lambda: self.cycle)
        registry.bind("time.forwarding_cycles", lambda: self.forwarding_cycles)
        registry.bind("core.instructions", lambda: self.instructions)
        registry.bind("slots.busy", lambda: float(self.instructions))
        registry.bind("slots.load_stall", lambda: self.load_stall_cycles * width)
        registry.bind(
            "slots.store_stall", lambda: self.store_stall_cycles * width
        )
        registry.bind("slots.inst_stall", lambda: self.inst_stall_cycles * width)

    def slot_breakdown(self) -> SlotBreakdown:
        """Graduation slots by category (Figure 5's stacked bars)."""
        width = self.config.width
        return SlotBreakdown(
            busy=float(self.instructions),
            load_stall=self.load_stall_cycles * width,
            store_stall=self.store_stall_cycles * width,
            inst_stall=self.inst_stall_cycles * width,
        )
