"""Aggregated simulation statistics.

One :class:`MachineStats` snapshot carries everything the paper's
evaluation section reports:

* graduation-slot breakdown (Figure 5),
* load miss counts split full/partial (Figure 6(a)),
* bytes moved at both memory-system interfaces (Figure 6(b)),
* forwarding frequency and per-reference latency split (Figure 10(c,d)),
* relocation and space-overhead accounting (Table 1).

Snapshots are plain data: experiments collect them, diff them, and render
them without needing the live machine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cpu.timing import SlotBreakdown
from repro.obs.registry import GAUGE, HISTOGRAM, Snapshot

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cpu.prefetch import SoftwarePrefetcher
    from repro.cpu.speculation import DependenceSpeculator
    from repro.cpu.timing import TimingModel


@dataclass(slots=True)
class ReferenceLatencyStats:
    """Per-reference completion-time accounting for Figure 10(d).

    ``ordinary`` sums cache hit/miss latencies of the final access;
    ``forwarding`` sums time spent dereferencing forwarding addresses
    (hop accesses plus trap overhead).
    """

    count: int = 0
    forwarded: int = 0
    ordinary_cycles: float = 0.0
    forwarding_cycles: float = 0.0

    @property
    def avg_ordinary(self) -> float:
        return self.ordinary_cycles / self.count if self.count else 0.0

    @property
    def avg_forwarding(self) -> float:
        return self.forwarding_cycles / self.count if self.count else 0.0

    @property
    def avg_total(self) -> float:
        return self.avg_ordinary + self.avg_forwarding

    @property
    def forwarded_fraction(self) -> float:
        """Fraction of references needing >= 1 hop (Figure 10(c))."""
        return self.forwarded / self.count if self.count else 0.0

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose these counters through an ``repro.obs`` registry."""
        registry.bind(f"{prefix}.count", lambda: self.count)
        registry.bind(f"{prefix}.forwarded", lambda: self.forwarded)
        registry.bind(f"{prefix}.ordinary_cycles", lambda: self.ordinary_cycles)
        registry.bind(
            f"{prefix}.forwarding_cycles", lambda: self.forwarding_cycles
        )


@dataclass(slots=True)
class RelocationStats:
    """Software-side relocation activity (Table 1)."""

    #: Calls to relocate() (one per object moved).
    relocations: int = 0
    #: Total words moved.
    words_relocated: int = 0
    #: Invocations of higher-level optimizations (e.g. list linearizations).
    optimizer_invocations: int = 0
    #: Bytes of pool space consumed by relocated copies ("Space Overhead").
    pool_bytes: int = 0


@dataclass
class MachineStats:
    """Full snapshot of one simulation run."""

    cycles: float = 0.0
    instructions: int = 0
    slots: SlotBreakdown = field(
        default_factory=lambda: SlotBreakdown(0.0, 0.0, 0.0, 0.0)
    )
    loads: ReferenceLatencyStats = field(default_factory=ReferenceLatencyStats)
    stores: ReferenceLatencyStats = field(default_factory=ReferenceLatencyStats)
    # Cache behaviour.
    l1_load_misses_full: int = 0
    l1_load_misses_partial: int = 0
    l1_store_misses_full: int = 0
    l1_store_misses_partial: int = 0
    l2_misses: int = 0
    # Bandwidth (Figure 6(b)).
    l1_l2_bytes: int = 0
    l2_mem_bytes: int = 0
    # Forwarding engine.
    forwarding_hops: int = 0
    cycle_checks: int = 0
    #: Chain-length distribution: hops -> references needing exactly that
    #: many (the paper's "chains are short" evidence, Section 5.4).
    forwarding_chain_hist: dict[int, int] = field(default_factory=dict)
    # Speculation.
    speculation_loads_checked: int = 0
    misspeculations: int = 0
    # Prefetching.
    prefetch_instructions: int = 0
    prefetch_fills: int = 0
    # Software relocation.
    relocation: RelocationStats = field(default_factory=RelocationStats)
    # Heap footprint.
    heap_high_water: int = 0
    #: Miss-path stage counters (``cache.misspath.*`` leaf name ->
    #: count).  Empty unless the run's hierarchy carried a mechanism, so
    #: baseline snapshots -- and their metric trees, dumps, and cached
    #: results -- are byte-identical to pre-misspath ones.
    misspath: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def load_misses(self) -> int:
        return self.l1_load_misses_full + self.l1_load_misses_partial

    @property
    def store_misses(self) -> int:
        return self.l1_store_misses_full + self.l1_store_misses_partial

    @property
    def total_bandwidth_bytes(self) -> int:
        return self.l1_l2_bytes + self.l2_mem_bytes

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "MachineStats") -> float:
        """Execution-time speedup of ``self`` relative to ``baseline``."""
        return baseline.cycles / self.cycles if self.cycles else 0.0

    # ------------------------------------------------------------------
    # Registry view (repro.obs)
    # ------------------------------------------------------------------
    @classmethod
    def collect(
        cls,
        *,
        timing: "TimingModel",
        hierarchy: "MemoryHierarchy",
        loads: ReferenceLatencyStats,
        stores: ReferenceLatencyStats,
        speculator: "DependenceSpeculator | None" = None,
        prefetcher: "SoftwarePrefetcher | None" = None,
        forwarding_hops: int = 0,
        cycle_checks: int = 0,
        forwarding_chain_hist: dict[int, int] | None = None,
        relocation: RelocationStats | None = None,
        heap_high_water: int = 0,
    ) -> "MachineStats":
        """Assemble a snapshot from live config-dependent components.

        The single aggregation codepath shared by :meth:`Machine.stats`
        and trace replay: config-dependent counters are read off the
        components, config-invariant ones (forwarding totals, relocation
        bookkeeping, heap footprint) come in as arguments because replay
        copies them from the capture.
        """
        miss = hierarchy.miss_classes
        traffic = hierarchy.traffic
        return cls(
            cycles=timing.cycle,
            instructions=timing.instructions,
            slots=timing.slot_breakdown(),
            loads=loads,
            stores=stores,
            l1_load_misses_full=miss.load_full,
            l1_load_misses_partial=miss.load_partial,
            l1_store_misses_full=miss.store_full,
            l1_store_misses_partial=miss.store_partial,
            l2_misses=hierarchy.l2.stats.misses,
            l1_l2_bytes=traffic.l1_l2_bytes,
            l2_mem_bytes=traffic.l2_mem_bytes,
            forwarding_hops=forwarding_hops,
            cycle_checks=cycle_checks,
            forwarding_chain_hist=(
                dict(forwarding_chain_hist) if forwarding_chain_hist else {}
            ),
            speculation_loads_checked=(
                speculator.stats.loads_checked if speculator else 0
            ),
            misspeculations=timing.misspeculations,
            prefetch_instructions=(
                prefetcher.stats.instructions_issued if prefetcher else 0
            ),
            prefetch_fills=prefetcher.stats.fills_started if prefetcher else 0,
            relocation=relocation if relocation is not None else RelocationStats(),
            heap_high_water=heap_high_water,
            misspath=(
                hierarchy.misspath.stats_dict()
                if hierarchy.misspath is not None
                else {}
            ),
        )

    def to_snapshot(self) -> Snapshot:
        """This snapshot as an ``repro.obs`` metric tree.

        Canonical dotted names: the same names a live
        :attr:`Machine.metrics <repro.core.machine.Machine.metrics>`
        registry exposes, so experiment aggregation can merge stats from
        direct runs, replays, and cached results interchangeably.
        ``heap.high_water`` is a gauge (merges by max); everything else
        is a counter.
        """
        values: dict[str, Any] = {
            "time.cycles": self.cycles,
            "core.instructions": self.instructions,
            "slots.busy": self.slots.busy,
            "slots.load_stall": self.slots.load_stall,
            "slots.store_stall": self.slots.store_stall,
            "slots.inst_stall": self.slots.inst_stall,
            "ref.load.count": self.loads.count,
            "ref.load.forwarded": self.loads.forwarded,
            "ref.load.ordinary_cycles": self.loads.ordinary_cycles,
            "ref.load.forwarding_cycles": self.loads.forwarding_cycles,
            "ref.store.count": self.stores.count,
            "ref.store.forwarded": self.stores.forwarded,
            "ref.store.ordinary_cycles": self.stores.ordinary_cycles,
            "ref.store.forwarding_cycles": self.stores.forwarding_cycles,
            "cache.l1.miss.load_full": self.l1_load_misses_full,
            "cache.l1.miss.load_partial": self.l1_load_misses_partial,
            "cache.l1.miss.store_full": self.l1_store_misses_full,
            "cache.l1.miss.store_partial": self.l1_store_misses_partial,
            "cache.l2.miss.total": self.l2_misses,
            "bw.l1_l2.bytes": self.l1_l2_bytes,
            "bw.l2_mem.bytes": self.l2_mem_bytes,
            "fwd.hops": self.forwarding_hops,
            "fwd.cycle_checks": self.cycle_checks,
            "fwd.chain_length": dict(self.forwarding_chain_hist),
            "spec.loads_checked": self.speculation_loads_checked,
            "spec.misspeculations": self.misspeculations,
            "prefetch.instructions": self.prefetch_instructions,
            "prefetch.fills": self.prefetch_fills,
            "reloc.count": self.relocation.relocations,
            "reloc.words": self.relocation.words_relocated,
            "reloc.optimizer_invocations": self.relocation.optimizer_invocations,
            "reloc.pool_bytes": self.relocation.pool_bytes,
            "heap.high_water": self.heap_high_water,
        }
        for key, count in self.misspath.items():
            values[f"cache.misspath.{key}"] = count
        return Snapshot(
            values,
            {"heap.high_water": GAUGE, "fwd.chain_length": HISTOGRAM},
        )

    def dump(self) -> dict[str, Any]:
        """Lossless nested-dict form (JSON-safe, exact float round trip).

        This preserves the full structure so :meth:`parse` reconstructs
        an *equal* snapshot -- the contract the ``repro.trace`` result
        cache relies on.
        """
        payload: dict[str, Any] = {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "slots": {
                "busy": self.slots.busy,
                "load_stall": self.slots.load_stall,
                "store_stall": self.slots.store_stall,
                "inst_stall": self.slots.inst_stall,
            },
            "loads": asdict(self.loads),
            "stores": asdict(self.stores),
            "l1_load_misses_full": self.l1_load_misses_full,
            "l1_load_misses_partial": self.l1_load_misses_partial,
            "l1_store_misses_full": self.l1_store_misses_full,
            "l1_store_misses_partial": self.l1_store_misses_partial,
            "l2_misses": self.l2_misses,
            "l1_l2_bytes": self.l1_l2_bytes,
            "l2_mem_bytes": self.l2_mem_bytes,
            "forwarding_hops": self.forwarding_hops,
            "cycle_checks": self.cycle_checks,
            "forwarding_chain_hist": {
                str(hops): count
                for hops, count in sorted(self.forwarding_chain_hist.items())
            },
            "speculation_loads_checked": self.speculation_loads_checked,
            "misspeculations": self.misspeculations,
            "prefetch_instructions": self.prefetch_instructions,
            "prefetch_fills": self.prefetch_fills,
            "relocation": asdict(self.relocation),
            "heap_high_water": self.heap_high_water,
        }
        if self.misspath:
            # Only present for mechanism-carrying runs: baseline dumps
            # (and their cached-result files) stay byte-identical to
            # pre-misspath ones.
            payload["misspath"] = {
                key: self.misspath[key] for key in sorted(self.misspath)
            }
        return payload

    @classmethod
    def parse(cls, data: dict[str, Any]) -> "MachineStats":
        """Inverse of :meth:`dump`."""
        payload = dict(data)
        payload["slots"] = SlotBreakdown(**payload["slots"])
        payload["loads"] = ReferenceLatencyStats(**payload["loads"])
        payload["stores"] = ReferenceLatencyStats(**payload["stores"])
        payload["relocation"] = RelocationStats(**payload["relocation"])
        # JSON stringifies the histogram keys; pre-PR4 dumps lack the
        # field entirely.
        payload["forwarding_chain_hist"] = {
            int(hops): count
            for hops, count in payload.get("forwarding_chain_hist", {}).items()
        }
        # Absent from baseline and pre-PR6 dumps.
        payload["misspath"] = {
            key: int(count)
            for key, count in payload.get("misspath", {}).items()
        }
        return cls(**payload)
