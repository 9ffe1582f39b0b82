"""A paging layer: memory forwarding below the cache hierarchy.

Section 2.2 and the paper's conclusion argue the optimizations apply "to
the other levels of the memory hierarchy.  For example, we can apply
data relocation to improve the spatial locality within pages (and hence
on disk) for out-of-core applications."

This module supplies the substrate: an LRU-managed pool of resident page
frames over the simulated address space, with a disk-latency charge per
page fault.  The :mod:`repro.vm.out_of_core` experiment then shows list
linearization cutting page faults the same way it cuts cache misses.

The pager sees *final* addresses -- the machine resolves forwarding
before any physical access -- so relocation transparently changes which
pages a traversal touches: exactly the paper's point.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class PagerConfig:
    """Residency and cost parameters of the paging layer."""

    page_size: int = 4096
    #: Number of page frames that fit in "memory" (tiny, so the working
    #: set of an out-of-core structure exceeds it).
    resident_pages: int = 8
    #: Cost of a page fault (disk read), in simulated cycles.
    fault_cycles: float = 50_000.0


@dataclass
class PagerStats:
    accesses: int = 0
    faults: int = 0
    evictions: int = 0

    @property
    def fault_rate(self) -> float:
        return self.faults / self.accesses if self.accesses else 0.0


class Pager:
    """LRU page-frame manager charging disk latency per fault."""

    def __init__(self, config: PagerConfig | None = None) -> None:
        self.config = config or PagerConfig()
        if self.config.page_size & (self.config.page_size - 1):
            raise ValueError("page size must be a power of two")
        if self.config.resident_pages < 1:
            raise ValueError("need at least one resident page")
        self._shift = self.config.page_size.bit_length() - 1
        #: page number -> None, ordered by recency (OrderedDict as LRU).
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.stats = PagerStats()

    def access(self, address: int) -> float:
        """Touch ``address``; returns the fault latency charged (0 if hit)."""
        page = address >> self._shift
        stats = self.stats
        stats.accesses += 1
        resident = self._resident
        if page in resident:
            resident.move_to_end(page)
            return 0.0
        stats.faults += 1
        if len(resident) >= self.config.resident_pages:
            resident.popitem(last=False)
            stats.evictions += 1
        resident[page] = None
        return self.config.fault_cycles

    def resident_count(self) -> int:
        return len(self._resident)

    def is_resident(self, address: int) -> bool:
        return (address >> self._shift) in self._resident
