"""Contiguous relocation pools.

Section 3.1 / Figure 4(b) of the paper: list linearization (and the other
packing optimizations) allocate the *new* homes of relocated objects from
"a pool of contiguous memory, thereby creating spatial locality".  The
pool is the destination arena; its high-water mark is exactly the "Space
Overhead" column of Table 1 -- virtual memory consumed to hold relocated
copies while old locations are retained as forwarding stubs.

A pool is a simple bump allocator: consecutive requests return adjacent
addresses, which is the entire point.
"""

from __future__ import annotations

from repro.core.errors import AllocationError
from repro.core.memory import WORD_SIZE


class RelocationPool:
    """Bump allocator over a contiguous region of simulated memory."""

    #: Optional instrumentation callback ``(address, nbytes, align)``,
    #: installed by ``Machine.create_pool`` when an event log is attached
    #: so pool consumption appears in it.
    on_allocate = None

    def __init__(self, base: int, size: int, name: str = "pool") -> None:
        if base <= 0 or base % WORD_SIZE:
            raise ValueError(f"pool base must be positive and word aligned: {base:#x}")
        if size <= 0:
            raise ValueError(f"pool size must be positive, got {size}")
        self.name = name
        self.base = base
        self.limit = base + size
        self._bump = base
        self.high_water = 0
        self.allocations = 0

    def allocate(self, nbytes: int, align: int = WORD_SIZE) -> int:
        """Return the next ``nbytes`` chunk, word aligned (or stricter)."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        if align < WORD_SIZE or align & (align - 1):
            raise ValueError(f"alignment must be a power-of-two >= {WORD_SIZE}")
        address = (self._bump + align - 1) & ~(align - 1)
        size = (nbytes + WORD_SIZE - 1) & ~(WORD_SIZE - 1)
        if address + size > self.limit:
            raise AllocationError(
                f"relocation pool {self.name!r} exhausted: need {size} bytes, "
                f"{self.limit - self._bump} available"
            )
        self._bump = address + size
        self.allocations += 1
        self.high_water = max(self.high_water, self._bump - self.base)
        if self.on_allocate is not None:
            self.on_allocate(address, nbytes, align)
        return address

    @property
    def used_bytes(self) -> int:
        """Bytes consumed so far (the Table 1 space overhead)."""
        return self._bump - self.base

    @property
    def remaining_bytes(self) -> int:
        return self.limit - self._bump

    def contains(self, address: int) -> bool:
        """True if ``address`` lies within this pool's region."""
        return self.base <= address < self.limit
