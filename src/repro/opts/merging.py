"""Parallel-table merging (the Compress optimization, Section 5.3).

Compress indexes two parallel arrays -- ``htab`` (8-byte hash codes) and
``codetab`` (2-byte codes) -- with the same index ``i``.  The
optimization copies both into one interleaved table ``T`` with
``T[i] = (htab[i], codetab[i])``, so a probe that needs both values
touches one line instead of two.

Relocation granularity imposes an asymmetry that this module models
faithfully (Section 3.3: two objects relocated to different destinations
may not share a word):

* ``htab`` entries are one word each, so each old entry can forward to
  its interleaved slot -- stray pointers into ``htab`` stay safe;
* ``codetab`` entries are sub-word (four share a word) and their new
  homes are *different* interleaved slots, so they cannot be forwarded
  individually.  They are copied instead, and the application must update
  its own ``codetab`` references (which Compress can, since accesses go
  through the table base).

The paper's headline subtlety -- merging *hurts* at 32 B and 64 B lines
and only wins at 128 B -- comes from the interleaved stride: fewer
entries fit per line, which penalises the (frequent) probes that need
``htab`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.machine import Machine
from repro.core.memory import WORD_SIZE
from repro.mem.pool import RelocationPool


@dataclass
class MergedTable:
    """Description of the interleaved table produced by ``merge_tables``."""

    base: int
    stride: int
    entries: int
    a_offset: int
    b_offset: int

    def a_address(self, index: int) -> int:
        return self.base + index * self.stride + self.a_offset

    def b_address(self, index: int) -> int:
        return self.base + index * self.stride + self.b_offset


def merge_tables(
    machine: Machine,
    base_a: int,
    elem_a_bytes: int,
    base_b: int,
    elem_b_bytes: int,
    entries: int,
    pool: RelocationPool,
) -> MergedTable:
    """Interleave two parallel arrays into one table in ``pool``.

    ``a`` elements must be exactly one word (they are relocated with
    forwarding stubs); ``b`` elements may be sub-word (they are copied,
    see module docstring).  Returns the merged-table descriptor.
    """
    if elem_a_bytes != WORD_SIZE:
        raise ValueError(
            f"table A elements must be one word ({WORD_SIZE} B) to be "
            f"individually relocatable, got {elem_a_bytes}"
        )
    if elem_b_bytes not in (1, 2, 4, 8):
        raise ValueError(f"unsupported element size {elem_b_bytes}")
    if entries <= 0:
        raise ValueError(f"entries must be positive, got {entries}")
    stride = elem_a_bytes + elem_b_bytes
    stride = (stride + WORD_SIZE - 1) & ~(WORD_SIZE - 1)
    base = pool.allocate(stride * entries)
    merged = MergedTable(
        base=base,
        stride=stride,
        entries=entries,
        a_offset=0,
        b_offset=elem_a_bytes,
    )
    for index in range(entries):
        # A-entry: copy, then forward the old word to the new slot.
        value_a = machine.unforwarded_read(base_a + index * elem_a_bytes)
        machine.unforwarded_write(merged.a_address(index), value_a, 0)
        machine.unforwarded_write(base_a + index * elem_a_bytes, merged.a_address(index), 1)
        # B-entry: plain copy (sub-word entries cannot be forwarded).
        value_b = machine.load(base_b + index * elem_b_bytes, elem_b_bytes)
        machine.store(merged.b_address(index), value_b, elem_b_bytes)
    machine.note_relocation(entries, entries)
    machine.note_optimizer_invocation()
    return merged
