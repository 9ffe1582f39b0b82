"""A single level of set-associative cache (state only, no timing).

Timing, miss-status handling, and bandwidth accounting live in
:mod:`repro.cache.hierarchy`; this module models just the tag arrays:
which lines are present, their dirty bits, and replacement.

Line size is a constructor parameter because the paper's central
experiments (Figures 5 and 6) sweep it: layout optimizations pay off
*more* as lines get longer, which is the headline shape to reproduce.

Representation
--------------
Set state lives in preallocated flat sequences rather than per-set
Python lists: one flat list of line tags and one ``bytearray`` of dirty
bits, both indexed by ``set_index * associativity + slot``, plus a
``bytearray`` of per-set occupancy counts.  (The tags are a plain list,
not an ``array('q')``: tag probes compare against stored Python ints
directly instead of boxing a fresh int per read, which measurably
matters in the replay kernels; the handful of caches a run builds makes
the extra per-object memory irrelevant.)  Within a set's segment the
*slot position is the replacement order* -- slot 0 is the most recently
used (or most recently filled, for FIFO/random) line and the last
occupied slot is the victim.  This is exactly the MRU-to-LRU list order
the previous list-of-lists representation maintained, so hit/miss and
eviction behaviour is bit-for-bit identical, but probes touch one
contiguous segment and never allocate.  Vacant slots (at or beyond the
set's occupancy count) always hold the ``-1`` sentinel, which lets a
probe of a known way skip the occupancy check entirely -- no real line
address is negative.

Replacement is inlined (no per-access policy-object dispatch): LRU
moves the hit slot to the front of its segment, FIFO and random leave
hit order alone, and random picks its victim from a deterministic
32-bit xorshift sequence (``state ^= state << 13; state ^= state >> 17;
state ^= state << 5``, seeded with :data:`_RANDOM_SEED`), taken modulo
the set's occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass

# Inlined replacement modes (semantics in the module docstring).
_LRU = 0
_FIFO = 1
_RANDOM = 2
_MODES = {"lru": _LRU, "fifo": _FIFO, "random": _RANDOM}

#: Seed of the deterministic xorshift victim sequence, fixed so
#: simulations stay reproducible.
_RANDOM_SEED = 0x9E3779B9


@dataclass(slots=True)
class EvictedLine:
    """Description of a line pushed out of the cache by a fill."""

    line_address: int
    dirty: bool


@dataclass(slots=True)
class CacheStats:
    """Per-level hit/miss counters, split by access type."""

    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def hits(self) -> int:
        return self.load_hits + self.store_hits

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def miss_rate(self) -> float:
        accesses = self.accesses
        return self.misses / accesses if accesses else 0.0

    def register_metrics(self, registry, prefix: str) -> None:
        """Expose these counters through an ``repro.obs`` registry.

        Bound (snapshot-time) getters: the lookup/fill hot paths keep
        mutating this struct's flat slots at zero added cost.
        """
        registry.bind(f"{prefix}.hit.load", lambda: self.load_hits)
        registry.bind(f"{prefix}.hit.store", lambda: self.store_hits)
        registry.bind(f"{prefix}.miss.load", lambda: self.load_misses)
        registry.bind(f"{prefix}.miss.store", lambda: self.store_misses)
        registry.bind(f"{prefix}.evictions.total", lambda: self.evictions)
        registry.bind(f"{prefix}.evictions.dirty", lambda: self.dirty_evictions)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class Cache:
    """Set-associative cache tag array with configurable geometry.

    Parameters
    ----------
    size:
        Capacity in bytes (power of two).
    line_size:
        Line size in bytes (power of two).
    associativity:
        Number of ways; ``size / line_size`` must be divisible by it.
    policy:
        Replacement policy name (``lru``, ``fifo``, ``random``).
    name:
        Label used in stats reporting (e.g. ``"L1D"``).
    """

    __slots__ = (
        "name",
        "size",
        "line_size",
        "associativity",
        "num_sets",
        "line_shift",
        "policy",
        "stats",
        "_set_mask",
        "_mode",
        "_rng_state",
        "_tags",
        "_dirty",
        "_set_len",
    )

    def __init__(
        self,
        size: int,
        line_size: int,
        associativity: int,
        policy: str = "lru",
        name: str = "cache",
    ) -> None:
        if not _is_pow2(size) or not _is_pow2(line_size):
            raise ValueError("cache size and line size must be powers of two")
        if size < line_size:
            raise ValueError("cache smaller than one line")
        lines = size // line_size
        if associativity < 1 or lines % associativity:
            raise ValueError(
                f"associativity {associativity} does not divide {lines} lines"
            )
        mode = _MODES.get(policy)
        if mode is None:
            raise ValueError(
                f"unknown replacement policy {policy!r}; "
                f"choose from {sorted(_MODES)}"
            )
        self.name = name
        self.size = size
        self.line_size = line_size
        self.associativity = associativity
        self.num_sets = lines // associativity
        self.line_shift = line_size.bit_length() - 1
        self.policy = policy
        self._set_mask = self.num_sets - 1
        self._mode = mode
        self._rng_state = _RANDOM_SEED
        # Invariant: slots at or beyond a set's ``_set_len`` always hold
        # the -1 sentinel (no line address is negative), so a probe of a
        # fixed way can skip the occupancy check.  ``invalidate`` is the
        # only operation that vacates a slot; it restores the sentinel.
        # The specialized replay kernels rely on this.
        self._tags = [-1] * lines
        self._dirty = bytearray(lines)
        self._set_len = bytearray(self.num_sets)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Map a byte address to its line address (line-aligned bytes)."""
        return (address >> self.line_shift) << self.line_shift

    def lookup(self, address: int, is_write: bool) -> bool:
        """Probe the cache; returns True on hit and updates recency/dirty."""
        line = address >> self.line_shift
        set_index = line & self._set_mask
        assoc = self.associativity
        base = set_index * assoc
        tags = self._tags
        for slot in range(base, base + self._set_len[set_index]):
            if tags[slot] == line:
                if slot != base and self._mode == _LRU:
                    # Element-wise shift: sets are a handful of ways, so
                    # moving slots one by one beats slice assignment
                    # (which allocates temporaries).
                    dirty = self._dirty
                    d = dirty[slot]
                    while slot > base:
                        tags[slot] = tags[slot - 1]
                        dirty[slot] = dirty[slot - 1]
                        slot -= 1
                    tags[base] = line
                    dirty[base] = d
                if is_write:
                    self._dirty[slot] = 1
                    self.stats.store_hits += 1
                else:
                    self.stats.load_hits += 1
                return True
        if is_write:
            self.stats.store_misses += 1
        else:
            self.stats.load_misses += 1
        return False

    def contains(self, address: int) -> bool:
        """Non-destructive probe (no stats, no recency update)."""
        line = address >> self.line_shift
        set_index = line & self._set_mask
        base = set_index * self.associativity
        tags = self._tags
        for slot in range(base, base + self._set_len[set_index]):
            if tags[slot] == line:
                return True
        return False

    def fill(self, address: int, dirty: bool = False) -> EvictedLine | None:
        """Bring the line holding ``address`` into the cache.

        Returns the evicted line (if any) so the hierarchy can account for
        writeback bandwidth.  Filling a line already present just updates
        its dirty bit.
        """
        line = address >> self.line_shift
        set_index = line & self._set_mask
        assoc = self.associativity
        base = set_index * assoc
        tags = self._tags
        dirty_bits = self._dirty
        n = self._set_len[set_index]
        for slot in range(base, base + n):
            if tags[slot] == line:
                if slot != base and self._mode == _LRU:
                    d = dirty_bits[slot]
                    while slot > base:
                        tags[slot] = tags[slot - 1]
                        dirty_bits[slot] = dirty_bits[slot - 1]
                        slot -= 1
                    tags[base] = line
                    dirty_bits[base] = d
                    slot = base
                if dirty:
                    dirty_bits[slot] = 1
                return None
        evicted = None
        if n >= assoc:
            # Full set: evict.  LRU and FIFO both take the last slot (the
            # oldest, since fills insert at the front); random draws a
            # position from the deterministic xorshift stream.
            if self._mode == _RANDOM:
                state = self._rng_state
                state ^= (state << 13) & 0xFFFFFFFF
                state ^= state >> 17
                state ^= (state << 5) & 0xFFFFFFFF
                self._rng_state = state
                victim = base + state % n
            else:
                victim = base + n - 1
            victim_dirty = dirty_bits[victim]
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
            evicted = EvictedLine(tags[victim] << self.line_shift, bool(victim_dirty))
            # Remove the victim, then insert the new line at the front:
            # slots before the victim shift down one place.
            slot = victim
            while slot > base:
                tags[slot] = tags[slot - 1]
                dirty_bits[slot] = dirty_bits[slot - 1]
                slot -= 1
        else:
            slot = base + n
            while slot > base:
                tags[slot] = tags[slot - 1]
                dirty_bits[slot] = dirty_bits[slot - 1]
                slot -= 1
            self._set_len[set_index] = n + 1
        tags[base] = line
        dirty_bits[base] = 1 if dirty else 0
        return evicted

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address``; returns True if it was present."""
        line = address >> self.line_shift
        set_index = line & self._set_mask
        base = set_index * self.associativity
        tags = self._tags
        n = self._set_len[set_index]
        for slot in range(base, base + n):
            if tags[slot] == line:
                end = base + n - 1
                dirty_bits = self._dirty
                while slot < end:
                    tags[slot] = tags[slot + 1]
                    dirty_bits[slot] = dirty_bits[slot + 1]
                    slot += 1
                tags[end] = -1  # restore the above-set_len sentinel
                self._set_len[set_index] = n - 1
                return True
        return False

    def resident_lines(self) -> int:
        """Number of valid lines currently held (for tests/diagnostics)."""
        return sum(self._set_len)

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this level's counters under ``prefix`` (e.g. ``cache.l1``)."""
        self.stats.register_metrics(registry, prefix)
