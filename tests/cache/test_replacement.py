"""Replacement behaviour of the flat-array cache: LRU, FIFO, random."""

from repro.cache.cache import Cache


class _ReferenceXorshift:
    """The random policy's reference semantics: a 32-bit xorshift stream
    from the cache's seed, each victim the next value modulo the set size."""

    def __init__(self, seed: int = 0x9E3779B9) -> None:
        self._state = seed

    def victim_index(self, cache_set: list) -> int:
        state = self._state
        state ^= (state << 13) & 0xFFFFFFFF
        state ^= state >> 17
        state ^= (state << 5) & 0xFFFFFFFF
        self._state = state
        return state % len(cache_set)


class TestFIFO:
    def test_fifo_cache_differs_from_lru(self):
        """A pattern where refreshing matters: LRU keeps the hot line."""
        lru = Cache(64, 32, 2, "lru")
        fifo = Cache(64, 32, 2, "fifo")
        for cache in (lru, fifo):
            cache.fill(0x0)
            cache.fill(0x400)
            cache.lookup(0x0, False)   # refresh 0x0 (LRU only)
            cache.fill(0x800)
        assert lru.contains(0x0)
        assert not fifo.contains(0x0)


class TestCacheVictimSelection:
    """End-to-end victim behaviour of the flat-array Cache itself."""

    def test_lru_evicts_least_recently_used(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0)
        cache.fill(0x400)
        cache.lookup(0x0, False)        # 0x400 becomes LRU
        evicted = cache.fill(0x800)
        assert evicted is not None
        assert evicted.line_address == 0x400
        assert cache.contains(0x0)

    def test_fifo_evicts_oldest_fill(self):
        cache = Cache(64, 32, 2, "fifo")
        cache.fill(0x0)
        cache.fill(0x400)
        cache.lookup(0x0, False)        # hit must NOT refresh under FIFO
        evicted = cache.fill(0x800)
        assert evicted is not None
        assert evicted.line_address == 0x0

    def test_random_matches_reference_policy_sequence(self):
        """Cache's inlined xorshift tracks the reference stream exactly."""
        cache = Cache(128, 32, 4, "random")
        reference = _ReferenceXorshift()
        for way in range(4):            # fill one set: lines 0,1,2,3 of set 0
            cache.fill(way * 128)
        filled = [3 * 128, 2 * 128, 1 * 128, 0]   # front-insertion order
        for step in range(10):
            victim_slot = reference.victim_index([[i, 0] for i in range(4)])
            expected_victim = filled[victim_slot]
            new_line = (step + 4) * 128
            evicted = cache.fill(new_line)
            assert evicted is not None
            assert evicted.line_address == expected_victim
            filled.pop(victim_slot)
            filled.insert(0, new_line)

    def test_random_victims_deterministic_across_instances(self):
        results = []
        for _ in range(2):
            cache = Cache(128, 32, 4, "random")
            for way in range(4):
                cache.fill(way * 128)
            results.append(
                [cache.fill((step + 4) * 128).line_address for step in range(8)]
            )
        assert results[0] == results[1]

    def test_dirty_victim_reported(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0, dirty=True)
        cache.fill(0x400)
        cache.fill(0x800)               # evicts dirty 0x0
        evicted = cache.fill(0xC00)     # evicts clean 0x400... after reorder
        assert cache.stats.evictions == 2
        assert cache.stats.dirty_evictions == 1


class TestInvalidate:
    def test_invalidate_present_line(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0)
        cache.fill(0x400)
        assert cache.invalidate(0x0)
        assert not cache.contains(0x0)
        assert cache.contains(0x400)

    def test_invalidate_absent_line(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0)
        assert not cache.invalidate(0x800)
        assert cache.contains(0x0)

    def test_invalidate_middle_preserves_order(self):
        """Removing a middle slot closes the gap without reordering."""
        cache = Cache(128, 32, 4, "lru")
        for way in range(4):
            cache.fill(way * 128)       # order: 384, 256, 128, 0
        assert cache.invalidate(256)
        # The freed way refills without eviction; after that the fills
        # evict 0 then 128 (the LRU tail), never the MRU line 384.
        assert cache.fill(4 * 128) is None
        assert cache.fill(5 * 128).line_address == 0
        assert cache.fill(6 * 128).line_address == 128
        assert cache.contains(384)

    def test_refill_after_invalidate(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0, dirty=True)
        cache.invalidate(0x0)
        assert cache.fill(0x0) is None  # set has room again
        assert cache.contains(0x0)


class TestResidentLines:
    def test_counts_fills(self):
        cache = Cache(128, 32, 4, "lru")
        assert cache.resident_lines() == 0
        cache.fill(0x0)
        cache.fill(0x20)
        assert cache.resident_lines() == 2
        cache.fill(0x0)                 # refill of a present line: no change
        assert cache.resident_lines() == 2

    def test_capped_by_capacity(self):
        cache = Cache(64, 32, 2, "lru")
        for i in range(10):
            cache.fill(i * 32)
        assert cache.resident_lines() == 2

    def test_drops_on_invalidate(self):
        cache = Cache(64, 32, 2, "lru")
        cache.fill(0x0)
        cache.fill(0x400)
        cache.invalidate(0x0)
        assert cache.resident_lines() == 1
