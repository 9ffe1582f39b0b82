"""Composable L1 miss-path mechanisms: victim cache, miss cache, stream buffers.

The paper's layout optimizations deliberately reshuffle memory, which
shifts the *conflict-miss* profile of the primary cache -- but the plain
two-level hierarchy can only answer "how many misses", not "which
mechanism would have absorbed them".  This module adds the classic
Jouppi (ISCA 1990) miss-path structures as pluggable stages that sit
between an L1 miss and the L2 probe:

* **Victim cache** -- a small fully-associative LRU buffer holding the
  last few lines *evicted* from L1.  A miss that hits the victim cache
  swaps the line back into L1 (the L1 victim takes its place), turning a
  conflict miss into a short swap instead of an L2 round trip.
* **Miss cache** -- a small fully-associative LRU buffer into which
  every demand fill is *also* inserted.  A miss that hits the miss
  cache refills L1 from it without consuming the entry.  (Jouppi's
  weaker precursor of the victim cache; kept for the comparison.)
* **Stream buffers** -- several independent FIFOs of sequentially
  prefetched lines.  A miss probes each buffer's *head*; a hit pops the
  head into L1 and extends the tail by the next sequential line.  A miss
  that misses every buffer reallocates the least-recently-used buffer to
  start prefetching at ``line + 1``.
* **combined** -- victim cache + stream buffers, the configuration
  Jouppi found complementary (conflict misses and capacity/compulsory
  streaming misses are disjoint populations).

Stage state is deliberately modeled *beside* the hierarchy: a miss-path
hit never touches the L2 tag array, and stream-buffer prefetch traffic
is reported under the stage's own counters rather than the demand
``TrafficStats`` (``bw.*`` remains the paper's Figure 6(b) demand
traffic, bit-identical with every mechanism disabled).

Every counter is exposed twice, consistently: bound live through
:meth:`MissPath.register_metrics` (the ``repro.obs`` registry path) and
snapshotted into ``MachineStats.misspath`` (the capture/replay and
result-cache path) under the same ``cache.misspath.*`` dotted names.

The timing contract is a single parameter: a miss served by any stage
is ready after ``l1_hit_latency + misspath_hit_latency`` cycles and
allocates no MSHR (the transfer is a local swap, not an outstanding
fill).  Inclusion is preserved: when an L2 eviction invalidates L1
lines, the same lines are dropped from every stage.
"""

from __future__ import annotations

from collections import deque

#: Recognised mechanism names (``none`` disables the miss path entirely).
MECHANISMS = ("none", "victim_cache", "miss_cache", "stream_buffers", "combined")

#: Which mechanisms give each sizing knob meaning; used by the CLI and
#: the serve protocol to reject knobs that would silently do nothing.
KNOB_MECHANISMS = {
    "vc_entries": ("victim_cache", "combined"),
    "mc_entries": ("miss_cache",),
    "sb_count": ("stream_buffers", "combined"),
    "sb_depth": ("stream_buffers", "combined"),
}

#: (metric key, stats attribute) pairs, in reporting order.  The dotted
#: keys live under ``cache.misspath.`` in metric trees; top-level keys
#: are leaves and ``vc``/``mc``/``sb`` are interior nodes, so the
#: registry's leaf/interior invariant holds.
_COUNTERS = (
    ("probes", "probes"),
    ("hits", "hits"),
    ("flushes", "flushes"),
    ("inclusion_drops", "inclusion_drops"),
    ("vc.hits", "vc_hits"),
    ("vc.captures", "vc_captures"),
    ("vc.writebacks", "vc_writebacks"),
    ("mc.hits", "mc_hits"),
    ("mc.inserts", "mc_inserts"),
    ("sb.hits", "sb_hits"),
    ("sb.allocations", "sb_allocations"),
    ("sb.prefetches", "sb_prefetches"),
)


class MissPathStats:
    """Flat counters of one :class:`MissPath` instance.

    A plain-slots class (like :class:`~repro.cache.cache.CacheStats`)
    so ``stats.__init__()`` resets it in place without invalidating
    bound registry getters.
    """

    __slots__ = tuple(attr for _, attr in _COUNTERS)

    def __init__(self) -> None:
        for attr in self.__slots__:
            setattr(self, attr, 0)


class VictimCache:
    """Fully-associative LRU buffer of L1 victims (line address + dirty).

    Entries are ``(line_address, dirty)`` with the MRU entry first.
    ``probe`` is *consuming*: a hit removes the entry, because the line
    moves into L1 (the caller routes the displaced L1 victim back in via
    ``insert`` -- the classic swap).
    """

    __slots__ = ("entries", "_lines")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"victim cache needs >= 1 entry, got {entries}")
        self.entries = entries
        self._lines: list[tuple[int, int]] = []

    def probe(self, line: int) -> int | None:
        """Remove and return the dirty flag of ``line``; None on miss."""
        lines = self._lines
        for index, (tag, dirty) in enumerate(lines):
            if tag == line:
                del lines[index]
                return dirty
        return None

    def insert(self, line: int, dirty: int) -> tuple[int, int] | None:
        """Capture an L1 victim; returns the spilled LRU entry, if any."""
        lines = self._lines
        lines.insert(0, (line, 1 if dirty else 0))
        if len(lines) > self.entries:
            return lines.pop()
        return None

    def invalidate(self, line: int) -> bool:
        lines = self._lines
        for index, (tag, _dirty) in enumerate(lines):
            if tag == line:
                del lines[index]
                return True
        return False

    def flush(self) -> int:
        dropped = len(self._lines)
        self._lines.clear()
        return dropped

    def resident_lines(self) -> list[int]:
        """Line addresses currently held, MRU first (tests/diagnostics)."""
        return [tag for tag, _dirty in self._lines]


class MissCache:
    """Fully-associative LRU buffer of recently *missed* lines.

    Unlike the victim cache it duplicates lines that are simultaneously
    resident in L1 (every demand fill is inserted), and a probe hit is
    non-consuming: the entry stays, only its recency is refreshed.  Held
    copies are clean by construction -- L1 owns the dirty data.
    """

    __slots__ = ("entries", "_lines")

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"miss cache needs >= 1 entry, got {entries}")
        self.entries = entries
        self._lines: list[int] = []

    def probe(self, line: int) -> int | None:
        lines = self._lines
        for index, tag in enumerate(lines):
            if tag == line:
                if index:
                    del lines[index]
                    lines.insert(0, line)
                return 0  # miss-cache copies are always clean
        return None

    def insert(self, line: int) -> None:
        lines = self._lines
        for index, tag in enumerate(lines):
            if tag == line:
                if index:
                    del lines[index]
                    lines.insert(0, line)
                return
        lines.insert(0, line)
        if len(lines) > self.entries:
            lines.pop()

    def invalidate(self, line: int) -> bool:
        try:
            self._lines.remove(line)
        except ValueError:
            return False
        return True

    def flush(self) -> int:
        dropped = len(self._lines)
        self._lines.clear()
        return dropped

    def resident_lines(self) -> list[int]:
        return list(self._lines)


class StreamBuffers:
    """``count`` independent FIFOs of sequentially prefetched lines.

    Each buffer is a deque of line addresses, head first.  Probing
    checks heads only (Jouppi's design: the comparator sits on the head
    slot); a hit pops the head and extends the tail with the next
    sequential line.  A demand miss that misses every head reallocates
    the LRU buffer starting at the line after the miss.
    """

    __slots__ = ("count", "depth", "line_size", "_buffers")

    def __init__(self, count: int, depth: int, line_size: int) -> None:
        if count < 1 or depth < 1:
            raise ValueError(
                f"stream buffers need count >= 1 and depth >= 1, "
                f"got count={count} depth={depth}"
            )
        self.count = count
        self.depth = depth
        self.line_size = line_size
        # MRU-first list of deques; ties (fresh empties) age naturally.
        self._buffers: list[deque[int]] = [deque() for _ in range(count)]

    def probe(self, line: int) -> tuple[bool, int]:
        """Head-probe every buffer; returns ``(hit, prefetches_issued)``."""
        buffers = self._buffers
        for index, buffer in enumerate(buffers):
            if buffer and buffer[0] == line:
                buffer.popleft()
                issued = 0
                if buffer:
                    buffer.append(buffer[-1] + self.line_size)
                    issued = 1
                else:
                    # The buffer ran dry on this hit; restart it at the
                    # next sequential line so the stream keeps flowing.
                    buffer.append(line + self.line_size)
                    issued = 1
                if index:
                    del buffers[index]
                    buffers.insert(0, buffer)
                return True, issued
        return False, 0

    def allocate(self, line: int) -> int:
        """Repurpose the LRU buffer to stream from ``line + 1`` onward.

        Returns the number of prefetched lines now in flight (== depth).
        """
        buffer = self._buffers.pop()
        buffer.clear()
        step = self.line_size
        first = line + step
        buffer.extend(first + i * step for i in range(self.depth))
        self._buffers.insert(0, buffer)
        return self.depth

    def invalidate(self, line: int) -> bool:
        """Drop any buffer holding ``line`` (speculative state is cheap)."""
        for buffer in self._buffers:
            if line in buffer:
                buffer.clear()
                return True
        return False

    def flush(self) -> int:
        dropped = sum(len(buffer) for buffer in self._buffers)
        for buffer in self._buffers:
            buffer.clear()
        return dropped

    def resident_lines(self) -> list[int]:
        return [line for buffer in self._buffers for line in buffer]


class MissPath:
    """The configured stage pipeline on one hierarchy's L1 miss path.

    The facade the hierarchy talks to; stage order on a probe is victim
    cache, then miss cache, then stream buffers (only ``combined``
    composes more than one stage).  See the module docstring for the
    stage protocol; DESIGN.md §5f documents the integration contract.
    """

    __slots__ = ("mechanism", "victim", "miss", "streams", "stats")

    def __init__(self, config) -> None:
        mechanism = config.mechanism
        if mechanism not in MECHANISMS:
            raise ValueError(
                f"unknown miss-path mechanism {mechanism!r}; "
                f"choose from {list(MECHANISMS)}"
            )
        self.mechanism = mechanism
        self.victim = (
            VictimCache(config.vc_entries)
            if mechanism in ("victim_cache", "combined")
            else None
        )
        self.miss = (
            MissCache(config.mc_entries) if mechanism == "miss_cache" else None
        )
        self.streams = (
            StreamBuffers(config.sb_count, config.sb_depth, config.line_size)
            if mechanism in ("stream_buffers", "combined")
            else None
        )
        self.stats = MissPathStats()

    # -- hierarchy-facing protocol --------------------------------------
    def probe(self, line: int) -> int | None:
        """Probe the stages for ``line`` on an L1 full miss.

        Returns the line's dirty flag (0/1) when a stage can supply it
        (the stage updates its own state: the victim cache consumes the
        entry, the miss cache refreshes recency, a stream buffer pops
        its head and extends), or ``None`` when every stage misses.
        """
        stats = self.stats
        stats.probes += 1
        victim = self.victim
        if victim is not None:
            dirty = victim.probe(line)
            if dirty is not None:
                stats.hits += 1
                stats.vc_hits += 1
                return dirty
        miss = self.miss
        if miss is not None:
            found = miss.probe(line)
            if found is not None:
                stats.hits += 1
                stats.mc_hits += 1
                return found
        streams = self.streams
        if streams is not None:
            hit, issued = streams.probe(line)
            if hit:
                stats.hits += 1
                stats.sb_hits += 1
                stats.sb_prefetches += issued
                return 0  # prefetched lines are clean
        return None

    def accept_victim(self, line: int, dirty: bool) -> tuple[int, int] | None:
        """Route one L1 victim; returns the entry that must spill to L2.

        With a victim cache the victim is captured and only the displaced
        LRU entry (if any) spills; without one the victim passes straight
        through, reproducing the baseline write-back behaviour.  The
        caller owns the spill's traffic/L2 accounting.
        """
        victim = self.victim
        if victim is None:
            return (line, 1 if dirty else 0)
        self.stats.vc_captures += 1
        spilled = victim.insert(line, 1 if dirty else 0)
        if spilled is not None and spilled[1]:
            self.stats.vc_writebacks += 1
        return spilled

    def on_demand_fill(self, line: int) -> None:
        """Notify the stages that ``line`` was filled from below L1."""
        miss = self.miss
        if miss is not None:
            miss.insert(line)
            self.stats.mc_inserts += 1
        streams = self.streams
        if streams is not None:
            self.stats.sb_allocations += 1
            self.stats.sb_prefetches += streams.allocate(line)

    def invalidate(self, line: int) -> None:
        """Inclusion: drop ``line`` from every stage (L2 evicted it)."""
        dropped = False
        if self.victim is not None and self.victim.invalidate(line):
            dropped = True
        if self.miss is not None and self.miss.invalidate(line):
            dropped = True
        if self.streams is not None and self.streams.invalidate(line):
            dropped = True
        if dropped:
            self.stats.inclusion_drops += 1

    def flush(self) -> int:
        """Empty every stage (e.g. around a context switch); counts it."""
        self.stats.flushes += 1
        dropped = 0
        for stage in (self.victim, self.miss, self.streams):
            if stage is not None:
                dropped += stage.flush()
        return dropped

    # -- reporting ------------------------------------------------------
    def stats_dict(self) -> dict[str, int]:
        """Counters keyed by their ``cache.misspath.*`` suffix."""
        stats = self.stats
        return {key: getattr(stats, attr) for key, attr in _COUNTERS}

    def register_metrics(self, registry, prefix: str) -> None:
        """Bind every counter under ``prefix`` (e.g. ``cache.misspath``)."""
        stats = self.stats
        for key, attr in _COUNTERS:
            registry.bind(
                f"{prefix}.{key}",
                (lambda a: lambda: getattr(stats, a))(attr),
            )


def build_misspath(config) -> MissPath | None:
    """The configured miss path of ``config``; ``None`` when disabled.

    ``None`` (rather than a no-op object) is the zero-cost contract: the
    hierarchy tests ``misspath is None`` once and runs the exact
    baseline code, and :mod:`repro.core.kernel` generates its miss-path
    calls only for a hierarchy that holds a ``MissPath``, so a baseline
    kernel carries none of them.
    """
    if config.mechanism == "none":
        return None
    return MissPath(config)
