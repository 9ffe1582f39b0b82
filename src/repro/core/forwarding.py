"""The forwarding engine: dereferencing chains of forwarding addresses.

This is the core hardware mechanism of the paper (Sections 2.1 and 3.2).
When a data reference touches a word whose forwarding bit is set, the word's
contents are interpreted as a *forwarding address* and the access is
re-launched there; this repeats until a word with a clear bit is reached.

Two addresses therefore matter for every reference:

* the **initial address** -- the first location accessed, and
* the **final address** -- the location the data actually lives at.

For non-relocated data the two are equal, which is the expected common case:
forwarding exists as a safety net, not a fast path.

Cycle handling follows the paper exactly: the hardware keeps only a cheap
hop counter during the walk, and when the counter exceeds a limit it raises
an exception whose (software) handler performs an accurate cycle check.  A
false alarm resets the counter and resumes; a genuine cycle aborts the
program (:class:`~repro.core.errors.ForwardingCycleError`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import ForwardingCycleError
from repro.core.memory import TaggedMemory, WORD_OFFSET_MASK

#: Default fast hop-counter limit before the cycle-check exception fires.
#: Real chains produced by repeated relocation are short (one hop per
#: relocation generation), so a small limit keeps the fast path cheap.
DEFAULT_HOP_LIMIT = 16

#: Called once per forwarding hop with the word address being dereferenced.
#: The machine collects the hop words into the reference's entry, whose
#: cost charges a cache access per hop (which is how forwarding pollutes
#: the cache, per Section 5.4).
HopCallback = Callable[[int], None]


@dataclass(slots=True)
class ForwardingStats:
    """Counters describing how often the safety net actually fired."""

    #: Total references resolved through the engine.
    references: int = 0
    #: References that needed at least one hop.
    forwarded_references: int = 0
    #: Total hops across all references.
    total_hops: int = 0
    #: Histogram: hops -> number of references that needed exactly that many.
    hop_histogram: dict[int, int] = field(default_factory=dict)
    #: Times the fast hop counter overflowed and the accurate check ran.
    cycle_check_invocations: int = 0
    #: Accurate checks that found a genuine cycle (execution aborts).
    cycles_detected: int = 0

    def record(self, hops: int) -> None:
        self.references += 1
        if hops:
            self.forwarded_references += 1
            self.total_hops += hops
            self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + 1

    def register_metrics(self, registry, prefix: str = "fwd") -> None:
        """Expose these counters through an ``repro.obs`` registry."""
        registry.bind(f"{prefix}.references", lambda: self.references)
        registry.bind(f"{prefix}.forwarded", lambda: self.forwarded_references)
        registry.bind(f"{prefix}.hops", lambda: self.total_hops)
        registry.bind(
            f"{prefix}.cycle_checks", lambda: self.cycle_check_invocations
        )
        registry.bind(f"{prefix}.cycles_detected", lambda: self.cycles_detected)
        # The paper's "chains are short" claim (Section 5.4) is only
        # checkable from output if the full distribution survives into
        # manifests, hence a histogram rather than the mean hops/chase.
        registry.bind(
            f"{prefix}.chain_length",
            lambda: self.hop_histogram,
            kind="histogram",
        )

    def merge(self, other: "ForwardingStats") -> None:
        self.references += other.references
        self.forwarded_references += other.forwarded_references
        self.total_hops += other.total_hops
        for hops, count in other.hop_histogram.items():
            self.hop_histogram[hops] = self.hop_histogram.get(hops, 0) + count
        self.cycle_check_invocations += other.cycle_check_invocations
        self.cycles_detected += other.cycles_detected


class ForwardingEngine:
    """Walks forwarding chains to turn initial addresses into final ones.

    Parameters
    ----------
    memory:
        The tagged memory holding data words and forwarding bits.
    hop_limit:
        Fast hop-counter limit.  Exceeding it triggers the accurate cycle
        check (Section 3.2), not an immediate failure.
    """

    __slots__ = ("memory", "hop_limit", "stats", "events")

    def __init__(self, memory: TaggedMemory, hop_limit: int = DEFAULT_HOP_LIMIT) -> None:
        if hop_limit < 1:
            raise ValueError(f"hop limit must be >= 1, got {hop_limit}")
        self.memory = memory
        self.hop_limit = hop_limit
        self.stats = ForwardingStats()
        #: Optional :class:`repro.obs.events.EventLog`; when set, every
        #: chain walk emits a ``fwd.walk`` event.  The unforwarded early
        #: return below never touches it, so the common case stays cheap.
        self.events = None

    def resolve(self, address: int, on_hop: HopCallback | None = None) -> tuple[int, int]:
        """Resolve ``address`` to its final address.

        Returns ``(final_address, hops)``.  ``on_hop`` is invoked once per
        hop with the word address whose forwarding pointer was read, letting
        the caller model the cost (and cache pollution) of touching the old
        location.

        The byte offset within a word is preserved across hops: a sub-word
        access to a forwarded word lands at the same offset within the
        relocated word (Section 2.1's 32-bit load example).
        """
        memory = self.memory
        offset = address & WORD_OFFSET_MASK
        word_address = address - offset
        # Fast path: unforwarded word.  This must stay cheap -- it is on
        # every simulated load and store.
        fbits = memory._fbits
        words = memory._words
        index = word_address >> 3
        if index < 0 or index >= memory.word_count:
            # Delegate bounds error reporting to the raw layer.
            memory.read_fbit(word_address)
        if not fbits[index]:
            self.stats.references += 1
            return address, 0

        # `counter` models the cheap hardware hop counter (reset on a false
        # alarm, per the paper's handler); `hops` is the true total used for
        # statistics and cost accounting.
        counter = 0
        hops = 0
        while fbits[index]:
            if on_hop is not None:
                on_hop(index << 3)
            word_address = words[index]
            index = word_address >> 3
            if index < 0 or index >= memory.word_count:
                memory.read_fbit(word_address)
            hops += 1
            counter += 1
            if counter > self.hop_limit:
                # Fast counter overflowed: run the accurate check the
                # software exception handler would perform.
                self.stats.cycle_check_invocations += 1
                self._accurate_cycle_check(address)
                # False alarm: the chain is long but acyclic.  Reset the
                # counter (exactly what the paper's handler does) and keep
                # walking without re-triggering until another full limit.
                counter = 0
        final = word_address | offset
        self.stats.record(hops)
        if self.events is not None:
            self.events.emit("fwd.walk", initial=address, final=final, hops=hops)
        return final, hops

    def _accurate_cycle_check(self, start_address: int) -> None:
        """Accurate (set-based) cycle detection from ``start_address``.

        Raises :class:`ForwardingCycleError` if the chain revisits a word.
        This is the slow check the paper relegates to an exception handler.
        """
        memory = self.memory
        seen: set[int] = set()
        word_address = start_address & ~WORD_OFFSET_MASK
        while memory.read_fbit(word_address):
            if word_address in seen:
                self.stats.cycles_detected += 1
                raise ForwardingCycleError(start_address, word_address)
            seen.add(word_address)
            word_address = memory.read_word(word_address) & ~WORD_OFFSET_MASK

    def chain(self, address: int, max_length: int = 1 << 20) -> list[int]:
        """Return the full chain of word addresses from ``address``.

        The result starts with the initial word address and ends with the
        final (unforwarded) word address.  Used by the forwarding-aware
        deallocator (Section 3.3) and by diagnostics; raises
        :class:`ForwardingCycleError` on a cycle.
        """
        memory = self.memory
        word_address = address & ~WORD_OFFSET_MASK
        out = [word_address]
        seen = {word_address}
        while memory.read_fbit(word_address):
            word_address = memory.read_word(word_address) & ~WORD_OFFSET_MASK
            if word_address in seen:
                # Counted as resolve counts it: one check, one cycle.
                self.stats.cycle_check_invocations += 1
                self.stats.cycles_detected += 1
                raise ForwardingCycleError(address, word_address)
            seen.add(word_address)
            out.append(word_address)
            if len(out) > max_length:
                raise ForwardingCycleError(address, word_address)
        return out
