"""Data-dependence speculation in the presence of memory forwarding.

Section 3.2 of the paper: because a reference's *final* address is not
known until the reference nearly completes, a conservative out-of-order
core could never hoist a load above an earlier store.  The fix is to
speculate that final address == initial address (i.e. that the reference
is not forwarded), let the load go early, and squash if the speculation
was wrong.

A speculation is wrong exactly when a nearby earlier store and a younger
load had **different initial addresses but the same final address** -- the
disambiguator compared initials and concluded "independent" when they in
fact collided after forwarding.  (Same-initial pairs are handled by the
ordinary store queue and never misspeculate.)

The paper observes this "almost never" happens; this model lets us verify
that claim and charge the flush penalty when it does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(slots=True)
class SpeculationStats:
    """Counters for the disambiguation model."""

    loads_checked: int = 0
    stores_tracked: int = 0
    misspeculations: int = 0

    def register_metrics(self, registry, prefix: str = "spec") -> None:
        """Expose these counters through an ``repro.obs`` registry."""
        registry.bind(f"{prefix}.loads_checked", lambda: self.loads_checked)
        registry.bind(f"{prefix}.stores_tracked", lambda: self.stores_tracked)
        registry.bind(f"{prefix}.misspeculations", lambda: self.misspeculations)


class DependenceSpeculator:
    """Sliding-window store queue that detects final-address collisions.

    Parameters
    ----------
    window:
        Number of recent stores a young load could have bypassed -- a proxy
        for the instruction-window depth of the modeled core.
    """

    __slots__ = ("window", "stats", "_queue", "_by_final", "_counts")

    def __init__(self, window: int = 32) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.stats = SpeculationStats()
        # deque of (final_word, initial_word); dict final_word -> initial_word
        # for O(1) load checks.  The dict keeps the *youngest* store to each
        # final word, which is the one an incorrectly hoisted load would
        # actually conflict with.  A per-final-word refcount makes window
        # eviction O(1): appends always overwrite the mapping with the
        # youngest initial, so on eviction the mapping is either still
        # backed by a younger in-window store (count > 0, keep it) or
        # orphaned (count == 0, drop it) -- no queue scan needed.
        self._queue: deque[tuple[int, int]] = deque()
        self._by_final: dict[int, int] = {}
        self._counts: dict[int, int] = {}

    def on_store(self, initial: int, final: int) -> None:
        """Record a retiring store's initial and final word addresses."""
        self.stats.stores_tracked += 1
        self._push(final & ~7, initial & ~7)

    def _push(self, final_word: int, initial_word: int) -> None:
        queue = self._queue
        counts = self._counts
        queue.append((final_word, initial_word))
        self._by_final[final_word] = initial_word
        counts[final_word] = counts.get(final_word, 0) + 1
        if len(queue) > self.window:
            old_final, _old_initial = queue.popleft()
            remaining = counts[old_final] - 1
            if remaining:
                counts[old_final] = remaining
            else:
                del counts[old_final]
                del self._by_final[old_final]

    def clean(self) -> bool:
        """True iff every ``_by_final`` entry maps a word to itself: no
        forwarded store is visible, so no unforwarded load can
        misspeculate, and unforwarded stores keep it so.  The fused
        kernel then runs on counters alone (``core.kernel.run_stream``)."""
        by_final = self._by_final
        return list(by_final) == list(by_final.values())

    def refill(self, addresses) -> None:
        """Push unforwarded stores, oldest first, as :meth:`on_store`
        would, but uncounted: the kernel passes a counters-only stretch's
        last ``window`` stores, having counted them all already."""
        for address in addresses:
            word = address & ~7
            self._push(word, word)

    def on_load(self, initial: int, final: int) -> bool:
        """Check a load against recent stores; True means misspeculation.

        A misspeculation requires the colliding pair to have *different*
        initial addresses: with equal initials the conventional store
        queue already ordered them correctly.
        """
        self.stats.loads_checked += 1
        store_initial = self._by_final.get(final & ~7)
        if store_initial is not None and store_initial != (initial & ~7):
            self.stats.misspeculations += 1
            return True
        return False

    def register_metrics(self, registry, prefix: str = "spec") -> None:
        """Register the disambiguation counters under ``prefix``."""
        self.stats.register_metrics(registry, prefix)

    def reset(self) -> None:
        self._queue.clear()
        self._by_final.clear()
        self._counts.clear()
