"""Human-readable dumps of tagged memory (Figure 1's tables, as text).

The paper explains the mechanism with side-by-side pictures of memory
contents and forwarding bits before and after a relocation.  These
helpers render the same view from a live simulation, for examples,
debugging, and doctest-style documentation:

* :func:`dump_region` -- one row per word: address, forwarding bit, and
  either the data value or ``-> target`` for a forwarding stub;
* :func:`dump_chain` -- the full forwarding chain from an address;
* :func:`region_summary` -- counts of data vs forwarding words.
"""

from __future__ import annotations

from repro.core.forwarding import ForwardingEngine
from repro.core.memory import TaggedMemory, WORD_SIZE


def dump_region(memory: TaggedMemory, start: int, nwords: int, title: str = "") -> str:
    """Render ``nwords`` words from ``start`` as an address/fbit/value table."""
    if start % WORD_SIZE:
        raise ValueError(f"start must be word aligned, got {start:#x}")
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'address':>12}  {'fbit':>4}  value")
    lines.append("-" * 34)
    for index in range(nwords):
        address = start + index * WORD_SIZE
        fbit = memory.read_fbit(address)
        word = memory.read_word(address)
        if fbit:
            rendered = f"-> {word:#x}"
        else:
            rendered = f"{word:#x}" if word > 9 else str(word)
        lines.append(f"{address:#12x}  {fbit:>4}  {rendered}")
    return "\n".join(lines)


def dump_chain(memory: TaggedMemory, address: int) -> str:
    """Render the forwarding chain from ``address`` as ``a -> b -> c``."""
    engine = ForwardingEngine(memory)
    chain = engine.chain(address)
    return " -> ".join(f"{word:#x}" for word in chain)


def region_summary(memory: TaggedMemory, start: int, nwords: int) -> dict[str, int]:
    """Counts of data words vs forwarding stubs in a region."""
    forwarding = sum(
        memory.read_fbit(start + index * WORD_SIZE) for index in range(nwords)
    )
    return {
        "words": nwords,
        "forwarding": forwarding,
        "data": nwords - forwarding,
    }
