"""Capture a machine's resolved reference stream while an application runs.

:class:`TraceRecorder` implements the :class:`~repro.core.machine.
MachineObserver` protocol and turns each event straight into the
*entry* replay consumes: the :mod:`repro.core.kernel` kind, its
operand, and -- for a prefetch or a forwarded reference -- an extras
value, in the ``kinds``/``ops``/``extras`` layout that
:func:`repro.trace.format.make_chunk` seals.  Capture never materialises an
in-memory event list, and sealed chunks are compressed immediately, so
recording a full-scale run costs one open chunk of arrays plus the
compressed corpus.

Forwarding resolution happens here, once, because it does not depend on
the machine a stream is later replayed against.  The recorder keeps the
forwarding map ``{word: forwarding word value}`` that the machine's
forwarding bits imply: an ``unforwarded_write`` with the fbit set adds
or retargets a word, one with it clear removes it, and a ``raw_write``
retargets a word already in the map.  Each load or store is annotated
with the hop words and final address ``ForwardingEngine.resolve`` would
walk, and each free with its chain length.  Events with no
config-dependent cost (pool carving, relocation counters) never reach
the recorder at all.

A chain can only visit each forwarded word once, so a chase longer than
the map is a cycle: the recorder raises
:class:`~repro.core.errors.ForwardingCycleError` -- the error the direct
run would raise for it -- instead of looping forever.

:func:`capture_trace` is the one-call front end: run an application
variant on a given config with a recorder attached, and get back both
the :class:`~repro.trace.format.Trace` and the direct-run
:class:`~repro.apps.base.AppResult` (capture *is* a direct run -- the
result is free).
"""

from __future__ import annotations

from array import array

from repro.apps import get_application
from repro.apps.base import AppResult, Variant
from repro.core.errors import ForwardingCycleError
from repro.core.kernel import (
    ACCESS_R,
    ACCESS_W,
    EXEC,
    FREE,
    LOAD,
    LOAD_FWD,
    MALLOC,
    PREFETCH,
    STORE,
    STORE_FWD,
    TRAP,
)
from repro.core.machine import MachineConfig
from repro.trace.format import CHUNK_EVENTS, Chunk, Trace, make_chunk


class TraceRecorder:
    """Streaming resolver + columnar encoder for the machine's events."""

    def __init__(self, chunk_events: int = CHUNK_EVENTS) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.chunk_events = chunk_events
        self.has_forwarded = False
        self._kinds = bytearray()
        self._ops = array("q")
        self._extras: dict = {}
        self._chunks: list[Chunk] = []
        self._fwd: dict[int, int] = {}

    @property
    def event_count(self) -> int:
        """Entries recorded so far."""
        return sum(chunk.event_count for chunk in self._chunks) + len(self._kinds)

    # -- entries -------------------------------------------------------
    def _entry(self, kind: int, op: int) -> None:
        self._kinds.append(kind)
        self._ops.append(op)
        if len(self._kinds) >= self.chunk_events:
            self._seal()

    def _seal(self) -> None:
        self._chunks.append(make_chunk(self._kinds, self._ops, self._extras))
        self._kinds = bytearray()
        self._ops = array("q")
        self._extras = {}

    def finish(self) -> tuple[Chunk, ...]:
        """Seal the open chunk; returns every chunk in stream order."""
        if self._kinds:
            self._seal()
        return tuple(self._chunks)

    def _reference(self, address: int, kind: int, forwarded_kind: int) -> None:
        """One load or store, resolved through the forwarding map."""
        fwd = self._fwd
        word = address & ~7
        if word not in fwd:
            self._entry(kind, address)
            return
        hops = []
        while word in fwd:
            if len(hops) == len(fwd):
                raise ForwardingCycleError(address, word)
            hops.append(word)
            value = fwd[word]
            word = value & ~7
        self.has_forwarded = True
        self._extras[len(self._kinds)] = (value | (address & 7), tuple(hops))
        self._entry(forwarded_kind, address)

    # -- MachineObserver protocol --------------------------------------
    def on_load(self, address: int, size: int) -> None:
        self._reference(address, LOAD, LOAD_FWD)

    def on_store(self, address: int, value: int, size: int) -> None:
        self._reference(address, STORE, STORE_FWD)

    def on_execute(self, instructions: int) -> None:
        self._entry(EXEC, instructions)

    def on_prefetch(self, address: int, lines: int) -> None:
        self._extras[len(self._kinds)] = lines
        self._entry(PREFETCH, address)

    def on_read_fbit(self, address: int) -> None:
        self._entry(ACCESS_R, address & ~7)

    def on_unforwarded_read(self, address: int) -> None:
        self._entry(ACCESS_R, address & ~7)

    def on_unforwarded_write(self, address: int, value: int, fbit: int) -> None:
        word = address & ~7
        if fbit:
            self._fwd[word] = value
        else:
            self._fwd.pop(word, None)
        self._entry(ACCESS_W, word)

    def on_malloc(self, nbytes: int, align: int, address: int) -> None:
        self._entry(MALLOC, nbytes)

    def on_free(self, address: int) -> None:
        # The forwarding-aware free costs the whole chain, start included.
        fwd = self._fwd
        word = address & ~7
        chain = 1
        while word in fwd:
            if chain > len(fwd):
                raise ForwardingCycleError(address, word)
            word = fwd[word] & ~7
            chain += 1
        self._entry(FREE, chain)

    def on_raw_write(self, address: int, value: int) -> None:
        # Untimed: it only matters when it retargets a chain word.
        word = address & ~7
        if word in self._fwd:
            self._fwd[word] = value

    def on_set_trap(self, installed: bool) -> None:
        self._entry(TRAP, 1 if installed else 0)


def capture_trace(
    app: str,
    variant: Variant,
    config: MachineConfig,
    scale: float = 1.0,
    seed: int = 1,
    on_window=None,
) -> tuple[Trace, AppResult]:
    """Run ``app`` once with recording on; return ``(trace, result)``.

    The returned result is the ordinary direct-run outcome for
    ``config`` (recording is passive), so the capturing run doubles as
    the first cell of any sweep.  ``on_window`` streams timeline
    windows live when ``config`` samples them (see
    :meth:`repro.apps.base.Application.run`).
    """
    application = get_application(app, scale=scale, seed=seed)
    recorder = TraceRecorder()
    result = application.run(variant, config, observer=recorder, on_window=on_window)
    chunks = recorder.finish()
    trace = Trace(
        app=app,
        variant=variant.value,
        scale=scale,
        seed=seed,
        line_size=config.hierarchy.line_size,
        line_size_sensitive=application.stream_depends_on_line_size(variant),
        checksum=result.checksum,
        extras=dict(result.extras),
        captured_stats=result.stats.dump(),
        event_count=recorder.event_count,
        chunks=chunks,
        has_forwarded=recorder.has_forwarded,
    )
    return trace, result
