"""Capture a machine's entry stream while an application runs.

The :class:`~repro.core.machine.Machine` resolves and costs every
reference itself, and every operation with a config-dependent cost
becomes one *entry* of its stream: the :mod:`repro.core.kernel` kind,
its operand, and -- for a prefetch or a forwarded reference -- an
extras value, in the ``kinds``/``ops``/``extras`` layout that
:func:`repro.trace.format.make_chunk` seals.  :class:`TraceRecorder` is
the sink on that stream: the machine hands it each drained pending
chunk (:meth:`TraceRecorder.extend`) and each general-path entry
(:meth:`TraceRecorder.append`), and the recorder only re-chunks them at
every ``chunk_events`` entries and seals each full chunk.  A capture
therefore runs the machine's fast path whenever the config allows it,
and a forwarded reference carries the ``(final, hops)`` of the
machine's own chain walk; a cycle raises
:class:`~repro.core.errors.ForwardingCycleError` from that walk.
Sealed chunks are compressed immediately, so recording a full-scale run
costs one open chunk of arrays plus the compressed corpus.

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
from repro.core.kernel import LOAD_FWD, STORE_FWD
from repro.core.machine import MachineConfig
from repro.trace.format import CHUNK_EVENTS, Chunk, Trace, make_chunk


class TraceRecorder:
    """Capture sink: re-chunks the machine's entries and seals them."""

    def __init__(self, chunk_events: int = CHUNK_EVENTS) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.chunk_events = chunk_events
        self.has_forwarded = False
        self._kinds = bytearray()
        self._ops = array("q")
        self._extras: dict = {}
        self._chunks: list[Chunk] = []

    @property
    def event_count(self) -> int:
        """Entries recorded so far."""
        return sum(chunk.event_count for chunk in self._chunks) + len(self._kinds)

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

    def append(self, kind: int, op: int, extra) -> None:
        """Record one entry the machine costed on its general path."""
        if extra is not None:
            self._extras[len(self._kinds)] = extra
            if kind == LOAD_FWD or kind == STORE_FWD:
                self.has_forwarded = True
        self._kinds.append(kind)
        self._ops.append(op)
        if len(self._kinds) >= self.chunk_events:
            self._seal()

    def extend(self, kinds: bytearray, ops: list, extras: dict) -> None:
        """Record a drained pending chunk, in the same layout."""
        n = len(kinds)
        start = 0
        while start < n:
            base = len(self._kinds)
            stop = min(n, start + self.chunk_events - base)
            self._kinds += kinds[start:stop]
            self._ops.fromlist(ops[start:stop])
            for i, extra in extras.items():
                if start <= i < stop:
                    self._extras[base + i - start] = extra
            start = stop
            if len(self._kinds) >= self.chunk_events:
                self._seal()


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
    ``config`` (the sink is passive), so the capturing run doubles as
    the first cell of any sweep.  ``on_window`` streams timeline
    windows live when ``config`` samples them (see
    :meth:`repro.apps.base.Application.run`).
    """
    application = get_application(app, scale=scale, seed=seed)
    recorder = TraceRecorder()
    result = application.run(variant, config, sink=recorder, on_window=on_window)
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
