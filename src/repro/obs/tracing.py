"""Spans: the one tracing API, causal across process boundaries.

A span brackets a region of execution -- a CLI sweep, one artifact
build, a serve request, one cell's capture or replay -- and records how
long it took, what simulation work happened inside it (the diff of a
registry's counters between entry and exit), and where it sits in the
causal tree.  A serve job is probed on the event loop, queued by the
scheduler, executed in a *worker process* and replayed chunk by chunk;
a CLI run primes its sweep across a process pool.  Either way the
manifest carries the whole story as one tree:

* stable identifiers -- every trace gets a ``trace_id`` and every
  span a ``span_id``/``parent_id``, so records reassemble into a tree
  no matter which process produced them;
* a :class:`Tracer` that owns one trace: a parent stack for nesting,
  ``span()``/``record()``/``begin()``/``end()`` to emit records, and
  ``absorb()`` to splice in records a worker shipped back;
* :class:`SpanContext`, the picklable wire form (two hex strings) that
  crosses the pool boundary so worker-side spans parent correctly
  under the span that submitted them.

Records are :class:`SpanRecord` objects; :func:`span_tree` rebuilds the
nested form for tests and exporters.  Spans are instrumentation, not
accounting: they never touch simulated time.

Ids are drawn from ``uuid4`` (not ``random``) so tracing never perturbs
seeded simulations.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.registry import Registry

#: Hex digits in a trace id / span id.
TRACE_ID_HEX = 16
SPAN_ID_HEX = 8


def new_id(hex_digits: int = SPAN_ID_HEX) -> str:
    """A fresh lowercase-hex identifier, independent of seeded RNGs."""
    return uuid.uuid4().hex[:hex_digits]


@dataclass(slots=True)
class SpanRecord:
    """One completed span."""

    name: str
    wall_seconds: float
    #: Nesting depth at the time the span ran (0 = top level).
    depth: int = 0
    #: Counter deltas observed across the span (dotted name -> delta).
    #: Zero deltas are dropped; gauges report their exit value.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Exception summary when the span body raised (``None`` for clean
    #: exits).  A failed region still accounts for its time and work.
    error: str | None = None
    #: Causal identity: hex strings; ``parent_id`` is ``None`` for
    #: trace roots.
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None
    #: Wall-clock start stamp (``time.time()``), letting exporters lay
    #: spans out on a real axis instead of packing them sequentially.
    start: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form used by run manifests."""
        out = {
            "name": self.name,
            "wall_seconds": round(self.wall_seconds, 6),
            "depth": self.depth,
            "metrics": {
                name: (
                    {str(k): v for k, v in sorted(value.items())}
                    if isinstance(value, dict)
                    else value
                )
                for name, value in sorted(self.metrics.items())
            },
        }
        if self.error is not None:
            out["error"] = self.error
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.start is not None:
            out["start"] = round(self.start, 6)
        return out


@dataclass(frozen=True, slots=True)
class SpanContext:
    """The portable identity of one open span: enough to parent under it."""

    trace_id: str
    span_id: str

    def to_wire(self) -> dict[str, str]:
        """Picklable/JSON-safe form shipped into worker processes."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @staticmethod
    def from_wire(wire: Mapping[str, str] | None) -> "SpanContext | None":
        if wire is None:
            return None
        return SpanContext(trace_id=wire["trace_id"], span_id=wire["span_id"])


class Tracer:
    """One trace: a stack of open spans and the records they complete into.

    A tracer is **not** thread-safe; a CLI run and each serve job own
    one, and each cell of a group gets a child tracer built from the
    wire context (:func:`repro.trace.batch.execute_group`).

    Parameters
    ----------
    trace_id:
        Explicit trace id; generated when omitted.
    parent:
        A :class:`SpanContext` from another process.  The tracer joins
        that trace: same ``trace_id``, and top-level spans recorded here
        carry ``parent.span_id`` as their parent.
    """

    __slots__ = ("trace_id", "records", "_stack", "_started")

    def __init__(
        self,
        trace_id: str | None = None,
        *,
        parent: SpanContext | None = None,
    ) -> None:
        if parent is not None:
            trace_id = parent.trace_id
        self.trace_id = trace_id or new_id(TRACE_ID_HEX)
        #: Completed spans in completion order; dicts are absorbed
        #: foreign records, SpanRecords are locally produced.
        self.records: list[SpanRecord | dict[str, Any]] = []
        # (parent span id or None, depth for the next child).
        root_parent = parent.span_id if parent is not None else None
        self._stack: list[tuple[str | None, int]] = [(root_parent, 0)]
        self._started: dict[str, float] = {}

    # -- emission ------------------------------------------------------
    def _child(self, name: str) -> SpanRecord:
        parent_id, depth = self._stack[-1]
        return SpanRecord(
            name=name,
            wall_seconds=0.0,
            depth=depth,
            trace_id=self.trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            start=time.time(),
        )

    @contextmanager
    def span(
        self, name: str, registry: "Registry | None" = None
    ) -> Iterator[SpanRecord]:
        """Open a child span for the duration of the block.

        Yields the (still incomplete) :class:`SpanRecord`; its fields
        are filled in when the block exits, including on exception -- a
        failed region still accounts for its time, records the counter
        deltas of ``registry`` (when given), and carries the exception
        summary in ``record.error``.  The exception propagates unchanged,
        and nested spans unwind cleanly: the parent stack pops and the
        record is appended even if computing the metric delta raises.
        Nested ``span()``/``record()`` calls attach underneath.
        """
        before = registry.snapshot() if registry is not None else None
        record = self._child(name)
        self._stack.append((record.span_id, record.depth + 1))
        started = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            detail = str(exc)
            record.error = (
                f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
            )
            raise
        finally:
            record.wall_seconds = time.perf_counter() - started
            try:
                if registry is not None and before is not None:
                    record.metrics = (
                        registry.snapshot().diff(before).nonzero().flat()
                    )
            finally:
                self._stack.pop()
                self.records.append(record)

    def record(
        self,
        name: str,
        wall_seconds: float,
        *,
        start: float | None = None,
        metrics: dict[str, Any] | None = None,
        error: str | None = None,
    ) -> SpanRecord:
        """Append an already-measured leaf span under the current parent.

        Used for intervals measured elsewhere (queue wait between two
        scheduler stamps) and instantaneous marks (a coalesce join,
        ``wall_seconds=0``).
        """
        record = self._child(name)
        record.wall_seconds = wall_seconds
        if start is not None:
            record.start = start
        if metrics:
            record.metrics = dict(metrics)
        record.error = error
        self.records.append(record)
        return record

    def begin(self, name: str) -> SpanRecord:
        """Open a span whose close happens in another coroutine/callback.

        The serve tier's ``serve.request`` root stays open across the
        whole job lifetime (submit coroutine through consumer task), so
        a ``with`` block can't bracket it; ``begin``/``end`` carry the
        stack discipline explicitly.
        """
        record = self._child(name)
        self._stack.append((record.span_id, record.depth + 1))
        self._started[record.span_id] = time.perf_counter()
        return record

    def end(self, record: SpanRecord, *, error: str | None = None) -> None:
        """Close a span opened with :meth:`begin` and log it."""
        started = self._started.pop(record.span_id, None)
        if started is not None:
            record.wall_seconds = time.perf_counter() - started
        if error is not None:
            record.error = error
        # Unwind to (and past) this span's stack entry; defensive
        # against a child left open by an error path.
        while len(self._stack) > 1:
            parent_id, _ = self._stack.pop()
            if parent_id == record.span_id:
                break
        self.records.append(record)

    # -- cross-process assembly ---------------------------------------
    def current(self) -> SpanContext:
        """Context of the innermost open span (the trace root if none)."""
        parent_id, _ = self._stack[-1]
        if parent_id is None:
            # No open span: mint a synthetic root so a worker can still
            # join the trace; its records parent under this id.
            parent_id = new_id()
            self._stack[0] = (parent_id, self._stack[0][1])
        return SpanContext(trace_id=self.trace_id, span_id=parent_id)

    def absorb(
        self,
        spans: Iterable[Mapping[str, Any]] | None,
        *,
        depth_offset: int | None = None,
    ) -> None:
        """Splice in span dicts produced by a worker-side tracer.

        The worker's depths are local (its root children are depth 0);
        ``depth_offset`` rebases them under the span the worker's
        context pointed at -- by default the innermost span still open
        here.  Identity fields are kept verbatim -- the worker already
        parented them correctly via the wire context.
        """
        if not spans:
            return
        if depth_offset is None:
            depth_offset = self._stack[-1][1]
        for span in spans:
            copied = dict(span)
            copied["depth"] = int(copied.get("depth", 0)) + depth_offset
            self.records.append(copied)

    def to_list(self) -> list[dict[str, Any]]:
        """JSON-safe records in completion order, for the manifest."""
        return [
            record.to_dict() if isinstance(record, SpanRecord) else dict(record)
            for record in self.records
        ]


def span_tree(spans: Iterable[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """Rebuild the causal tree from flat span dicts.

    Returns the list of roots; every node gains a ``children`` list
    (ordered as encountered).  Spans whose parent is absent from the
    set (e.g. the worker context's synthetic parent) become roots --
    the tree is best-effort over whatever subset was exported.
    """
    nodes: list[dict[str, Any]] = []
    by_id: dict[str, dict[str, Any]] = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        nodes.append(node)
        span_id = node.get("span_id")
        if span_id:
            by_id[span_id] = node
    roots: list[dict[str, Any]] = []
    for node in nodes:
        parent = by_id.get(node.get("parent_id") or "")
        if parent is not None and parent is not node:
            parent["children"].append(node)
        else:
            roots.append(node)
    return roots
