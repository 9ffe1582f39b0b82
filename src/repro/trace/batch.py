"""The cell executor: a trace-sharing group of cells, one decode, N configs.

Every cell runs here.  A sweep's natural unit of work is the *trace*:
every cell sharing a trace key can run against one decode of the
stream, and a single cell is simply a group of one
(:func:`repro.trace.sweep.run_task`).  A trace stores its resolved
stream in chunks (:func:`repro.trace.replay.iter_resolved_chunks`
unpacks one at a time), so the group loop interleaves at chunk
granularity: decode one chunk, drive **every** config's session over
it, drop it, pull the next.  Resident memory is one resolved chunk plus
N session states -- O(chunk), not O(trace) -- however many configs
share the stream.

* :func:`group_by_trace` partitions sweep tasks into per-trace-key
  groups (insertion-ordered, so progress output stays deterministic);
* :func:`run_batch_group` executes one group end to end -- load the
  stream once, or capture it if it is missing everywhere (the capturing
  cell's direct result answers that cell), answer cached cells from the
  store, run events cells direct, then build one replay session per
  remaining config and drive them all through one streaming decode;
* :func:`execute_group` is the entry point every executor calls --
  sweeps in-process and across their pool, serve's worker pool -- which
  wraps :func:`run_batch_group` with the capture lock, per-cell child
  tracers and plain-data results;
* :func:`session_for` picks the per-config replay session: the
  exec-specialized kernel (:class:`~repro.trace.kernels.
  SpecializedSession`) when the config is inside the specializer's
  feature matrix, the general :class:`~repro.trace.replay.ReplaySession`
  otherwise.  Both are bit-identical by contract.

Every simulated cell carries an engine label naming what produced its
numbers: :data:`DIRECT` (the Machine ran, for a capture or an events
cell), :data:`GENERAL` or :data:`SPECIALIZED` (the two replay
sessions).  A cached cell carries none; its ``how`` says it was cached.
The parity suites make the labels interchangeable, the labels make the
claim auditable.

Error contract: :class:`BatchCellError` names the exact failing cell
inside a group and is pickle-safe (its ``args`` are plain data), so a
process-pool worker can raise it across the pipe without losing the
cell identity.  ``collect_errors=True`` switches to per-cell error
outcomes instead -- the serve tier folds multiple queued jobs into one
batch and must fail them individually, not collectively.  A failure
*inside one session* mid-stream fails only that cell; the other
sessions keep consuming chunks.  A failure in the shared decode fails
every cell still riding it (there is no stream left to finish them).
"""

from __future__ import annotations

import time as _time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.apps import get_application
from repro.apps.base import AppResult, Variant
from repro.core.machine import MachineConfig
from repro.obs.logging import bind_trace_id, reset_trace_id
from repro.obs.tracing import SpanContext, Tracer
from repro.trace.format import Trace
from repro.trace.kernels import SpecializedSession, specializable
from repro.trace.recorder import capture_trace
from repro.trace.replay import ReplaySession, iter_resolved_chunks
from repro.trace.store import ArtifactStore, config_fingerprint

#: Engine labels recorded per simulated cell (manifests, progress logs,
#: metrics).
DIRECT = "direct"
GENERAL = "general"
SPECIALIZED = "specialized"

#: Per-cell cap on chunk spans recorded into a tracer, so a large trace
#: doesn't flood the manifest; the ``replay.chunks`` summary span always
#: carries the full totals.
MAX_CHUNK_SPANS = 32


class BatchCellError(RuntimeError):
    """One cell of a batch group failed; names the cell, pickles cleanly.

    ``args`` carries only the task and a rendered message (no exception
    object with a custom constructor), so the error crosses a process
    pool's result pipe intact -- the collector on the other side still
    knows exactly which cell inside the batch failed.
    """

    def __init__(self, task, message: str) -> None:
        super().__init__(task, message)
        self.task = task
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass
class BatchOutcome:
    """One cell's result within a batch group."""

    task: object  # SweepTask (kept untyped to avoid an import cycle)
    result: AppResult | None
    #: ``"captured"`` / ``"replayed"`` / ``"cached"`` / ``"failed"``.
    how: str
    #: Which engine produced the result (:data:`DIRECT` etc.); ``None``
    #: for a cached or failed cell.
    engine: str | None
    #: Set instead of ``result`` when ``collect_errors=True``.
    error: BatchCellError | None = None


def session_for(trace: Trace, config: MachineConfig, on_window=None):
    """Build the best chunk-consuming session for ``config``.

    Returns ``(session, engine)``: :data:`SPECIALIZED` when the config
    fits the specializer's feature matrix, :data:`GENERAL` otherwise.
    ``on_window`` only reaches the general session: the specializer's
    feature matrix requires ``timeline_interval == 0``, so a config with
    windows to stream always takes the general path anyway.
    """
    if specializable(config):
        return SpecializedSession(trace, config), SPECIALIZED
    return ReplaySession(trace, config, on_window=on_window), GENERAL


def group_by_trace(tasks) -> dict[str, list]:
    """Partition tasks into per-trace-key groups, insertion-ordered."""
    groups: dict[str, list] = {}
    for task in tasks:
        groups.setdefault(task.key(), []).append(task)
    return groups


def _untraced(name: str):
    return nullcontext()


def run_batch_group(
    tasks: list,
    store: ArtifactStore | None = None,
    traces: dict[str, Trace] | None = None,
    collect_errors: bool = False,
    *,
    tracers=None,
    on_window=None,
) -> list[BatchOutcome]:
    """Execute one trace-sharing group of cells; one decode, N configs.

    All tasks must share a trace key.  ``traces`` is an optional
    in-process trace cache (keyed like the store) consulted before, and
    populated after, the group's one store probe.  The group runs in two
    phases.

    **Resolve** (per cell, in task order):

    * the first cell finds the group's trace -- in ``traces``, else by
      one ``store.load_trace`` -- or, when it is missing everywhere,
      captures it; the capture's direct result answers that cell;
    * cached results come straight from the store;
    * events cells (``events_capacity > 0``) run direct -- replay cannot
      reproduce the discrete event stream -- and persist their result;
    * everything else gets a replay session (specialized kernel or
      general path, per config).

    **Drive**: every session consumes the trace's resolved chunks in
    lockstep -- one chunk unpacked, all sessions run over it, then the
    next -- and finally each session's ``finish()``
    produces and persists its cell's result.

    With ``collect_errors=False`` (sweeps) the first failing cell raises
    :class:`BatchCellError`; with ``collect_errors=True`` (the serve
    tier) each failure becomes an error outcome and the remaining cells
    still run.

    ``tracers`` (``{task: Tracer}``), when given, records each cell's
    phases as spans into that cell's causal tree -- trace load, capture,
    cache probe, the shared drive (one ``replay.run`` span per cell with
    capped per-chunk children), result writes -- and binds the cell's
    trace id for log lines around its resolve step.  ``on_window`` is
    called as ``on_window(task, window_dict)`` for every timeline window
    a cell's run or session closes.  Both default to ``None`` and add
    nothing to the chunk loop when absent.
    """
    keys = {task.key() for task in tasks}
    if len(keys) > 1:
        raise ValueError(
            f"batch group spans {len(keys)} trace keys {sorted(keys)}; "
            "group_by_trace() the tasks first"
        )
    outcomes: dict[int, BatchOutcome] = {}
    trace: Trace | None = None
    key = next(iter(keys)) if keys else None
    if traces is None:
        traces = {}

    def fail(position, task, exc) -> None:
        error = BatchCellError(
            task,
            f"batch cell {task.app}/{task.line_size}B/{task.variant} "
            f"(scale={task.scale}, seed={task.seed}) failed: "
            f"{type(exc).__name__}: {exc}",
        )
        error.__cause__ = exc
        if not collect_errors:
            raise error from exc
        outcomes[position] = BatchOutcome(task, None, "failed", None, error=error)

    #: (position, task, fingerprint, session, engine, tracer) per
    #: replay cell.
    pending: list[tuple] = []
    for position, task in enumerate(tasks):
        tracer = tracers.get(task) if tracers is not None else None
        span = tracer.span if tracer is not None else _untraced
        window_cb = None
        if on_window is not None:
            def window_cb(window, _task=task):
                on_window(_task, window)
        # A traced cell's log lines (an unreadable trace or result
        # discarded) carry its trace id.
        bound = bind_trace_id(tracer.trace_id) if tracer is not None else None
        try:
            config = task.config()
            if trace is None:
                trace = traces.get(key)
                if trace is None and store is not None:
                    with span("trace.load"):
                        trace = store.load_trace(key)
                if trace is None:
                    # First cold cell captures for the whole group; its
                    # own direct result answers this cell.
                    with span("trace.capture"):
                        trace, result = capture_trace(
                            task.app,
                            Variant(task.variant),
                            config,
                            task.scale,
                            task.seed,
                            on_window=window_cb,
                        )
                    traces[key] = trace
                    if store is not None:
                        with span("store.trace_write"):
                            store.save_trace(key, trace)
                            store.save_result(
                                trace.content_hash,
                                config_fingerprint(config),
                                result,
                            )
                    outcomes[position] = BatchOutcome(
                        task, result, "captured", DIRECT
                    )
                    continue
                traces[key] = trace
            fingerprint = config_fingerprint(config)
            if store is not None:
                with span("store.result_probe"):
                    cached = store.load_result(trace.content_hash, fingerprint)
                if cached is not None:
                    outcomes[position] = BatchOutcome(task, cached, "cached", None)
                    continue
            if config.events_capacity > 0:
                # Discrete events only occur during direct execution:
                # replay reproduces the windowed *rates* exactly, but not
                # the event stream (relocations, pool traffic, chain
                # walks happen in the application/optimizer code replay
                # skips).  Events cells therefore always run direct,
                # even when the trace is warm -- their results still
                # persist under their own config fingerprint, so the
                # re-run happens once.
                with span("trace.capture"):
                    result = get_application(
                        task.app, task.scale, task.seed
                    ).run(Variant(task.variant), config, on_window=window_cb)
                if store is not None:
                    with span("store.result_write"):
                        store.save_result(trace.content_hash, fingerprint, result)
                outcomes[position] = BatchOutcome(task, result, "captured", DIRECT)
                continue
            session, engine = session_for(trace, config, on_window=window_cb)
            pending.append((position, task, fingerprint, session, engine, tracer))
        except Exception as exc:
            fail(position, task, exc)
        finally:
            if bound is not None:
                reset_trace_id(bound)

    if pending:
        _drive_pending(trace, pending, outcomes, store, fail)
    return [outcomes[position] for position in sorted(outcomes)]


def execute_group(
    tasks: list,
    store: ArtifactStore | None = None,
    traces: dict[str, Trace] | None = None,
    ctxs: dict | None = None,
    *,
    on_window=None,
    collect_errors: bool = False,
) -> tuple[str | None, list[tuple]]:
    """Run one trace-sharing group: the entry point of every executor.

    Sweeps call it in-process and through their process pool, and the
    serve tier's worker pool calls it for each popped group, so its
    arguments and results are plain, picklable data.  A cold key (in
    neither ``traces`` nor ``store``) is run under the store's capture
    lock, so concurrent processes sharing one store never duplicate a
    capture: the loser of the race waits, then finds the trace warm.

    ``ctxs`` maps a task to the wire form of a
    :class:`~repro.obs.tracing.SpanContext`; each such cell gets a child
    :class:`~repro.obs.tracing.Tracer` whose ``worker.execute`` root
    brackets the shared group run.  ``on_window`` is forwarded to
    :func:`run_batch_group`, as is ``collect_errors``.

    Returns ``(content_hash, rows)``: the group's trace content hash
    (``None`` if no trace was found or captured) and one
    ``(task, result, how, engine, error_message, spans)`` tuple per
    cell, in task order; ``spans`` is the cell's span dicts, or ``None``
    for an untraced cell.
    """
    key = tasks[0].key()
    if traces is None:
        traces = {}
    tracers = {
        task: Tracer(parent=SpanContext.from_wire(wire))
        for task, wire in (ctxs or {}).items()
    }
    roots = {task: tracer.begin("worker.execute") for task, tracer in tracers.items()}
    cold = store is not None and key not in traces and not store.has_trace(key)
    try:
        with store.capture_lock(key) if cold else nullcontext():
            outcomes = run_batch_group(
                tasks, store, traces, collect_errors,
                tracers=tracers or None, on_window=on_window,
            )
    finally:
        for task, tracer in tracers.items():
            tracer.end(roots[task])
    trace = traces.get(key)
    return trace.content_hash if trace is not None else None, [
        (
            outcome.task,
            outcome.result,
            outcome.how,
            outcome.engine,
            outcome.error.message if outcome.error is not None else None,
            tracers[outcome.task].to_list() if outcome.task in tracers else None,
        )
        for outcome in outcomes
    ]


def _drive_pending(trace, pending, outcomes, store, fail) -> None:
    """Stream the trace's chunks through every pending session."""
    live = list(pending)
    # Traced cells get one open `replay.run` span spanning the whole
    # drive, with capped per-chunk child records; untraced cells pay a
    # single `is None` check per (session, chunk).
    open_spans: dict[int, tuple] = {}
    chunk_tallies: dict[int, list] = {}
    for entry in live:
        position, tracer = entry[0], entry[5]
        if tracer is not None:
            open_spans[position] = (tracer, tracer.begin("replay.run"))
            chunk_tallies[position] = [0, 0, 0.0]  # chunks, entries, secs

    def feed(chunks) -> None:
        nonlocal live
        for index, chunk in enumerate(chunks):
            kept = []
            for entry in live:
                position, task, _fingerprint, session, _engine, tracer = entry
                try:
                    if tracer is None:
                        session.run_chunk(chunk)
                    else:
                        started = _time.perf_counter()
                        session.run_chunk(chunk)
                        seconds = _time.perf_counter() - started
                        tally = chunk_tallies[position]
                        tally[0] += 1
                        tally[1] += chunk.n
                        tally[2] += seconds
                        if tally[0] <= MAX_CHUNK_SPANS:
                            tracer.record(
                                f"replay.chunk[{index}]",
                                seconds,
                                metrics={"entries": chunk.n},
                            )
                except Exception as exc:
                    fail(position, task, exc)
                else:
                    kept.append(entry)
            live = kept
            if not live:
                return

    decode_failed = False
    try:
        try:
            feed(iter_resolved_chunks(trace))
        except BatchCellError:
            raise
        except Exception as exc:
            # The shared decode itself failed; every session still
            # riding it loses its stream mid-flight and cannot produce
            # a result.
            for position, task, _fingerprint, _session, _engine, _t in live:
                fail(position, task, exc)
            decode_failed = True
    finally:
        # Close every traced cell's drive span -- also on the raising
        # paths, so a worker's partial trace still assembles into a
        # well-formed tree.
        for position, (tracer, record) in open_spans.items():
            tally = chunk_tallies[position]
            tracer.record(
                "replay.chunks",
                tally[2],
                metrics={"chunks": tally[0], "entries": tally[1]},
            )
            tracer.end(record)
    if decode_failed:
        return

    for position, task, fingerprint, session, engine, tracer in live:
        try:
            result = session.finish()
            if store is not None:
                if tracer is None:
                    store.save_result(trace.content_hash, fingerprint, result)
                else:
                    with tracer.span("store.result_write"):
                        store.save_result(
                            trace.content_hash, fingerprint, result
                        )
        except Exception as exc:
            fail(position, task, exc)
        else:
            outcomes[position] = BatchOutcome(task, result, "replayed", engine)
