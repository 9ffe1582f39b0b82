"""The worker tier: simulation cells executed off the event loop.

Workers run :func:`repro.trace.batch.run_batch_group` -- the one cell
executor the sweeps use too -- over each popped trace-key group (a lone
job is a group of one), against the service's shared artifact store,
so everything a sweep learned (traces, replayed results) is immediately
visible to the service and vice versa.

Two executor kinds:

* ``process`` (the default): a :class:`~concurrent.futures.ProcessPoolExecutor`.
  Workers coordinate with each other and with any concurrent batch runs
  purely through the store's atomic writes and capture locks.
* ``thread``: a thread pool.  ``--workers 0`` and the test suite use it;
  simulation cells share no mutable state, so threads are correct, just
  GIL-bound.

Observability crosses the pool boundary in both directions:

* *into* the worker, a serialized :class:`~repro.obs.tracing.SpanContext`
  per cell.  The worker builds a child :class:`~repro.obs.tracing.Tracer`
  from it, wraps the group run in a ``worker.execute`` span, and ships
  the completed span dicts back in the return value, where the service
  splices them under its ``serve.execute`` span;
* *out of* the worker, live timeline windows.  Cells with sampling
  enabled push ``(token, window_dict)`` tuples onto a bounded telemetry
  queue (a ``Manager().Queue`` proxy for process pools -- a plain
  ``multiprocessing.Queue`` is not picklable as a task argument -- or a
  ``queue.Queue`` for thread pools) which the service drains into SSE
  subscribers.  Pushes never block and never raise: a full queue or a
  torn-down manager just drops the window.

Robustness contract:

* A worker exception fails that job only; the pool keeps serving.
* A crashed worker process (:class:`~concurrent.futures.BrokenExecutor`)
  rebuilds the pool and retries the job up to ``max_retries`` times.
* A job exceeding ``job_timeout`` fails with :class:`JobTimeout`.  The
  abandoned cell keeps running to completion in its worker (process
  pools cannot interrupt a running call) but every simulation is finite
  and its eventual store writes are atomic, so the only cost is the
  transiently occupied slot.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing
import queue
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any

from repro.apps.base import AppResult
from repro.core.debug import get_logger
from repro.obs.logging import ROOT_LOGGER_NAME, AtomicLineHandler, worker_init
from repro.obs.tracing import SpanContext, Tracer
from repro.trace.batch import run_batch_group
from repro.trace.store import ArtifactStore
from repro.trace.sweep import SweepTask

_log = get_logger("serve.workers")

#: Bound on the shared worker->service telemetry queue.  Sized for
#: bursts (every sampled cell in a batch closing windows at once);
#: overflow drops windows at the source, never blocks a simulation.
TELEMETRY_QUEUE_LIMIT = 1024


class JobTimeout(Exception):
    """A job exceeded the per-job wall-clock budget."""


def _window_pusher(telemetry: Any, token: str):
    """A drop-never-block callback pushing ``(token, window)`` tuples.

    Best-effort by design: a full queue (slow service loop) or a dead
    manager (service shutting down mid-job) silently drops the window
    -- live telemetry must never fail or stall a simulation.
    """

    def push(window: dict) -> None:
        try:
            telemetry.put_nowait((token, window))
        except (queue.Full, OSError, EOFError):
            pass

    return push


def _execute_batch(
    tasks: list[SweepTask],
    store_root: str,
    ctxs: dict[SweepTask, dict] | None = None,
    telemetry: Any = None,
    tokens: dict[SweepTask, str] | None = None,
) -> list[
    tuple[SweepTask, AppResult | None, str, str | None, str | None, list[dict] | None]
]:
    """Pool entry point for a trace-sharing batch group (picklable).

    A cold group takes the store's capture lock, so concurrent
    *processes* (multiple serve instances, or serve next to a sweep,
    sharing one ``--trace-dir``) never duplicate a capture: the loser of
    the race waits, then finds the trace warm and replays.  The stream
    is captured (or loaded) once and every config replays against the
    shared decoded stream.  Returns plain-data ``(task, result, how,
    engine, error_message, spans)`` tuples -- per-cell failures come
    back as data rather than a raised exception, because the jobs folded
    into a batch must fail individually on the service side, not
    collectively.

    ``ctxs``/``tokens`` are per-task maps (tasks are frozen dataclasses,
    hence hashable and stable across the pickle boundary).  Each traced
    cell gets its own child tracer with a ``worker.execute`` root span
    bracketing the shared group run.
    """
    store = ArtifactStore(store_root)
    key = tasks[0].key()
    tracers: dict[SweepTask, Tracer] = {}
    roots: dict[SweepTask, Any] = {}
    if ctxs:
        for task, wire in ctxs.items():
            tracer = Tracer(parent=SpanContext.from_wire(wire))
            tracers[task] = tracer
            roots[task] = tracer.begin("worker.execute")

    on_window = None
    if telemetry is not None and tokens:
        pushers = {
            task: _window_pusher(telemetry, token)
            for task, token in tokens.items()
        }

        def on_window(task: SweepTask, window: dict) -> None:
            push = pushers.get(task)
            if push is not None:
                push(window)

    try:
        if not store.has_trace(key):
            with store.capture_lock(key):
                outcomes = run_batch_group(
                    tasks, store, collect_errors=True,
                    tracers=tracers or None, on_window=on_window,
                )
        else:
            outcomes = run_batch_group(
                tasks, store, collect_errors=True,
                tracers=tracers or None, on_window=on_window,
            )
    finally:
        for task, tracer in tracers.items():
            tracer.end(roots[task])
    return [
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


class WorkerPool:
    """Bounded executor of sweep cells with timeout and crash recovery."""

    def __init__(
        self,
        store_root: str,
        workers: int = 2,
        mode: str = "process",
        job_timeout: float = 300.0,
        max_retries: int = 1,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store_root = store_root
        self.workers = workers
        self.mode = mode
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        #: Pool rebuilds after worker crashes (exported as a metric).
        self.restarts = 0
        self._telemetry: Any = None
        self._manager: Any = None
        self._pool = self._make_pool()

    def _make_pool(self):
        if self.mode == "thread":
            return ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-serve"
            )
        # Spawned workers inherit nothing from the parent logger tree;
        # repeat the structured-logging setup there iff the parent has
        # it, so worker log lines match (and never tear).
        logger = logging.getLogger(ROOT_LOGGER_NAME)
        if any(isinstance(h, AtomicLineHandler) for h in logger.handlers):
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=worker_init,
                initargs=(logger.getEffectiveLevel(),),
            )
        return ProcessPoolExecutor(max_workers=self.workers)

    # -- live telemetry -------------------------------------------------
    def telemetry_queue(self) -> Any:
        """The shared worker->service window queue (created on demand).

        Thread pools use a plain :class:`queue.Queue`; process pools a
        ``Manager().Queue`` proxy, the only stdlib queue that can ride
        along as a *task argument* through an executor's pickle step.
        Both are lazy: a service that never streams pays nothing.
        """
        if self._telemetry is None:
            if self.mode == "thread":
                self._telemetry = queue.Queue(maxsize=TELEMETRY_QUEUE_LIMIT)
            else:
                self._manager = multiprocessing.Manager()
                self._telemetry = self._manager.Queue(TELEMETRY_QUEUE_LIMIT)
        return self._telemetry

    def _submit_batch(
        self,
        tasks: list[SweepTask],
        ctxs: dict[SweepTask, dict] | None,
        tokens: dict[SweepTask, str] | None,
    ) -> Future:
        telemetry = self._telemetry if tokens else None
        return self._pool.submit(
            _execute_batch, tasks, self.store_root, ctxs, telemetry, tokens
        )

    # ------------------------------------------------------------------
    async def run_batch(
        self,
        tasks: list[SweepTask],
        *,
        ctxs: dict[SweepTask, dict] | None = None,
        tokens: dict[SweepTask, str] | None = None,
    ) -> tuple[
        list[
            tuple[
                SweepTask, AppResult | None, str, str | None, str | None,
                list[dict] | None,
            ]
        ],
        int,
    ]:
        """Execute one trace-sharing group; returns ``(outcomes, attempts)``.

        ``outcomes`` mirrors :func:`_execute_batch`'s tuples, so per-cell
        failures arrive as data.  The group is the unit of timeout and
        crash handling: a budget overrun fails every cell in the batch
        with :class:`JobTimeout`, and a crashed pool is rebuilt and the
        group retried up to ``max_retries`` times before the crash
        fails every cell.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                future = self._submit_batch(tasks, ctxs, tokens)
                outcomes = await asyncio.wait_for(
                    asyncio.wrap_future(future), self.job_timeout
                )
                return outcomes, attempts
            except asyncio.TimeoutError:
                future.cancel()
                lead = tasks[0]
                raise JobTimeout(
                    f"batch of {len(tasks)} cells for {lead.app} "
                    f"(scale={lead.scale}, seed={lead.seed}) exceeded "
                    f"{self.job_timeout:.0f}s budget"
                ) from None
            except BrokenExecutor as exc:
                self.restarts += 1
                _log.warning(
                    "worker pool broke running a %d-cell batch for %s "
                    "(%s); rebuilding (attempt %d/%d)",
                    len(tasks),
                    tasks[0].app,
                    exc,
                    attempts,
                    self.max_retries + 1,
                )
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = self._make_pool()
                if attempts > self.max_retries:
                    raise

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=not wait)
        if self._manager is not None:
            self._manager.shutdown()
            self._manager = None
            self._telemetry = None
