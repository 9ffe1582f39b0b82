"""The worker tier: simulation cells executed off the event loop.

Workers run :func:`repro.trace.batch.execute_group` -- the group entry
point the sweeps call too -- over each popped trace-key group (a lone
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
  per cell.  The group entry point builds a child
  :class:`~repro.obs.tracing.Tracer` from it, wraps the group run in a
  ``worker.execute`` span, and ships the completed span dicts back in
  the return value, where the service splices them under its
  ``serve.execute`` span;
* *out of* the worker, live timeline windows.  This module's one
  adapter, :func:`_push_window`, is the entry point's ``on_window``:
  cells with sampling enabled push ``(token, window_dict)`` tuples onto
  a bounded telemetry queue (a ``Manager().Queue`` proxy for process
  pools -- a plain ``multiprocessing.Queue`` is not picklable as a task
  argument -- or a ``queue.Queue`` for thread pools) which the service
  drains into SSE subscribers.  Pushes never block and never raise: a
  full queue or a torn-down manager just drops the window.

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
from functools import partial
from typing import Any

from repro.apps.base import AppResult
from repro.obs.logging import ROOT_LOGGER_NAME, AtomicLineHandler, worker_init
from repro.trace.batch import execute_group
from repro.trace.store import ArtifactStore
from repro.trace.sweep import SweepTask

_log = logging.getLogger(__name__)

#: Bound on the shared worker->service telemetry queue.  Sized for
#: bursts (every sampled cell in a batch closing windows at once);
#: overflow drops windows at the source, never blocks a simulation.
TELEMETRY_QUEUE_LIMIT = 1024


class JobTimeout(Exception):
    """A job exceeded the per-job wall-clock budget."""


def _push_window(
    telemetry: Any, tokens: dict[SweepTask, str], task: SweepTask, window: dict
) -> None:
    """``on_window`` for :func:`execute_group`: queue a streamed window.

    Bound with :func:`functools.partial` to the telemetry queue and the
    per-task routing tokens, so it pickles into a process worker.
    Best-effort by design: a full queue (slow service loop) or a dead
    manager (service shutting down mid-job) silently drops the window
    -- live telemetry must never fail or stall a simulation.
    """
    token = tokens.get(task)
    if token is None:
        return
    try:
        telemetry.put_nowait((token, window))
    except (queue.Full, OSError, EOFError):
        pass


class WorkerPool:
    """Bounded executor of sweep cells with timeout and crash recovery."""

    def __init__(
        self,
        store: ArtifactStore,
        workers: int = 2,
        mode: str = "process",
        job_timeout: float = 300.0,
        max_retries: int = 1,
    ) -> None:
        if mode not in ("process", "thread"):
            raise ValueError(f"unknown worker mode {mode!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
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
        on_window = None
        if tokens:
            on_window = partial(_push_window, self._telemetry, tokens)
        return self._pool.submit(
            execute_group, tasks, self.store, None, ctxs,
            on_window=on_window, collect_errors=True,
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

        ``outcomes`` are :func:`execute_group`'s per-cell rows, so
        per-cell failures arrive as data.  The group is the unit of
        timeout and crash handling: a budget overrun fails every cell in
        the batch with :class:`JobTimeout`, and a crashed pool is
        rebuilt and the group retried up to ``max_retries`` times before
        the crash fails every cell.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                future = self._submit_batch(tasks, ctxs, tokens)
                _content_hash, outcomes = await asyncio.wait_for(
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
