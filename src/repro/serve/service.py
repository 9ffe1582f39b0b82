"""The simulation service: queue, workers, cache, and live metrics.

:class:`SimulationService` is the long-lived object behind
``python -m repro serve``.  It accepts validated job payloads, serves warm
cells straight from the artifact store (O(ms), no worker round-trip),
coalesces identical in-flight requests, and feeds everything else
through the cache-aware scheduler into the worker pool: each pop takes
the next runnable job plus every queued job sharing its trace key, and
one worker round-trip runs them as one batch group (a lone job is a
group of one).  Every finished job carries a schema-validated
``repro.obs.manifest/v3`` run manifest -- the same artifact format the
batch CLI emits -- so service clients and batch pipelines consume
identical documents.

Since PR 9 every job is traced end to end: admission opens a
``serve.request`` root span on a per-job :class:`~repro.obs.Tracer`,
the probe / queue wait / coalesce joins / worker round-trip each record
under it, the worker ships its own spans back across the pool boundary
(see :mod:`repro.serve.workers`), and the finished manifest's ``spans``
list is the assembled causal tree -- exportable to Perfetto via the
existing ``obs export`` tooling.  Sampled cells additionally stream
their timeline windows live: workers push per-window dicts onto the
pool's telemetry queue and :meth:`_forward_telemetry` fans them out to
``GET /jobs/<id>/stream`` subscribers.

Instrumentation is a live :class:`repro.obs.Registry`:

======================================  ================================
``serve.queue.depth``                    queued jobs (gauge, live)
``serve.jobs.inflight``                  queued+running jobs (gauge)
``serve.jobs.{submitted,coalesced,...}`` admission outcomes (counters)
``serve.jobs.{completed,failed}``        terminal outcomes (counters)
``serve.jobs.timeouts``                  budget overruns (counter)
``serve.cache.{hit,miss}``               warm-probe outcomes (counters)
``serve.jobs.batch_folded``              jobs folded into batches (counter)
``serve.workers.restarts``               pool rebuilds (gauge, live)
``serve.stream.{events,dropped}``        SSE fan-out accounting (counters)
``serve.latency.<how>_ms``               per-outcome latency histograms
======================================  ================================

``GET /metrics`` snapshots the registry and derives p50/p99 from the
latency histograms via :func:`repro.obs.histogram_quantiles`;
``GET /metrics?format=prometheus`` renders the same snapshot in text
exposition format via :func:`repro.obs.render_prometheus`.
"""

from __future__ import annotations

import asyncio
import logging
import queue as _queue
import time
from typing import Any

from repro.obs import (
    GAUGE,
    Registry,
    Tracer,
    build_manifest,
    cell,
    histogram_quantiles,
    render_prometheus,
)
from repro.adapt.config import DEFAULT_HEATMAP_REGION
from repro.cache.misspath import KNOB_MECHANISMS
from repro.serve.jobs import Job, JobTable
from repro.serve.protocol import ADAPT_KNOBS, job_key, parse_job
from repro.serve.scheduler import QueueFull, Scheduler
from repro.serve.workers import JobTimeout, WorkerPool
from repro.trace.store import ArtifactStore, config_fingerprint
from repro.trace.sweep import SweepTask

__all__ = ["QueueFull", "ServiceClosed", "SimulationService"]

_log = logging.getLogger(__name__)

#: Latency buckets, by how the result was obtained.
_HOWS = ("captured", "replayed", "cached")


class ServiceClosed(Exception):
    """The service is draining and no longer accepts work (HTTP 503)."""


class SimulationService:
    """Async facade over the trace/replay engine for concurrent clients."""

    def __init__(
        self,
        trace_dir: str,
        workers: int = 2,
        mode: str = "process",
        queue_limit: int = 64,
        job_timeout: float = 300.0,
        max_retries: int = 1,
        history_limit: int = 512,
        retry_after: float = 1.0,
    ) -> None:
        self.store = ArtifactStore(trace_dir)
        swept = self.store.sweep_stale()
        if swept:
            _log.info("startup sweep removed %d stale artifacts", swept)
        self.table = JobTable(history_limit)
        self.scheduler = Scheduler(self.store, queue_limit, retry_after)
        self.pool = WorkerPool(
            self.store,
            workers=workers,
            mode=mode,
            job_timeout=job_timeout,
            max_retries=max_retries,
        )
        self.started_at = time.time()
        self._draining = False
        self._consumers: list[asyncio.Task] = []
        self._forwarder: asyncio.Task | None = None
        #: trace key -> content hash, learned on first warm probe so
        #: repeat probes skip re-reading the trace bytes.
        self._trace_hashes: dict[str, str] = {}

        self.obs = Registry()
        self.obs.bind("serve.queue.depth", lambda: self.scheduler.depth, GAUGE)
        self.obs.bind(
            "serve.jobs.inflight", lambda: self.scheduler.inflight, GAUGE
        )
        self.obs.bind("serve.workers.restarts", lambda: self.pool.restarts, GAUGE)
        # Stream totals are monotonic (the table folds evicted jobs'
        # counts in), so they bind as counters despite being derived.
        self.obs.bind(
            "serve.stream.events", lambda: self.table.stream_events_total
        )
        self.obs.bind(
            "serve.stream.dropped", lambda: self.table.stream_dropped_total
        )
        for name in (
            "serve.jobs.submitted",
            "serve.jobs.coalesced",
            "serve.jobs.rejected",
            "serve.jobs.completed",
            "serve.jobs.failed",
            "serve.jobs.timeouts",
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.jobs.batch_folded",
        ):
            self.obs.counter(name)
        for how in _HOWS:
            self.obs.histogram(f"serve.latency.{how}_ms")

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn one consumer task per worker slot."""
        if self._consumers:
            return
        self._consumers = [
            asyncio.create_task(self._consume(), name=f"serve-consumer-{i}")
            for i in range(self.pool.workers)
        ]

    async def drain(self, timeout: float | None = 30.0) -> bool:
        """Stop admitting work, let in-flight jobs finish, shut down.

        Returns True if everything drained inside ``timeout``.  Always
        cancels the consumers and shuts the pool down, so the service is
        terminal either way.
        """
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        clean = True
        while self.scheduler.inflight:
            if deadline is not None and time.monotonic() >= deadline:
                clean = False
                break
            await asyncio.sleep(0.02)
        tasks = list(self._consumers)
        if self._forwarder is not None:
            tasks.append(self._forwarder)
            self._forwarder = None
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._consumers = []
        self.pool.shutdown(wait=clean)
        return clean

    @property
    def draining(self) -> bool:
        return self._draining

    # -- admission ------------------------------------------------------
    async def submit(self, payload: object) -> tuple[Job, str]:
        """Admit one request; returns ``(job, outcome)``.

        ``outcome``: ``"cached"`` (served warm, job already terminal),
        ``"coalesced"`` (attached to an identical in-flight job), or
        ``"queued"``.  Raises :class:`~repro.serve.protocol.ProtocolError`
        on a bad payload, :class:`QueueFull` on backpressure, and
        :class:`ServiceClosed` while draining.
        """
        if self._draining:
            raise ServiceClosed("service is draining")
        task = parse_job(payload)
        key = job_key(task)
        existing = self.scheduler.coalesce(key)
        if existing is not None:
            self.obs.counter("serve.jobs.coalesced").inc()
            self._record_join(existing)
            return existing, "coalesced"
        tracer = Tracer()
        root = tracer.begin("serve.request")
        probe_started = time.perf_counter()
        warm = await asyncio.to_thread(self._warm_probe, task)
        tracer.record(
            "serve.probe",
            time.perf_counter() - probe_started,
            metrics={"hit": 1 if warm is not None else 0},
        )
        if warm is not None:
            self.obs.counter("serve.cache.hit").inc()
            job = self.table.create(task)
            job.attempts = 0
            self._adopt(job, tracer, root)
            tracer.end(root)
            manifest = self._success_manifest(
                task, warm, "cached", tracer=tracer
            )
            job.complete("cached", manifest)
            self._observe_latency("cached", root.wall_seconds)
            return job, "cached"
        self.obs.counter("serve.cache.miss").inc()

        def _factory() -> Job:
            job = self.table.create(task)
            self._adopt(job, tracer, root)
            return job

        try:
            job, outcome = self.scheduler.submit(_factory, key)
        except QueueFull:
            self.obs.counter("serve.jobs.rejected").inc()
            raise
        if outcome == "coalesced":
            self.obs.counter("serve.jobs.coalesced").inc()
            self._record_join(job)
        else:
            self.obs.counter("serve.jobs.submitted").inc()
        return job, outcome

    def _adopt(self, job: Job, tracer: Tracer, root) -> None:
        job.tracer = tracer
        job.trace_id = tracer.trace_id
        job.root_span = root

    def _record_join(self, job: Job) -> None:
        """A zero-duration mark on the host job: one more rider attached."""
        if job.tracer is not None and not job.finished:
            job.tracer.record(
                "serve.coalesce.join",
                0.0,
                metrics={"subscribers": job.subscribers},
            )

    def _warm_probe(self, task: SweepTask):
        """Serve a fully cached cell without touching the worker tier.

        Runs in a thread (trace footers and result JSON come off disk).
        The trace's content hash comes from the trace file's header and
        footer via :meth:`~repro.trace.store.ArtifactStore.
        content_hash_for`, so the probe never decodes chunk data.
        Returns the cached :class:`~repro.apps.base.AppResult` or None
        on any miss.
        """
        trace_key = task.key()
        content_hash = self._trace_hashes.get(trace_key)
        if content_hash is None:
            content_hash = self.store.content_hash_for(trace_key)
            if content_hash is None:
                return None
            self._trace_hashes[trace_key] = content_hash
        return self.store.load_result(
            content_hash, config_fingerprint(task.config())
        )

    # -- execution ------------------------------------------------------
    async def _consume(self) -> None:
        while True:
            jobs = await self.scheduler.pop_batch()
            try:
                await self._run_batch(jobs)
            except asyncio.CancelledError:
                raise
            except Exception:  # pragma: no cover - defensive: keep serving
                _log.exception(
                    "consumer crashed on job(s) %s",
                    ", ".join(job.id for job in jobs),
                )
                for job in jobs:
                    if not job.finished:
                        job.fail("internal error")
                    self.scheduler.finished(job, captured=False)

    def _queue_wait(self, job: Job) -> None:
        """Record the admission-to-pop interval on the job's trace."""
        if job.tracer is None or job.started_at is None:
            return
        job.tracer.record(
            "serve.queue.wait",
            max(0.0, job.started_at - job.submitted_at),
            start=job.submitted_wall,
        )

    def _stream_token(self, job: Job) -> str | None:
        """The telemetry routing token -- only sampled cells stream."""
        if job.task.timeline_interval > 0:
            self._ensure_forwarder()
            return job.id
        return None

    async def _run_batch(self, jobs: list[Job]) -> None:
        """Execute a popped trace-key batch via one worker round-trip.

        The worker returns per-cell outcome tuples, so each folded job
        completes or fails on its own terms; only a whole-batch failure
        (timeout, exhausted pool retries) fails every member.  Each
        traced member gets its own ``serve.execute`` span bracketing the
        shared round-trip, with its worker-side spans spliced under it.
        """
        by_task = {job.task: job for job in jobs}
        tasks = list(by_task)
        if len(jobs) > 1:
            self.obs.counter("serve.jobs.batch_folded").inc(len(jobs) - 1)
        ctxs: dict[Any, dict] = {}
        tokens: dict[Any, str] = {}
        exec_recs: dict[Any, Any] = {}
        for task, job in by_task.items():
            self._queue_wait(job)
            if job.tracer is None:
                continue
            exec_recs[task] = job.tracer.begin("serve.execute")
            ctxs[task] = job.tracer.current().to_wire()
            token = self._stream_token(job)
            if token is not None:
                tokens[task] = token

        def _close_exec(task, error: str | None = None) -> None:
            job = by_task[task]
            rec = exec_recs.pop(task, None)
            if rec is None or job.tracer is None:
                return
            job.tracer.end(rec, error=error)

        try:
            outcomes, attempts = await self.pool.run_batch(
                tasks, ctxs=ctxs or None, tokens=tokens or None
            )
        except Exception as exc:
            detail = str(exc)
            error = (
                f"{type(exc).__name__}: {detail}" if detail else type(exc).__name__
            )
            if isinstance(exc, JobTimeout):
                self.obs.counter("serve.jobs.timeouts").inc()
            _log.warning("batch of %d jobs failed: %s", len(jobs), error)
            for task, job in by_task.items():
                _close_exec(task, error=error)
                if job.tracer is not None:
                    job.tracer.end(job.root_span, error=error)
                self.obs.counter("serve.jobs.failed").inc()
                job.fail(
                    error,
                    self._failure_manifest(task, error, tracer=job.tracer),
                )
                self.scheduler.finished(job, captured=False)
            return
        for task, result, how, engine, error, spans in outcomes:
            job = by_task[task]
            if job.tracer is not None:
                rec = exec_recs.get(task)
                offset = rec.depth + 1 if rec is not None else 1
                _close_exec(task, error=error)
                job.tracer.absorb(spans, depth_offset=offset)
                job.tracer.end(job.root_span, error=error)
            if error is not None:
                self.obs.counter("serve.jobs.failed").inc()
                _log.warning(
                    "job %s (%s) failed: %s", job.id, task.cell_id, error
                )
                job.fail(
                    error,
                    self._failure_manifest(task, error, tracer=job.tracer),
                )
                self.scheduler.finished(job, captured=False)
                continue
            job.attempts = attempts
            manifest = self._success_manifest(
                task, result, how, tracer=job.tracer, engine=engine
            )
            job.complete(how, manifest)
            self.obs.counter("serve.jobs.completed").inc()
            self._observe_latency(how, job.latency_seconds or 0.0)
            self.scheduler.finished(job, captured=True)

    def _observe_latency(self, how: str, seconds: float) -> None:
        if how not in _HOWS:  # pragma: no cover - future-proofing
            return
        self.obs.histogram(f"serve.latency.{how}_ms").observe(
            max(0, round(seconds * 1000))
        )

    # -- live telemetry -------------------------------------------------
    def _ensure_forwarder(self) -> None:
        """Start the telemetry drain loop once a sampled cell shows up."""
        if self._forwarder is not None and not self._forwarder.done():
            return
        self.pool.telemetry_queue()
        self._forwarder = asyncio.create_task(
            self._forward_telemetry(), name="serve-telemetry"
        )

    async def _forward_telemetry(self) -> None:
        """Drain worker window events into their jobs' SSE subscribers.

        Runs as one long-lived task: blocking ``get`` calls happen on a
        thread (0.5s timeout, so cancellation is prompt), and each
        ``(token, window)`` tuple is published to the job it belongs to.
        Events for evicted or already-finished jobs drop silently --
        late windows from an abandoned (timed-out) cell have nowhere
        meaningful to go.
        """
        telemetry = self.pool.telemetry_queue()
        while True:
            try:
                item = await asyncio.to_thread(telemetry.get, True, 0.5)
            except _queue.Empty:
                continue
            except (OSError, EOFError):  # pragma: no cover - manager gone
                return
            if item is None:  # pragma: no cover - explicit shutdown poke
                return
            token, window = item
            job = self.table.get(token)
            if job is not None and not job.finished:
                job.publish({"event": "window", **window})

    # -- manifests ------------------------------------------------------
    def _run_section(self, task: SweepTask) -> dict[str, Any]:
        section = {
            "scale": task.scale,
            "jobs": 1,
            "cache": True,
            "trace_dir": str(self.store.root),
            "timeline_interval": task.timeline_interval,
            "events_capacity": task.events_capacity,
        }
        if task.mechanism != "none":
            # Matches ExperimentRunner.manifest: mechanism keys appear
            # only for mechanism-carrying cells.
            section["mechanism"] = task.mechanism
            section.update({knob: getattr(task, knob) for knob in KNOB_MECHANISMS})
        if task.adapt is not None:
            # Under the payload's adapt_* names.
            section.update(
                {
                    knob: getattr(task.adapt, knob.removeprefix("adapt_"))
                    for knob in ("adapt_policy", *ADAPT_KNOBS)
                }
            )
        if task.heatmap_region != DEFAULT_HEATMAP_REGION:
            section["heatmap_region"] = task.heatmap_region
        return section

    def _finish_trace(self, tracer: Tracer | None) -> tuple[list[dict], float]:
        """Close a job's root span; returns (span dicts, request wall)."""
        if tracer is None:
            return [], 0.0
        # The root may already be closed (cached path ends it inline).
        for record in tracer.records:
            if getattr(record, "name", None) == "serve.request":
                return tracer.to_list(), record.wall_seconds
        return tracer.to_list(), 0.0

    def _success_manifest(
        self,
        task: SweepTask,
        result,
        how: str,
        *,
        tracer: Tracer | None = None,
        engine: str | None = None,
    ) -> dict[str, Any]:
        spans, wall = self._finish_trace(tracer)
        stats = result.stats
        adapt = getattr(result, "extras", {}).get("adapt")
        entry = cell(
            task.cell_id,
            labels={
                "app": task.app,
                "variant": task.variant,
                "line_size": task.line_size,
                **(
                    {"mechanism": task.mechanism}
                    if task.mechanism != "none"
                    else {}
                ),
                **(
                    {"policy": task.adapt.policy}
                    if task.adapt is not None
                    else {}
                ),
            },
            checksum=result.checksum,
            values={
                "cycles": stats.cycles,
                # Adaptive cells are auditable over HTTP too: the
                # engine's counters reconcile with its decisions list
                # and adapt.decision events by construction.
                **(
                    {
                        "adapt_decisions": adapt["counters"]["decisions"],
                        "adapt_windows": adapt["counters"]["windows"],
                        "adapt_cost_cycles": adapt["counters"]["cost_cycles"],
                        "adapt_benefit_cycles": (
                            adapt["counters"]["benefit_cycles"]
                        ),
                    }
                    if adapt is not None
                    else {}
                ),
            },
        )
        timeline = None
        if result.timeline is not None:
            timeline = {
                "cells": {
                    task.cell_id: {
                        "sample_interval": result.timeline["sample_interval"],
                        "window_count": result.timeline["window_count"],
                        "windows": result.timeline["windows"],
                        "heatmap": result.timeline["heatmap"],
                    }
                }
            }
        return build_manifest(
            f"serve/{task.cell_id}",
            run=self._run_section(task),
            seeds={task.app: task.seed},
            metrics=stats.to_snapshot(),
            spans=spans,
            cells=[entry],
            summary={
                "how": how,
                "wall_seconds": round(wall, 6),
                **(
                    {"trace_id": tracer.trace_id} if tracer is not None else {}
                ),
                **({"engine": engine} if engine is not None else {}),
            },
            timeline=timeline,
        )

    def _failure_manifest(
        self,
        task: SweepTask,
        error: str,
        *,
        tracer: Tracer | None = None,
    ) -> dict[str, Any]:
        spans, _ = self._finish_trace(tracer)
        return build_manifest(
            f"serve/{task.cell_id}",
            run=self._run_section(task),
            seeds={task.app: task.seed},
            metrics={},
            spans=spans,
            cells=[],
            summary={
                "error": error,
                **(
                    {"trace_id": tracer.trace_id} if tracer is not None else {}
                ),
            },
        )

    # -- observability --------------------------------------------------
    def metrics_payload(self) -> dict[str, Any]:
        """The ``GET /metrics`` body: live snapshot plus derived views."""
        snapshot = self.obs.snapshot()
        latency: dict[str, Any] = {}
        for how in _HOWS:
            quantiles = histogram_quantiles(
                snapshot[f"serve.latency.{how}_ms"], (0.5, 0.99)
            )
            if quantiles:
                latency[how] = {
                    f"{key}_ms": value for key, value in quantiles.items()
                }
        states: dict[str, int] = {}
        for job in self.table.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "metrics": snapshot.tree(),
            "latency": latency,
            "jobs_by_state": states,
        }

    def prometheus_payload(self) -> str:
        """The ``GET /metrics?format=prometheus`` body (text exposition)."""
        return render_prometheus(self.obs.snapshot())

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "workers": self.pool.workers,
            "mode": self.pool.mode,
            "queue_depth": self.scheduler.depth,
            "inflight": self.scheduler.inflight,
        }
