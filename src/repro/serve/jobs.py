"""Job objects and the bounded job table of the simulation service.

A :class:`Job` is the unit the service schedules: one validated spec,
one lifecycle (``queued -> running -> done | failed``), and -- because
identical requests coalesce -- possibly many waiting clients.  Jobs are
created on the event loop and mutated only from it; worker processes
never see them (they see picklable :class:`~repro.trace.sweep.SweepTask`
cells).

The :class:`JobTable` retains every live job plus a bounded history of
finished ones, evicting the oldest finished jobs first so a long-lived
service cannot grow without bound while ``GET /jobs/<id>`` keeps working
for recently completed work.

Since PR 9 a job is also a broadcast hub: ``GET /jobs/<id>/stream``
subscribers each get a bounded :class:`asyncio.Queue` the job publishes
its state transitions and live timeline windows into.  A slow consumer
never blocks the publisher -- events that don't fit are dropped and
counted (``stream_dropped``), except the terminal sentinel, which
displaces the oldest queued event so every subscriber always observes
the end of the stream.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.serve.protocol import JobSpec

#: Lifecycle states (terminal: done, failed).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_TERMINAL = (DONE, FAILED)

#: Per-subscriber stream queue bound; beyond it, events drop (counted).
STREAM_QUEUE_LIMIT = 256


@dataclass(slots=True)
class Job:
    """One scheduled simulation and everything observers can ask about it.

    A finished job sits in the table's history until evicted, so it
    keeps only what its manifest JSON does not already hold: completion
    drops the tracer, the root span and the done event.
    """

    id: str
    spec: JobSpec
    state: str = QUEUED
    #: How the result was obtained: ``cached`` / ``captured`` /
    #: ``replayed`` (worker outcomes), plus ``coalesced`` recorded on the
    #: *submission* outcome of duplicate requests.
    how: str | None = None
    error: str | None = None
    #: The run manifest's JSON text, present once terminal.
    manifest_json: str | None = field(default=None, repr=False)
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    #: Number of identical requests served by this job (>= 1).
    subscribers: int = 1
    #: Worker attempts consumed (crash recovery retries increment it).
    attempts: int = 0
    #: Request trace id (set by the service when tracing the job).
    trace_id: str | None = None
    #: The service-side Tracer assembling this job's span tree (None
    #: once terminal: the manifest carries its spans).
    tracer: Any = field(default=None, repr=False)
    #: The open ``serve.request`` root span (None once terminal).
    root_span: Any = field(default=None, repr=False)
    #: Wall-clock submission stamp (``time.time()``; ``submitted_at``
    #: is monotonic and useless for cross-process span layout).
    submitted_wall: float = field(default_factory=time.time)
    #: Stream accounting: events published / events dropped on full
    #: subscriber queues.
    stream_events: int = 0
    stream_dropped: int = 0
    #: Set, then dropped, at completion; waiters hold their own reference.
    _done: asyncio.Event | None = field(default_factory=asyncio.Event, repr=False)
    _watchers: list = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    @property
    def latency_seconds(self) -> float | None:
        """Submission-to-completion wall time (None while in flight)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    async def wait(self, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True iff it finished in time."""
        if self.finished:
            return True
        try:
            await asyncio.wait_for(self._done.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False

    def start(self) -> None:
        """Transition to ``running`` (called by the scheduler's pop)."""
        self.state = RUNNING
        self.started_at = time.monotonic()
        self.publish({"event": "state", "state": RUNNING})

    @property
    def manifest(self) -> dict[str, Any] | None:
        """The schema-validated /v3 run manifest, decoded on each access:
        the finished-job history keeps only JSON text, a seventh the size."""
        return None if self.manifest_json is None else json.loads(self.manifest_json)

    def complete(self, how: str, manifest: dict[str, Any]) -> None:
        self.state = DONE
        self.how = how
        self.manifest_json = json.dumps(manifest)
        self._finish({"event": "state", "state": DONE, "how": how})

    def fail(self, error: str, manifest: dict[str, Any] | None = None) -> None:
        self.state = FAILED
        self.error = error
        self.manifest_json = None if manifest is None else json.dumps(manifest)
        self._finish({"event": "state", "state": FAILED, "error": error})

    def _finish(self, event: dict[str, Any]) -> None:
        """Publish the terminal state, wake every waiter, and let go of
        what the manifest JSON already holds."""
        self.finished_at = time.monotonic()
        self.publish(event)
        self._close_stream()
        self._done.set()
        self.tracer = self.root_span = self._done = None

    # -- live streaming ------------------------------------------------
    def subscribe(self, maxsize: int = STREAM_QUEUE_LIMIT) -> asyncio.Queue:
        """A bounded queue this job's events will be published into."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._watchers.append(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        try:
            self._watchers.remove(queue)
        except ValueError:
            pass

    def publish(self, event: dict[str, Any]) -> None:
        """Broadcast ``event`` to every subscriber; drop, never block.

        Called from the event loop only (state transitions and the
        telemetry forwarder both live there).
        """
        if not self._watchers:
            return
        self.stream_events += 1
        for queue in self._watchers:
            try:
                queue.put_nowait(event)
            except asyncio.QueueFull:
                self.stream_dropped += 1

    def _close_stream(self) -> None:
        """Deliver the terminal sentinel to every subscriber, always.

        Unlike ordinary events the sentinel may displace the oldest
        queued event on a full queue -- a slow consumer loses data (and
        the drop is counted) but always learns the stream ended.
        """
        for queue in self._watchers:
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                try:
                    queue.get_nowait()
                    self.stream_dropped += 1
                except asyncio.QueueEmpty:  # pragma: no cover - races only
                    pass
                try:
                    queue.put_nowait(None)
                except asyncio.QueueFull:  # pragma: no cover - races only
                    pass

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """The ``GET /jobs/<id>`` body (sans manifest for listings)."""
        out: dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "cell": self.spec.cell_id,
            "subscribers": self.subscribers,
            "attempts": self.attempts,
        }
        if self.how is not None:
            out["how"] = self.how
        if self.error is not None:
            out["error"] = self.error
        if self.latency_seconds is not None:
            out["latency_seconds"] = round(self.latency_seconds, 6)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
        if self.stream_events or self.stream_dropped:
            out["stream"] = {
                "events": self.stream_events,
                "dropped": self.stream_dropped,
            }
        return out


class JobTable:
    """Insertion-ordered job registry with bounded finished-job history."""

    def __init__(self, history_limit: int = 512) -> None:
        if history_limit < 1:
            raise ValueError("history_limit must be >= 1")
        self.history_limit = history_limit
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._ids = itertools.count(1)
        #: Stream accounting carried over from evicted jobs, so the
        #: service's cumulative counters survive history eviction.
        self.evicted_stream_events = 0
        self.evicted_stream_dropped = 0

    # -- stream accounting ---------------------------------------------
    @property
    def stream_events_total(self) -> int:
        return self.evicted_stream_events + sum(
            job.stream_events for job in self._jobs.values()
        )

    @property
    def stream_dropped_total(self) -> int:
        return self.evicted_stream_dropped + sum(
            job.stream_dropped for job in self._jobs.values()
        )

    def create(self, spec: JobSpec) -> Job:
        job = Job(id=f"job-{next(self._ids)}", spec=spec)
        self._jobs[job.id] = job
        self._evict()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def __len__(self) -> int:
        return len(self._jobs)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def _evict(self) -> None:
        # Live jobs are never evicted: the cap applies to terminal ones,
        # scanned oldest-first.
        excess = len(self._jobs) - self.history_limit
        if excess <= 0:
            return
        for job_id in [
            job_id
            for job_id, job in self._jobs.items()
            if job.finished
        ][:excess]:
            evicted = self._jobs.pop(job_id)
            self.evicted_stream_events += evicted.stream_events
            self.evicted_stream_dropped += evicted.stream_dropped
