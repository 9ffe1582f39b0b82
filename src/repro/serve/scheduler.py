"""Coalescing, cache-aware job scheduling for the simulation service.

Three policies live here, all keyed off the content-hash identities the
trace subsystem already defines:

**Coalescing.**  Jobs are indexed by their cell's
:func:`~repro.serve.protocol.job_key` while queued or running; a second
identical submission attaches to the in-flight job (one more subscriber)
instead of consuming a queue slot or a worker.  N identical concurrent
requests for an uncached cell trigger exactly one simulation.

**Backpressure.**  The queue is bounded.  A submission that would exceed
the bound raises :class:`QueueFull`, which the HTTP layer turns into
``429 Retry-After`` -- the service sheds load explicitly rather than
letting latency grow without limit.

**Cache-aware ordering.**  The pop order is not FIFO.  Jobs whose
reference stream is already captured (their trace key is in the store)
are *warm* -- replay-only, cheap -- and run before cold captures, so a
burst of mixed traffic drains the fast majority first.  Cold jobs are
additionally gated per trace key: while one worker captures a stream,
other queued cells needing the same stream are held back; when the
capture lands they have become warm replays.  Concurrent workers
therefore never duplicate a capture, which is the expensive half of
capture-once-replay-many.

Everything here runs on the event loop; worker processes never touch the
scheduler.
"""

from __future__ import annotations

import asyncio

from repro.serve.jobs import Job
from repro.serve.protocol import job_key
from repro.trace.store import ArtifactStore


class QueueFull(Exception):
    """The bounded job queue is at capacity (maps to HTTP 429)."""

    def __init__(self, depth: int, retry_after: float) -> None:
        super().__init__(f"job queue full ({depth} queued)")
        self.depth = depth
        self.retry_after = retry_after


class Scheduler:
    """Bounded, coalescing job queue with cache-aware pop order."""

    def __init__(
        self,
        store: ArtifactStore,
        queue_limit: int = 64,
        retry_after: float = 1.0,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.store = store
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        #: Queued jobs in submission order, with their trace keys.
        self._queue: list[tuple[Job, str]] = []
        #: job_key -> queued-or-running job (the coalescing index).
        self._inflight: dict[str, Job] = {}
        #: Trace keys known to be captured (probed once, then remembered).
        self._warm: set[str] = set()
        #: Trace keys currently being captured by a running job.
        self._capturing: set[str] = set()
        self._wakeup = asyncio.Event()

    # -- introspection (bound into the metrics registry) ----------------
    @property
    def depth(self) -> int:
        """Number of queued (not yet running) jobs."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Queued + running jobs (coalesced duplicates count once)."""
        return len(self._inflight)

    # ------------------------------------------------------------------
    def coalesce(self, key: str) -> Job | None:
        """Attach to an identical queued-or-running job, if one exists."""
        existing = self._inflight.get(key)
        if existing is not None:
            existing.subscribers += 1
        return existing

    def submit(self, job_factory, key: str) -> tuple[Job, str]:
        """Admit one request; returns ``(job, outcome)``.

        ``outcome`` is ``"queued"`` for a new job or ``"coalesced"``
        when the request attached to an identical in-flight job.
        ``job_factory`` is only invoked on admission, so rejected
        requests allocate nothing.
        """
        existing = self.coalesce(key)
        if existing is not None:
            return existing, "coalesced"
        if len(self._queue) >= self.queue_limit:
            raise QueueFull(len(self._queue), self.retry_after)
        job = job_factory()
        self._inflight[key] = job
        self._queue.append((job, job.task.key()))
        self._wakeup.set()
        return job, "queued"

    async def pop(self) -> Job:
        """Next runnable job, preferring warm (replay-only) cells.

        Blocks while the queue is empty or every queued job is gated
        behind an in-flight capture of its own stream.
        """
        while True:
            picked = self._pick()
            if picked is not None:
                return picked
            # No await between _pick() and clear(): any submission or
            # completion that could make a job runnable happens on this
            # same loop and will set the event after we start waiting.
            self._wakeup.clear()
            await self._wakeup.wait()

    async def pop_batch(self) -> list[Job]:
        """Next runnable job plus every queued job sharing its stream.

        The fold is what makes one worker round-trip serve a whole
        trace-key group: the extra jobs would otherwise either wait out
        the leader's capture (cold) or each re-load and re-decode the
        same stream (warm).  Every returned job is already RUNNING; the
        caller owns their completion.  Cold leaders keep the per-key
        capture gate: jobs folded into the batch are exactly the ones
        the gate used to hold back.
        """
        leader = await self.pop()
        batch = [leader]
        key = leader.task.key()
        index = 0
        while index < len(self._queue):
            if self._queue[index][1] == key:
                batch.append(self._start(index))
            else:
                index += 1
        return batch

    def _pick(self) -> Job | None:
        cold_index = None
        for index, (job, trace_key) in enumerate(self._queue):
            if self._is_warm(trace_key):
                return self._start(index)
            if cold_index is None and trace_key not in self._capturing:
                cold_index = index
        if cold_index is not None:
            _, trace_key = self._queue[cold_index]
            self._capturing.add(trace_key)
            return self._start(cold_index)
        return None

    def _start(self, index: int) -> Job:
        job, _ = self._queue.pop(index)
        # Job.start() owns the transition so stream subscribers see the
        # queued -> running edge the moment the scheduler hands it out.
        job.start()
        return job

    def _is_warm(self, trace_key: str) -> bool:
        if trace_key in self._warm:
            return True
        if self.store.has_trace(trace_key):
            self._warm.add(trace_key)
            return True
        return False

    # ------------------------------------------------------------------
    def finished(self, job: Job, *, captured: bool) -> None:
        """Release a completed (or failed) job's scheduling state.

        ``captured=True`` marks the job's stream warm, releasing any
        cells queued behind its capture into the warm fast path; a
        failed capture merely lifts the gate so another job may retry
        the stream.
        """
        trace_key = job.task.key()
        self._inflight.pop(job_key(job.task), None)
        self._capturing.discard(trace_key)
        if captured:
            self._warm.add(trace_key)
        self._wakeup.set()
