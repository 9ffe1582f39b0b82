"""Sharded sweep execution: capture once, replay everywhere, in parallel.

A sweep is a set of :class:`SweepTask` cells -- ``(app, variant, line
size, scale, seed)``.  Cells run through the one cell executor,
:func:`repro.trace.batch.run_batch_group`: tasks are grouped by trace
key (one key per workload identity; line-size-insensitive apps share
one key across all their line sizes), each group's stream is captured
or loaded and decoded exactly once, and every config in the group
replays the shared resolved stream -- through the exec-specialized
kernel when the config fits the specializer's matrix, the general path
otherwise.  The capturing cell's direct result answers that cell for
free.  A single cell is a group of one (:func:`run_task`).

With ``jobs > 1`` the process pool shards by *group*, not by cell: the
decoded stream is the expensive thing worth keeping local to one
worker, so a worker owns a trace key end to end (capture if needed,
then all of its replays).  Workers share at most the (atomic-write)
artifact store and its capture locks, and with no store they share
nothing, so there is no shared mutable state.  With ``jobs <= 1``
everything runs in-process, which is also the path
:class:`~repro.experiments.runner.ExperimentRunner` uses for its lazy
per-call API.  Either way each group runs through
:func:`repro.trace.batch.execute_group`, the entry point serve's worker
pool calls too, and hands back the same rows: each cell's result and
spans, and the group's trace content hash.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Iterable

from repro.adapt.config import DEFAULT_HEATMAP_REGION, AdaptConfig
from repro.apps import APPLICATIONS
from repro.apps.base import AppResult, Variant
from repro.obs.logging import log_event
from repro.obs.registry import EMPTY, Snapshot
from repro.obs.tracing import Tracer
from repro.trace.batch import (
    BatchCellError,
    execute_group,
    group_by_trace,
    run_batch_group,
)
from repro.trace.format import Trace
from repro.trace.store import ArtifactStore, config_fingerprint, trace_key

_log = logging.getLogger(__name__)


class SweepError(RuntimeError):
    """A sweep cell failed; carries the task so callers can report it.

    Raised by :func:`execute_sweep` when a worker raises mid-cell: the
    remaining queued cells are cancelled, the pool shuts down, and the
    original exception is chained -- the failure surfaces promptly
    instead of hanging the pool or burying the cell identity.
    """

    def __init__(self, task: SweepTask, cause: BaseException) -> None:
        super().__init__(
            f"sweep cell {task.app}/{task.line_size}B/{task.variant} "
            f"(scale={task.scale}, seed={task.seed}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.task = task


@dataclass(frozen=True)
class SweepTask:
    """One simulation cell (picklable, hashable).

    The only description of a cell: the CLI runner, every experiment,
    the sweep executor and the serve tier all pass these around, and
    the trace key, config fingerprint and cell id all derive from it.
    """

    app: str
    variant: str
    line_size: int
    scale: float = 1.0
    seed: int = 1
    #: Timeline sampling interval for this cell (0 = off).  Part of the
    #: machine config, not the workload identity: the trace key ignores
    #: it (one stream serves sampled and unsampled cells alike) while
    #: the config fingerprint separates their cached results.
    timeline_interval: int = 0
    events_capacity: int = 0
    #: L1 miss-path mechanism and sizing knobs (see
    #: :mod:`repro.cache.misspath`).  Like the timeline knobs these are
    #: machine config, not workload identity: the trace key ignores them
    #: (one captured stream replays under every mechanism) while the
    #: config fingerprint keeps their cached results apart.  With
    #: ``mechanism="none"`` the sizing knobs are ignored entirely, so a
    #: baseline cell's config -- and thus its fingerprint -- is identical
    #: no matter which knob values rode along.
    mechanism: str = "none"
    vc_entries: int = 8
    mc_entries: int = 8
    sb_count: int = 4
    sb_depth: int = 4
    #: Adaptive relocation policy (:class:`repro.adapt.AdaptConfig`) or
    #: ``None``.  Unlike every knob above, adapt is *workload identity*:
    #: the engine issues its own references, so the trace key folds in
    #: the full config fingerprint (see :func:`repro.trace.store.trace_key`)
    #: and each adaptive config captures/replays its own private stream.
    adapt: "AdaptConfig | None" = None
    #: Heatmap region granularity (bytes); machine config, not workload
    #: identity for plain cells (the sampler never issues references).
    heatmap_region: int = DEFAULT_HEATMAP_REGION

    @property
    def cell_id(self) -> str:
        """Human-readable cell identity (keys manifest cells and timelines)."""
        base = f"{self.app}/{self.line_size}B/{self.variant}"
        if self.mechanism != "none":
            base = f"{base}/{self.mechanism}"
        if self.adapt is not None:
            base = f"{base}/{self.adapt.policy}"
        return base

    def key(self) -> str:
        """Trace key this cell's stream lives under."""
        sensitive = APPLICATIONS[self.app].stream_depends_on_line_size(
            Variant(self.variant)
        )
        if self.adapt is not None:
            # Engine references depend on the whole config; pin the
            # stream to it (line size included -- it shifts window
            # contents and hence decision points).
            return trace_key(
                self.app,
                self.variant,
                self.scale,
                self.seed,
                self.line_size,
                adapt=config_fingerprint(self.config()),
            )
        return trace_key(
            self.app,
            self.variant,
            self.scale,
            self.seed,
            self.line_size if sensitive else None,
        )

    def config(self):
        from dataclasses import replace

        from repro.experiments.config import experiment_config

        config = experiment_config(self.line_size)
        if self.timeline_interval or self.events_capacity:
            config = replace(
                config,
                timeline_interval=self.timeline_interval,
                events_capacity=self.events_capacity,
            )
        if self.mechanism != "none":
            config = replace(
                config,
                hierarchy=replace(
                    config.hierarchy,
                    mechanism=self.mechanism,
                    vc_entries=self.vc_entries,
                    mc_entries=self.mc_entries,
                    sb_count=self.sb_count,
                    sb_depth=self.sb_depth,
                ),
            )
        if self.heatmap_region != DEFAULT_HEATMAP_REGION:
            config = replace(config, heatmap_region_bytes=self.heatmap_region)
        if self.adapt is not None:
            config = replace(config, adapt=self.adapt)
        return config


def run_task(
    task: SweepTask,
    store: ArtifactStore | None = None,
    traces: dict[str, Trace] | None = None,
) -> tuple[AppResult, str]:
    """Obtain one cell's result; returns ``(result, how)``.

    A single cell is a batch group of one: this is
    :func:`~repro.trace.batch.run_batch_group` over ``[task]``.  ``how``
    is ``"captured"``, ``"replayed"``, or ``"cached"`` -- diagnostics for
    progress logging and the tests.  ``traces`` is an optional
    in-process trace cache (keyed like the store) consulted before, and
    populated after, any store access.  A failure raises
    :class:`~repro.trace.batch.BatchCellError` naming the cell.
    """
    (outcome,) = run_batch_group([task], store, traces)
    return outcome.result, outcome.how


def batch_label(key: str, group: list[SweepTask]) -> str:
    """Short human-readable tag for one batch group's progress lines."""
    return f"{key.split('-')[0]}[{len(group)}]"


def execute_sweep(
    tasks: list[SweepTask],
    store: ArtifactStore | None,
    jobs: int = 1,
    verbose: bool = False,
    *,
    batch: bool = True,
    engines: dict | None = None,
    traces: dict[str, Trace] | None = None,
    tracer: Tracer | None = None,
    hashes: dict[str, str] | None = None,
) -> dict[SweepTask, tuple[AppResult, str]]:
    """Run every task; returns ``{task: (result, how)}`` in task order.

    Cells are grouped by trace key and each group runs through
    :func:`repro.trace.batch.execute_group` -- one decode, N configs.
    With ``jobs <= 1`` (or a single group) the groups run in-process
    against ``store``, which may be ``None`` (nothing persists), and
    ``traces``, an optional in-process trace cache shared across calls.
    Otherwise the process pool shards by *group* (the decoded stream is
    the thing worth keeping local to a worker), not by cell.  ``store``
    may be ``None`` there too, since a worker owns each of its groups'
    trace keys end to end; given a store, workers share it, and its
    capture locks keep them from capturing one key twice.  ``engines``,
    when given, is filled with ``{task: engine_label}`` (see
    :mod:`repro.trace.batch`; cached cells have none) for manifest
    annotation, and ``hashes`` with ``{trace key: content hash}`` for
    every group.  With a ``tracer``, every cell records a
    ``worker.execute`` span tree under the tracer's innermost open span,
    wherever its group ran.

    ``batch`` accepts only ``True`` and raises :class:`ValueError` for
    any other value: grouping is the only executor, and the keyword
    remains only for callers that still pass it.
    """
    if batch is not True:
        raise ValueError(
            f"execute_sweep(batch={batch!r}): cells run only as batch "
            "groups; batch must be True"
        )
    results: dict[SweepTask, tuple[AppResult, str]] = {}
    groups = group_by_trace(tasks)
    wire = tracer.current().to_wire() if tracer is not None else None

    def _ctxs(group):
        return None if wire is None else dict.fromkeys(group, wire)

    def _absorb(key, group, done):
        content_hash, rows = done
        if hashes is not None and content_hash is not None:
            hashes[key] = content_hash
        label = batch_label(key, group)
        for task, result, how, engine, _error, spans in rows:
            results[task] = (result, how)
            if engines is not None and engine is not None:
                engines[task] = engine
            if tracer is not None:
                tracer.absorb(spans)
            if verbose:
                log_progress(task, result, how, engine=engine, group=label)

    if jobs <= 1 or len(groups) <= 1:
        if traces is None:
            traces = {}
        for key, group in groups.items():
            try:
                done = execute_group(group, store, traces, _ctxs(group))
            except BatchCellError as exc:
                raise SweepError(exc.task, exc) from exc
            except Exception as exc:
                raise SweepError(group[0], exc) from exc
            _absorb(key, group, done)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(execute_group, group, store, None, _ctxs(group)): key
                for key, group in groups.items()
            }
            try:
                for future in as_completed(futures):
                    key = futures[future]
                    try:
                        done = future.result()
                    except BatchCellError as exc:
                        raise SweepError(exc.task, exc) from exc
                    except Exception as exc:
                        raise SweepError(groups[key][0], exc) from exc
                    _absorb(key, groups[key], done)
            except SweepError:
                for future in futures:
                    future.cancel()
                raise
    # Groups finish in pool completion order; hand results back in task
    # order, so anything summed over them (floats included) is the same
    # whatever the order of completion.
    return {task: results[task] for task in tasks}


def aggregate_metrics(results: Iterable[AppResult]) -> Snapshot:
    """Merge per-cell stats into one metric tree via the registry merge.

    This is the sweep-aggregation primitive: counters sum across shards,
    gauges (heap high water) take the maximum, and no key is ever lost --
    so shard-merged totals equal a single-process run's totals exactly
    (enforced by a regression test).
    """
    merged = EMPTY
    for result in results:
        merged = merged.merge(result.stats.to_snapshot())
    return merged


def log_progress(
    task: SweepTask,
    result: AppResult,
    how: str,
    engine: str | None = None,
    group: str | None = None,
) -> None:
    """One progress line per completed cell.

    Grouped execution still reports cell by cell -- ``group`` merely
    tags the line (as its ``batch`` field) with the group the cell ran
    in, and ``engine`` with the engine that produced it (cached cells
    have none).
    """
    fields = {
        "how": how,
        "app": task.app,
        "variant": task.variant,
        "line_size": task.line_size,
        "cycles": round(result.stats.cycles),
    }
    if engine:
        fields["engine"] = engine
    if group:
        fields["batch"] = group
    log_event(_log, logging.INFO, "cell complete", **fields)
