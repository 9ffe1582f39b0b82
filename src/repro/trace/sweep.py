"""Sharded sweep execution: capture once, replay everywhere, in parallel.

A sweep is a set of :class:`SweepTask` cells -- ``(app, variant, line
size, scale, seed)``.  By default cells execute in **batch mode**
(:mod:`repro.trace.batch`): tasks are grouped by trace key (one key per
workload identity; line-size-insensitive apps share one key across all
their line sizes), each group's stream is captured or loaded and decoded
exactly once, and every config in the group replays the shared resolved
stream -- through the exec-specialized kernel when the config fits the
specializer's matrix, the general path otherwise.  The capturing cell's
direct result answers that cell for free, exactly as before.

With ``jobs > 1`` the process pool shards by *group*, not by cell: the
decoded stream is the expensive thing worth keeping local to one
worker, so a worker owns a trace key end to end (capture if needed,
then all of its replays).  Workers coordinate purely through the
(atomic-write) artifact store, so there is no shared mutable state.
With ``jobs <= 1`` everything runs in-process, which is also the path
:class:`~repro.experiments.runner.ExperimentRunner` uses for its lazy
per-call API.  ``batch=False`` preserves the legacy per-cell two-phase
pipeline (capture all missing traces in parallel, then replay cells in
parallel).
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable

from repro.adapt.config import DEFAULT_HEATMAP_REGION, AdaptConfig
from repro.apps import APPLICATIONS, get_application
from repro.apps.base import AppResult, Variant
from repro.core.debug import get_logger
from repro.obs.logging import log_event
from repro.obs.registry import EMPTY, Snapshot
from repro.trace.batch import (
    SEQUENTIAL,
    BatchCellError,
    group_by_trace,
    replay_engine,
    run_batch_group,
)
from repro.trace.format import Trace
from repro.trace.recorder import capture_trace
from repro.trace.store import ArtifactStore, config_fingerprint, trace_key

_log = get_logger("trace.sweep")


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
    """One cell of a sweep matrix (picklable, hashable)."""

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
    *,
    tracer=None,
    on_window=None,
) -> tuple[AppResult, str]:
    """Obtain one cell's result; returns ``(result, how)``.

    ``how`` is ``"captured"``, ``"replayed"``, or ``"cached"`` --
    diagnostics for progress logging and the tests.  ``traces`` is an
    optional in-process trace cache (keyed like the store) consulted
    before, and populated after, any store access.

    ``tracer`` (:class:`repro.obs.tracing.Tracer`), when given, records
    spans for the cell's phases -- trace load, capture, store writes,
    replay with per-chunk children -- into the caller's causal tree.
    ``on_window`` streams timeline windows live (capture and replay
    alike).  Both default to ``None`` and leave the sweep hot path
    bit-for-bit unchanged.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    config = task.config()
    key = task.key()
    trace = traces.get(key) if traces is not None else None
    if trace is None and store is not None:
        with span("trace.load"):
            trace = store.load_trace(key)
    if trace is None:
        with span("trace.capture"):
            trace, result = capture_trace(
                task.app,
                Variant(task.variant),
                config,
                task.scale,
                task.seed,
                on_window=on_window,
            )
        if traces is not None:
            traces[key] = trace
        if store is not None:
            with span("store.trace_write"):
                store.save_trace(key, trace)
                store.save_result(
                    trace.content_hash, config_fingerprint(config), result
                )
        return result, "captured"
    if traces is not None and key not in traces:
        traces[key] = trace
    fingerprint = config_fingerprint(config)
    if store is not None:
        with span("store.result_probe"):
            cached = store.load_result(trace.content_hash, fingerprint)
        if cached is not None:
            return cached, "cached"
    if config.events_capacity > 0:
        # Discrete events only occur during direct execution: replay
        # reproduces the windowed *rates* exactly, but not the event
        # stream (relocations, pool traffic, chain walks happen in the
        # application/optimizer code replay skips).  Events cells
        # therefore always run direct, even when a trace is warm --
        # their results still persist under their own config
        # fingerprint, so the re-run happens once.  The trace is warm,
        # so the run records nothing.
        with span("trace.capture"):
            result = get_application(task.app, task.scale, task.seed).run(
                Variant(task.variant), config, on_window=on_window
            )
        how = "captured"
    else:
        # Same engine a batch group would pick (the specialized kernel
        # unless the config is outside its matrix); callers still label
        # the cell SEQUENTIAL.
        with span("replay.run"):
            result, _engine = replay_engine(
                trace, config, tracer=tracer, on_window=on_window
            )
        how = "replayed"
    if store is not None:
        with span("store.result_write"):
            store.save_result(trace.content_hash, fingerprint, result)
    return result, how


def _worker(task: SweepTask, store_root: str) -> tuple[SweepTask, AppResult, str]:
    """Process-pool entry point (module level, hence picklable)."""
    result, how = run_task(task, ArtifactStore(store_root))
    return task, result, how


def _batch_worker(
    group: list[SweepTask], store_root: str
) -> list[tuple[SweepTask, AppResult, str, str]]:
    """Process-pool entry point for one trace-sharing group.

    Returns plain tuples (picklable); a failing cell raises
    :class:`~repro.trace.batch.BatchCellError`, whose args are plain
    data, so the cell identity survives the pool's result pipe.
    """
    outcomes = run_batch_group(group, ArtifactStore(store_root))
    return [(o.task, o.result, o.how, o.engine) for o in outcomes]


def batch_label(key: str, group: list[SweepTask]) -> str:
    """Short human-readable tag for one batch group's progress lines."""
    return f"{key.split('-')[0]}[{len(group)}]"


def execute_sweep(
    tasks: list[SweepTask],
    store: ArtifactStore,
    jobs: int = 1,
    verbose: bool = False,
    batch: bool = True,
    engines: dict | None = None,
) -> dict[SweepTask, tuple[AppResult, str]]:
    """Run every task; returns ``{task: (result, how)}``.

    The store is required (workers coordinate through it); callers that
    want a throwaway sweep point it at a temporary directory.

    With ``batch=True`` (the default) cells are grouped by trace key and
    each group runs through :func:`repro.trace.batch.run_batch_group` --
    one decode, N configs -- and the process pool shards by *group*
    (the decoded stream is the thing worth keeping local to a worker),
    not by cell.  ``batch=False`` preserves the legacy per-cell path.
    ``engines``, when given, is filled with ``{task: engine_label}``
    (see :mod:`repro.trace.batch`) for manifest annotation.
    """
    results: dict[SweepTask, tuple[AppResult, str]] = {}
    if batch:
        return _execute_batched(tasks, store, jobs, verbose, engines)
    if engines is not None:
        engines.update((task, SEQUENTIAL) for task in tasks)
    if jobs <= 1 or len(tasks) <= 1:
        traces: dict[str, Trace] = {}
        for task in tasks:
            try:
                results[task] = run_task(task, store, traces)
            except Exception as exc:
                raise SweepError(task, exc) from exc
            if verbose:
                log_progress(task, *results[task])
        return results

    # Phase 1: capture each missing trace exactly once, in parallel.
    representatives: dict[str, SweepTask] = {}
    for task in tasks:
        representatives.setdefault(task.key(), task)
    to_capture = [
        task for key, task in representatives.items() if not store.has_trace(key)
    ]
    remaining = set(tasks)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        if to_capture:
            futures = {
                pool.submit(_worker, task, str(store.root)): task
                for task in to_capture
            }
            _collect(futures, results, remaining, verbose)
        # Phase 2: replay (or fetch) every remaining cell in parallel.
        futures = {
            pool.submit(_worker, task, str(store.root)): task
            for task in remaining
        }
        _collect(futures, results, None, verbose)
    return results


def _execute_batched(
    tasks: list[SweepTask],
    store: ArtifactStore,
    jobs: int,
    verbose: bool,
    engines: dict | None,
) -> dict[SweepTask, tuple[AppResult, str]]:
    """Grouped execution: one decoded stream per group, sharded by group."""
    results: dict[SweepTask, tuple[AppResult, str]] = {}
    groups = group_by_trace(tasks)

    def _absorb(key, group, outcomes):
        label = batch_label(key, group)
        for task, result, how, engine in outcomes:
            results[task] = (result, how)
            if engines is not None:
                engines[task] = engine
            if verbose:
                log_progress(task, result, how, engine=engine, batch=label)

    if jobs <= 1 or len(groups) <= 1:
        traces: dict[str, Trace] = {}
        for key, group in groups.items():
            try:
                outcomes = run_batch_group(group, store, traces)
            except BatchCellError as exc:
                raise SweepError(exc.task, exc) from exc
            except Exception as exc:
                raise SweepError(group[0], exc) from exc
            _absorb(
                key, group, [(o.task, o.result, o.how, o.engine) for o in outcomes]
            )
        return results

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(_batch_worker, group, str(store.root)): key
            for key, group in groups.items()
        }
        try:
            for future in as_completed(futures):
                key = futures[future]
                try:
                    outcomes = future.result()
                except BatchCellError as exc:
                    raise SweepError(exc.task, exc) from exc
                except Exception as exc:
                    raise SweepError(groups[key][0], exc) from exc
                _absorb(key, groups[key], outcomes)
        except SweepError:
            for future in futures:
                future.cancel()
            raise
    return results


def _collect(
    futures: dict,
    results: dict[SweepTask, tuple[AppResult, str]],
    remaining: set[SweepTask] | None,
    verbose: bool,
) -> None:
    """Drain one phase's futures; fail fast and clean on a bad cell.

    A worker exception cancels every not-yet-started future in the phase
    and surfaces as :class:`SweepError` naming the failing cell, so a
    broken cell neither hangs the pool nor masquerades as an anonymous
    pickle traceback.
    """
    try:
        for future in as_completed(futures):
            try:
                task, result, how = future.result()
            except Exception as exc:
                raise SweepError(futures[future], exc) from exc
            results[task] = (result, how)
            if remaining is not None:
                remaining.discard(task)
            if verbose:
                log_progress(task, result, how)
    except SweepError:
        for future in futures:
            future.cancel()
        raise


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
    batch: str | None = None,
) -> None:
    """One progress line per completed cell (shared with the runner).

    Grouped execution still reports cell by cell -- ``batch`` merely
    tags the line with the group the cell ran in, and ``engine`` with
    the replay engine that produced it.
    """
    fields = {
        "how": how,
        "app": task.app,
        "variant": task.variant,
        "line_size": task.line_size,
        "cycles": round(result.stats.cycles),
    }
    if engine and engine != SEQUENTIAL:
        fields["engine"] = engine
    if batch:
        fields["batch"] = batch
    log_event(_log, logging.INFO, "cell complete", **fields)
