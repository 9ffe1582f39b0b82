"""Shared experiment runner: capture-once-replay-many over sweep cells.

Experiments describe *what* to run as a matrix of
``(application, variant, line size)``; this module executes the matrix.
Since the machine is trace-driven, each distinct reference stream is
**captured once** (a direct, recorded run) and every other cell sharing
that stream is **replayed** through its own config via
:mod:`repro.trace` -- skipping the application logic entirely while
reproducing direct-run statistics exactly.  Results are memoised
per-process, optionally persisted in an on-disk artifact store (so a
second invocation skips capture *and* replay), and batches can shard
across a process pool (:meth:`ExperimentRunner.prime`).

Progress reporting goes through :mod:`repro.obs.logging` (structured
lines on stderr), never ``print``: parallel workers must not interleave
garbage into the rendered artifacts on stdout.  Each runner records one
trace (:class:`~repro.obs.tracing.Tracer`): a ``prime`` span per sweep,
with every cell's ``worker.execute`` tree under it wherever the cell
ran, and whatever spans the caller opens with :meth:`ExperimentRunner.
span`.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Iterable

from repro.adapt.config import DEFAULT_HEATMAP_REGION
from repro.apps.base import AppResult, Variant
from repro.experiments.config import APP_SEEDS
from repro.obs import Registry, Tracer, configure_logging, trace_context
from repro.trace.store import ArtifactStore
from repro.trace.sweep import SweepTask, execute_sweep


def make_task(
    app: str,
    variant: Variant | str,
    line_size: int,
    scale: float,
    **knobs,
) -> SweepTask:
    """The cell ``(app, variant, line_size, scale)`` at the app's seed.

    The seed is resolved here, from :data:`APP_SEEDS`, and travels as an
    explicit field, so the memo key -- and every cache key downstream of
    it -- stays correct even if per-app seeds are ever varied by the
    caller.  ``knobs`` are any other :class:`SweepTask` fields.
    """
    return SweepTask(
        app,
        Variant(variant).value,
        line_size,
        scale,
        APP_SEEDS.get(app, 1),
        **knobs,
    )


class ExperimentRunner:
    """Executes sweep cells with memoisation, caching, and sharding.

    Parameters
    ----------
    scale:
        Workload scale applied to every run (tests use small values).
    verbose:
        Log one progress line per completed simulation (via the
        ``repro`` logger, on stderr).
    jobs:
        Process-pool width for :meth:`prime`; 1 (the default) runs
        everything in-process.
    trace_dir:
        Root of the on-disk artifact store.  ``None`` keeps traces
        in-memory only (nothing persists, but capture-once-replay-many
        still applies within the process).
    use_cache:
        When False, ignore and do not populate ``trace_dir`` -- every
        invocation starts cold, and nothing persists, pooled or not.

    Every cell runs through the one cell executor
    (:func:`repro.trace.batch.run_batch_group`): cells group by trace
    key, each trace is decoded once for all of its configs, and each
    config replays through the exec-specialized kernel where it allows.
    """

    def __init__(
        self,
        scale: float = 1.0,
        verbose: bool = False,
        jobs: int = 1,
        trace_dir: str | None = None,
        use_cache: bool = True,
        timeline_interval: int = 0,
        events_capacity: int = 0,
        mechanism: str = "none",
        vc_entries: int = 8,
        mc_entries: int = 8,
        sb_count: int = 4,
        sb_depth: int = 4,
        heatmap_region: int = DEFAULT_HEATMAP_REGION,
        adapt_policy: str | None = None,
    ) -> None:
        self.scale = scale
        self.verbose = verbose
        self.jobs = max(1, jobs)
        #: Timeline sampling knobs applied to every run (0 = off).
        self.timeline_interval = timeline_interval
        self.events_capacity = events_capacity
        #: Heatmap region granularity applied to every run.
        self.heatmap_region = heatmap_region
        #: CLI narrowing for the adapt experiment (``None`` = full
        #: policy matrix); recorded in the manifest when set.  Explicit
        #: cells carry their own :class:`AdaptConfig` -- this is not a
        #: per-run override.
        self.adapt_policy = adapt_policy
        #: Miss-path mechanism applied to runs built via :meth:`run`
        #: ("none" = baseline hierarchy).  Explicit cells handed to
        #: :meth:`run_spec`/:meth:`prime` keep their own mechanism --
        #: the misspath experiment mixes baseline and mechanism cells in
        #: one runner.
        self.mechanism = mechanism
        #: The mechanism's sizing knobs, as :class:`SweepTask` fields.
        self.sizes = dict(
            vc_entries=vc_entries,
            mc_entries=mc_entries,
            sb_count=sb_count,
            sb_depth=sb_depth,
        )
        #: Per-cell timeline payloads keyed by ``SweepTask.cell_id``.
        self.timelines: dict[str, dict] = {}
        #: Per-cell adaptive-engine payloads (decisions, ledger,
        #: counters) keyed by ``SweepTask.cell_id``.
        self.adapt_payloads: dict[str, dict] = {}
        if verbose:
            configure_logging(logging.INFO)
        self.store = (
            ArtifactStore(trace_dir) if (trace_dir and use_cache) else None
        )
        self._cache: dict[SweepTask, AppResult] = {}
        self._traces: dict = {}
        #: Content hash of every trace a sweep of this runner used, by
        #: trace key, wherever its group ran.
        self._trace_hashes: dict[str, str] = {}
        #: Engine per simulated cell (``SweepTask.cell_id`` -> label from
        #: :mod:`repro.trace.batch`; cached cells have none); manifests
        #: annotate their cells with it.
        self.engines: dict[str, str] = {}
        #: Instrumentation registry: ``runs.*`` outcome counters and the
        #: merged metric tree of every simulation this runner performed.
        self.obs = Registry()
        #: The run's one trace: sweeps and the regions callers time.
        self.tracer = Tracer()

    # ------------------------------------------------------------------
    def _with_knobs(self, task: SweepTask) -> SweepTask:
        """Apply this runner's timeline/events/heatmap knobs to a cell."""
        if (
            task.timeline_interval == self.timeline_interval
            and task.events_capacity == self.events_capacity
            and task.heatmap_region == self.heatmap_region
        ):
            return task
        return replace(
            task,
            timeline_interval=self.timeline_interval,
            events_capacity=self.events_capacity,
            heatmap_region=self.heatmap_region,
        )

    def _record(
        self, task: SweepTask, result: AppResult, how: str, engine: str | None
    ) -> None:
        """Fold one completed simulation into the runner's registry."""
        self.obs.counter(f"runs.{how}").inc()
        if engine is not None:
            self.obs.counter(f"runs.engine.{engine}").inc()
            self.engines[task.cell_id] = engine
        self.obs.absorb(result.stats.to_snapshot())
        if result.timeline is not None:
            self.timelines[task.cell_id] = result.timeline
        adapt_payload = result.extras.get("adapt")
        if adapt_payload:
            # Adaptive cells surface their engine counters in the
            # manifest's metric tree under ``adapt.*`` (the /v3 schema
            # forbids new top-level sections); the full per-decision
            # audit trail rides the experiment's own cells/summary.
            for name, value in sorted(adapt_payload["counters"].items()):
                self.obs.counter(f"adapt.{name}").inc(value)
            self.adapt_payloads[task.cell_id] = adapt_payload

    def run(self, app: str, variant: Variant, line_size: int) -> AppResult:
        return self.run_spec(
            make_task(
                app,
                variant,
                line_size,
                self.scale,
                mechanism=self.mechanism,
                **self.sizes,
            )
        )

    def run_spec(self, task: SweepTask) -> AppResult:
        """Execute one explicit cell (memoised), keeping all its fields.

        Unlike :meth:`run` this does not substitute the runner's
        mechanism knobs, only its timeline knobs -- it is how the
        misspath experiment runs a mixed mechanism matrix through one
        memo/metric tree.
        """
        task = self._with_knobs(task)
        if task in self._cache:
            # Memo hits are counted but not re-absorbed: the metric tree
            # reflects simulation work, and a memoized cell did none.
            self.obs.counter("runs.memoized").inc()
        else:
            self.prime([task])
        return self._cache[task]

    def prime(self, tasks: Iterable[SweepTask]) -> None:
        """Fill the memo for ``tasks``, sharding across ``jobs`` workers.

        Figures then assemble their matrices through :meth:`run` at
        memo-hit speed.  Cells group by trace key so each stream is
        decoded once for all of its configs -- in-process (against the
        runner's store and trace cache) when ``jobs == 1``, sharded by
        group otherwise.  Results are recorded in task order, whatever
        order the pool finishes them in, so the merged metric tree does
        not depend on ``jobs``.
        """
        todo = [
            task
            for task in dict.fromkeys(self._with_knobs(task) for task in tasks)
            if task not in self._cache
        ]
        if not todo:
            return
        engines: dict = {}
        with trace_context(self.tracer.trace_id), self.tracer.span("prime"):
            outcomes = execute_sweep(
                todo,
                self.store,
                jobs=self.jobs,
                verbose=self.verbose,
                engines=engines,
                traces=self._traces,
                tracer=self.tracer,
                hashes=self._trace_hashes,
            )
            for task in todo:
                result, how = outcomes[task]
                self._cache[task] = result
                self._record(task, result, how, engines.get(task))

    # ------------------------------------------------------------------
    def span(self, name: str):
        """Time a region (e.g. one artifact build) into the run's trace.

        The registry's counter deltas across the region are attributed
        to the span.
        """
        return self.tracer.span(name, self.obs)

    def trace_hashes(self) -> dict[str, str]:
        """Content hash of every trace this runner's sweeps used, by key.

        Covers in-process and pool-worker groups alike: each group hands
        its trace's content hash back with its results.
        """
        return dict(sorted(self._trace_hashes.items()))

    def seeds(self) -> dict[str, int]:
        """Workload seed for every app this runner has simulated."""
        return {
            task.app: task.seed
            for task in sorted(self._cache, key=lambda task: task.app)
        }

    def manifest(
        self,
        artifact: str,
        cells: Iterable[dict] = (),
        summary: dict | None = None,
    ) -> dict:
        """Schema-validated run manifest for ``artifact`` (see repro.obs).

        Carries this runner's full configuration, seeds, trace content
        hashes, span tree, and merged metric tree; the caller supplies
        the artifact-specific cells and summary.
        """
        from repro.obs import build_manifest

        timeline_section = None
        events_section = None
        if self.timelines:
            timeline_cells: dict[str, dict] = {}
            event_cells: dict[str, dict] = {}
            for cell_id, payload in sorted(self.timelines.items()):
                timeline_cells[cell_id] = {
                    "sample_interval": payload["sample_interval"],
                    "window_count": payload["window_count"],
                    "windows": payload["windows"],
                    "heatmap": payload["heatmap"],
                }
                if payload.get("events"):
                    event_cells[cell_id] = payload["events"]
            timeline_section = {"cells": timeline_cells}
            if event_cells:
                events_section = {"cells": event_cells}
        run_section = {
            "scale": self.scale,
            "jobs": self.jobs,
            "cache": self.store is not None,
            "trace_dir": str(self.store.root) if self.store else None,
            "timeline_interval": self.timeline_interval,
            "events_capacity": self.events_capacity,
        }
        if self.mechanism != "none":
            # Only mechanism-carrying runs grow the section, so baseline
            # manifests stay byte-identical to pre-misspath ones.
            run_section.update(mechanism=self.mechanism, **self.sizes)
        if self.heatmap_region != DEFAULT_HEATMAP_REGION:
            # Same gate style: default-region runs stay byte-identical.
            run_section["heatmap_region_bytes"] = self.heatmap_region
        if self.adapt_policy is not None:
            run_section["adapt_policy"] = self.adapt_policy
        return build_manifest(
            artifact,
            run=run_section,
            seeds=self.seeds(),
            metrics=self.obs.snapshot(),
            spans=self.tracer.to_list(),
            cells=self._annotate_engines(cells),
            trace_hashes=self.trace_hashes(),
            summary=summary,
            timeline=timeline_section,
            events=events_section,
        )

    def _annotate_engines(self, cells: Iterable[dict]) -> list[dict]:
        """Label each manifest cell with the engine that produced it.

        Cells are matched by id against the runner's engine records
        (populated per simulated cell); unmatched cells -- derived rows,
        synthetic ids -- pass through untouched.  Caller dicts are
        copied, never mutated.
        """
        annotated = []
        for entry in cells:
            engine = self.engines.get(entry.get("id"))
            if engine is not None:
                entry = dict(entry)
                entry["labels"] = {**entry.get("labels", {}), "engine": engine}
            annotated.append(entry)
        return annotated

    # ------------------------------------------------------------------
    def checksum_match(self, app: str, variants: list[Variant], line_size: int) -> bool:
        """True if every variant produced the same checksum (safety check)."""
        checksums = {
            self.run(app, variant, line_size).checksum for variant in variants
        }
        return len(checksums) == 1


def specs_for_artifacts(
    artifacts: Iterable[str],
    scale: float,
    mechanism: str = "none",
    adapt_policy: str | None = None,
    **sizes: int,
) -> list[SweepTask]:
    """The union run matrix behind the named paper artifacts.

    Used by the CLI to prime the runner (in parallel, when ``--jobs`` is
    given) before the figure drivers assemble their tables from the memo.
    ``mechanism`` and the sizing knobs (``vc_entries``, ``mc_entries``,
    ``sb_count``, ``sb_depth``; :class:`SweepTask`'s defaults when not
    given) apply to every paper-artifact cell (the CLI's ``--mechanism``
    semantics); the ``misspath`` artifact instead expands its own
    mechanism matrix -- the full zoo, or ``("none", mechanism)`` when one
    was requested.
    """
    from repro.apps import FIGURE5_APPS
    from repro.adapt import experiment as adapt_experiment
    from repro.experiments import figure7, figure10, misspath, table1
    from repro.experiments.config import FIGURE7_LINE_SIZE, line_sizes_for

    knobs = dict(mechanism=mechanism, **sizes)
    tasks: list[SweepTask] = []
    for artifact in artifacts:
        if artifact == "misspath":
            tasks += misspath.specs(
                scale, mechanisms=misspath.mechanism_matrix(mechanism), **sizes
            )
        elif artifact == "adapt":
            tasks += adapt_experiment.specs(
                scale,
                policies=adapt_experiment.policy_matrix(adapt_policy),
            )
        elif artifact == "table1":
            tasks += [
                make_task(app, Variant.L, table1.LINE_SIZE, scale, **knobs)
                for app in table1.TABLE1_APPS
            ]
        elif artifact in ("figure5", "figure6"):
            tasks += [
                make_task(app, variant, line_size, scale, **knobs)
                for app in FIGURE5_APPS
                for line_size in line_sizes_for(app)
                for variant in (Variant.N, Variant.L)
            ]
        elif artifact == "figure7":
            tasks += [
                make_task(app, variant, FIGURE7_LINE_SIZE, scale, **knobs)
                for app in FIGURE5_APPS
                for variant in figure7.SCHEMES
            ]
        elif artifact == "figure10":
            tasks += [
                make_task("smv", variant, figure10.LINE_SIZE, scale, **knobs)
                for variant in figure10.SCHEMES
            ]
    return list(dict.fromkeys(tasks))
