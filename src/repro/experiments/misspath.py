"""Miss-path mechanism matrix: who absorbs the conflict misses?

The paper's layout optimizations reshuffle memory on purpose, which
changes *which* L1 misses occur -- and a question the paper could not
ask is whether a small victim cache, miss cache, or set of stream
buffers (:mod:`repro.cache.misspath`) would have absorbed the misses
the optimizations induce or remove.  This experiment runs the Figure 5
app x line-size x variant matrix once per mechanism and reports, per
cell:

* the fraction of that cell's own full misses a stage absorbed
  (``absorbed / full misses``), and
* cycles and below-L1 fill traffic normalized to the same
  ``(app, line size, variant)`` cell with no mechanism,

so the headline comparison reads directly: how much of the miss stream
each mechanism soaks up with forwarding-style layout optimization on
(``L``) versus off (``N``), and what that does to execution time.  The
``none`` rows are the exact baseline cells (normalized columns are
1.00 by construction) and share their traces -- and, in one runner,
their memo entries -- with Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps import FIGURE5_APPS
from repro.apps.base import Variant
from repro.cache.misspath import MECHANISMS
from repro.experiments.config import line_sizes_for
from repro.experiments.report import percent, render_table
from repro.experiments.runner import ExperimentRunner, make_task
from repro.trace.sweep import SweepTask

#: Matrix order: baseline first so every later row normalizes against it.
DEFAULT_MECHANISMS = MECHANISMS


def mechanism_matrix(mechanism: str = "none") -> tuple[str, ...]:
    """The mechanism axis to sweep for a CLI ``--mechanism`` request.

    The full zoo by default; a specific request narrows the matrix to
    ``("none", mechanism)`` -- the baseline rows are always needed for
    normalization (this is also what keeps the CI smoke cell cheap).
    """
    if mechanism == "none":
        return DEFAULT_MECHANISMS
    return ("none", mechanism)


@dataclass
class MisspathCell:
    """One (mechanism, app, line size, variant) measurement."""

    mechanism: str
    app: str
    line_size: int
    variant: Variant
    cycles: float
    #: This cell's own L1 full misses (loads + stores).
    full_misses: int
    #: Full misses served by a miss-path stage instead of the L2.
    absorbed: int
    l2_misses: int
    #: Bytes filled into L1 from below (stage hits move no bus bytes).
    fill_bytes: int
    #: ``absorbed / full_misses`` (0 when there were no misses).
    absorption: float = 0.0
    #: Relative to the same (app, line, variant) cell with mechanism
    #: "none"; 1.0 for the baseline rows themselves.
    normalized_cycles: float = 1.0
    normalized_fills: float = 1.0


@dataclass
class MisspathResult:
    cells: list[MisspathCell] = field(default_factory=list)
    #: (mechanism, variant) -> mean absorption across apps/lines.
    mean_absorption: dict[tuple[str, str], float] = field(default_factory=dict)
    #: (mechanism, variant) -> mean normalized cycles across apps/lines.
    mean_normalized_cycles: dict[tuple[str, str], float] = field(
        default_factory=dict
    )

    def cell(
        self, mechanism: str, app: str, line_size: int, variant: Variant
    ) -> MisspathCell:
        for cell in self.cells:
            if (cell.mechanism, cell.app, cell.line_size, cell.variant) == (
                mechanism,
                app,
                line_size,
                variant,
            ):
                return cell
        raise KeyError((mechanism, app, line_size, variant))

    def render(self) -> str:
        rows = [
            (
                cell.mechanism,
                cell.app,
                cell.line_size,
                cell.variant.value,
                f"{cell.absorption:.3f}",
                f"{cell.normalized_cycles:.3f}",
                f"{cell.normalized_fills:.3f}",
                cell.full_misses,
                cell.l2_misses,
            )
            for cell in self.cells
        ]
        table = render_table(
            ["Mechanism", "App", "Line", "Case", "Absorbed",
             "Norm.time", "Norm.fills", "FullMiss", "L2Miss"],
            rows,
            title=(
                "Miss-path mechanisms: absorption and normalized results "
                "(vs mechanism=none)"
            ),
        )
        summary_rows = [
            (
                mechanism,
                variant,
                percent(self.mean_absorption[(mechanism, variant)]),
                f"{self.mean_normalized_cycles[(mechanism, variant)]:.3f}",
            )
            for (mechanism, variant) in sorted(self.mean_absorption)
        ]
        summary = render_table(
            ["Mechanism", "Case", "MeanAbsorbed", "MeanNorm.time"],
            summary_rows,
            title="Headline: conflict-miss absorption per mechanism, N vs L",
        )
        return f"{table}\n\n{summary}"


def specs(
    scale: float,
    mechanisms: tuple[str, ...] = DEFAULT_MECHANISMS,
    apps: tuple[str, ...] = FIGURE5_APPS,
    **sizes: int,
) -> list[SweepTask]:
    """The full run matrix (used by the CLI's parallel prime).

    ``sizes`` (the :class:`SweepTask` sizing knobs) ride only on the
    mechanism cells; the ``none`` baseline cells keep the defaults.
    """
    out: list[SweepTask] = []
    for mechanism in mechanisms:
        knobs = {} if mechanism == "none" else dict(mechanism=mechanism, **sizes)
        for app in apps:
            for line_size in line_sizes_for(app):
                for variant in (Variant.N, Variant.L):
                    out.append(make_task(app, variant, line_size, scale, **knobs))
    return out


def run(
    runner: ExperimentRunner | None = None,
    scale: float = 1.0,
    apps: tuple[str, ...] = FIGURE5_APPS,
    mechanisms: tuple[str, ...] | None = None,
) -> MisspathResult:
    """Execute the matrix and assemble the normalized-results report.

    ``mechanisms`` defaults to the runner's ``--mechanism`` request via
    :func:`mechanism_matrix` (the full zoo when the runner is baseline).
    """
    runner = runner or ExperimentRunner(scale=scale)
    if mechanisms is None:
        mechanisms = mechanism_matrix(runner.mechanism)
    result = MisspathResult()
    baselines: dict[tuple[str, int, Variant], MisspathCell] = {}
    for mechanism in mechanisms:
        for task in specs(
            runner.scale, mechanisms=(mechanism,), apps=apps, **runner.sizes
        ):
            stats = runner.run_spec(task).stats
            full = stats.l1_load_misses_full + stats.l1_store_misses_full
            cell = MisspathCell(
                mechanism=mechanism,
                app=task.app,
                line_size=task.line_size,
                variant=Variant(task.variant),
                cycles=stats.cycles,
                full_misses=full,
                absorbed=stats.misspath.get("hits", 0),
                l2_misses=stats.l2_misses,
                fill_bytes=stats.l1_l2_bytes + stats.l2_mem_bytes,
                absorption=(
                    stats.misspath.get("hits", 0) / full if full else 0.0
                ),
            )
            key = (cell.app, cell.line_size, cell.variant)
            if mechanism == "none":
                baselines[key] = cell
            else:
                base = baselines.get(key)
                if base is not None:
                    if base.cycles:
                        cell.normalized_cycles = cell.cycles / base.cycles
                    if base.fill_bytes:
                        cell.normalized_fills = (
                            cell.fill_bytes / base.fill_bytes
                        )
            result.cells.append(cell)
    for mechanism in mechanisms:
        for variant in (Variant.N, Variant.L):
            group = [
                cell
                for cell in result.cells
                if cell.mechanism == mechanism and cell.variant is variant
            ]
            if not group:
                continue
            key = (mechanism, variant.value)
            result.mean_absorption[key] = sum(
                cell.absorption for cell in group
            ) / len(group)
            result.mean_normalized_cycles[key] = sum(
                cell.normalized_cycles for cell in group
            ) / len(group)
    return result


def manifest(result: MisspathResult, runner: ExperimentRunner) -> dict:
    """Schema-validated run manifest for the mechanism matrix."""
    from repro.obs import cell

    cells = [
        cell(
            f"{c.app}/{c.line_size}B/{c.variant.value}/{c.mechanism}",
            labels={
                "app": c.app,
                "line_size": c.line_size,
                "variant": c.variant.value,
                "mechanism": c.mechanism,
            },
            values={
                "cycles": c.cycles,
                "full_misses": c.full_misses,
                "absorbed": c.absorbed,
                "absorption": c.absorption,
                "l2_misses": c.l2_misses,
                "fill_bytes": c.fill_bytes,
                "normalized_cycles": c.normalized_cycles,
                "normalized_fills": c.normalized_fills,
            },
        )
        for c in result.cells
    ]
    summary: dict[str, float] = {}
    for (mechanism, variant), value in sorted(result.mean_absorption.items()):
        summary[f"absorption.{mechanism}.{variant}"] = value
    for (mechanism, variant), value in sorted(
        result.mean_normalized_cycles.items()
    ):
        summary[f"normalized_cycles.{mechanism}.{variant}"] = value
    return runner.manifest("misspath", cells, summary)


def main() -> None:  # pragma: no cover - CLI entry
    print(run(ExperimentRunner(verbose=True)).render())


if __name__ == "__main__":  # pragma: no cover
    main()
