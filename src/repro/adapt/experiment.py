"""The adaptive-relocation experiment: static-never / static-once / adaptive.

The paper's optimizations are *static*: linearize once, when the
programmer-chosen trigger fires, and hope the traversal order never
changes.  The phase-changing workloads (:mod:`repro.apps.phased`) break
that assumption on purpose — a seeded mid-run flip of the hot lists —
and this experiment measures what each relocation *policy* does about
it:

* ``static-never`` — the unoptimized layout (variant ``N``);
* ``static-once`` — the app's own layout optimizer, run on its normal
  static trigger (variant ``L``), which goes stale at the flip;
* one adaptive arm per policy in :data:`repro.adapt.config.POLICIES` —
  variant ``L`` plus the feedback engine, which watches the timeline's
  per-window miss rate and re-linearizes (or copies / recolors) when
  the phase change degrades it.

The matrix runs at a 128-byte line — the regime where linearization
matters most (Figure 5) and therefore where a stale layout hurts most.
Every arm of one app computes the identical checksum (relocation never
changes logical order), which ``run`` verifies; an arm that broke this
would be exploiting a simulation bug, not locality.

Cells are normalized to their app's ``static-once`` arm, so the
headline reads directly: adaptive < 1.0 beats the paper's static
optimizer, and the per-decision ledger in each adaptive cell accounts
for exactly where the cycles went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.adapt.config import POLICIES, AdaptConfig
from repro.apps import PHASE_APPS
from repro.apps.base import Variant
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentRunner, make_task
from repro.trace.sweep import SweepTask

#: Line size for the whole matrix: the largest Figure-5 line, where
#: traversal-order locality (and therefore a stale layout) matters most.
LINE_SIZE = 128

#: The two static arms; adaptive arms are named after their policy.
STATIC_NEVER = "static-never"
STATIC_ONCE = "static-once"


def tuned_config(policy: str) -> AdaptConfig:
    """The tuned engine configuration used for every adaptive cell.

    One shared config across apps and policies (only ``policy``
    varies), tuned against the phase apps' measured window profiles at
    :data:`LINE_SIZE`: the miss-rate threshold sits between the
    pre-flip steady state (~0.54–0.58 misses/ref for ``mst_phase``) and
    the post-flip regime (~0.70), so triggers fire only once the phase
    change has actually degraded locality.
    """
    return AdaptConfig(
        policy=policy,
        interval=1024,
        miss_rate_threshold=0.62,
        chase_rate_threshold=0.02,
        decay=0.5,
        patience=2,
        cooldown=4,
        max_actions=4,
        seed=1,
    )


def policy_matrix(adapt_policy: str | None = None) -> tuple[str, ...]:
    """The policy axis for a CLI ``--adapt-policy`` request.

    The full matrix by default; a specific request narrows to that one
    policy (the static arms are always run — they are the baselines).
    """
    if adapt_policy is None:
        return POLICIES
    return (adapt_policy,)


@dataclass
class AdaptCell:
    """One (app, arm) measurement of the policy matrix."""

    app: str
    #: ``static-never``, ``static-once``, or the adaptive policy name.
    arm: str
    variant: Variant
    cycles: float
    l1_misses: int
    checksum: int
    #: Engine audit (adaptive arms only; zeros for the static arms).
    decisions: int = 0
    cost_cycles: float = 0.0
    benefit_cycles: float = 0.0
    #: Relative to the same app's ``static-once`` arm (1.0 for it).
    normalized_cycles: float = 1.0
    #: Full engine payload (decisions, ledger, profile) for audit.
    payload: dict = field(default_factory=dict, repr=False)

    @property
    def adaptive(self) -> bool:
        return self.arm not in (STATIC_NEVER, STATIC_ONCE)

    @property
    def net_cycles(self) -> float:
        """Ledger net: settled benefit minus execution cost."""
        return self.benefit_cycles - self.cost_cycles


@dataclass
class AdaptResult:
    cells: list[AdaptCell] = field(default_factory=list)
    #: Adaptive cells that beat their app's static-once arm.
    adaptive_wins: list[tuple[str, str]] = field(default_factory=list)
    #: Every arm of every app computed the same checksum.
    checksums_equal: bool = True

    def cell(self, app: str, arm: str) -> AdaptCell:
        for cell in self.cells:
            if (cell.app, cell.arm) == (app, arm):
                return cell
        raise KeyError((app, arm))

    def render(self) -> str:
        rows = [
            (
                cell.app,
                cell.arm,
                f"{cell.cycles:.0f}",
                f"{cell.normalized_cycles:.3f}",
                cell.decisions,
                f"{cell.cost_cycles:.0f}",
                f"{cell.net_cycles:+.0f}" if cell.adaptive else "-",
            )
            for cell in self.cells
        ]
        table = render_table(
            ["App", "Arm", "Cycles", "Norm.time", "Decisions",
             "Cost", "LedgerNet"],
            rows,
            title=(
                "Adaptive relocation: static-never / static-once / "
                f"policy arms at {LINE_SIZE}B lines (norm. vs static-once)"
            ),
        )
        wins = (
            ", ".join(f"{app}:{arm}" for app, arm in self.adaptive_wins)
            or "none"
        )
        footer = (
            f"adaptive arms beating static-once: {wins}\n"
            f"checksums equal across arms: {self.checksums_equal}"
        )
        return f"{table}\n\n{footer}"


def arms(
    app: str, scale: float, policies: tuple[str, ...] = POLICIES
) -> Iterator[tuple[str, SweepTask]]:
    """One app's ``(arm, cell)`` pairs: the two static arms, then a
    ``policies`` arm each."""
    yield STATIC_NEVER, make_task(app, Variant.N, LINE_SIZE, scale)
    yield STATIC_ONCE, make_task(app, Variant.L, LINE_SIZE, scale)
    for policy in policies:
        yield policy, make_task(
            app, Variant.L, LINE_SIZE, scale, adapt=tuned_config(policy)
        )


def specs(
    scale: float,
    policies: tuple[str, ...] = POLICIES,
    apps: tuple[str, ...] = PHASE_APPS,
) -> list[SweepTask]:
    """The full run matrix (used by the CLI's parallel prime)."""
    return [task for app in apps for _, task in arms(app, scale, policies)]


def run(
    runner: ExperimentRunner | None = None,
    scale: float = 1.0,
    apps: tuple[str, ...] = PHASE_APPS,
    policies: tuple[str, ...] | None = None,
) -> AdaptResult:
    """Execute the matrix and assemble the normalized report.

    ``policies`` defaults to the runner's ``--adapt-policy`` request via
    :func:`policy_matrix` (the full policy set when unset).
    """
    runner = runner or ExperimentRunner(scale=scale)
    if policies is None:
        policies = policy_matrix(runner.adapt_policy)
    result = AdaptResult()
    for app in apps:
        app_cells: list[AdaptCell] = []
        for arm, task in arms(app, runner.scale, policies):
            outcome = runner.run_spec(task)
            payload = outcome.extras.get("adapt") or {}
            counters = payload.get("counters", {})
            app_cells.append(
                AdaptCell(
                    app=app,
                    arm=arm,
                    variant=Variant(task.variant),
                    cycles=outcome.stats.cycles,
                    l1_misses=(
                        outcome.stats.l1_load_misses_full
                        + outcome.stats.l1_store_misses_full
                    ),
                    checksum=outcome.checksum,
                    decisions=int(counters.get("decisions", 0)),
                    cost_cycles=counters.get("cost_cycles", 0.0),
                    benefit_cycles=counters.get("benefit_cycles", 0.0),
                    payload=payload,
                )
            )
        baseline = next(c for c in app_cells if c.arm == STATIC_ONCE)
        for cell in app_cells:
            if baseline.cycles:
                cell.normalized_cycles = cell.cycles / baseline.cycles
            if cell.adaptive and cell.cycles < baseline.cycles:
                result.adaptive_wins.append((app, cell.arm))
        if len({cell.checksum for cell in app_cells}) > 1:
            result.checksums_equal = False
        result.cells.extend(app_cells)
    return result


def manifest(result: AdaptResult, runner: ExperimentRunner) -> dict:
    """Schema-validated run manifest for the policy matrix."""
    from repro.obs import cell

    cells = [
        cell(
            f"{c.app}/{LINE_SIZE}B/{c.arm}",
            labels={
                "app": c.app,
                "arm": c.arm,
                "variant": c.variant.value,
                "line_size": LINE_SIZE,
            },
            values={
                "cycles": c.cycles,
                "l1_misses": c.l1_misses,
                "normalized_cycles": c.normalized_cycles,
                "decisions": c.decisions,
                "cost_cycles": c.cost_cycles,
                "benefit_cycles": c.benefit_cycles,
                "net_cycles": c.net_cycles,
            },
        )
        for c in result.cells
    ]
    summary: dict[str, float] = {
        "adaptive_wins": float(len(result.adaptive_wins)),
        "checksums_equal": 1.0 if result.checksums_equal else 0.0,
    }
    for c in result.cells:
        summary[f"normalized.{c.app}.{c.arm}"] = c.normalized_cycles
    return runner.manifest("adapt", cells, summary)


def main() -> None:  # pragma: no cover - CLI entry
    print(run(ExperimentRunner(verbose=True)).render())


if __name__ == "__main__":  # pragma: no cover
    main()
