"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's figures to quantify the knobs its design
discussion argues about:

* **hop-limit sweep** -- Section 3.2's fast-counter limit: how often the
  accurate cycle check fires as the limit shrinks (it should be never,
  at any sane limit, for real workloads);
* **speculation on/off** -- Section 3.2's claim that data-dependence
  speculation makes delayed final-address generation harmless, and that
  misspeculation "almost never" occurs;
* **linearization-threshold sweep** -- Section 5.3's "arbitrarily set to
  50": how sensitive VIS is to the trigger threshold;
* **prefetch block-size sweep** -- Section 5.2 reports the best block
  size per case; this sweep regenerates that choice for Health.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.apps import get_application
from repro.apps.base import Variant
from repro.apps.health import Health
from repro.experiments.config import APP_SEEDS, experiment_config
from repro.experiments.report import render_table
from repro.obs import Registry, Tracer


def _absorb(obs: Registry | None, stats) -> None:
    """Fold one study run's stats into the ablation registry (if any)."""
    if obs is not None:
        obs.counter("runs.captured").inc()
        obs.absorb(stats.to_snapshot())


@dataclass
class AblationResult:
    title: str
    headers: list[str]
    rows: list[tuple] = field(default_factory=list)

    def render(self) -> str:
        return render_table(self.headers, self.rows, title=self.title)


def hop_limit_sweep(
    scale: float = 0.5,
    limits: tuple[int, ...] = (1, 2, 4, 16),
    obs: Registry | None = None,
) -> AblationResult:
    """How the fast hop-counter limit affects SMV's scheme L."""
    result = AblationResult(
        "Ablation: forwarding hop-limit (SMV, scheme L)",
        ["Hop limit", "Cycles", "Cycle checks", "Cycles detected"],
    )
    for limit in limits:
        config = replace(experiment_config(), hop_limit=limit)
        app = get_application("smv", scale=scale, seed=APP_SEEDS["smv"])
        outcome = app.run(Variant.L, config)
        _absorb(obs, outcome.stats)
        result.rows.append(
            (
                limit,
                f"{outcome.stats.cycles:.0f}",
                outcome.stats.cycle_checks,
                0,  # a detected cycle would have raised; reaching here means none
            )
        )
    return result


def speculation_ablation(
    scale: float = 0.5, obs: Registry | None = None
) -> AblationResult:
    """Dependence speculation on/off for the forwarding-heavy app (SMV)."""
    result = AblationResult(
        "Ablation: data-dependence speculation (SMV)",
        ["Scheme", "Speculation", "Cycles", "Loads checked", "Misspeculations"],
    )
    for variant in (Variant.N, Variant.L):
        for window in (32, 0):
            config = replace(experiment_config(), speculation_window=window)
            app = get_application("smv", scale=scale, seed=APP_SEEDS["smv"])
            outcome = app.run(variant, config)
            _absorb(obs, outcome.stats)
            result.rows.append(
                (
                    variant.value,
                    "on" if window else "off",
                    f"{outcome.stats.cycles:.0f}",
                    outcome.stats.speculation_loads_checked,
                    outcome.stats.misspeculations,
                )
            )
    return result


def linearize_threshold_sweep(
    scale: float = 0.5,
    thresholds: tuple[int, ...] = (10, 25, 50, 100, 400),
    obs: Registry | None = None,
) -> AblationResult:
    """Sensitivity of VIS to the in-library linearization threshold."""
    result = AblationResult(
        "Ablation: linearization threshold (VIS, scheme L)",
        ["Threshold", "Cycles", "Linearizations", "Pool bytes"],
    )
    for threshold in thresholds:
        app = get_application("vis", scale=scale, seed=APP_SEEDS["vis"])
        outcome = _run_vis_with_threshold(app, threshold)
        _absorb(obs, outcome.stats)
        result.rows.append(
            (
                threshold,
                f"{outcome.stats.cycles:.0f}",
                outcome.extras["linearizations"],
                outcome.stats.relocation.pool_bytes,
            )
        )
    return result


def _run_vis_with_threshold(app, threshold: int):
    """Run VIS's L variant with an explicit linearization threshold."""
    from repro.core.machine import Machine

    machine = Machine(experiment_config())
    # Reuse the app's workload but with a fixed threshold: patch the
    # scaled-threshold computation for this run only.
    original = app._scaled

    def patched(value, minimum=1):
        if value == 50:  # the threshold constant
            return max(1, threshold)
        return original(value, minimum)

    app._scaled = patched
    try:
        checksum, extras = app.execute(machine, Variant.L)
    finally:
        app._scaled = original
    from repro.apps.base import AppResult

    return AppResult("vis", Variant.L, checksum, machine.stats(), extras)


def prefetch_block_sweep(
    scale: float = 0.5,
    blocks: tuple[int, ...] = (1, 2, 4, 8),
    obs: Registry | None = None,
) -> AblationResult:
    """Best block-prefetch size for Health's LP scheme (Section 5.2)."""
    result = AblationResult(
        "Ablation: prefetch block size (Health, scheme LP)",
        ["Block lines", "Cycles", "PF instructions", "PF fills"],
    )
    saved = Health.PREFETCH_BLOCK
    try:
        for block in blocks:
            Health.PREFETCH_BLOCK = block
            app = get_application("health", scale=scale, seed=APP_SEEDS["health"])
            outcome = app.run(Variant.LP, experiment_config())
            _absorb(obs, outcome.stats)
            result.rows.append(
                (
                    block,
                    f"{outcome.stats.cycles:.0f}",
                    outcome.stats.prefetch_instructions,
                    outcome.stats.prefetch_fills,
                )
            )
    finally:
        Health.PREFETCH_BLOCK = saved
    return result


def pointer_compare_overhead(
    comparisons: int = 4000, relocated_fraction: float = 0.25
) -> AblationResult:
    """Cost of safe (final-address) pointer comparison (Section 2.1).

    The compiler must replace pointer comparisons that may involve
    relocated objects with explicit final-address lookups; the paper
    reports the resulting software overhead "does not present a
    problem".  This ablation measures it directly: a comparison-heavy
    loop run with raw equality versus ``ptr_eq``, over a pointer
    population of which some fraction is relocated.
    """
    from repro.core.machine import Machine
    from repro.core.pointer_ops import ptr_eq
    from repro.core.relocate import relocate
    from repro.runtime.rng import DeterministicRNG

    result = AblationResult(
        "Ablation: final-address pointer-comparison overhead",
        ["Comparison", "Cycles", "Overhead"],
    )
    cycles = {}
    for safe in (False, True):
        machine = Machine(experiment_config())
        rng = DeterministicRNG(2)
        pool = machine.create_pool(1 << 16)
        pointers = []
        for _ in range(64):
            obj = machine.malloc(16)
            if rng.random() < relocated_fraction:
                target = pool.allocate(16)
                relocate(machine, obj, target, 2)
            pointers.append(obj)
        start = machine.cycles
        matches = 0
        for _ in range(comparisons):
            left = pointers[rng.randint(len(pointers))]
            right = pointers[rng.randint(len(pointers))]
            if safe:
                matches += ptr_eq(machine, left, right)
            else:
                machine.execute(1)
                matches += left == right
        cycles["safe" if safe else "raw"] = machine.cycles - start
    overhead = cycles["safe"] / cycles["raw"] - 1.0
    result.rows.append(("raw ==", f"{cycles['raw']:.0f}", ""))
    result.rows.append(("ptr_eq (final address)", f"{cycles['safe']:.0f}",
                        f"+{100 * overhead:.1f}%"))
    return result


def run_all(
    scale: float = 0.5,
    obs: Registry | None = None,
    tracer: Tracer | None = None,
) -> list[AblationResult]:
    """Every study, each in an ``ablations.<name>`` span of ``tracer``."""
    registry = obs if obs is not None else Registry()
    tracer = tracer if tracer is not None else Tracer()
    studies = (
        ("hop_limit", lambda: hop_limit_sweep(scale, obs=registry)),
        ("speculation", lambda: speculation_ablation(scale, obs=registry)),
        ("linearize_threshold",
         lambda: linearize_threshold_sweep(scale, obs=registry)),
        ("prefetch_block", lambda: prefetch_block_sweep(scale, obs=registry)),
        ("pointer_compare", lambda: pointer_compare_overhead()),
    )
    results = []
    for name, study in studies:
        with tracer.span(f"ablations.{name}", registry):
            results.append(study())
    return results


_STUDY_SLUGS = {
    "Ablation: forwarding hop-limit (SMV, scheme L)": "hop_limit",
    "Ablation: data-dependence speculation (SMV)": "speculation",
    "Ablation: linearization threshold (VIS, scheme L)": "linearize_threshold",
    "Ablation: prefetch block size (Health, scheme LP)": "prefetch_block",
    "Ablation: final-address pointer-comparison overhead": "pointer_compare",
}


def manifest(
    results: list[AblationResult], scale: float, obs: Registry, tracer: Tracer
) -> dict:
    """Schema-validated run manifest for the ablation suite."""
    from repro.experiments.config import APP_SEEDS
    from repro.obs import build_manifest, cell

    cells = []
    for result in results:
        slug = _STUDY_SLUGS.get(result.title, result.title)
        # Use as many leading columns as it takes to key rows uniquely
        # (the speculation study needs scheme AND on/off).
        width = 1
        while width < len(result.headers) and len(
            {tuple(map(str, row[:width])) for row in result.rows}
        ) < len(result.rows):
            width += 1
        for row in result.rows:
            values = {
                header.lower().replace(" ", "_"): value
                for header, value in zip(result.headers, row)
            }
            coords = "/".join(str(part) for part in row[:width])
            cells.append(cell(f"{slug}/{coords}", values=values))
    return build_manifest(
        "ablations",
        run={"scale": scale, "jobs": 1, "cache": False, "trace_dir": None},
        seeds=dict(APP_SEEDS),
        metrics=obs.snapshot(),
        spans=tracer.to_list(),
        cells=cells,
    )


def main() -> None:  # pragma: no cover - CLI entry
    for ablation in run_all():
        print(ablation.render())
        print()


if __name__ == "__main__":  # pragma: no cover
    main()
