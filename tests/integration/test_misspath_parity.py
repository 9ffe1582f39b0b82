"""Miss-path mechanisms across execution modes (DESIGN.md §5f).

Four guarantees pinned here:

1. **Zero-cost disablement.**  With ``mechanism="none"`` a run's stats
   -- metric tree, dump, checksum -- are bit-identical to a machine
   that predates the miss path entirely (the config default).
2. **Replay parity.**  With any mechanism enabled, replaying a captured
   trace through the mechanism config -- through the layered costs and
   through the specialized kernel -- reproduces the direct run's stats
   (including the ``cache.misspath.*`` counters) bit-exactly.
3. **Mode parity.**  Forcing the general interpreter path
   (``fast_path=False``) produces the same stats as the default config,
   whose fast path costs through the generated kernel, and mechanisms
   never change application results -- only their cost.
4. **Kernel parity.**  The generated kernel calls the hierarchy's miss
   path where the layered path does, under every replacement policy and
   speculation mode, on a hierarchy small enough that every stage hits
   and L2 evictions drop lines from the stages.
"""

from dataclasses import replace

import pytest

from repro.apps import get_application
from repro.apps.base import Variant
from repro.cache.misspath import MECHANISMS
from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import MachineConfig
from repro.experiments.config import APP_SEEDS, experiment_config
from repro.trace.kernels import (
    SPEC_COUNTERS,
    SPEC_FULL,
    SPEC_OFF,
    SpecializedSession,
    replay_specialized,
)
from repro.trace.recorder import capture_trace
from repro.trace.replay import drive_sessions, replay_trace

SCALE = 0.05

CASES = [
    pytest.param("health", Variant.L, 32, id="health-L-32B"),
    pytest.param("mst", Variant.N, 64, id="mst-N-64B"),
]


def _config(line_size, mechanism="none", fast_path=True, **hier_overrides):
    return MachineConfig(
        hierarchy=HierarchyConfig(
            line_size=line_size, mechanism=mechanism, **hier_overrides
        ),
        fast_path=fast_path,
    )


def _run_direct(app_name, variant, config):
    app = get_application(app_name, scale=SCALE, seed=APP_SEEDS[app_name])
    return app.run(variant, config)


class TestZeroCostDisablement:
    @pytest.mark.parametrize("app_name,variant,line_size", CASES)
    def test_disabled_mechanism_is_bit_identical(self, app_name, variant, line_size):
        baseline = _run_direct(app_name, variant, _config(line_size))
        # Explicit "none" plus non-default sizing knobs: the knobs must
        # be inert when no mechanism reads them.
        knobbed = _run_direct(
            app_name,
            variant,
            _config(line_size, vc_entries=64, sb_depth=16),
        )
        assert knobbed.checksum == baseline.checksum
        assert knobbed.stats.dump() == baseline.stats.dump()
        assert (
            knobbed.stats.to_snapshot().tree()
            == baseline.stats.to_snapshot().tree()
        )

    def test_disabled_tree_has_no_misspath_keys(self):
        outcome = _run_direct("health", Variant.L, _config(32))
        assert not any(
            key.startswith("cache.misspath") for key in outcome.stats.to_snapshot()
        )


class TestReplayParity:
    @pytest.mark.parametrize("mechanism", MECHANISMS[1:])
    @pytest.mark.parametrize("app_name,variant,line_size", CASES)
    def test_replay_matches_direct(self, app_name, variant, line_size, mechanism):
        config = _config(line_size, mechanism=mechanism)
        trace, direct = capture_trace(
            app_name, variant, config, SCALE, APP_SEEDS[app_name]
        )
        for replay in (replay_trace, replay_specialized):
            replayed = replay(trace, config)
            assert replayed.stats.dump() == direct.stats.dump()
            assert replayed.stats.misspath == direct.stats.misspath

    def test_mechanism_counters_travel_through_replay(self):
        config = _config(32, mechanism="victim_cache")
        trace, direct = capture_trace(
            "health", Variant.L, config, SCALE, APP_SEEDS["health"]
        )
        assert direct.stats.misspath["probes"] > 0
        replayed = replay_trace(trace, config)
        snapshot = replayed.stats.to_snapshot()
        assert (
            snapshot["cache.misspath.probes"] == direct.stats.misspath["probes"]
        )

    def test_baseline_trace_replays_under_any_mechanism(self):
        """One captured stream serves every mechanism config (the trace
        key ignores machine config), and mechanism replays differ from
        the baseline only in cost, never in workload identity."""
        baseline_config = _config(32)
        trace, _ = capture_trace(
            "health", Variant.L, baseline_config, SCALE, APP_SEEDS["health"]
        )
        mech_config = _config(32, mechanism="victim_cache")
        direct = _run_direct("health", Variant.L, mech_config)
        replayed = replay_trace(trace, mech_config)
        assert replayed.stats.dump() == direct.stats.dump()


class TestModeParity:
    @pytest.mark.parametrize("app_name,variant,line_size", CASES)
    @pytest.mark.parametrize("mechanism", MECHANISMS[1:])
    def test_general_path_matches_kernel_path(
        self, mechanism, app_name, variant, line_size
    ):
        fast = _run_direct(
            app_name, variant, _config(line_size, mechanism=mechanism)
        )
        slow = _run_direct(
            app_name,
            variant,
            _config(line_size, mechanism=mechanism, fast_path=False),
        )
        assert slow.checksum == fast.checksum
        assert slow.stats.dump() == fast.stats.dump()

    @pytest.mark.parametrize("mechanism", MECHANISMS[1:])
    def test_mechanism_never_changes_results(self, mechanism):
        baseline = _run_direct("mst", Variant.L, _config(32))
        mech = _run_direct("mst", Variant.L, _config(32, mechanism=mechanism))
        assert mech.checksum == baseline.checksum
        # Workload identity (instruction count, reference count) is
        # untouched; only the memory-system cost moves.
        assert mech.stats.instructions == baseline.stats.instructions
        assert mech.stats.loads.count == baseline.stats.loads.count


#: A hierarchy small enough that, on these short traces, every stage
#: hits and L2 evictions drop lines from the stages (inclusion).
_CRAMPED = dict(l1_size=512, l2_size=2048, l2_assoc=2)

_TRACES: dict = {}


def _kernel_trace(forwarded):
    """health L at scale 0.1 carries forwarded loads and stores; health
    N at scale 0.05 carries none."""
    if forwarded not in _TRACES:
        variant, scale = (Variant.L, 0.1) if forwarded else (Variant.N, 0.05)
        _TRACES[forwarded], _ = capture_trace(
            "health", variant, experiment_config(32), scale, APP_SEEDS["health"]
        )
    return _TRACES[forwarded]


class TestKernelParity:
    @pytest.mark.parametrize(
        "spec_mode",
        [SPEC_FULL, SPEC_COUNTERS, SPEC_OFF],
        ids=["spec_full", "spec_counters", "spec_off"],
    )
    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("mechanism", MECHANISMS[1:])
    def test_kernel_matches_layered_replay(self, mechanism, policy, spec_mode):
        trace = _kernel_trace(forwarded=spec_mode == SPEC_FULL)
        config = experiment_config(32)
        config = replace(
            config,
            hierarchy=replace(
                config.hierarchy, mechanism=mechanism, policy=policy, **_CRAMPED
            ),
        )
        if spec_mode == SPEC_OFF:
            config = replace(config, speculation_window=0)
        reference = replay_trace(trace, config)
        session = SpecializedSession(trace, config)
        drive_sessions(trace, [session])
        result = session.finish()
        # A forwarded store dirties the window: the full kernel runs from
        # it, the counters-only kernel everywhere else.
        assert set(session._kernels) == (
            {SPEC_FULL, SPEC_COUNTERS} if spec_mode == SPEC_FULL else {spec_mode}
        )
        assert result.stats.dump() == reference.stats.dump()
        counters = reference.stats.misspath
        assert counters["hits"] > 0 and counters["inclusion_drops"] > 0
