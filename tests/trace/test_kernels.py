"""The exec-specialized replay kernels: codegen, caching, exactness."""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.adapt.config import AdaptConfig
from repro.apps.base import Variant
from repro.cache.cache import Cache
from repro.apps import get_application
from repro.cache.misspath import MECHANISMS
from repro.core.kernel import STORE_FWD
from repro.core.machine import Machine
from repro.experiments.config import experiment_config
from repro.trace import capture_trace, replay_trace
from repro.trace.batch import SPECIALIZED, session_for
from repro.trace.kernels import (
    SPEC_COUNTERS,
    SPEC_FULL,
    SPEC_OFF,
    SpecializationError,
    SpecializedSession,
    _elides_residual,
    compiled_kernel,
    kernel_source,
    replay_specialized,
    specializable,
)
from repro.trace.replay import drive_sessions, iter_resolved_chunks

SCALE = 0.05


def _trace(app="health", variant=Variant.N, seed=1):
    trace, _ = capture_trace(
        app, variant, experiment_config(32), scale=SCALE, seed=seed
    )
    return trace


def _with_mechanism(config, mechanism):
    return replace(
        config, hierarchy=replace(config.hierarchy, mechanism=mechanism)
    )


def _compiled_modes(trace, config):
    """The speculation modes a specialized replay of ``trace`` compiled."""
    session = SpecializedSession(trace, config)
    drive_sessions(trace, [session])
    return set(session._kernels)


class TestFeatureMatrix:
    def test_plain_config_is_specializable(self):
        assert specializable(experiment_config(64))

    @pytest.mark.parametrize(
        "patch",
        [
            {"timeline_interval": 500},
            {"events_capacity": 128},
            {"adapt": AdaptConfig()},
        ],
    )
    def test_uncovered_config_features(self, patch):
        config = replace(experiment_config(64), **patch)
        assert not specializable(config)
        with pytest.raises(SpecializationError):
            kernel_source(config)

    def test_miss_path_mechanisms_are_covered(self):
        """Every mechanism runs the kernel: on the Machine fast path (so
        in every capture) and in replay."""
        trace = _trace()
        for mechanism in MECHANISMS:
            config = _with_mechanism(experiment_config(64), mechanism)
            assert specializable(config)
            compile(kernel_source(config), "<test-kernel>", "exec")
            assert Machine(config)._fast_enabled
            assert session_for(trace, config)[1] == SPECIALIZED


class TestCodegen:
    def test_constants_are_baked_as_literals(self):
        source = kernel_source(experiment_config(64), SPEC_COUNTERS)
        assert "$" not in source  # every template slot substituted
        assert ">> 6" in source  # line shift for 64B lines
        compile(source, "<test-kernel>", "exec")

    def test_line_size_changes_the_source(self):
        a = kernel_source(experiment_config(32), SPEC_COUNTERS)
        b = kernel_source(experiment_config(128), SPEC_COUNTERS)
        assert a != b

    def test_spec_off_carries_no_speculator_code(self):
        config = replace(experiment_config(64), speculation_window=0)
        source = kernel_source(config, SPEC_OFF)
        assert "speculator.on_load" not in source
        assert "spec_stats" not in source

    def test_counters_mode_skips_store_queue_bookkeeping(self):
        source = kernel_source(experiment_config(64), SPEC_COUNTERS)
        assert "queue_append" not in source
        # ... but still derives the checked/tracked totals at spill time.
        assert "spec_stats.loads_checked" in source

    def test_random_policy_emits_the_xorshift_victim_picker(self):
        config = experiment_config(64)
        config = replace(
            config, hierarchy=replace(config.hierarchy, policy="random")
        )
        source = kernel_source(config, SPEC_COUNTERS)
        assert "_rng_state" in source
        lru = kernel_source(experiment_config(64), SPEC_COUNTERS)
        assert "_rng_state" not in lru

    @pytest.mark.parametrize("mechanism", ["none", "combined"])
    def test_one_full_miss_arm_in_a_small_source(self, mechanism):
        """Both reference classes share one full-miss arm: one L2 probe
        in the whole loop, which keeps the source (and so its compile)
        small."""
        source = kernel_source(
            _with_mechanism(experiment_config(64), mechanism)
        )
        assert source.count("l2_line = line_addr >>") == 1
        assert len(source.splitlines()) <= 650

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs VmHWM"
    )
    @pytest.mark.parametrize("mechanism", ["none", "combined"])
    def test_compile_raises_peak_rss_by_under_1_5_mib(self, mechanism):
        """Every fresh interpreter that costs references pays one compile
        per machine shape, and its transient lands in peak RSS."""
        script = textwrap.dedent(f"""\
            from dataclasses import replace
            from repro.core.kernel import compiled_kernel, kernel_source
            from repro.experiments.config import experiment_config

            def hwm_kib():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1])

            config = experiment_config(64)
            config = replace(
                config,
                hierarchy=replace(config.hierarchy, mechanism={mechanism!r}),
            )
            kernel_source(config)
            before = hwm_kib()
            compiled_kernel(config)
            print(hwm_kib() - before)
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert int(proc.stdout) < 1.5 * 1024

    def test_kernel_cache_reuses_compilations(self):
        first = compiled_kernel(experiment_config(64))
        again = compiled_kernel(experiment_config(64))
        assert first is again
        other = compiled_kernel(experiment_config(128))
        assert other is not first

    @pytest.mark.parametrize("mode", [SPEC_COUNTERS, SPEC_FULL])
    @pytest.mark.parametrize("mechanism", ["none", "combined"])
    def test_loop_pays_per_reference_only_for_what_it_changes(
        self, mechanism, mode
    ):
        """The chunk counts its references, instructions and L1 hits
        once; the loop walks ``zip(kinds, ops)`` with no index; and the
        store completion runs on a sorted buffer, with no scan."""
        source = kernel_source(
            _with_mechanism(experiment_config(64), mechanism), mode
        )
        loop = source[source.index("for kind, address in zip(kinds, ops):"):]
        for counter in (
            "instructions", "load_count", "store_count", "l1_lh", "l1_sh",
        ):
            assert f"{counter} += 1" not in loop
        assert "[idx]" not in source
        store_arm = loop[loop.index("elif kind == 1 or kind == 4:"):]
        store_arm = store_arm[: store_arm.index("elif kind == 8:")]
        assert " for " not in store_arm
        assert "insort(buffer, ready)" in store_arm
        assert "bisect_right(buffer, cycle)" in store_arm
        assert "min(buffer)" not in source


class TestSpecMode:
    def test_no_speculation_window(self):
        config = replace(experiment_config(64), speculation_window=0)
        assert _compiled_modes(_trace(), config) == {SPEC_OFF}

    def test_unforwarded_trace_uses_counters_mode(self):
        assert _compiled_modes(_trace(), experiment_config(64)) == {SPEC_COUNTERS}

    def test_forwarded_trace_needs_full_bookkeeping(self):
        """Only a forwarded store dirties the window: a trace compiles
        the full kernel iff it has one."""
        trace = _trace("health", Variant.L)
        stores = sum(
            chunk.kinds.count(STORE_FWD) for chunk in iter_resolved_chunks(trace)
        )
        modes = _compiled_modes(trace, experiment_config(64))
        assert modes == ({SPEC_COUNTERS, SPEC_FULL} if stores else {SPEC_COUNTERS})

    def test_unforwarded_direct_run_compiles_no_full_kernel(self):
        app = get_application("health", scale=SCALE, seed=1)
        machine = Machine(experiment_config(64))
        app.execute(machine, Variant.N)
        machine.stats()
        assert set(machine._kernels) == {SPEC_COUNTERS}


class TestExactness:
    @pytest.mark.parametrize("line_size", [32, 64, 128])
    def test_parity_with_general_path(self, line_size):
        trace = _trace()
        config = experiment_config(line_size)
        reference = replay_trace(_trace(), config)
        result = replay_specialized(trace, config)
        assert result.stats.dump() == reference.stats.dump()

    def test_parity_when_residual_is_not_elidable(self):
        """hit latency ~ OoO window: the hit-arm stall check must stay."""
        config = experiment_config(64)
        config = replace(
            config, timing=replace(config.timing, ooo_window=1.0)
        )
        assert not _elides_residual(
            {
                "L1_HIT_LATENCY": config.hierarchy.l1_hit_latency,
                "OOO_WINDOW": config.timing.ooo_window,
            }
        )
        reference = replay_trace(_trace(), config)
        result = replay_specialized(_trace(), config)
        assert result.stats.dump() == reference.stats.dump()

    def test_cycle_guard_falls_back_to_general_path(self, monkeypatch):
        """Past the 2**49 elision bound the kernel run is discarded."""
        import repro.core.kernel as core_kernel
        import repro.trace.kernels as kernels

        def absurd_kernel(config, spec_mode=None):
            def _replay(kinds, ops, next_extra, hierarchy, timing, *rest):
                timing.cycle = 2.0 ** 50
                return rest[-1]  # thread trap_installed through unchanged
            return _replay

        monkeypatch.setattr(core_kernel, "compiled_kernel", absurd_kernel)
        trace = _trace()
        config = experiment_config(64)
        result = kernels.replay_specialized(trace, config)
        reference = replay_trace(_trace(), config)
        assert result.stats.dump() == reference.stats.dump()


class TestSentinelInvariant:
    """The kernels probe fixed ways relying on Cache's -1 sentinel."""

    def test_fresh_cache_is_all_sentinel(self):
        cache = Cache(size=1024, line_size=32, associativity=2)
        assert all(tag == -1 for tag in cache._tags)

    def test_invalidate_restores_the_sentinel(self):
        cache = Cache(size=1024, line_size=32, associativity=2)
        cache.fill(0)
        cache.fill(1024)  # same set, second way
        assert cache.invalidate(0)
        base_tags = [
            cache._tags[slot]
            for slot in range(2 * (0 & cache._set_mask), cache.associativity)
        ]
        # One resident line shifted to the front; the vacated slot is -1.
        assert base_tags[0] == 1024 >> cache.line_shift
        assert base_tags[1] == -1

    def test_no_stale_tag_survives_heavy_churn(self):
        cache = Cache(size=512, line_size=32, associativity=2)
        for address in range(0, 8192, 32):
            cache.fill(address)
            if address % 96 == 0:
                cache.invalidate(address)
        for set_index in range(cache.num_sets):
            base = set_index * cache.associativity
            occupancy = cache._set_len[set_index]
            for way in range(occupancy, cache.associativity):
                assert cache._tags[base + way] == -1
