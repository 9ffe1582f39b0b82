"""Wire-level job payloads: strict validation and deterministic identity."""

import pytest

from repro.adapt.config import AdaptConfig
from repro.apps.base import Variant
from repro.experiments.config import APP_SEEDS
from repro.experiments.runner import make_task
from repro.serve import ProtocolError, job_key, parse_job


def _payload(**overrides):
    payload = {"app": "health", "variant": "N", "line_size": 32}
    payload.update(overrides)
    return payload


class TestValidation:
    def test_minimal_payload_fills_defaults(self):
        task = parse_job(_payload())
        assert task.app == "health"
        assert task.scale == 1.0
        assert task.timeline_interval == 0

    def test_seed_defaults_to_app_seed(self):
        task = parse_job(_payload(app="mst"))
        assert task.seed == APP_SEEDS.get("mst", 1)

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse_job([1, 2, 3])

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown field"):
            parse_job(_payload(frobnicate=1))

    def test_missing_required_field_rejected(self):
        with pytest.raises(ProtocolError, match="missing required"):
            parse_job({"app": "health"})

    def test_unknown_app_rejected(self):
        with pytest.raises(ProtocolError, match="app"):
            parse_job(_payload(app="doom"))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ProtocolError, match="variant"):
            parse_job(_payload(variant="X"))

    @pytest.mark.parametrize("bad", [0, 3, 48, 8192, "32", True])
    def test_bad_line_size_rejected(self, bad):
        with pytest.raises(ProtocolError, match="line_size"):
            parse_job(_payload(line_size=bad))

    @pytest.mark.parametrize("bad", [0, -1, 100.0, "big", None])
    def test_bad_scale_rejected(self, bad):
        with pytest.raises(ProtocolError, match="scale"):
            parse_job(_payload(scale=bad))

    @pytest.mark.parametrize("bad", [-1, 1.5, "7", False])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(ProtocolError, match="seed"):
            parse_job(_payload(seed=bad))

    def test_bad_timeline_knobs_rejected(self):
        with pytest.raises(ProtocolError, match="timeline_interval"):
            parse_job(_payload(timeline_interval=-5))
        with pytest.raises(ProtocolError, match="events_capacity"):
            parse_job(_payload(events_capacity="lots"))

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ProtocolError, match="unknown mechanism"):
            parse_job(_payload(mechanism="teleporter"))

    def test_irrelevant_misspath_knob_rejected(self):
        # vc_entries without a victim cache in the pipeline.
        with pytest.raises(ProtocolError, match="only meaningful"):
            parse_job(_payload(vc_entries=16))
        with pytest.raises(ProtocolError, match="only meaningful"):
            parse_job(
                _payload(mechanism="victim_cache", sb_depth=8)
            )

    @pytest.mark.parametrize("bad", [0, -1, 2048, "8", True, 1.5])
    def test_out_of_range_misspath_knob_rejected(self, bad):
        with pytest.raises(ProtocolError, match="vc_entries"):
            parse_job(
                _payload(mechanism="victim_cache", vc_entries=bad)
            )

    def test_unknown_adapt_policy_rejected(self):
        with pytest.raises(ProtocolError, match="unknown policy"):
            parse_job(_payload(adapt_policy="oracle"))

    def test_adapt_knob_without_policy_rejected(self):
        with pytest.raises(ProtocolError, match="only meaningful"):
            parse_job(_payload(adapt_interval=1024))
        with pytest.raises(ProtocolError, match="only meaningful"):
            parse_job(_payload(adapt_epsilon=0.5))

    @pytest.mark.parametrize("bad", [0, 63, 1 << 21, "1024", True, 1.5])
    def test_out_of_range_adapt_interval_rejected(self, bad):
        with pytest.raises(ProtocolError, match="adapt_interval"):
            parse_job(
                _payload(adapt_policy="hysteresis", adapt_interval=bad)
            )

    @pytest.mark.parametrize("bad", [0, 65, True, "2"])
    def test_out_of_range_adapt_patience_rejected(self, bad):
        with pytest.raises(ProtocolError, match="adapt_patience"):
            parse_job(
                _payload(adapt_policy="hysteresis", adapt_patience=bad)
            )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, "high", True])
    def test_out_of_range_adapt_threshold_rejected(self, bad):
        with pytest.raises(ProtocolError, match="adapt_miss_rate_threshold"):
            parse_job(
                _payload(
                    adapt_policy="hysteresis", adapt_miss_rate_threshold=bad
                )
            )

    @pytest.mark.parametrize("bad", [-0.1, 1.5, "greedy", True])
    def test_out_of_range_adapt_epsilon_rejected(self, bad):
        with pytest.raises(ProtocolError, match="adapt_epsilon"):
            parse_job(
                _payload(adapt_policy="epsilon_greedy", adapt_epsilon=bad)
            )

    @pytest.mark.parametrize("bad", [100, 3000, 1 << 31, "64K", True])
    def test_bad_heatmap_region_rejected(self, bad):
        with pytest.raises(ProtocolError, match="heatmap_region"):
            parse_job(
                _payload(adapt_policy="hysteresis", heatmap_region=bad)
            )

    def test_heatmap_region_requires_timeline_or_adapt(self):
        with pytest.raises(ProtocolError, match="only meaningful"):
            parse_job(_payload(heatmap_region=4096))
        task = parse_job(
            _payload(timeline_interval=1000, heatmap_region=4096)
        )
        assert task.heatmap_region == 4096


class TestIdentity:
    def test_job_key_is_deterministic(self):
        a = parse_job(_payload(scale=0.5))
        b = parse_job(_payload(scale=0.5))
        assert job_key(a) == job_key(b)

    def test_job_key_tracks_every_field(self):
        base = job_key(parse_job(_payload()))
        assert job_key(parse_job(_payload(line_size=64))) != base
        assert job_key(parse_job(_payload(seed=12345))) != base
        assert job_key(parse_job(_payload(scale=0.5))) != base
        assert job_key(parse_job(_payload(timeline_interval=100))) != base

    def test_cell_id_and_task_round_trip(self):
        task = parse_job(_payload(line_size=64, scale=0.25))
        assert task.cell_id == "health/64B/N"
        assert (task.app, task.variant, task.line_size) == ("health", "N", 64)
        assert task.scale == 0.25

    def test_mechanism_separates_job_keys(self):
        base = parse_job(_payload())
        mech = parse_job(_payload(mechanism="victim_cache"))
        assert job_key(mech) != job_key(base)
        assert mech.cell_id == "health/32B/N/victim_cache"
        assert base.cell_id == "health/32B/N"
        sized = parse_job(_payload(mechanism="victim_cache", vc_entries=16))
        assert job_key(sized) != job_key(mech)

    def test_unused_knobs_pin_to_defaults_without_aliasing(self):
        # A knob the mechanism doesn't read can't be set, so every cell
        # carries the canonical default and identical work shares a key.
        explicit = parse_job(_payload(mechanism="victim_cache", vc_entries=8))
        implicit = parse_job(_payload(mechanism="victim_cache"))
        assert job_key(explicit) == job_key(implicit)
        assert implicit.mc_entries == 8 and implicit.sb_count == 4

    def test_mechanism_travels_into_task(self):
        task = parse_job(_payload(mechanism="combined", vc_entries=4, sb_count=2))
        assert task.mechanism == "combined"
        assert (task.vc_entries, task.sb_count) == (4, 2)
        assert task.sb_depth == 4  # pinned default

    def test_adapt_policy_separates_job_keys_and_cell_id(self):
        base = parse_job(_payload())
        adaptive = parse_job(_payload(adapt_policy="hysteresis"))
        assert job_key(adaptive) != job_key(base)
        assert adaptive.cell_id == "health/32B/N/hysteresis"
        assert base.cell_id == "health/32B/N"
        tuned = parse_job(_payload(adapt_policy="hysteresis", adapt_interval=4096))
        assert job_key(tuned) != job_key(adaptive)

    def test_adapt_knobs_pin_to_defaults_without_aliasing(self):
        explicit = parse_job(_payload(adapt_policy="hysteresis", adapt_interval=2048))
        implicit = parse_job(_payload(adapt_policy="hysteresis"))
        assert job_key(explicit) == job_key(implicit)

    def test_adapt_config_travels_into_task(self):
        task = parse_job(
            _payload(
                adapt_policy="epsilon_greedy",
                adapt_epsilon=0.25,
                adapt_interval=1024,
                seed=9,
            )
        )
        assert task.adapt is not None
        assert task.adapt.policy == "epsilon_greedy"
        assert task.adapt.epsilon == 0.25
        assert task.adapt.interval == 1024
        assert task.adapt.seed == 9  # engine RNG follows the job seed
        plain = parse_job(_payload())
        assert plain.adapt is None

    def test_default_heatmap_region_as_a_float_shares_the_key(self):
        plain = parse_job(_payload(timeline_interval=500))
        spelled = parse_job(_payload(timeline_interval=500, heatmap_region=65536.0))
        assert spelled == plain
        assert job_key(spelled) == job_key(plain)

    def test_heatmap_region_travels_into_task(self):
        task = parse_job(_payload(timeline_interval=500, heatmap_region=8192))
        assert task.heatmap_region == 8192


class TestOneCell:
    """A payload and the runner build the same cell from the same coordinates."""

    @pytest.mark.parametrize(
        "payload,knobs",
        [
            ({}, {}),
            (
                {"mechanism": "combined", "vc_entries": 4, "sb_count": 2},
                {"mechanism": "combined", "vc_entries": 4, "sb_count": 2},
            ),
            (
                {"adapt_policy": "threshold", "adapt_interval": 1024},
                {
                    "adapt": AdaptConfig(
                        "threshold", interval=1024, seed=APP_SEEDS["health"]
                    )
                },
            ),
        ],
        ids=["plain", "combined", "adaptive"],
    )
    def test_payload_and_runner_agree(self, payload, knobs):
        from_payload = parse_job(_payload(variant="L", scale=0.05, **payload))
        from_runner = make_task("health", Variant.L, 32, 0.05, **knobs)
        assert from_payload == from_runner
        assert job_key(from_payload) == job_key(from_runner)
        assert from_payload.key() == from_runner.key()
        assert from_payload.cell_id == from_runner.cell_id

    def test_adapt_defaults_come_from_adapt_config(self):
        task = parse_job(_payload(app="mst", adapt_policy="hysteresis"))
        assert task.adapt == AdaptConfig(
            policy="hysteresis", seed=APP_SEEDS["mst"]
        )
