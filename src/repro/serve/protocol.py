"""Request protocol of the simulation service: parsing, validation, keys.

A job payload is the wire-level description of one simulation cell,
arriving as a JSON object; :func:`parse_job` turns it into the
:class:`~repro.trace.sweep.SweepTask` the rest of the program runs.
Parsing is strict: unknown fields, unknown apps, variants an app cannot
run, and out-of-range numbers are all rejected with a message naming
the offending field, so a misdirected client learns what it sent
instead of what the simulator crashed on.  A knob the payload leaves
out takes its default from :class:`SweepTask` or
:class:`~repro.adapt.config.AdaptConfig`.

Each cell has a deterministic **job key** (:func:`job_key`) -- the
SHA-256 of its canonical JSON.  The key is what the service coalesces
on: two requests with the same key are the same simulation by
construction (the trace key and machine-config fingerprint downstream
are both functions of the cell), so they share one job, one queue slot,
and one result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.adapt.config import (
    DEFAULT_HEATMAP_REGION,
    MAX_COOLDOWN,
    MAX_INTERVAL,
    MAX_PATIENCE,
    MIN_INTERVAL,
    POLICIES,
    AdaptConfig,
)
from repro.apps import APPLICATIONS
from repro.apps.base import Variant
from repro.cache.misspath import KNOB_MECHANISMS, MECHANISMS
from repro.experiments.config import APP_SEEDS
from repro.trace.sweep import SweepTask

#: The adaptive-engine knobs: ``adapt_<name>`` sets ``AdaptConfig.<name>``.
#: Each is rejected without ``adapt_policy``.
ADAPT_KNOBS = (
    "adapt_interval",
    "adapt_miss_rate_threshold",
    "adapt_chase_rate_threshold",
    "adapt_patience",
    "adapt_cooldown",
    "adapt_epsilon",
)

#: Fields a job payload may carry; everything else is rejected.
_FIELDS = {
    "app",
    "variant",
    "line_size",
    "scale",
    "seed",
    "timeline_interval",
    "events_capacity",
    "mechanism",
    *KNOB_MECHANISMS,
    "adapt_policy",
    *ADAPT_KNOBS,
    "heatmap_region",
}

_REQUIRED = {"app", "variant", "line_size"}

#: Guardrails on numeric knobs -- the service is long-lived and shared,
#: so one absurd request must not monopolise a worker for hours.
MAX_SCALE = 4.0
MAX_LINE_SIZE = 4096
MAX_MISSPATH_ENTRIES = 1024


class ProtocolError(ValueError):
    """A job payload failed validation (maps to HTTP 400)."""


def _fail(field: str, message: str) -> None:
    raise ProtocolError(f"{field}: {message}")


def parse_job(payload: object) -> SweepTask:
    """Parse and validate a decoded JSON request body into its cell."""
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    unknown = set(payload) - _FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown field(s) {sorted(unknown)}; "
            f"allowed: {sorted(_FIELDS)}"
        )
    missing = _REQUIRED - set(payload)
    if missing:
        raise ProtocolError(f"missing required field(s) {sorted(missing)}")

    app = payload["app"]
    if app not in APPLICATIONS:
        _fail("app", f"unknown app {app!r}; known: {sorted(APPLICATIONS)}")
    variant = payload["variant"]
    valid_variants = {v.value for v in Variant}
    if not isinstance(variant, str) or variant not in valid_variants:
        _fail(
            "variant",
            f"unknown variant {variant!r}; known: {sorted(valid_variants)}",
        )
    line_size = payload["line_size"]
    if (
        isinstance(line_size, bool)
        or not isinstance(line_size, int)
        or line_size < 4
        or line_size > MAX_LINE_SIZE
        or line_size & (line_size - 1)
    ):
        _fail(
            "line_size",
            f"must be a power-of-two int in [4, {MAX_LINE_SIZE}], "
            f"got {line_size!r}",
        )
    scale = payload.get("scale", 1.0)
    if (
        isinstance(scale, bool)
        or not isinstance(scale, (int, float))
        or not scale > 0
        or scale > MAX_SCALE
    ):
        _fail("scale", f"must be a number in (0, {MAX_SCALE}], got {scale!r}")
    seed = payload.get("seed", APP_SEEDS.get(app, 1))
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        _fail("seed", f"must be a non-negative integer, got {seed!r}")
    for knob in ("timeline_interval", "events_capacity"):
        value = payload.get(knob, 0)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            _fail(knob, f"must be a non-negative integer, got {value!r}")
    mechanism = payload.get("mechanism", "none")
    if not isinstance(mechanism, str) or mechanism not in MECHANISMS:
        _fail(
            "mechanism",
            f"unknown mechanism {mechanism!r}; known: {list(MECHANISMS)}",
        )
    # A sizing knob the mechanism does not read is *rejected* when
    # supplied, and an omitted one keeps SweepTask's default, so two
    # payloads that mean the same simulation can never produce distinct
    # job keys (and thus duplicate jobs) through an ignored field.
    sizes = {}
    for knob, users in KNOB_MECHANISMS.items():
        if knob not in payload:
            continue
        if mechanism not in users:
            _fail(
                knob,
                f"only meaningful with mechanism in {list(users)}, "
                f"got mechanism={mechanism!r}",
            )
        value = payload[knob]
        if (
            isinstance(value, bool)
            or not isinstance(value, int)
            or value < 1
            or value > MAX_MISSPATH_ENTRIES
        ):
            _fail(
                knob,
                f"must be an integer in [1, {MAX_MISSPATH_ENTRIES}], "
                f"got {value!r}",
            )
        sizes[knob] = value

    adapt_policy = payload.get("adapt_policy")
    if adapt_policy is not None and (
        not isinstance(adapt_policy, str) or adapt_policy not in POLICIES
    ):
        _fail(
            "adapt_policy",
            f"unknown policy {adapt_policy!r}; known: {list(POLICIES)}",
        )
    # Same key-stability rule: AdaptConfig supplies each omitted knob.
    given = {}
    for knob in ADAPT_KNOBS:
        if knob not in payload:
            continue
        if adapt_policy is None:
            _fail(knob, "only meaningful with adapt_policy set")
        value = payload[knob]
        if knob == "adapt_interval":
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or not MIN_INTERVAL <= value <= MAX_INTERVAL
            ):
                _fail(
                    knob,
                    f"must be an integer in [{MIN_INTERVAL}, "
                    f"{MAX_INTERVAL}], got {value!r}",
                )
        elif knob in ("adapt_patience", "adapt_cooldown"):
            bound = MAX_PATIENCE if knob == "adapt_patience" else MAX_COOLDOWN
            floor = 1 if knob == "adapt_patience" else 0
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or not floor <= value <= bound
            ):
                _fail(
                    knob,
                    f"must be an integer in [{floor}, {bound}], "
                    f"got {value!r}",
                )
        elif knob == "adapt_epsilon":
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 <= value <= 1.0
            ):
                _fail(knob, f"must be a number in [0, 1], got {value!r}")
            value = float(value)
        else:  # the two rate thresholds
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0.0 < value <= 1.0
            ):
                _fail(knob, f"must be a number in (0, 1], got {value!r}")
            value = float(value)
        given[knob.removeprefix("adapt_")] = value

    heatmap_region = payload.get("heatmap_region", DEFAULT_HEATMAP_REGION)
    if heatmap_region != DEFAULT_HEATMAP_REGION:
        if (
            isinstance(heatmap_region, bool)
            or not isinstance(heatmap_region, int)
            or heatmap_region < 1024
            or heatmap_region > (1 << 30)
            or heatmap_region & (heatmap_region - 1)
        ):
            _fail(
                "heatmap_region",
                "must be a power-of-two int in [1024, 2**30], "
                f"got {heatmap_region!r}",
            )
        if payload.get("timeline_interval", 0) == 0 and adapt_policy is None:
            _fail(
                "heatmap_region",
                "only meaningful with timeline_interval or adapt_policy",
            )

    return SweepTask(
        app=app,
        variant=variant,
        line_size=line_size,
        scale=float(scale),
        seed=seed,
        timeline_interval=payload.get("timeline_interval", 0),
        events_capacity=payload.get("events_capacity", 0),
        mechanism=mechanism,
        adapt=(
            None
            if adapt_policy is None
            else AdaptConfig(adapt_policy, seed=seed, **given)
        ),
        # The default passes unchecked, 65536.0 included: pin it to the
        # int, or two equal cells would carry two job keys.
        heatmap_region=int(heatmap_region),
        **sizes,
    )


def job_key(task: SweepTask) -> str:
    """Coalescing identity: SHA-256 of the cell's canonical JSON.

    Two payloads with the same key describe the same simulation --
    every cache key downstream (trace key, config fingerprint) is a
    function of the cell's fields.
    """
    canonical = json.dumps(asdict(task), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
