"""Property-based parity of the batch replay engine.

Random *config sets* -- mixed line sizes, replacement policies, OoO
windows, speculation on/off, and miss-path mechanisms -- replayed
through one decode, the way a batch group drives them, must produce
per-cell stats and aggregate metric trees bit-identical to driving
``replay_trace`` one cell at a time.  This is the hypothesis-shaped
version of the contract the integration suite pins app by app: here the
*machine space* is the random variable, on a fixed pair of small traces
(one without forwarded references, one with, so both speculation modes
of the specializer are exercised).
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.apps.base import Variant
from repro.experiments.config import experiment_config
from repro.trace import capture_trace, drive_sessions, replay_trace
from repro.trace.batch import GENERAL, session_for
from repro.trace.sweep import aggregate_metrics

SCALE = 0.03

_TRACES: dict = {}


def _trace(app, variant):
    """Capture-once cache (hypothesis re-enters the test many times)."""
    key = (app, variant)
    if key not in _TRACES:
        _TRACES[key], _ = capture_trace(
            app, variant, experiment_config(32), scale=SCALE, seed=1
        )
    return _TRACES[key]


#: One random machine-config cell.  ``mechanism`` is weighted toward
#: "none" (the specialized path); mechanism cells exercise the general
#: fallback inside the same batch.
CELLS = st.fixed_dictionaries(
    {
        "line_size": st.sampled_from([32, 64, 128]),
        "policy": st.sampled_from(["lru", "fifo", "random"]),
        "mechanism": st.sampled_from(
            ["none", "none", "none", "victim_cache", "stream_buffers"]
        ),
        "ooo_window": st.sampled_from([1.0, 8.0]),
        "speculate": st.booleans(),
    }
)


def _drive_together(trace, configs):
    """Every config's session through one decode of ``trace``.

    Returns ``[(result, engine)]`` in config order.
    """
    built = [session_for(trace, config) for config in configs]
    drive_sessions(trace, [session for session, _engine in built])
    return [(session.finish(), engine) for session, engine in built]


def _config(cell):
    config = experiment_config(cell["line_size"])
    config = replace(
        config,
        hierarchy=replace(
            config.hierarchy,
            policy=cell["policy"],
            mechanism=cell["mechanism"],
        ),
        timing=replace(config.timing, ooo_window=cell["ooo_window"]),
    )
    if not cell["speculate"]:
        config = replace(config, speculation_window=0)
    return config


class TestRandomConfigSets:
    @given(cells=st.lists(CELLS, min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_sequential_replay(self, cells):
        trace = _trace("health", Variant.N)
        configs = [_config(cell) for cell in cells]
        sequential = [replay_trace(trace, config) for config in configs]
        batched = []
        for cell, (result, engine) in zip(
            cells, _drive_together(trace, configs)
        ):
            if cell["mechanism"] != "none":
                assert engine == GENERAL
            batched.append(result)
        for reference, result in zip(sequential, batched):
            assert result.stats.dump() == reference.stats.dump()
        assert (
            aggregate_metrics(batched).flat()
            == aggregate_metrics(sequential).flat()
        )

    @given(cells=st.lists(CELLS, min_size=1, max_size=4))
    @settings(max_examples=10, deadline=None)
    def test_forwarded_trace_parity(self, cells):
        """The L variant's stream carries forwarded references, so the
        specializer's full speculation bookkeeping is on the line."""
        trace = _trace("health", Variant.L)
        configs = [_config(cell) for cell in cells]
        for config, (result, _engine) in zip(
            configs, _drive_together(trace, configs)
        ):
            reference = replay_trace(trace, config)
            assert result.stats.dump() == reference.stats.dump()
