"""A finished machine is freed by reference counting alone.

Each machine owns a large ``TaggedMemory``.  If anything the machine
owns referred back to it, every finished run would keep its memory alive
until the next full garbage-collection pass, and a sweep would hold many
of them at once.  These tests run applications with the collector off
and check that the memory is gone as soon as ``Application.run``
returns.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.apps import FIGURE5_APPS, Variant, get_application
from repro.experiments.config import APP_SEEDS, experiment_config


@pytest.fixture
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _run_watching_memory(app_name, variant, config):
    """Run one cell; returns weak references to its machine's memory.

    Both views and the two mappings under them are watched, so the
    mappings themselves must be unmapped with the run, not only their
    views dropped.
    """
    app = get_application(app_name, scale=0.02, seed=APP_SEEDS[app_name])
    watched = []
    execute = app.execute

    def watching_execute(machine, run_variant):
        memory = machine.memory
        watched.extend(
            weakref.ref(obj)
            for obj in (
                memory._words,
                memory._fbits,
                memory._words.obj,
                memory._fbits.obj,
            )
        )
        return execute(machine, run_variant)

    app.execute = watching_execute
    app.run(variant, config)
    return watched


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "general"])
def test_finished_runs_leave_no_live_memory(no_gc, fast_path):
    config = replace(experiment_config(32), fast_path=fast_path)
    memories = [
        memory
        for app_name in FIGURE5_APPS[:3]
        for variant in (Variant.N, Variant.L)
        for memory in _run_watching_memory(app_name, variant, config)
    ]
    assert [memory() for memory in memories] == [None] * len(memories)
