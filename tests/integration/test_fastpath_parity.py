"""Differential test: the fast path is bit-exact vs. the general path.

The fast path defers the per-reference cost pipeline -- L1/L2 probes,
MSHR combining, timing update, latency stats, speculation check -- to
pending chunks costed by the generated kernel of
:mod:`repro.core.kernel`.  Its contract is that a run with
``fast_path=True`` produces *exactly* the same
:class:`~repro.core.stats.MachineStats` snapshot and application checksum
as the reference component-by-component path (``fast_path=False``),
including every float, for every application and variant.

``stats.dump()`` is the lossless nested-dict snapshot, so comparing the
dumps compares every counter and every accumulated float bit-for-bit.
"""

import pytest

from repro.apps import FIGURE5_APPS, get_application
from repro.cache.hierarchy import HierarchyConfig
from repro.core.machine import MachineConfig
from repro.experiments.config import APP_SEEDS, line_sizes_for

#: Small but non-trivial workloads: large enough to exercise L2 misses,
#: MSHR stalls, evictions with inclusion invalidations, and (in the L
#: variants) forwarded references that fall back to the general path.
PARITY_SCALE = 0.1


def _parity_cases():
    for app_name in FIGURE5_APPS:
        app = get_application(app_name, scale=PARITY_SCALE, seed=APP_SEEDS[app_name])
        sizes = line_sizes_for(app_name)
        for variant in app.variants():
            for line_size in (sizes[0], 128):
                yield pytest.param(
                    app_name, variant, line_size,
                    id=f"{app_name}-{variant.value}-{line_size}B",
                )


def _run(app_name, variant, line_size, fast):
    app = get_application(app_name, scale=PARITY_SCALE, seed=APP_SEEDS[app_name])
    config = MachineConfig(
        hierarchy=HierarchyConfig(line_size=line_size),
        fast_path=fast,
    )
    result = app.run(variant, config)
    return result.stats.dump(), result.checksum


@pytest.mark.parametrize("app_name,variant,line_size", _parity_cases())
def test_fast_path_matches_general_path(app_name, variant, line_size):
    fast_stats, fast_checksum = _run(app_name, variant, line_size, fast=True)
    general_stats, general_checksum = _run(app_name, variant, line_size, fast=False)
    assert fast_checksum == general_checksum
    assert fast_stats == general_stats


def test_fast_path_is_the_default():
    assert MachineConfig().fast_path is True
