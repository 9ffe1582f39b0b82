"""Differential test: a capture records the same trace on either path.

A capture is a direct run with the recorder as the sink on the
machine's entry stream: the fast path hands it drained pending chunks,
the general path hands it one entry at a time, and the recorder re-chunks
both at the format's chunk size.  So a ``fast_path=True`` capture and a
``fast_path=False`` capture of the same cell must seal the same stream
-- same digest, same content hash, same entry count -- and report the
same statistics, for every application and variant.
"""

import pytest

from repro.apps import FIGURE5_APPS, get_application
from repro.core.machine import MachineConfig
from repro.experiments.config import APP_SEEDS
from repro.trace.recorder import capture_trace

#: Small workloads; the L variants still forward references, so both
#: paths emit forwarded entries through the general path.
CAPTURE_SCALE = 0.05


def _cases():
    for app_name in FIGURE5_APPS:
        for variant in get_application(app_name).variants():
            yield pytest.param(app_name, variant, id=f"{app_name}-{variant.value}")


def _capture(app_name, variant, fast):
    return capture_trace(
        app_name,
        variant,
        MachineConfig(fast_path=fast),
        CAPTURE_SCALE,
        APP_SEEDS[app_name],
    )


@pytest.mark.parametrize("app_name,variant", _cases())
def test_fast_and_general_captures_agree(app_name, variant):
    fast_trace, fast = _capture(app_name, variant, fast=True)
    general_trace, general = _capture(app_name, variant, fast=False)
    assert fast_trace.stream_sha256 == general_trace.stream_sha256
    assert fast_trace.content_hash == general_trace.content_hash
    assert fast_trace.event_count == general_trace.event_count
    assert fast.stats.dump() == general.stats.dump()
    assert fast.checksum == general.checksum
