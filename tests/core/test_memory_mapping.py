"""Tagged memory is demand-zero, private, and costs only what is touched.

``TaggedMemory`` keeps its words and forwarding bits in private
anonymous mappings.  These tests pin the properties that choice is for:
a fresh machine's memory reads as zero without being paid for up front,
a forked child's writes stay in the child, and both Machine paths keep
their bounds checks over the views.  The value range and the raw bounds
checks are pinned in ``test_memory.py``.
"""

import gc
import os
from pathlib import Path

import pytest

from repro.core.errors import MemoryAccessError
from repro.core.machine import Machine, MachineConfig

STATM = Path("/proc/self/statm")
MIB = 1 << 20


def _rss_bytes() -> int:
    """Resident set size of this process, from ``/proc/self/statm``."""
    return int(STATM.read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_writes_stay_in_the_child():
    machine = Machine()
    address = machine.config.heap_base
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        ok = False
        try:
            machine.memory.write_word_tagged(address, 0xABCD, 1)
            ok = machine.memory.read_word(address) == 0xABCD
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert machine.memory.read_word(address) == 0
    assert machine.memory.read_fbit(address) == 0


@pytest.mark.skipif(not STATM.exists(), reason="needs /proc/self/statm")
def test_fresh_machine_costs_only_the_pages_it_touches():
    gc.collect()
    before = _rss_bytes()
    machine = Machine()
    built = _rss_bytes()
    assert built - before < 4 * MIB
    memory = machine.memory
    # One read on each of 1,000 pages spread over the whole memory: every
    # page reads as zero, and none of them becomes resident.
    stride = memory.word_count // 1000
    assert stride * 8 >= os.sysconf("SC_PAGE_SIZE")
    for index in range(0, stride * 1000, stride):
        assert memory.read_word(index * 8) == 0
        assert memory.read_fbit(index * 8) == 0
    assert memory.forwarded_word_count() == 0
    assert _rss_bytes() - before < 4 * MIB


@pytest.mark.parametrize("fast_path", [True, False], ids=["fast", "general"])
def test_out_of_range_reference_raises(fast_path):
    machine = Machine(MachineConfig(fast_path=fast_path))
    # A memoryview wraps a negative index; the bounds checks come first.
    for address in (machine.memory.size, -8):
        with pytest.raises(MemoryAccessError):
            machine.load(address)
        with pytest.raises(MemoryAccessError):
            machine.store(address, 1)
