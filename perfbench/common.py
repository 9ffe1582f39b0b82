"""Shared pieces of the benchmark: workload cells, digests, statistics.

Both the orchestrator (``run.py``) and the work processes (``work.py``)
import this module; it never imports ``repro`` itself, so the
orchestrator can generate cells and check results without loading the
simulator.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE / "spec.json"
#: Pinned workload digests by seed, written by ``pin.py``; a ``pins``
#: key in ``spec.json`` takes their place.
PINS_PATH = HERE / "pins.json"

#: The Figure-5 matrix: apps in paper order, each at its line sizes.
#: Mirrors ``repro.apps.FIGURE5_APPS`` / ``repro.experiments.config``;
#: ``work.py`` asserts the two agree before it runs anything.
FIGURE5_LINE_SIZES = {
    "health": (32, 64, 128),
    "mst": (32, 64, 128),
    "radiosity": (32, 64, 128),
    "vis": (32, 64, 128),
    "eqntott": (32, 64, 128),
    "bh": (64, 128, 256),
    "compress": (32, 64, 128),
}

#: The repository's canonical per-app seeds (``APP_SEEDS``), used for
#: benchmark seed 1 so that seed reproduces the paper-figure inputs.
CANONICAL_APP_SEEDS = {
    "health": 7,
    "mst": 3,
    "radiosity": 11,
    "vis": 5,
    "eqntott": 13,
    "bh": 17,
    "compress": 23,
}


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        spec = json.load(handle)
    if "pins" not in spec:
        spec["pins"] = json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
    return spec


def app_seeds(seed: int) -> dict[str, int]:
    """Per-app workload seeds generated from the benchmark seed."""
    if seed == 1:
        return dict(CANONICAL_APP_SEEDS)
    rng = random.Random(f"perfbench:{seed}")
    return {app: rng.randrange(1, 1 << 30) for app in FIGURE5_LINE_SIZES}


def make_cells(seed: int, scale: float, mechanism: str = "none") -> list[dict]:
    """The 42 Figure-5 cells (app x line size x {N, L}) for one seed."""
    seeds = app_seeds(seed)
    return [
        {
            "app": app,
            "variant": variant,
            "line_size": line_size,
            "scale": scale,
            "seed": seeds[app],
            "mechanism": mechanism,
        }
        for app, sizes in FIGURE5_LINE_SIZES.items()
        for line_size in sizes
        for variant in ("N", "L")
    ]


def cell_id(cell: dict) -> str:
    return f"{cell['app']}/{cell['line_size']}B/{cell['variant']}"


def cell_digest(checksum: int, tree: dict) -> str:
    """Digest of one cell's simulated outcome: checksum + metric tree.

    The tree is JSON round-tripped first so a tree read from an HTTP
    manifest (string histogram keys) and one built in process (integer
    keys) digest identically.
    """
    normalized = json.loads(json.dumps(tree))
    blob = json.dumps([checksum, normalized], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def workload_digest(digests: dict[str, str]) -> str:
    """One digest over every cell's digest, independent of cell order."""
    blob = json.dumps(sorted(digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def flatten(tree: dict, prefix: str = "") -> dict[str, float]:
    """Dotted-name view of a metric tree's numeric leaves."""
    out: dict[str, float] = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)):
            out[name] = value
    return out


def sim_counts(flat: dict[str, float]) -> dict[str, float]:
    """The ``sim.*`` per-layer counts from a (summed) flat metric tree."""

    def get(name: str) -> float:
        return flat.get(name, 0)

    return {
        "sim.refs": get("ref.load.count") + get("ref.store.count"),
        "sim.instructions": get("core.instructions"),
        "sim.cycles": get("time.cycles"),
        "sim.fwd_refs": get("ref.load.forwarded") + get("ref.store.forwarded"),
        "sim.l1_full_miss": get("cache.l1.miss.load_full")
        + get("cache.l1.miss.store_full"),
        "sim.l2_miss": get("cache.l2.miss.total"),
        "sim.misspath_absorbed": get("cache.misspath.hits"),
    }


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1), linear between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mib() -> float:
    """Peak resident set of this process, in MiB.

    Reads the kernel's high-water mark (``VmHWM`` in ``/proc/self/
    status``).  Sampling ``statm`` misses the short allocation spikes of
    machine construction, and ``ru_maxrss`` carries the high-water mark
    a forked child inherits from its parent; work processes are started
    fresh (fork + exec), so their mark is their own.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def now() -> float:
    """A clock shared across processes (CLOCK_MONOTONIC is system-wide)."""
    return time.monotonic()
