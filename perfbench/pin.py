"""Regenerate the pinned workload digests the output check compares against.

Run from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-63

For each seed, the cells of every distinct (scale, mechanism) among the
workloads are run directly -- the oracle ``run.py`` otherwise runs in
set-up for a seed without a pin -- and each workload's digest is merged
into ``pins.json``.  Run it again, for every seed, after a change that is
meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys

import common
import run


def oracle_digest(spec: dict, workload: str, seed: int) -> str:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=0)
    bench = run.Bench(args, {**spec, "pins": {}})
    bench.scratch.mkdir(parents=True, exist_ok=True)
    try:
        return common.workload_digest(bench.spawn({"command": "reference"})["digests"])
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            bench.scratch.parent.rmdir()


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="a seed or a range, as 0-63")
    args = parser.parse_args(argv)
    spec = common.load_spec()
    pins = json.loads(common.PINS_PATH.read_text()) if common.PINS_PATH.is_file() else {}
    for seed in parse_seeds(args.seeds):
        by_inputs: dict[tuple, str] = {}
        row = {}
        for name, workload in sorted(spec["workloads"].items()):
            inputs = (workload["scale"], workload.get("mechanism", "none"))
            if inputs not in by_inputs:
                by_inputs[inputs] = oracle_digest(spec, name, seed)
            row[name] = by_inputs[inputs]
        pins[str(seed)] = row
        common.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: {row}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
