"""Tests of the benchmark itself, at a tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import common
from layers import LAYERS
from run import fastest_pass_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SCALE = 0.02


def checkout(tmp_path: Path, pins: dict | None = None, program: bool = True) -> Path:
    """A checkout as the benchmark sees one, its workloads at a tiny scale."""
    (tmp_path / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    spec = common.load_spec()
    for workload in spec["workloads"].values():
        workload["scale"] = TINY_SCALE
    spec["pins"] = pins or {}
    (tmp_path / "perfbench" / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    if program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def run_bench(root: Path, workload: str, trace: int = 0, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def bench(root: Path, workload: str, trace: int = 0, seed: int = 1) -> tuple[int, dict, dict]:
    proc = run_bench(root, workload, trace, seed)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) >= 2, proc.stderr
    return proc.returncode, json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_spec_matches_benchmark_json():
    spec = common.load_spec()
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert sorted(spec["workloads"]) == sorted(w["name"] for w in BENCHMARK["workloads"])
    assert set(spec["end_to_end_definitions"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(spec["layer_moves"]) == per_layer
    assert {f"{layer}_s" for layer in LAYERS} <= per_layer


def test_pins_cover_every_workload_and_replay_equals_direct():
    pins = common.load_spec()["pins"]
    assert "1" in pins
    for row in pins.values():
        assert sorted(row) == sorted(w["name"] for w in BENCHMARK["workloads"])
        assert row["fig5_direct"] == row["fig5_warm"] == row["serve_closed"]
        assert row["misspath_cold"] != row["fig5_direct"]


@pytest.mark.parametrize("workload", sorted(common.load_spec()["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_its_unit(tmp_path, workload, trace):
    code, meta, result = bench(checkout(tmp_path), workload, trace)
    assert code == 0 and result["correct"], meta
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_replay_digest_equals_direct_and_pins(tmp_path):
    root = checkout(tmp_path / "unpinned")
    _, direct, _ = bench(root, "fig5_direct")
    _, warm, _ = bench(root, "fig5_warm")
    assert direct["digest"] == warm["digest"]

    pinned = checkout(tmp_path / "pinned", {"1": {"fig5_warm": warm["digest"]}})
    code, meta, result = bench(pinned, "fig5_warm")
    assert code == 0 and result["failed"] == 0
    assert meta["output_check"] == "pinned workload digest"


def test_corrupted_pin_fails_every_cell(tmp_path):
    root = checkout(tmp_path, {"1": {"fig5_direct": "0" * 64}})
    code, _, result = bench(root, "fig5_direct")
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0  # failed_frac == 1


#: Layers each sweep workload must exercise (> 0) and must leave idle (0).
EXERCISED = {
    "fig5_direct": ({"apps.run_s", "obs.snapshot_s"},
                    {"kernels.run_s", "kernels.compile_s", "replay.general_s",
                     "recorder.capture_s", "replay.decode_s"}),
    "fig5_warm": ({"kernels.run_s", "kernels.compile_s", "replay.decode_s",
                   "store.trace_read_s", "store.result_write_s", "batch.self_s"},
                  {"apps.run_s", "replay.general_s", "recorder.capture_s"}),
    "misspath_cold": ({"recorder.capture_s", "format.seal_s", "replay.general_s",
                       "store.trace_write_s", "store.bytes_written",
                       "sim.misspath_absorbed"},
                      {"kernels.run_s", "kernels.compile_s", "apps.run_s"}),
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_layers_sum_to_wall_and_land_where_expected(tmp_path, workload):
    _, _, result = bench(checkout(tmp_path), workload, trace=1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    attributed = sum(metrics[f"{layer}_s"] for layer in LAYERS)
    total = attributed + metrics["trace.unattributed_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert attributed > 0.5 * metrics["trace.wall_s"]
    busy, idle = EXERCISED[workload]
    assert all(metrics[name] > 0 for name in busy), metrics
    assert all(metrics[name] == 0 for name in idle), metrics
    if workload == "fig5_warm":
        assert metrics["replay.sidecar_served"] == 1.0


def test_fastest_pass_takes_segment_minima():
    outs = [
        {"segments": [[1], [0]], "segment_ms": [10.0, 20.0], "tail_ms": 1.0},
        {"segments": [[1], [0]], "segment_ms": [90.0, 22.0], "tail_ms": 3.0},
        {"segments": [[1], [0]], "segment_ms": [12.0, 24.0], "tail_ms": 2.0},
    ]
    assert fastest_pass_ms(outs) == 10.0 + 20.0 + 1.0


def test_percentile_interpolates():
    assert common.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
    assert common.percentile([0.0, 10.0], 0.75) == 7.5


def test_missing_program_is_an_error(tmp_path):
    proc = run_bench(checkout(tmp_path, program=False), "fig5_direct")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
