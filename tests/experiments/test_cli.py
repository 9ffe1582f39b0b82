"""Tests for the ``python -m repro`` command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _run_in_tmp_path(tmp_path, monkeypatch):
    """Each test runs in its own directory, so the CLI's default
    ``--trace-dir results/trace-cache`` lands there, not in the checkout
    (where it would persist, and could answer a later run's cells)."""
    monkeypatch.chdir(tmp_path)


class TestCLI:
    def test_single_artifact(self, capsys):
        assert main(["table1", "--scale", "0.1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "health" in out

    def test_extension_artifact(self, capsys):
        assert main(["out-of-core", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "page faults" in out
        assert "speedup" in out

    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure99"])
        assert "unknown artifact" in capsys.readouterr().err

    def test_multiple_artifacts_share_runner(self, capsys):
        assert main(["figure10", "table1", "--scale", "0.1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10(a)" in out
        assert "Table 1" in out


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["write", "flush"])
    def test_no_traceback_when_the_reader_is_gone(self, tmp_path, unbuffered):
        """stdout is a pipe whose read end is already closed (``| head``
        after head exits): the run exits 1 with nothing on stderr, whether
        the failure comes at a write or at the final flush."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "corpus", "ls",
                 "--trace-dir", str(tmp_path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1


class TestTimelineCLI:
    @pytest.fixture(scope="class")
    def sampled_manifest_path(self, tmp_path_factory):
        """One figure10 manifest produced with sampling on, saved to disk."""
        from repro.experiments import ExperimentRunner, figure10

        runner = ExperimentRunner(scale=0.1, timeline_interval=1000)
        result = figure10.run(runner, scale=0.1)
        manifest = figure10.manifest(result, runner)
        path = tmp_path_factory.mktemp("timeline") / "figure10.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_flags_produce_timeline_section(self, capsys):
        assert main([
            "figure10", "--scale", "0.1", "--quiet", "--format", "json",
            "--timeline", "--sample-interval", "1000",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        cells = payload["figure10"]["timeline"]["cells"]
        assert cells, "sampled run must emit timeline cells"
        for cell in cells.values():
            assert cell["sample_interval"] == 1000
            assert cell["window_count"] >= 1

    def test_timeline_section_absent_by_default(self, capsys):
        assert main([
            "figure10", "--scale", "0.1", "--quiet", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "timeline" not in payload["figure10"]

    def test_diff_self_is_clean(self, capsys, sampled_manifest_path):
        path = str(sampled_manifest_path)
        assert main(["timeline", "diff", path, path]) == 0
        assert "no per-window regressions" in capsys.readouterr().out

    def test_diff_flags_regression_nonzero(self, capsys, sampled_manifest_path, tmp_path):
        manifest = json.loads(sampled_manifest_path.read_text())
        for cell in manifest["timeline"]["cells"].values():
            cell["windows"]["miss_rate"] = [
                value * 2 + 0.01 for value in cell["windows"]["miss_rate"]
            ]
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(manifest))
        assert main(["timeline", "diff", str(sampled_manifest_path), str(worse)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_export_chrome_trace(self, sampled_manifest_path, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "timeline", "export", str(sampled_manifest_path), "--out", str(out),
        ]) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"], "trace must not be empty"
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert "C" in phases and "M" in phases

    def test_export_csv_cell(self, capsys, sampled_manifest_path):
        manifest = json.loads(sampled_manifest_path.read_text())
        cell_id = next(iter(manifest["timeline"]["cells"]))
        assert main([
            "timeline", "export", str(sampled_manifest_path), "--csv", cell_id,
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("window,refs,cycles")

    def test_export_unknown_cell_rejected(self, capsys, sampled_manifest_path):
        with pytest.raises(SystemExit):
            main([
                "timeline", "export", str(sampled_manifest_path),
                "--csv", "nope/0B/X",
            ])
        assert "no timeline cell" in capsys.readouterr().err

    def test_bad_sample_interval_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure10", "--timeline", "--sample-interval", "0"])
        assert "--sample-interval" in capsys.readouterr().err


class TestPointerCompareAblation:
    def test_safe_comparison_costs_more_per_op(self):
        from repro.experiments.ablations import pointer_compare_overhead

        result = pointer_compare_overhead(comparisons=500)
        raw = float(result.rows[0][1])
        safe = float(result.rows[1][1])
        # Per-comparison cost is higher -- the paper's point is that the
        # *program-level* overhead is small because the compiler only
        # rewrites comparisons that may involve relocated objects.
        assert safe > raw
        assert "+" in result.rows[1][2]


class TestCLIErrorPaths:
    """Every user-facing failure: one-line message, nonzero exit, no traceback."""

    def test_unknown_artifact_mentions_subcommands(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blorp"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown artifact" in err
        assert "serve" in err and "timeline" in err

    def test_scale_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--scale", "0"])
        assert excinfo.value.code == 2
        assert "--scale must be > 0" in capsys.readouterr().err

    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_sample_interval_requires_timeline(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--sample-interval", "500"])
        assert excinfo.value.code == 2
        assert "--timeline" in capsys.readouterr().err

    def test_events_capacity_requires_events(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--events-capacity", "16"])
        assert excinfo.value.code == 2
        assert "--events" in capsys.readouterr().err

    def test_timeline_diff_missing_file_is_one_line(self, capsys):
        assert main(["timeline", "diff", "/no/such/a.json", "/no/such/b.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read manifest")
        assert "Traceback" not in err

    def test_timeline_export_corrupt_json_is_one_line(self, capsys, tmp_path):
        bad = tmp_path / "corrupt.json"
        bad.write_text("{not json")
        assert main(["timeline", "export", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_timeline_non_object_manifest_rejected(self, capsys, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        assert main(["timeline", "export", str(bad)]) == 2
        assert "not a manifest" in capsys.readouterr().err

    def test_serve_bad_flags_exit_nonzero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", "-1"])
        assert excinfo.value.code == 2
        assert "--workers must be >= 0" in capsys.readouterr().err

    def test_unknown_mechanism_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["misspath", "--mechanism", "teleporter"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown --mechanism" in err
        assert "victim_cache" in err

    def test_irrelevant_knob_rejected(self, capsys):
        # --vc-entries without a mechanism that has a victim cache.
        with pytest.raises(SystemExit) as excinfo:
            main(["misspath", "--vc-entries", "16"])
        assert excinfo.value.code == 2
        assert "--vc-entries only makes sense" in capsys.readouterr().err

    def test_knob_mechanism_mismatch_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "misspath", "--mechanism", "victim_cache",
                "--sb-depth", "8",
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--sb-depth only makes sense" in err
        assert "stream_buffers" in err

    def test_knob_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "misspath", "--mechanism", "stream_buffers",
                "--sb-depth", "0",
            ])
        assert excinfo.value.code == 2
        assert "--sb-depth must be >= 1" in capsys.readouterr().err

    def test_unknown_adapt_policy_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["adapt", "--adapt-policy", "oracle"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown --adapt-policy" in err
        assert "hysteresis" in err

    def test_adapt_policy_requires_adapt_artifact(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--adapt-policy", "hysteresis"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--adapt-policy only makes sense" in err

    def test_heatmap_region_power_of_two_enforced(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["adapt", "--heatmap-region", "3000"])
        assert excinfo.value.code == 2
        assert "power of two" in capsys.readouterr().err

    def test_heatmap_region_requires_timeline_or_adapt(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table1", "--scale", "0.1", "--heatmap-region", "4096"])
        assert excinfo.value.code == 2
        assert "--heatmap-region only makes sense" in capsys.readouterr().err
