"""Smoke tests of the benchmark itself, at 200 paths x 32 steps.

    python3 -m pytest perfbench -q

The verify suites keep their hard-coded grids, so the verify-suites smoke
still builds the 2048- and 512-step kernel tables (about a minute in all).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def run_bench(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["lq-mixed", "verify-suites", "paths-fine"])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    env = json.loads(lines[-2].removeprefix("env "))
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["numpy"]
    if trace == "0":
        for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb"):
            assert result["metrics"][name]["value"] > 0
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.coverage"] > 0
        assert metrics["fbm.kernel_weights_cold_s"] > 0
        run_dir = ROOT / ".perfbench_out" / "traces"
        newest = max(run_dir.glob(f"{workload}-s7-t1-*.jsonl"),
                     key=lambda p: p.stat().st_mtime)
        spans = [json.loads(ln) for ln in newest.read_text().splitlines()]
        assert {"name", "start", "end", "parent", "run_id", "self_time"} <= set(spans[0])


def test_self_time_subtracts_children():
    tr = Tracer("t")
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.records()
    assert a["parent"] == outer["id"] == b["parent"]
    assert outer["self_time"] == pytest.approx(
        outer["duration"] - a["duration"] - b["duration"])


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "lq-mixed", "--seed", "1", "--seconds", "1",
                     "--trace", "0", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
