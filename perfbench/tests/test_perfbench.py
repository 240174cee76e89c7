"""Self-tests of the benchmark: smoke runs, planted faults, accounting.

    python3 -m pytest perfbench -q      # from the root of a checkout

Each smoke run uses ``--scale smoke`` (a couple of tiny jobs per part)
and ``--seconds 1``, so the whole file takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import grids, layers, run
from repro.workloads.bfs import BfsParams, generate_graph

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def rep(workload, mode, tmp_path, seed=3):
    out = tmp_path / "rep.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    subprocess.run(
        [sys.executable, "perfbench/rep.py", "--workload", workload,
         "--seed", str(seed), "--mode", mode, "--scale", "smoke",
         "--work-dir", str(tmp_path / "work"), "--out", str(out)],
        cwd=ROOT, env=env, check=True, timeout=170,
    )
    return json.loads(out.read_text())


def test_workload_lists_agree():
    assert list(run.WORKLOADS) == list(grids.WORKLOADS) == WORKLOADS
    for workload in BENCH["workloads"]:
        assert workload["why"] == grids.WORKLOADS[workload["name"]].why


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc, result = bench("--workload", workload, "--seed", "7",
                         "--trace", "0", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"] and reported["value"] > 0
    for name in ("wall_s (raw", "failed_frac", "paper_err_pct"):
        assert name in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc, result = bench("--workload", workload, "--seed", "7",
                         "--trace", "1", "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    fractions = [v["value"] for k, v in metrics.items() if k.endswith(".self_frac")]
    assert sum(fractions) == pytest.approx(1.0)
    assert all(0 <= f <= 1 for f in fractions)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_setup_run_and_overhead_account_for_wall(workload, tmp_path):
    """Per part, (setup + host.run_s) / workers + overhead = part wall, up
    to the small driver-internal remainder (report building, result
    objects); the parts account for the workload's wall_s."""
    record = rep(workload, "traced", tmp_path)
    parts = record["parts"]
    assert [p["name"] for p in parts] == [
        p.name for p in grids.WORKLOADS[workload].parts]
    for part in parts:
        setup_run = part["build_s"] + part["install_s"] + part["run_s"]
        accounted = setup_run / part["workers"] + part["overhead_s"]
        assert accounted <= part["wall_s"] * 1.001
        assert accounted == pytest.approx(part["wall_s"], rel=0.1)
    assert record["overhead_s"] == pytest.approx(
        sum(part["overhead_s"] for part in parts))
    part_walls = sum(part["wall_s"] for part in parts)
    assert part_walls <= record["wall_s"]
    assert part_walls == pytest.approx(record["wall_s"], rel=0.1)


def test_planted_payload_mismatch_fails_the_run():
    proc, result = bench("--workload", "microbench", "--seed", "7",
                         "--scale", "smoke", "--plant", "payload")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "differs from reference" in proc.stdout


def test_corrupted_store_word_fails_the_run():
    proc, result = bench("--workload", "service_apps", "--seed", "7",
                         "--scale", "smoke", "--plant", "store")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] > 0
    assert "value words differ" in proc.stdout


def test_bfs_oracle_flags_a_wrong_distance(tmp_path):
    params = BfsParams(vertices=32, average_degree=4, seed=5)
    expected = layers.reference_bfs(generate_graph(params), params.source)
    assert expected[params.source] == 0 and min(expected) == 0
    probes = layers.Probes("oracle", tmp_path)
    job = {"polls": 0, "oracle_failures": [], "bfs": [(params, list(expected))]}
    probes._inspect(job)
    assert job["oracle_failures"] == []
    wrong = list(expected)
    wrong[-1] += 1
    job = {"polls": 0, "oracle_failures": [], "bfs": [(params, wrong)]}
    probes._inspect(job)
    assert job["oracle_failures"]


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("--workload", "microbench", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
