"""Smoke test of the benchmark harness at a tiny input scale.

Runs every workload untraced and traced through ``bench/run.py --scale
smoke``, checks that each run passes its own correctness gate and prints
exactly the metrics ``BENCHMARK.json`` names, with their units, and checks
that a traced run puts every wrapped module attribute back.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import inputs
import run
import tracing
import worker

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload):
    spec = declared()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        start = time.perf_counter()
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - start < 60
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0 and result["attempted"] >= 2
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        report = "\n".join(lines[:-1])
        for name, (unit, _) in run.FIGURES.items():
            assert any(l.split()[:1] == [name] and l.split()[-1] == unit
                       for l in report.splitlines()), name
        assert "failed_frac" in report


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import targetcodes as tc

    targets = [(tracing.resolve_owner(tc, owner), attr)
               for _, owner, attr, _ in tracing.SPANS]
    targets += [(tracing.resolve_owner(tc, owner), attr) for _, owner, attr in tracing.COUNTS]
    targets.append((tc.trainer, "evaluate"))
    before = [getattr(owner, attr) for owner, attr in targets]
    generated = inputs.generate(inputs.PAPER_LTC, inputs.SMOKE, 3, str(tmp_path / "inputs"))
    spec = {"workload": inputs.PAPER_LTC, "scale": inputs.SMOKE, "seed": 3,
            "src": os.path.join(ROOT, "src"), "files": generated["files"], "trace": True,
            "out_dir": str(tmp_path / "rep"), "spans": str(tmp_path / "spans.jsonl")}
    result = worker.run(spec, time.perf_counter())
    after = [getattr(owner, attr) for owner, attr in targets]
    assert all(a is b for a, b in zip(after, before))
    assert result["trace"]["names"]["network.forward"]["calls"] > 0
    with open(spec["spans"]) as fh:
        spans = [json.loads(line) for line in fh]
    assert spans and all(s["parent"] < s["id"] for s in spans)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, inputs.DESK_SWEEP, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
