"""Benchmark for ``targetcodes``: one workload per invocation.

Usage, from the repository root::

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (untimed), then the
workload is repeated, each repeat in a fresh worker process, until
``--seconds`` have passed (and at least twice, so that repeats can be
compared). Every repeat is checked: it must exit cleanly and produce the
same output digests as the other repeats; training workloads must reach
the top-1 floor, and eval-retrieval must keep Recall@K monotone in K and
its checkpoint bytes through a save/load round trip. A human-readable
report goes to stdout, and its last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repeats). With ``--trace 1`` untraced and traced repeats alternate; the
metrics are per-layer figures from the traced repeats' spans, process
figures from the untraced ones, and the trace overhead. The first traced
repeat's spans are kept as JSON lines in the run's output directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Fixed for every run, on every commit, so that BLAS threading never differs
# between the two sides of a comparison.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_REPEATS = 2
DEADLINE_S = 170.0

# name -> (unit, better). Every workload reports each of these.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "eval_samples_per_s": ("samples/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# Figures that only some workloads have, so they are neither end-to-end nor
# per-layer metrics (both must be reported by every workload). Every report
# prints them, "n/a" where they do not apply.
FIGURES = {
    "train_samples_per_s": ("samples/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p99": ("ms", "lower"),
    "final_top1": ("fraction", "higher"),
    "retrieval_queries_per_s": ("queries/s", "higher"),
}

# metric -> (span name, summary field, unit, better)
SPAN_METRICS = {
    "core.rng_normals.calls": ("core.rng_normals", "calls", "count", "lower"),
    "core.rng_normals.s": ("core.rng_normals", "s", "s", "lower"),
    "core.rng_normals.draws": ("core.rng_normals", "size", "count", "lower"),
    "core.rng_shuffle.s": ("core.rng_shuffle", "s", "s", "lower"),
    "data.load_csv.s": ("data.load_csv", "s", "s", "lower"),
    "data.load_csv.rows": ("data.load_csv", "size", "count", "lower"),
    "data.batches.s": ("data.batches", "s", "s", "lower"),
    "network.init_model.s": ("network.init_model", "s", "s", "lower"),
    "network.forward.calls": ("network.forward", "calls", "count", "lower"),
    "network.forward.rows": ("network.forward", "size", "count", "lower"),
    "network.forward.s": ("network.forward", "s", "s", "lower"),
    "network.backward.s": ("network.backward", "s", "s", "lower"),
    "network.sgd_step.s": ("network.sgd_step", "s", "s", "lower"),
    "network.save_checkpoint.s": ("network.save_checkpoint", "s", "s", "lower"),
    "network.save_checkpoint.bytes": ("network.save_checkpoint", "size", "B", "lower"),
    "network.load_checkpoint.s": ("network.load_checkpoint", "s", "s", "lower"),
    "losses.cross_entropy.s": ("losses.cross_entropy", "s", "s", "lower"),
    "losses.mse_codes.s": ("losses.mse_codes", "s", "s", "lower"),
    "losses.triplet_global.s": ("losses.triplet_global", "s", "s", "lower"),
    "losses.corr_consistency.s": ("losses.corr_consistency", "s", "s", "lower"),
    "losses.compose_objective.s": ("losses.compose_objective", "s", "s", "lower"),
    "codes.activate.calls": ("codes.activate", "calls", "count", "lower"),
    "codes.activate.s": ("codes.activate", "s", "s", "lower"),
    "codes.ste_backward.s": ("codes.ste_backward", "s", "s", "lower"),
    "codes.update_codes.s": ("codes.update_codes", "s", "s", "lower"),
    "codes.init.s": ("codes.init", "s", "s", "lower"),
    "trainer.train.self_s": ("trainer.train", "self_s", "s", "lower"),
    "trainer.evaluate.s": ("trainer.evaluate", "s", "s", "lower"),
    "trainer.export_code_correlation.s": ("trainer.export_code_correlation", "s", "s", "lower"),
    "trainer.retrieval_eval.s": ("trainer.retrieval_eval", "s", "s", "lower"),
}

LAYER_FIELDS = {"calls": ("count", "lower"), "busy_s": ("s", "lower"), "self_s": ("s", "lower")}


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run: name -> (unit, better)."""
    units = {name: (unit, better) for name, (_, _, unit, better) in SPAN_METRICS.items()}
    for layer in tracing.LAYERS:
        for field, spec in LAYER_FIELDS.items():
            units[f"{layer}.{field}"] = spec
    units["core.validate.calls_per_step"] = ("calls/step", "lower")
    units["process.cpu_s"] = ("s", "lower")
    units["process.blas_threads"] = ("count", "lower")
    units["trace.overhead_frac"] = ("fraction", "lower")
    return units


PER_LAYER = per_layer_units()


# --- statistics ---------------------------------------------------------------

def nearest_rank(values, q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(values, better: str):
    """The highest percentile with at least ten samples beyond it, on the
    bad side of the metric, as (label, value); None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    if better == "higher":
        return f"p{math.ceil(100 * 10 / n)}", sorted(values)[10]
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# --- running repeats ------------------------------------------------------------

class Repeat:
    """One worker process running one repeat of the workload."""

    def __init__(self, root, run_dir, index, traced, base_spec):
        self.traced = traced
        self.rep_dir = os.path.join(run_dir, f"rep{index}")
        # The first traced repeat keeps its spans; later ones only summarize.
        spans = os.path.join(run_dir, "spans.jsonl") if traced and index == 1 else None
        spec = dict(base_spec, trace=traced, out_dir=self.rep_dir, spans=spans)
        spec_path = os.path.join(run_dir, f"spec-rep{index}.json")
        self.result_path = os.path.join(run_dir, f"result-rep{index}.json")
        self.stderr_path = os.path.join(run_dir, f"stderr-rep{index}.txt")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        env = dict(os.environ, **THREAD_ENV)
        env.pop("PYTHONPATH", None)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, self.result_path]
        with open(self.stderr_path, "w") as err:
            self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                                         stderr=err)

    def finish(self, timeout: float) -> dict:
        """Wait up to ``timeout`` seconds, killing the process after that;
        return its result or a failure record."""
        error = None
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            error = f"killed after {timeout:.0f} s"
        shutil.rmtree(self.rep_dir, ignore_errors=True)
        if error is None and self.proc.returncode != 0:
            with open(self.stderr_path) as fh:
                lines = fh.read().strip().splitlines() or ["(no stderr)"]
            error = f"exit {self.proc.returncode}: {lines[-1]}"
        if error is not None:
            return {"traced": self.traced, "error": error}
        with open(self.result_path) as fh:
            result = json.load(fh)
        result["traced"] = self.traced
        return result


def run_repeats(root, run_dir, base_spec, seconds, trace, started) -> list[dict]:
    """Run repeats one after another until ``seconds`` have passed and at
    least MIN_REPEATS ran. With tracing, every second repeat is traced. A
    repeat still running at the deadline is killed and counts as failed."""
    results = []
    measure_start = time.perf_counter()
    while time.perf_counter() - measure_start < seconds or len(results) < MIN_REPEATS:
        budget = DEADLINE_S - (time.perf_counter() - started)
        if budget < 5.0:
            break
        index = len(results)
        rep = Repeat(root, run_dir, index, bool(trace) and index % 2 == 1, base_spec)
        results.append(rep.finish(budget))
    return results


def check_repeat(result, reference, top1_floor) -> list[str]:
    """Reasons this repeat counts as failed; empty when it passed."""
    if "error" in result:
        return [result["error"]]
    problems = []
    for leg, out in result["legs"].items():
        if reference is not None and out["digests"] != reference["legs"][leg]["digests"]:
            changed = [n for n, d in out["digests"].items()
                       if d != reference["legs"][leg]["digests"].get(n)]
            problems.append(f"{leg}: digest differs from the first passing repeat "
                            f"({', '.join(changed)})")
        recall_at = out.get("recall_at", {})
        recall = [recall_at[k] for k in sorted(recall_at, key=int)]
        if any(b < a for a, b in zip(recall, recall[1:])):
            problems.append(f"{leg}: Recall@K not monotone in K: {recall}")
        if leg == "ltc" and out["top1"] < top1_floor:
            problems.append(f"{leg}: final top-1 {out['top1']:.4f} below floor {top1_floor}")
        if out.get("roundtrip_equal") is False:
            problems.append(f"{leg}: checkpoint save/load round trip changed the bytes")
    return problems


# --- metrics ----------------------------------------------------------------------

def samples(reps) -> dict[str, list[float]]:
    """Samples of every end-to-end metric and figure over untraced repeats:
    one per repeat for run time, memory, training throughput and top-1; one
    per call for set-up, evaluation and retrieval; one per step for step
    latency. A figure a workload lacks gets an empty list."""
    trained = [r for r in reps if r["steps"]]
    steps = [s for r in trained for s in r["step_ms"]]
    return {
        "run_s": [r["run_s"] for r in reps],
        "setup_s": [s for r in reps for s in r["setup_s"]],
        "eval_samples_per_s": [v for r in reps for v in r["eval_rates"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "train_samples_per_s": [ratio(r["train_rows"], r["train_s"]) for r in trained],
        "step_ms_p50": steps,
        "step_ms_p99": steps,
        "final_top1": [r["legs"]["ltc"]["top1"] for r in trained if "ltc" in r["legs"]],
        "retrieval_queries_per_s": [v for r in reps for v in r["retrieval_rates"]],
    }


def central(name, values) -> float:
    """The reported value: the named percentile for step latency, else the
    median."""
    if name == "step_ms_p50":
        return nearest_rank(values, 0.50)
    if name == "step_ms_p99":
        return nearest_rank(values, 0.99)
    return statistics.median(values)


def per_layer(untraced, traced) -> dict[str, float]:
    """Per-layer metrics: medians over traced repeats of span figures,
    process figures from untraced repeats, and the tracing overhead."""
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for r in traced:
        summary = r["trace"]
        for name, (span, field, _, _) in SPAN_METRICS.items():
            values[name].append(summary["names"].get(span, {}).get(field, 0))
        for layer, fields in summary["layers"].items():
            for field, v in fields.items():
                values[f"{layer}.{field}"].append(v)
        validate = summary["counts"].get("core.validate", 0)
        values["core.validate.calls_per_step"].append(ratio(validate, r["steps"]))
    out = {name: statistics.median(v) for name, v in values.items() if v}
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    out["process.blas_threads"] = max(r["blas_threads"] for r in untraced + traced)
    untraced_s = statistics.median(r["run_s"] for r in untraced)
    traced_s = statistics.median(r["run_s"] for r in traced)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out


# --- reporting --------------------------------------------------------------------

def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{k: os.environ.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def print_table(found) -> None:
    print("end-to-end metrics, then workload figures (untraced repeats):")
    print(f"  {'metric':<26} {'value':>14} {'tail':>20} {'n':>6}  unit")
    for name, values in found.items():
        unit, better = END_TO_END.get(name) or FIGURES[name]
        if not values:
            print(f"  {name:<26} {'n/a':>14} {'':>20} {0:>6}  {unit}")
            continue
        tl = None if name.startswith("step_ms_") else tail(values, better)
        tail_text = f"{tl[0]}={tl[1]:.6g}" if tl else ""
        print(f"  {name:<26} {central(name, values):>14.6g} {tail_text:>20} "
              f"{len(values):>6}  {unit}")


def golden_report(workload, seed, input_digest, reference) -> list[str]:
    """Compare this run's digests with the recorded golden ones. A mismatch
    is reported, not counted as a failure: a change may declare new bits."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh).get(workload, {}).get(str(seed))
    if golden is None:
        return [f"golden: none recorded for {workload} seed {seed}"]
    lines = [f"golden inputs: {'match' if golden['inputs'] == input_digest else 'MISMATCH'}"]
    for leg, out in reference["legs"].items():
        for name, digest in out["digests"].items():
            want = golden["legs"].get(leg, {}).get(name)
            state = "not recorded" if want is None else ("match" if want == digest else "MISMATCH")
            lines.append(f"golden {leg}/{name}: {state}")
    return lines


# --- entry point ------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=inputs.SCALES, default=inputs.FULL,
                   help="input sizes; 'smoke' is a seconds-long check of the harness")
    return p.parse_args(argv)


def main(argv) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "targetcodes", "__init__.py")):
        print(f"error: no targetcodes source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, src)
    import targetcodes

    if not os.path.abspath(targetcodes.__file__).startswith(src + os.sep):
        print(f"error: imported targetcodes from {targetcodes.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
    run_dir = os.path.join(root, ".bench_out", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    gen_start = time.perf_counter()
    generated = inputs.generate(args.workload, args.scale, args.seed,
                                os.path.join(run_dir, "inputs"))
    gen_s = time.perf_counter() - gen_start
    spec = inputs.SPECS[args.workload][args.scale]
    base_spec = {"workload": args.workload, "scale": args.scale, "seed": args.seed,
                 "src": src, "files": generated["files"]}

    measure_start = time.perf_counter()
    results = run_repeats(root, run_dir, base_spec, args.seconds, args.trace, started)
    measured_s = time.perf_counter() - measure_start
    shutil.rmtree(os.path.join(run_dir, "inputs"))  # regenerated from the seed on demand

    reference = next((r for r in results if "error" not in r), None)
    failures = {}
    for i, r in enumerate(results):
        problems = check_repeat(r, reference, spec["top1_floor"])
        if problems:
            failures[i] = problems
    good = [r for i, r in enumerate(results) if i not in failures]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, scale {args.scale}, trace {args.trace}: "
          f"{len(results)} repeats ({len(untraced)} untraced and {len(traced)} traced passed) "
          f"in {measured_s:.1f} s, {len(failures)} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items())
          + f", effective BLAS threads={max((r['blas_threads'] for r in good), default=0)}")
    print(f"inputs: sha256 {generated['digest']} (generated in {gen_s:.2f} s, untimed)")
    for r in good:
        print(f"  repeat: run_s={r['run_s']:.4f} cpu_s={r['cpu_s']:.4f} "
              f"traced={int(r['traced'])}")
    for i, problems in failures.items():
        for problem in problems:
            print(f"FAILED repeat {i}: {problem}")
    if reference is not None:
        for leg, out in reference["legs"].items():
            recall = "".join(f" R@{k}={v:.4f}" for k, v in out.get("recall_at", {}).items())
            print(f"leg {leg}: top1={out['top1']:.4f}{recall}")
            for name, digest in out["digests"].items():
                print(f"  sha256 {name} {digest}")
        if args.scale == inputs.FULL:
            for line in golden_report(args.workload, args.seed, generated["digest"], reference):
                print(line)

    metrics = {}
    if untraced:
        found = samples(untraced)
        print_table(found)
        print(f"  {'failed_frac':<26} {ratio(len(failures), len(results)):>14.6g} "
              f"{'':>20} {len(results):>6}  fraction")
        if not args.trace:
            metrics = {name: central(name, found[name]) for name in END_TO_END}
    if args.trace and untraced and traced:
        metrics = per_layer(untraced, traced)
        print("per-layer (spans of traced repeats; process figures from untraced):")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>14.6g}  {PER_LAYER[name][0]}")
    units = PER_LAYER if args.trace else END_TO_END
    correct = not failures and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
