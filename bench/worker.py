"""One repeat of one workload, in a fresh process.

Usage: ``python3 bench/worker.py <spec.json> <result.json>``. The spec
names the workload, its scale, the generated input files, the output
directory, the ``targetcodes`` source directory and whether to trace. The
worker runs the workload through the public API, times it from the
outside, and writes a JSON result: timings, per-leg output digests and
quality figures, process resource usage and, when traced, the span summary.
Any exception propagates, so a failed run exits non-zero.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import sys
import time

import inputs
import tracing

# Symbol names under which OpenBLAS builds export their thread-count query.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

# Set-up samples per eval-retrieval repeat. A training run gives one per
# mode; one load per process gave too few samples for a steady median.
SETUP_LOADS = 5


def blas_threads() -> int:
    """Threads the loaded OpenBLAS will use, or 0 when none is found."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return 0


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Recorder:
    """End-to-end timings of one repeat, taken around public calls."""

    def __init__(self):
        self.setup_s: list[float] = []
        self.step_ms: list[float] = []
        self.train_rows = 0
        self.train_s = 0.0
        self.steps = 0
        # Per call: rows (queries) per second.
        self.eval_rates: list[float] = []
        self.retrieval_rates: list[float] = []

    def timed_evaluate(self, original):
        """Wrap ``trainer.evaluate`` so calls made inside ``train`` count."""

        def evaluate(model, ds):
            start = time.perf_counter()
            out = original(model, ds)
            self.eval_rates.append(ds.num_samples / (time.perf_counter() - start))
            return out

        return evaluate


def write_eval(path, top1, top5, report) -> None:
    with open(path, "w") as fh:
        json.dump({"top1": top1, "top5": top5,
                   "recall_at": {str(k): v for k, v in report.recall_at.items()}}, fh)


def run_training(tc, spec, files, out_dir, rec: Recorder) -> dict:
    """Train each configured mode from the CSV files, evaluating and
    exporting the code correlation every epoch."""
    data, train = spec["data"], spec["train"]
    legs = {}
    for mode in train["modes"]:
        hp = tc.Hyperparams(
            num_classes=data["classes"], code_length=train["code_length"],
            epochs=train["epochs"], batch_size=train["batch_size"],
            lr_feature=train["lr_feature"], lr_new=train["lr_new"],
            decay_epochs=tuple(train["decay_epochs"]), margin=train["margin"],
            seed=spec["seed"],
        )
        leg_dir = os.path.join(out_dir, mode)
        config = tc.trainer.TrainConfig(
            mode=mode, hp=hp, feature_widths=tuple(train["feature_widths"]),
            encoder_hidden=train["encoder_hidden"], out_dir=leg_dir,
            train_data=files["train"], test_data=files["test"],
        )
        marks = []

        def hook(epoch, idx, bundle, marks=marks):
            marks.append((epoch, time.perf_counter(), len(idx)))

        start = time.perf_counter()
        result = tc.trainer.train(config, batch_hook=hook)
        end = time.perf_counter()
        rec.setup_s.append(marks[0][1] - start)
        rec.train_s += end - marks[0][1]
        rec.train_rows += sum(m[2] for m in marks)
        rec.steps += len(marks)
        rec.step_ms.extend(
            (b[1] - a[1]) * 1e3 for a, b in zip(marks, marks[1:]) if a[0] == b[0]
        )
        legs[mode] = {
            "top1": result.metrics[-1].top1,
            "digests": {name: sha256_file(os.path.join(leg_dir, name))
                        for name in ("metrics.jsonl", "ckpt_final.ltck")},
        }
    return legs


def run_eval_retrieval(tc, spec, files, out_dir, rec: Recorder) -> dict:
    """Load the checkpoint and the held-out CSV (several times, one set-up
    sample each), evaluate, run Recall@K, and round-trip the checkpoint
    through save and load."""
    for _ in range(SETUP_LOADS):
        state = ds = None  # free the last load, so peak RSS holds one
        start = time.perf_counter()
        state = tc.network.load_checkpoint(files["checkpoint"])
        ds = tc.data.load_csv(files["heldout"])
        rec.setup_s.append(time.perf_counter() - start)
    top1, top5 = tc.trainer.evaluate(state.model, ds)
    start = time.perf_counter()
    report = tc.trainer.retrieval_eval(state.model, ds)
    rec.retrieval_rates.append(report.num_queries / (time.perf_counter() - start))
    os.makedirs(out_dir, exist_ok=True)
    write_eval(os.path.join(out_dir, "eval.json"), top1, top5, report)
    roundtrip = os.path.join(out_dir, "roundtrip.ltck")
    tc.network.save_checkpoint(roundtrip, state)
    tc.network.load_checkpoint(roundtrip)
    return {
        "eval": {
            "top1": top1,
            "recall_at": report.recall_at,
            "roundtrip_equal": sha256_file(roundtrip) == sha256_file(files["checkpoint"]),
            "digests": {name: sha256_file(os.path.join(out_dir, name))
                        for name in ("eval.json", "roundtrip.ltck")},
        }
    }


def run(spec: dict, start: float) -> dict:
    """Run one repeat; ``start`` is the clock reading taken before the
    library was imported."""
    if spec["src"] not in sys.path:
        sys.path.insert(0, spec["src"])
    import targetcodes as tc

    workload = spec["workload"]
    wl = dict(inputs.SPECS[workload][spec["scale"]], seed=spec["seed"])
    rec = Recorder()
    original_evaluate = tc.trainer.evaluate
    tc.trainer.evaluate = rec.timed_evaluate(original_evaluate)
    tracer = tracing.Tracer(tc) if spec["trace"] else None
    try:
        if tracer is not None:
            tracer.install()
        if workload == inputs.EVAL_RETRIEVAL:
            legs = run_eval_retrieval(tc, wl, spec["files"], spec["out_dir"], rec)
        else:
            legs = run_training(tc, wl, spec["files"], spec["out_dir"], rec)
    finally:
        if tracer is not None:
            tracer.restore()
        tc.trainer.evaluate = original_evaluate
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "legs": legs,
        **vars(rec),
    }
    if tracer is not None:
        if spec["spans"]:
            tracer.write_spans(spec["spans"])
        out["trace"] = tracing.summarize(tracer.spans, tracer.counts)
    return out


def main(argv) -> int:
    start = time.perf_counter()
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec, start)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
