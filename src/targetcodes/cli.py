"""Command-line front end: dataset generation, code-bank tooling, gradient
checking, training, and evaluation as reproducible subcommands.

Exit codes are a stable contract: 0 success, 1 gradient-check failure,
2 usage/config error, 3 numeric divergence. All randomness funnels through
one --seed per command; component streams derive from it by fixed offsets.
Set LTC_LOG={quiet,info,debug} to control verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import codes as codes_mod
from . import data as data_mod
from . import gradcheck as gradcheck_mod
from . import network as net_mod
from . import trainer as trainer_mod
from .core import Rng
from .errors import ConfigError, NumericError, TargetCodesError, TrainingDiverged

log = logging.getLogger("targetcodes")

# The CLI's own defaults; every other key defaults to its dataclass field.
_DEFAULTS = {"mode": "baseline", "out_dir": "run"}


def _resolve_train_config(args) -> dict:
    values = dict(_DEFAULTS)
    if args.config:
        values.update(trainer_mod.parse_config_file(args.config))
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        values[key.strip()] = trainer_mod.parse_setting(key.strip(), value.strip())
    for key in trainer_mod._CONFIG_KEYS:  # each train flag's dest is its config key
        v = getattr(args, key, None)
        if v is not None:
            values[key] = trainer_mod.parse_setting(key, str(v))
    return values


def _bank_summary(bank: codes_mod.CodeBank) -> list[str]:
    s = codes_mod.activate(bank)
    ones = codes_mod.plus_one_counts(s)
    lines = [
        f"kind {bank.kind} classes {bank.num_classes} length {bank.code_length}",
        f"plus-one count per row: min {int(ones.min())} max {int(ones.max())}",
    ]
    if bank.num_classes >= 2:
        ham = codes_mod.pairwise_hamming(s)
        off = ham[~np.eye(bank.num_classes, dtype=bool)]
        corr = codes_mod.mean_abs_off_diagonal(codes_mod.normalized_correlation(s))
        lines.append(f"pairwise Hamming distance: min {int(off.min())} max {int(off.max())}")
        lines.append(f"mean abs normalized correlation: {corr:.6f}")
    return lines


def cmd_gen_codes(args) -> int:
    rng = Rng(args.seed)
    if args.mode == "hadamard":
        bank = codes_mod.select_hadamard_codes(args.length, args.classes, rng)
    else:
        bank = codes_mod.init_learnable_codes(
            args.classes, args.length, rng,
            activation=args.activation, tanh_scale=args.tanh_scale,
        )
    codes_mod.save_bank(bank, args.out)
    for line in _bank_summary(bank):
        print(line)
    print(f"wrote {args.out}")
    return 0


def cmd_inspect_codes(args) -> int:
    bank = codes_mod.load_bank(args.bank)
    s = codes_mod.activate(bank)
    ones = codes_mod.plus_one_counts(s)
    ham = codes_mod.pairwise_hamming(s)
    corr = codes_mod.normalized_correlation(s)
    print("row,plus_ones,min_hamming,max_hamming,mean_abs_corr")
    k = bank.num_classes
    for i in range(k):
        others = [j for j in range(k) if j != i]
        if others:
            h_min = int(ham[i, others].min())
            h_max = int(ham[i, others].max())
            c_mean = float(np.abs(corr[i, others]).mean())
        else:
            h_min = h_max = 0
            c_mean = 0.0
        print(f"{i},{int(ones[i])},{h_min},{h_max},{c_mean:.6f}")
    return 0


def cmd_make_data(args) -> int:
    rng = Rng(args.seed)
    per_class = args.per_class + (args.test_per_class if args.test_out else 0)
    ds = data_mod.make_blobs(
        args.classes, args.dim, args.groups, per_class,
        args.spread_within, args.spread_group, rng,
        class_center_spread=args.class_spread,
    )
    test = None
    if args.test_out:
        ds, test = data_mod.split_per_class(ds, args.test_per_class)
    if args.kind == "longtail":
        ds = data_mod.long_tail_subsample(ds, args.ratio, rng)
    data_mod.save_csv(ds, args.out)
    print("class counts:")
    for k, c in enumerate(ds.class_counts):
        print(f"  class {k}: {int(c)}")
    ratio = float(ds.class_counts.max() / ds.class_counts.min())
    print(f"achieved imbalance ratio: {ratio:.1f}")
    print(f"wrote {args.out}")
    if test is not None:
        data_mod.save_csv(test, args.test_out)
        print(f"wrote {args.test_out}")
    return 0


def cmd_train(args) -> int:
    values = _resolve_train_config(args)
    if not values.get("train_data") or not values.get("test_data"):
        raise ConfigError("train_data and test_data are required")
    train_ds = data_mod.load_csv(values["train_data"])
    test_ds = data_mod.load_csv(values["test_data"])
    values.setdefault("num_classes", train_ds.num_classes)
    result = trainer_mod.train(
        trainer_mod.build_config(values), train_ds, test_ds,
        resume_from=args.resume or None,
    )
    final = result.metrics[-1]
    print(f"final epoch {final.epoch}: top1 {final.top1:.4f} top5 {final.top5:.4f}")
    print(f"metrics: {os.path.join(values['out_dir'], 'metrics.jsonl')}")
    print(f"checkpoint: {result.final_checkpoint}")
    return 0


def cmd_gradcheck(args) -> int:
    rows = gradcheck_mod.run_suite(
        args.seed, rounds=args.rounds, tol=args.tol, perturb=args.perturb
    )
    print(f"{'check':<10} {'instances':>9} {'max_rel_err':>13} result")
    failures = []
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(f"{row.name:<10} {row.instances:>9} {row.max_rel_err:>13.3e} {status}")
        if not row.passed:
            failures.append(row.name)
    if failures:
        print(f"failing checks: {', '.join(failures)}")
        return 1
    return 0


def cmd_eval(args) -> int:
    state = net_mod.load_checkpoint(args.checkpoint)
    ds = data_mod.load_csv(args.data)
    # one forward for both scores: trainer.evaluate and trainer.retrieval_eval
    # would each run their own
    z, logits = net_mod.forward(state.model, ds.X, semantic=False)[:2]
    top1, top5 = trainer_mod._top_k(logits, ds.y)
    # score everything before printing, so a refused command prints nothing
    report = trainer_mod._recall_at(z, ds.y) if args.retrieval else None
    print(f"top1 {top1:.4f} top5 {top5:.4f}")
    if report is not None:
        for k in sorted(report.recall_at):
            print(f"recall@{k} {report.recall_at[k]:.4f}")
        if report.skipped_queries:
            print(f"skipped queries (singleton class): {report.skipped_queries}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetcodes",
        description="Target-coding regularization: codes, data, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-codes", help="generate a code bank file")
    p.add_argument("--mode", choices=["hadamard", "learnable"], required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--activation", choices=["sign", "tanh_scaled"], default="sign")
    p.add_argument("--tanh-scale", dest="tanh_scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_gen_codes)

    p = sub.add_parser("inspect-codes", help="print code bank properties as CSV")
    p.add_argument("--bank", required=True)
    p.set_defaults(fn=cmd_inspect_codes)

    p = sub.add_parser("make-data", help="generate a synthetic CSV dataset")
    p.add_argument("--kind", choices=["blobs", "longtail"], required=True)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--per-class", dest="per_class", type=int, default=100)
    p.add_argument("--spread-within", dest="spread_within", type=float, default=1.0)
    p.add_argument("--spread-group", dest="spread_group", type=float, default=6.0)
    p.add_argument("--class-spread", dest="class_spread", type=float, default=1.0)
    p.add_argument("--ratio", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--test-out", dest="test_out")
    p.add_argument("--test-per-class", dest="test_per_class", type=int, default=25)
    p.set_defaults(fn=cmd_make_data)

    p = sub.add_parser("train", help="train per a config file plus overrides")
    p.add_argument("--config")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--mode", choices=["baseline", "htc", "ltc"])
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--length", dest="code_length", type=int, help="code length override")
    p.add_argument("--margin", type=float)
    p.add_argument("--data", dest="train_data", help="training CSV")
    p.add_argument("--test-data", dest="test_data", help="test CSV")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--perturb", action="store_true",
                   help="inject a gradient bug; the suite must fail")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--retrieval", action="store_true")
    p.set_defaults(fn=cmd_eval)
    return parser


def _setup_logging() -> None:
    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("LTC_LOG", "info"), logging.INFO
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint_path:
            print(f"last good checkpoint: {exc.checkpoint_path}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TargetCodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
