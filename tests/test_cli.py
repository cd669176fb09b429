"""CLI subcommands, exit codes, and the config-file contract."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from targetcodes import cli, codes, config, data, network, trainer
from targetcodes.codes import load_bank
from targetcodes.core import Rng
from targetcodes.data import load_csv
from targetcodes.errors import FormatError

from ltck_writer import layer_sections, momentum_matrices, write_ltck


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture
def blob_csvs(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    code = run_cli(
        "make-data", "--kind", "blobs", "--classes", "4", "--dim", "8",
        "--groups", "2", "--per-class", "40", "--spread-within", "1.0",
        "--spread-group", "5.0", "--seed", "11",
        "--out", str(train), "--test-out", str(test), "--test-per-class", "10",
    )
    assert code == 0
    return train, test


class TestGenCodes:
    def test_hadamard_summary(self, tmp_path, capsys):
        out = tmp_path / "bank.ltcb"
        code = run_cli("gen-codes", "--mode", "hadamard", "--classes", "3",
                       "--length", "4", "--seed", "0", "--out", str(out))
        captured = capsys.readouterr().out
        assert code == 0
        assert "min 2 max 2" in captured  # per-row +1 count and distance summary
        bank = load_bank(out)
        assert bank.kind == "hadamard_fixed"
        assert bank.weights.shape == (3, 4)

    def test_capacity_violation_exit_2(self, tmp_path):
        code = run_cli("gen-codes", "--mode", "hadamard", "--classes", "5",
                       "--length", "4", "--out", str(tmp_path / "x.ltcb"))
        assert code == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.ltcb", tmp_path / "b.ltcb"
        for path in (a, b):
            assert run_cli("gen-codes", "--mode", "learnable", "--classes", "6",
                           "--length", "16", "--seed", "9", "--out", str(path)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_log_level_env_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LTC_LOG", "debug")
        assert run_cli("gen-codes", "--mode", "learnable", "--classes", "3",
                       "--length", "8", "--out", str(tmp_path / "c.ltcb")) == 0
        monkeypatch.setenv("LTC_LOG", "quiet")
        assert run_cli("inspect-codes", "--bank", str(tmp_path / "c.ltcb")) == 0

    @pytest.mark.parametrize("message, printed", [
        ("Unable to allocate 8.00 TiB for an array", "error: Unable to allocate 8.00 TiB"),
        ("", "error: out of memory"),
    ])
    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys, message, printed):
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(codes, "init_learnable_codes", no_memory)
        code = run_cli("gen-codes", "--mode", "learnable", "--classes", "4",
                       "--length", "8", "--out", str(tmp_path / "c.ltcb"))
        assert code == 2
        assert printed in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_tanh_scale_exit_2(self, tmp_path, capsys, scale):
        out = tmp_path / "c.ltcb"
        code = run_cli("gen-codes", "--mode", "learnable", "--classes", "3", "--length", "8",
                       "--activation", "tanh_scaled", "--tanh-scale", scale, "--out", str(out))
        assert code == 2
        assert "tanh scale must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_inspect_codes(self, tmp_path, capsys):
        out = tmp_path / "bank.ltcb"
        run_cli("gen-codes", "--mode", "hadamard", "--classes", "7",
                "--length", "8", "--out", str(out))
        capsys.readouterr()
        assert run_cli("inspect-codes", "--bank", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,plus_ones,min_hamming,max_hamming,mean_abs_corr"
        assert len(lines) == 8
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] == "4" and cells[2] == "4" and cells[3] == "4"


    def test_tanh_bank_bits_counted_on_its_sign_pattern(self, tmp_path, capsys):
        # tanh codes are not +-1, so bits are counted on the sign pattern
        # w >= 0 -> +1; counted directly here, bit by bit
        out = tmp_path / "b.ltcb"
        assert run_cli("gen-codes", "--mode", "learnable", "--classes", "4", "--length", "8",
                       "--activation", "tanh_scaled", "--out", str(out)) == 0
        summary = capsys.readouterr().out
        bits = (load_bank(out).weights >= 0).tolist()
        ones = [sum(row) for row in bits]
        ham = [[sum(a != b for a, b in zip(r, s)) for s in bits] for r in bits]
        off = [ham[i][j] for i in range(4) for j in range(4) if i != j]
        assert min(off) < max(off)  # the distances tell the counts apart
        assert f"plus-one count per row: min {min(ones)} max {max(ones)}" in summary
        assert f"pairwise Hamming distance: min {min(off)} max {max(off)}" in summary

        assert run_cli("inspect-codes", "--bank", str(out)) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:4] for row in rows] == [
            [str(i), str(ones[i]),
             str(min(ham[i][j] for j in range(4) if j != i)),
             str(max(ham[i][j] for j in range(4) if j != i))]
            for i in range(4)
        ]


class TestMakeData:
    def test_longtail_counts_and_ratio(self, tmp_path, capsys):
        out = tmp_path / "lt.csv"
        code = run_cli("make-data", "--kind", "longtail", "--classes", "3",
                       "--dim", "4", "--groups", "1", "--per-class", "100",
                       "--ratio", "100", "--seed", "1", "--out", str(out))
        printed = capsys.readouterr().out
        assert code == 0
        assert "class 0: 100" in printed
        assert "class 1: 10" in printed
        assert "class 2: 1" in printed
        assert "achieved imbalance ratio: 100.0" in printed

    def test_ratio_one_uniform_histogram(self, tmp_path, capsys):
        out = tmp_path / "flat.csv"
        run_cli("make-data", "--kind", "longtail", "--classes", "4", "--dim", "4",
                "--groups", "1", "--per-class", "25", "--ratio", "1",
                "--seed", "2", "--out", str(out))
        printed = capsys.readouterr().out
        assert printed.count(": 25") == 4
        assert "achieved imbalance ratio: 1.0" in printed

    def test_invalid_ratio_exit_2(self, tmp_path):
        assert run_cli("make-data", "--kind", "longtail", "--classes", "3",
                       "--dim", "4", "--groups", "1", "--per-class", "10",
                       "--ratio", "0.5", "--seed", "0",
                       "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("flags", [
        ("--kind", "longtail", "--ratio", "nan"),
        ("--kind", "longtail", "--ratio", "inf"),
        ("--kind", "blobs", "--spread-within", "nan"),
        ("--kind", "blobs", "--spread-group", "inf"),
        ("--kind", "blobs", "--class-spread", "inf"),
        ("--kind", "blobs", "--class-spread", "-1"),
        pytest.param(("--kind", "blobs", "--spread-within", "1e308"),
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ], ids=["ratio_nan", "ratio_inf", "spread_within_nan", "spread_group_inf",
            "class_spread_inf", "class_spread_negative", "spread_overflow"])
    def test_non_finite_or_negative_input_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        code = run_cli("make-data", "--classes", "3", "--dim", "4", "--groups", "1",
                       "--per-class", "10", "--out", str(out), *flags)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_output_loadable(self, blob_csvs):
        # --per-class sizes the training set; --test-per-class adds extra rows
        train, test = blob_csvs
        ds = load_csv(train)
        assert ds.num_classes == 4
        assert ds.class_counts.tolist() == [40] * 4
        assert load_csv(test).class_counts.tolist() == [10] * 4


class TestTrain:
    def train_args(self, tmp_path, train, test, *extra):
        return [
            "train", "--data", str(train), "--test-data", str(test),
            "--out", str(tmp_path / "run"),
            "--set", "epochs=4", "--set", "batch_size=16",
            "--set", "feature_widths=32,16", "--set", "encoder_hidden=16",
            "--set", "code_length=16", "--set", "lr_feature=0.01",
            "--set", "decay_epochs=", *extra,
        ]

    def test_end_to_end(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc"))
        printed = capsys.readouterr().out
        assert code == 0
        assert "top1" in printed
        run_dir = tmp_path / "run"
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "resolved.cfg").exists()
        assert (run_dir / "ckpt_final.ltck").exists()

    def test_rerun_byte_identical_metrics(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc"))
        first = (tmp_path / "run" / "metrics.jsonl").read_bytes()
        run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc"))
        assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == first

    def test_htc_bad_length_exit_2(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test,
                                        "--mode", "htc", "--length", "500"))
        assert code == 2
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_exit_2(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mode = ltc\nbananas = 7\n")
        code = run_cli("train", "--config", str(cfg), "--data", str(train),
                       "--test-data", str(test), "--out", str(tmp_path / "r"))
        assert code == 2

    def test_config_num_classes_mismatch_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        cfg = tmp_path / "classes.cfg"
        cfg.write_text("num_classes = 7\n")
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "baseline",
                                        "--config", str(cfg)))
        assert code == 2
        assert "config says 7 classes, data has 4" in capsys.readouterr().err

    def test_non_finite_feature_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        lines = train.read_text().splitlines()
        fields = lines[5].split(",")
        fields[3] = "nan"
        lines[5] = ",".join(fields)
        train.write_text("\n".join(lines) + "\n")
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc"))
        assert code == 2
        assert f"{train}:6: non-finite value in f2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_batch_larger_than_train_set_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc",
                                        "--set", "batch_size=161"))
        assert code == 2
        assert "batch size 161 exceeds the 160 training rows" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("setting", [
        "feature_widths=-3", "feature_widths=32,0",
        "lr_feature=-0.01", "lr_new=nan", "lr_codes=inf", "weight_decay=inf",
        "mse_weight=nan", "triplet_weight=nan", "corr_weight=inf",
        "margin=nan", "margin=inf", "tanh_scale=nan",
        "momentum=nan", "momentum=1", "momentum=-0.1",
        "decay_factor=-1", "decay_factor=0", "decay_factor=nan",
        "seed=-1", "seed=18446744073709551616",
        "decay_epochs=-1", "decay_epochs=4294967296", "checkpoint_every=-1",
        "activation=foo", "epochs=0", "eval_every=0", "feature_widths=", "epochs=abc",
        "epochs", "encoder_hidden=0",
    ])
    def test_out_of_range_setting_exit_2(self, tmp_path, blob_csvs, capsys, setting):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc",
                                        "--set", setting))
        assert code == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_data_exit_2(self, tmp_path):
        assert run_cli("train", "--mode", "baseline",
                       "--out", str(tmp_path / "r")) == 2

    # refusals whose message does not name the key, or (mode) that a flag
    # would override in test_out_of_range_setting_exit_2
    @pytest.mark.parametrize("setting, message", [
        ("mode=foo", "unknown mode 'foo'"),
        ("ste_rule=foo", "unknown STE rule 'foo'"),
        ("batch_size=0", "batch size must be positive, got 0"),
    ])
    def test_refused_setting_exit_2(self, tmp_path, blob_csvs, capsys, setting, message):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--set", setting))
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("classes, dim, message", [
        (5, 8, "test labels reach 4, config has 4 classes"),
        (4, 6, "train dim 8 does not match test dim 6"),
    ], ids=["label_beyond_classes", "other_width"])
    def test_refused_test_data_exit_2(self, tmp_path, blob_csvs, capsys, classes, dim, message):
        train, _ = blob_csvs
        other = tmp_path / "other.csv"
        assert run_cli("make-data", "--kind", "blobs", "--classes", str(classes),
                       "--dim", str(dim), "--groups", "1", "--per-class", "5",
                       "--out", str(other)) == 0
        capsys.readouterr()
        assert run_cli(*self.train_args(tmp_path, train, other)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_from_a_checkpoint_without_a_bank_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        state = network.load_checkpoint(tmp_path / "run" / "ckpt_epoch2.ltck")
        state.bank = None
        ckpt = tmp_path / "no_bank.ltck"
        network.save_checkpoint(ckpt, state)
        capsys.readouterr()
        resumed = tmp_path / "resumed"
        assert run_cli(*base, "--out", str(resumed), "--resume", str(ckpt)) == 2
        assert "checkpoint is missing the code bank" in capsys.readouterr().err
        assert not resumed.exists()

    @pytest.mark.parametrize("key, value", [
        ("out_dir", "r #1"), ("out_dir", "#r"), ("out_dir", "r "), ("out_dir", " r"),
        ("out_dir", "r\n2"), ("out_dir", "r\r2"), ("train_data", "a #b.csv"),
        ("test_data", "a\tb.csv "),
    ])
    def test_path_that_resolved_cfg_cannot_hold_exit_2(
        self, tmp_path, blob_csvs, capsys, monkeypatch, key, value
    ):
        # relative paths, so a wrongly accepted run stays inside tmp_path
        train, test = blob_csvs
        monkeypatch.chdir(tmp_path)
        paths = {"out_dir": "run", "train_data": train.name, "test_data": test.name}
        if key != "out_dir":
            shutil.copy(paths[key], value)
        paths[key] = value
        before = sorted(tmp_path.iterdir())
        code = run_cli(*self.train_args(tmp_path, paths["train_data"], paths["test_data"],
                                        "--out", paths["out_dir"]))
        assert code == 2
        assert f"{key} {value!r} would not read back from resolved.cfg" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_3(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "baseline",
                                        "--set", "lr_new=1e9", "--set", "lr_feature=1e9"))
        err = capsys.readouterr().err
        assert code == 3
        assert "diverged" in err
        assert "last good checkpoint" in err

    def test_non_finite_gradient_exit_3(self, tmp_path, blob_csvs, capsys, monkeypatch):
        train, test = blob_csvs
        real_backward = network.backward
        steps = []

        def backward(*args, **kwargs):
            grads = real_backward(*args, **kwargs)
            steps.append(None)
            if len(steps) == 12:  # in epoch 2 of 8 steps each
                grads[0][0][0, 0] = np.inf
            return grads

        monkeypatch.setattr(network, "backward", backward)
        code = run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc"))
        err = capsys.readouterr().err
        assert code == 3
        assert "parameter gradient contains non-finite entries" in err
        ckpt = tmp_path / "run" / "ckpt_diverged_last_good.ltck"
        assert f"last good checkpoint: {ckpt}" in err
        assert network.load_checkpoint(ckpt).epoch == 1

    def test_config_file_with_comments_and_overrides(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# desk-scale run\n"
            "mode = baseline\n"
            "epochs = 3  # short\n"
            "batch_size = 16\n"
            "feature_widths = 32,16\n"
            "encoder_hidden = 16\n"
            "code_length = 16\n"
            "decay_epochs = \n"
            f"train_data = {train}\n"
            f"test_data = {test}\n"
        )
        code = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "r"),
                       "--set", "epochs=2")
        assert code == 0
        lines = (tmp_path / "r" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2  # the --set override wins over the file

    def test_resolved_config_round_trip(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        run_cli(*self.train_args(tmp_path, train, test, "--mode", "ltc", "--seed", "5"))
        resolved = config.parse_config_file(tmp_path / "run" / "resolved.cfg")
        assert resolved["mode"] == "ltc"
        assert resolved["seed"] == 5
        assert resolved["epochs"] == 4
        assert resolved["feature_widths"] == (32, 16)
        assert resolved["margin"] == 16.0  # resolved from code_length
        # feeding the echo back reproduces the same run
        code = run_cli("train", "--config", str(tmp_path / "run" / "resolved.cfg"),
                       "--out", str(tmp_path / "again"))
        assert code == 0
        assert (tmp_path / "again" / "metrics.jsonl").read_bytes() == (
            tmp_path / "run" / "metrics.jsonl"
        ).read_bytes()

    def test_bad_train_flag_value_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        code = run_cli(*self.train_args(tmp_path, train, test, "--epochs", "abc"))
        assert code == 2
        assert "bad value 'abc' for epochs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_train_flags_resolve_like_set(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        resolved = []
        for extra in (["--seed", "5", "--margin", "8"], ["--set", "seed=5", "--set", "margin=8"]):
            assert run_cli(*self.train_args(tmp_path, train, test, *extra)) == 0
            resolved.append((tmp_path / "run" / "resolved.cfg").read_bytes())
        assert resolved[0] == resolved[1]

    def snapshot(self, run_dir):
        return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}

    def test_refused_resume_leaves_out_dir_unchanged(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--set", "checkpoint_every=2")
        assert run_cli(*base, "--mode", "ltc") == 0
        run_dir = tmp_path / "run"
        before = self.snapshot(run_dir)
        code = run_cli(*base, "--mode", "htc", "--resume", str(run_dir / "ckpt_epoch2.ltck"))
        assert code == 2
        assert "mode ltc -> htc" in capsys.readouterr().err
        assert self.snapshot(run_dir) == before
        # an accepted resume still records its config
        code = run_cli(*base, "--mode", "ltc", "--set", "epochs=6",
                       "--resume", str(run_dir / "ckpt_epoch2.ltck"))
        assert code == 0
        assert config.parse_config_file(run_dir / "resolved.cfg")["epochs"] == 6

    def test_resume_from_final_checkpoint_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc")
        assert run_cli(*base) == 0
        run_dir = tmp_path / "run"
        before = self.snapshot(run_dir)
        capsys.readouterr()
        assert run_cli(*base, "--resume", str(run_dir / "ckpt_final.ltck")) == 2
        assert "checkpoint is at epoch 4" in capsys.readouterr().err
        assert self.snapshot(run_dir) == before

    def test_resume_checks_config_and_reads_checkpoint_once(
        self, tmp_path, blob_csvs, monkeypatch
    ):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(network, "load_checkpoint", counted(network.load_checkpoint))
        monkeypatch.setattr(trainer, "validate_config", counted(trainer.validate_config))
        assert run_cli(*base, "--resume", str(tmp_path / "run" / "ckpt_epoch2.ltck")) == 0
        assert sorted(calls) == ["load_checkpoint", "validate_config"]

    @pytest.mark.parametrize("case, message", [
        ("tanh_activation", "activation sign -> tanh_scaled"),
        ("short_bank",
         "checkpoint code bank is 4 x 8, but its model has 4 classes and code length 16"),
        ("hadamard_bank", "checkpoint code bank is hadamard_fixed in mode 'ltc'"),
    ], ids=["tanh_activation", "short_bank", "hadamard_bank"])
    def test_resume_refuses_a_different_code_bank(
        self, tmp_path, blob_csvs, capsys, case, message
    ):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        run_dir = tmp_path / "run"
        ckpt = run_dir / "ckpt_epoch2.ltck"
        extra = []
        if case == "tanh_activation":
            extra = ["--set", "activation=tanh_scaled"]
        else:
            state = network.load_checkpoint(ckpt)
            if case == "short_bank":
                state.bank = codes.init_learnable_codes(4, 8, Rng(0))
            else:
                state.bank = codes.select_hadamard_codes(16, 4, Rng(0))
            ckpt = tmp_path / "edited.ltck"
            network.save_checkpoint(ckpt, state)
        before = self.snapshot(run_dir)
        capsys.readouterr()
        assert run_cli(*base, *extra, "--resume", str(ckpt)) == 2
        assert message in capsys.readouterr().err
        assert self.snapshot(run_dir) == before

    # a valid changed value for every config key a resume may not change
    RESUME_CHANGES = {
        "mode": "baseline", "num_classes": "5", "code_length": "32",
        "mse_weight": "0.5", "triplet_weight": "0.5", "corr_weight": "0.5",
        "margin": "2", "tanh_scale": "2", "lr_feature": "0.5", "lr_new": "0.5",
        "lr_codes": "0.5", "momentum": "0.0", "weight_decay": "0.5", "batch_size": "8",
        "decay_epochs": "1", "decay_factor": "0.5", "seed": "1", "feature_widths": "24,16",
        "encoder_hidden": "8", "activation": "tanh_scaled", "ste_rule": "passthrough",
        "decay_codes": "false", "eval_every": "2",
    }
    # what the LTCK file itself records: its settings, layers and bank
    LTCK_KEYS = {
        "mode", "seed", "momentum", "weight_decay", "lr_feature", "lr_new", "lr_codes",
        "decay_epochs", "decay_factor", "decay_codes", "activation", "tanh_scale",
        "num_classes", "code_length", "feature_widths", "encoder_hidden",
    }

    @pytest.mark.parametrize("key", sorted(set(config.CONFIG_KEYS) - config.RESUMABLE_KEYS))
    def test_resume_refuses_a_changed_setting(self, tmp_path, blob_csvs, capsys, key):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        value = self.RESUME_CHANGES[key]
        if key == "mode":
            change = ["--mode", value]
        elif key == "num_classes":  # takes other training data
            five = tmp_path / "five.csv"
            assert run_cli("make-data", "--kind", "blobs", "--classes", "5", "--dim", "8",
                           "--groups", "1", "--per-class", "20", "--out", str(five)) == 0
            change = ["--data", str(five)]
        else:
            change = ["--set", f"{key}={value}"]
        run_dir = tmp_path / "run"
        alone = tmp_path / "alone"  # the checkpoint without its resolved.cfg
        alone.mkdir()
        shutil.copy(run_dir / "ckpt_epoch2.ltck", alone / "ckpt.ltck")
        before = self.snapshot(run_dir)
        capsys.readouterr()
        code = run_cli(*base, *change, "--resume", str(run_dir / "ckpt_epoch2.ltck"))
        assert code == 2
        assert re.search(rf"\b{key} .* -> ", capsys.readouterr().err)
        assert self.snapshot(run_dir) == before
        code = run_cli(*base, *change, "--out", str(tmp_path / "from_alone"),
                       "--resume", str(alone / "ckpt.ltck"))
        err = capsys.readouterr().err
        if key in self.LTCK_KEYS:
            assert code == 2
            assert re.search(rf"\b{key} .* -> ", err)
        else:  # the LTCK file does not record it, so nothing to compare against
            assert code == 0

    def test_resume_refuses_misshaped_momentum_buffers(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        run_dir = tmp_path / "run"
        ckpt = run_dir / "ckpt_epoch2.ltck"
        state = network.load_checkpoint(ckpt)
        momentum = momentum_matrices(state)
        momentum[2] = momentum[2][:, :-1]  # layer 1's weight
        write_ltck(ckpt, layer_sections(state.model), momentum, state)
        before = self.snapshot(run_dir)
        capsys.readouterr()
        assert run_cli(*base, "--resume", str(ckpt)) == 2
        message = "checkpoint momentum (32, 15) of layer 1 does not match its weight (32, 16)"
        assert message in capsys.readouterr().err
        assert self.snapshot(run_dir) == before

    @pytest.mark.parametrize("text", [b"mode ltc\n", b"seed = 5\n", b"mode = \xff\n"])
    def test_malformed_resolved_cfg_refuses_resume(self, tmp_path, blob_csvs, capsys, text):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        run_dir = tmp_path / "run"
        (run_dir / "resolved.cfg").write_bytes(text)
        before = self.snapshot(run_dir)
        capsys.readouterr()
        assert run_cli(*base, "--resume", str(run_dir / "ckpt_epoch2.ltck")) == 2
        assert f"{run_dir / 'resolved.cfg'}" in capsys.readouterr().err
        assert self.snapshot(run_dir) == before

    def test_malformed_metrics_file_refuses_resume(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        base = self.train_args(tmp_path, train, test, "--mode", "ltc",
                               "--set", "checkpoint_every=2")
        assert run_cli(*base) == 0
        run_dir = tmp_path / "run"
        metrics = run_dir / "metrics.jsonl"
        lines = metrics.read_text().splitlines(keepends=True)
        for bad in ("not json\n", "[2]\n", '{"top1": 0.5}\n', '{"epoch": "2"}\n'):
            metrics.write_text(lines[0] + bad + "".join(lines[2:]))
            before = self.snapshot(run_dir)
            capsys.readouterr()
            code = run_cli(*base, "--resume", str(run_dir / "ckpt_epoch2.ltck"))
            assert code == 2, bad
            assert f"{metrics}:2: expected a JSON object" in capsys.readouterr().err
            assert self.snapshot(run_dir) == before

    def test_os_errors_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        afile = tmp_path / "afile"
        afile.write_text("not a directory\n")
        commands = [
            self.train_args(tmp_path, train, test, "--out", str(afile / "sub")),
            ["gen-codes", "--mode", "learnable", "--classes", "3", "--length", "4",
             "--out", str(afile / "b.ltcb")],
            self.train_args(tmp_path, f"{train}/", test),
        ]
        for argv in commands:
            assert run_cli(*argv) == 2, argv
            assert "error:" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_default_run_passes(self, capsys):
        code = run_cli("gradcheck", "--seed", "1", "--rounds", "3")
        printed = capsys.readouterr().out
        assert code == 0
        for name in ("ce", "mse", "triplet", "corr", "network"):
            assert name in printed

    def test_perturb_negative_control(self, capsys):
        code = run_cli("gradcheck", "--seed", "1", "--rounds", "2", "--perturb")
        printed = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in printed

    @pytest.mark.parametrize("flags, message", [
        (("--rounds", "0"), "rounds must be at least 1, got 0"),
        (("--rounds", "-1"), "rounds must be at least 1, got -1"),
        (("--tol", "-1"), "tol must be finite and positive, got -1.0"),
        (("--tol", "nan"), "tol must be finite and positive, got nan"),
        (("--tol", "0"), "tol must be finite and positive, got 0.0"),
    ], ids=["rounds_0", "rounds_negative", "tol_negative", "tol_nan", "tol_0"])
    def test_usage_errors_exit_2(self, capsys, flags, message):
        code = run_cli("gradcheck", "--seed", "1", *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert captured.out == ""


class TestEntryPoint:
    """``python -m targetcodes.cli`` hands main's return value to the process
    as its exit code, as the installed ``targetcodes`` script does."""

    @pytest.mark.parametrize("argv, code, stream, message", [
        (("gradcheck", "--rounds", "1", "--perturb"), 1, "stdout", "failing checks: ce"),
        (("eval", "--checkpoint", "nope.ltck", "--data", "nope.csv"), 2, "stderr", "error:"),
    ], ids=["gradcheck_failure_1", "eval_missing_checkpoint_2"])
    def test_exit_code_reaches_the_process(self, tmp_path, argv, code, stream, message):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        done = subprocess.run(
            [sys.executable, "-m", "targetcodes.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == code, done.stderr
        assert message in getattr(done, stream)


class TestEval:
    def test_eval_matches_final_metrics(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        args = TestTrain().train_args(tmp_path, train, test, "--mode", "ltc")
        run_cli(*args)
        final = json.loads((tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[-1])
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(test))
        printed = capsys.readouterr().out
        assert code == 0
        assert f"top1 {final['top1']:.4f}" in printed
        assert f"top5 {final['top5']:.4f}" in printed

    def test_retrieval_flag(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "baseline"))
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(test), "--retrieval")
        printed = capsys.readouterr().out
        assert code == 0
        values = [float(line.split()[-1]) for line in printed.splitlines()
                  if line.startswith("recall@")]
        assert len(values) == 4
        assert values == sorted(values)

    def test_retrieval_forwards_once(self, tmp_path, blob_csvs, capsys, monkeypatch):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "ltc"))
        ckpt = tmp_path / "run" / "ckpt_final.ltck"
        model, ds = network.load_checkpoint(ckpt).model, load_csv(test)
        top1, top5 = trainer.evaluate(model, ds)
        report = trainer.retrieval_eval(model, ds)
        calls = []
        forward = network.forward

        def counted(*args, **kwargs):
            calls.append(args[1].shape[0])
            return forward(*args, **kwargs)

        monkeypatch.setattr(network, "forward", counted)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(ckpt), "--data", str(test), "--retrieval")
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert calls == [ds.num_samples]
        assert printed == [f"top1 {top1:.4f} top5 {top5:.4f}"] + [
            f"recall@{k} {v:.4f}" for k, v in sorted(report.recall_at.items())
        ]

    def test_labels_beyond_the_model_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "ltc"))
        six = tmp_path / "six.csv"
        assert run_cli("make-data", "--kind", "blobs", "--classes", "6", "--dim", "8",
                       "--per-class", "5", "--out", str(six)) == 0
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(six), "--retrieval")
        assert code == 2
        assert "labels reach 5, but the model has 4 classes" in capsys.readouterr().err

    def test_retrieval_reports_singleton_classes(self, tmp_path, blob_csvs, capsys):
        # classes 2 and 3 keep one row each, so their queries have no hit
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "baseline"))
        ds = load_csv(test)
        keep = np.sort(np.concatenate([
            np.flatnonzero(ds.y < 2), np.flatnonzero(ds.y == 2)[:1], np.flatnonzero(ds.y == 3)[:1],
        ]))
        single = tmp_path / "single.csv"
        data.save_csv(data.Dataset(ds.X[keep], ds.y[keep]), single)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(single), "--retrieval")
        printed = capsys.readouterr().out.splitlines()
        assert code == 0
        assert printed[-1] == "skipped queries (singleton class): 2"

    @pytest.mark.parametrize("label, message", [
        (-3, "negative label -3"),
        (2**62, f"label {2**62} is too large: labels must be below 2**32"),
        (2**32, f"label {2**32} is too large: labels must be below 2**32"),
    ], ids=["negative", "2**62", "2**32"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_label_out_of_range_exit_2(self, tmp_path, capsys, command, label, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"label,f0,f1\r\n0,1.0,0.5\r\n{label},2.0,0.5\r\n")
        if command == "eval":
            argv = ["--checkpoint", str(FIXTURE_V1 / "ckpt_epoch1.ltck"), "--data", str(bad)]
        else:
            argv = ["--config", str(FIXTURE_V1 / "resolved.cfg"), "--data", str(bad),
                    "--test-data", str(FIXTURE_V1 / "test.csv"), "--out", str(tmp_path / "run")]
        assert run_cli(command, *argv) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_layers_that_do_not_chain_exit_2(self, tmp_path, blob_csvs, capsys):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "baseline"))
        ckpt = tmp_path / "run" / "ckpt_final.ltck"
        state = network.load_checkpoint(ckpt)
        sections = layer_sections(state.model)
        act, weight, bias = sections[0][1]
        sections[0][1] = (act, np.vstack([weight, np.zeros((1, 16))]), bias)  # fan-in 33 after 32
        write_ltck(ckpt, sections, momentum_matrices(state), state)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(ckpt), "--data", str(test)) == 2
        assert "do not chain into one model" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("short_bank", "checkpoint code bank is 4 x 8, but its model has 4 classes"),
        ("hadamard_in_ltc", "checkpoint code bank is hadamard_fixed in mode 'ltc'"),
    ], ids=["short_bank", "hadamard_in_ltc"])
    def test_self_inconsistent_checkpoint_exit_2(
        self, tmp_path, blob_csvs, capsys, case, message
    ):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "ltc"))
        ckpt = tmp_path / "run" / "ckpt_final.ltck"
        state = network.load_checkpoint(ckpt)
        if case == "short_bank":
            state.bank = codes.init_learnable_codes(4, 8, Rng(0))
        else:
            state.bank = codes.select_hadamard_codes(16, 4, Rng(0))
        network.save_checkpoint(ckpt, state)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(ckpt), "--data", str(test)) == 2
        assert message in capsys.readouterr().err

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        code = run_cli("eval", "--checkpoint", str(tmp_path / "nope.ltck"),
                       "--data", str(tmp_path / "nope.csv"))
        err = capsys.readouterr().err
        assert code == 2
        assert "nope" in err

    def test_dimension_mismatch_exit_2(self, tmp_path, blob_csvs):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "baseline"))
        other = tmp_path / "other.csv"
        run_cli("make-data", "--kind", "blobs", "--classes", "2", "--dim", "5",
                "--groups", "1", "--per-class", "6", "--seed", "3", "--out", str(other))
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(other))
        assert code == 2

    @pytest.mark.parametrize("retrieval", [(), ("--retrieval",)], ids=["plain", "retrieval"])
    def test_no_rows_exit_2(self, tmp_path, blob_csvs, monkeypatch, capsys, retrieval):
        train, test = blob_csvs
        run_cli(*TestTrain().train_args(tmp_path, train, test, "--mode", "baseline"))
        empty = data.Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.intp))
        monkeypatch.setattr(data, "load_csv", lambda path: empty)
        capsys.readouterr()
        code = run_cli("eval", "--checkpoint", str(tmp_path / "run" / "ckpt_final.ltck"),
                       "--data", str(test), *retrieval)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "matrix must be non-empty, got shape (0, 8)" in captured.err


class TestConfigFileParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("frobnicate = yes\n")
        from targetcodes.errors import ConfigError

        with pytest.raises(ConfigError, match="frobnicate"):
            config.parse_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("just some words\n")
        from targetcodes.errors import ConfigError

        with pytest.raises(ConfigError):
            config.parse_config_file(path)

    def test_text_that_is_not_utf8_rejected(self, tmp_path, blob_csvs, capsys):
        from targetcodes.errors import ConfigError

        path = tmp_path / "bad.cfg"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: not UTF-8 text")):
            config.parse_config_file(path)
        train, test = blob_csvs
        code = run_cli("train", "--config", str(path), "--data", str(train),
                       "--test-data", str(test), "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_format_parse_round_trip(self):
        values = dict(config.CLI_DEFAULTS)
        values.update(mode="ltc", num_classes=4, seed=3, margin=8.0,
                      train_data="a.csv", test_data="b.csv")
        text = config.format_config(config.build_config(values))
        reparsed = {}
        for line in text.splitlines():
            key, _, value = line.partition("=")
            reparsed[key.strip()] = config.CONFIG_KEYS[key.strip()][0](value.strip())
        for key, expected in values.items():
            assert reparsed[key] == expected


FIXTURE_V1 = Path(__file__).parent / "fixtures" / "ltck_v1"


class TestLtckV1Fixture:
    """A committed LTCK v1 run: input dim 2, one feature layer of width 2,
    2 classes, encoder width 2 and code length 2, ltc mode, checkpointed
    after epoch 1 of 2. Later checkpoint versions must keep reading it."""

    def test_load_save_round_trip_is_byte_identical(self, tmp_path):
        ckpt = FIXTURE_V1 / "ckpt_epoch1.ltck"
        network.save_checkpoint(tmp_path / "again.ltck", network.load_checkpoint(ckpt))
        assert (tmp_path / "again.ltck").read_bytes() == ckpt.read_bytes()

    def test_resolved_cfg_formats_back_to_its_bytes(self):
        path = FIXTURE_V1 / "resolved.cfg"
        text = config.format_config(config.build_config(config.parse_config_file(path)))
        assert text.encode() == path.read_bytes()

    def test_every_truncation_is_a_format_error(self, tmp_path):
        raw = (FIXTURE_V1 / "ckpt_epoch1.ltck").read_bytes()
        path = tmp_path / "trunc.ltck"
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError):
                network.load_checkpoint(path)

    def test_eval_prints_pinned_scores(self, capsys):
        code = run_cli("eval", "--checkpoint", str(FIXTURE_V1 / "ckpt_epoch1.ltck"),
                       "--data", str(FIXTURE_V1 / "test.csv"))
        assert code == 0
        assert capsys.readouterr().out == "top1 0.6250 top5 1.0000\n"

    def test_eval_retrieval_refused_prints_nothing(self, capsys):
        # recall@8 needs more than the fixture's 8 test rows
        code = run_cli("eval", "--checkpoint", str(FIXTURE_V1 / "ckpt_epoch1.ltck"),
                       "--data", str(FIXTURE_V1 / "test.csv"), "--retrieval")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "recall depth 8 needs more than 8 samples" in captured.err

    def test_resume_runs_the_last_epoch(self, tmp_path, capsys):
        out = tmp_path / "resumed"
        code = run_cli("train", "--config", str(FIXTURE_V1 / "resolved.cfg"),
                       "--data", str(FIXTURE_V1 / "train.csv"),
                       "--test-data", str(FIXTURE_V1 / "test.csv"), "--out", str(out),
                       "--resume", str(FIXTURE_V1 / "ckpt_epoch1.ltck"))
        assert code == 0
        assert "final epoch 2: top1 0.6250 top5 1.0000" in capsys.readouterr().out
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [2]
