"""Training-branch behavior, evaluation, retrieval, correlation export,
checkpoint resumption, and run determinism."""

import dataclasses
import errno
import json
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from targetcodes import codes as cm
from targetcodes import data as dm
from targetcodes import losses as lm
from targetcodes import network as nm
from targetcodes import trainer as tm
from targetcodes.config import (
    Hyperparams,
    TrainConfig,
    build_config,
    format_config,
    parse_config_file,
)
from targetcodes.core import Rng, derive_seed
from targetcodes.errors import (
    ConfigError,
    DimensionError,
    DomainError,
    NumericError,
    TrainingDiverged,
)


def blob_sets(seed=3, classes=8, per_class=160, test_per_class=30, spread=1.5):
    rng = Rng(derive_seed(seed, 100))
    ds = dm.make_blobs(classes, 16, 2, per_class, spread, 6.0, rng)
    return dm.split_per_class(ds, test_per_class)


def read_correlation_csv(path):
    """Read a matrix written by ``trainer.export_code_correlation``."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


def small_config(mode, seed=3, epochs=12, out_dir=None, **hp_kw):
    defaults = dict(
        num_classes=8, code_length=32, epochs=epochs, batch_size=32,
        lr_feature=0.01, lr_new=0.01, decay_epochs=(8,), margin=16.0, seed=seed,
    )
    defaults.update(hp_kw)
    hp = Hyperparams(**defaults)
    return TrainConfig(
        mode=mode, hp=hp, feature_widths=(64, 32), encoder_hidden=32, out_dir=out_dir
    )


class TestTrainBranches:
    def test_zero_weight_ltc_equals_baseline_metrics(self, tmp_path):
        train_ds, test_ds = blob_sets()
        a = small_config("ltc", out_dir=str(tmp_path / "ltc0"),
                         mse_weight=0.0, triplet_weight=0.0, corr_weight=0.0)
        b = small_config("baseline", out_dir=str(tmp_path / "base"))
        tm.train(a, train_ds, test_ds)
        tm.train(b, train_ds, test_ds)
        bytes_a = (tmp_path / "ltc0" / "metrics.jsonl").read_bytes()
        bytes_b = (tmp_path / "base" / "metrics.jsonl").read_bytes()
        assert bytes_a == bytes_b

    def test_htc_bank_bitwise_frozen(self):
        train_ds, test_ds = blob_sets()
        captured = {}

        def hook(epoch, idx, bundle):
            if "initial" not in captured:
                captured["initial"] = None  # set after first forward below

        config = small_config("htc")
        result = tm.train(config, train_ds, test_ds)
        fresh = cm.select_hadamard_codes(
            32, 8, Rng(derive_seed(config.hp.seed, tm.STREAM_CODES))
        )
        assert result.bank.kind == "hadamard_fixed"
        assert result.bank.weights.tobytes() == fresh.weights.tobytes()

    def test_separable_blobs_all_modes_reach_high_accuracy(self):
        train_ds, test_ds = blob_sets(seed=5, spread=0.3)
        for mode in ("baseline", "htc", "ltc"):
            config = small_config(mode, seed=5, epochs=30)
            result = tm.train(config, train_ds, test_ds)
            assert result.metrics[-1].top1 >= 0.99, (mode, result.metrics[-1])

    def test_ltc_updates_codes_baseline_does_not(self):
        train_ds, test_ds = blob_sets()
        ltc = tm.train(small_config("ltc", epochs=4), train_ds, test_ds)
        fresh = cm.init_learnable_codes(
            8, 32, Rng(derive_seed(3, tm.STREAM_CODES))
        )
        assert not np.array_equal(ltc.bank.weights, fresh.weights)
        base = tm.train(small_config("baseline", epochs=4), train_ds, test_ds)
        assert np.array_equal(base.bank.weights, fresh.weights)

    def test_metrics_weighted_components_and_total(self):
        train_ds, test_ds = blob_sets()
        seen = []
        config = small_config("ltc", epochs=2)
        tm.train(config, train_ds, test_ds, batch_hook=lambda e, i, b: seen.append((e, i, b)))
        result = tm.train(config, train_ds, test_ds)
        hp = config.hp
        for epoch_no, entry in enumerate(result.metrics, start=1):
            bundles = [(len(i), b) for e, i, b in seen if e == epoch_no - 1]
            n = sum(c for c, _ in bundles)
            expect_total = sum(c * b.total for c, b in bundles) / n
            expect_mse = sum(c * hp.mse_weight * b.mse for c, b in bundles) / n
            assert entry.total == pytest.approx(expect_total, abs=1e-12)
            assert entry.mse == pytest.approx(expect_mse, abs=1e-12)
            assert entry.total == pytest.approx(
                entry.ce + entry.mse + entry.triplet + entry.corr, abs=1e-12
            )

    def test_eval_cadence(self):
        train_ds, test_ds = blob_sets()
        config = small_config("baseline", epochs=10)
        config.eval_every = 4
        result = tm.train(config, train_ds, test_ds)
        assert [m.epoch for m in result.metrics] == [4, 8, 10]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_lr_aborts_with_checkpoint(self, tmp_path):
        train_ds, test_ds = blob_sets()
        config = small_config("ltc", out_dir=str(tmp_path / "boom"), lr_new=1e9, lr_feature=1e9)
        with pytest.raises(TrainingDiverged) as info:
            tm.train(config, train_ds, test_ds)
        assert info.value.checkpoint_path is not None
        assert os.path.exists(info.value.checkpoint_path)
        state = nm.load_checkpoint(info.value.checkpoint_path)
        for layer in state.model.all_layers():
            assert np.isfinite(layer.weight).all()

    def test_no_datasets_and_no_paths_refused(self, tmp_path):
        train_ds, _ = blob_sets()
        config = small_config("ltc", out_dir=str(tmp_path / "r"))
        with pytest.raises(ConfigError, match="no training dataset"):
            tm.train(config)
        config.train_data = str(tmp_path / "train.csv")
        dm.save_csv(train_ds, config.train_data)
        with pytest.raises(ConfigError, match="no test dataset"):
            tm.train(config)
        assert not (tmp_path / "r").exists()

    def test_an_empty_test_set_is_refused_before_any_output(self, tmp_path):
        train_ds, _ = blob_sets()
        empty = dm.Dataset(np.zeros((0, train_ds.X.shape[1])), np.zeros(0, int))
        config = small_config("ltc", out_dir=str(tmp_path / "r"))
        with pytest.raises(ConfigError, match="the test set has no rows"):
            tm.train(config, train_ds, empty)
        assert not (tmp_path / "r").exists()

    def test_config_validation_before_compute(self):
        train_ds, test_ds = blob_sets()
        bad = small_config("htc", code_length=500)  # not a power of two
        with pytest.raises(DomainError):
            tm.train(bad, train_ds, test_ds)
        bad2 = small_config("htc", code_length=8)  # 8 - 1 < 8 classes
        with pytest.raises(DomainError):
            tm.train(bad2, train_ds, test_ds)


class TestDeterminismAndResume:
    def test_identical_config_identical_bytes(self, tmp_path):
        train_ds, test_ds = blob_sets()
        for name in ("x", "y"):
            config = small_config("ltc", out_dir=str(tmp_path / name))
            tm.train(config, train_ds, test_ds)
        assert (tmp_path / "x" / "metrics.jsonl").read_bytes() == (
            tmp_path / "y" / "metrics.jsonl"
        ).read_bytes()

    def test_resume_reproduces_metric_stream(self, tmp_path):
        train_ds, test_ds = blob_sets()
        full_cfg = small_config("ltc", epochs=12, out_dir=str(tmp_path / "full"))
        full_cfg.checkpoint_every = 6
        tm.train(full_cfg, train_ds, test_ds)
        resumed_cfg = small_config("ltc", epochs=12, out_dir=str(tmp_path / "resumed"))
        tm.train(
            resumed_cfg, train_ds, test_ds,
            resume_from=str(tmp_path / "full" / "ckpt_epoch6.ltck"),
        )
        full_lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()
        resumed_lines = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
        assert resumed_lines == full_lines[6:]

    def test_resume_into_same_dir_keeps_history(self, tmp_path):
        train_ds, test_ds = blob_sets()
        for name in ("full", "resumed"):
            cfg = small_config("ltc", epochs=6, out_dir=str(tmp_path / name))
            cfg.checkpoint_every = 3
            tm.train(cfg, train_ds, test_ds)
        run = tmp_path / "resumed"
        corr_init = (run / "corr_init.csv").read_bytes()
        cfg = small_config("ltc", epochs=6, out_dir=str(run))
        tm.train(cfg, train_ds, test_ds, resume_from=str(run / "ckpt_epoch3.ltck"))
        assert (run / "metrics.jsonl").read_bytes() == (
            tmp_path / "full" / "metrics.jsonl"
        ).read_bytes()
        assert (run / "corr_init.csv").read_bytes() == corr_init

    def test_resume_drops_a_torn_last_metrics_line(self, tmp_path):
        # a run killed while writing epoch 4's line, after the epoch-3 checkpoint
        train_ds, test_ds = blob_sets()
        for name in ("full", "killed"):
            cfg = small_config("ltc", epochs=6, out_dir=str(tmp_path / name))
            cfg.checkpoint_every = 3
            tm.train(cfg, train_ds, test_ds)
        run = tmp_path / "killed"
        lines = (run / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        (run / "metrics.jsonl").write_bytes(b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        tm.train(cfg, train_ds, test_ds, resume_from=str(run / "ckpt_epoch3.ltck"))
        assert (run / "metrics.jsonl").read_bytes() == (
            tmp_path / "full" / "metrics.jsonl"
        ).read_bytes()

    def test_stale_temporary_files_of_run_files_removed(self, tmp_path):
        # what core.atomic_open leaves behind when a run is killed mid-write
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        run.mkdir()
        stale = [
            "resolved.cfg.7.tmp", "metrics.jsonl.12.tmp", "corr_init.csv.3.tmp",
            "corr_epoch2.csv.44.tmp", "ckpt_epoch3.ltck.123.tmp", "ckpt_final.ltck.9.tmp",
            "ckpt_diverged_last_good.ltck.5.tmp",
        ]
        others = [
            "notes.txt.7.tmp", "bank.ltcb.8.tmp", "ckpt_epoch3.ltck.tmp",
            "ckpt_epoch3.ltck.x1.tmp", "ckpt_epochs.ltck.2.tmp", "my_metrics.jsonl.3.tmp",
        ]
        for name in stale + others:
            (run / name).write_text("partial")
        tm.train(small_config("ltc", epochs=1, out_dir=str(run)), train_ds, test_ds)
        assert sorted(p.name for p in run.glob("*.tmp")) == sorted(others)

    def test_resume_writes_kept_history_before_the_first_batch(self, tmp_path):
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        cfg = small_config("ltc", epochs=6, out_dir=str(run))
        cfg.checkpoint_every = 3
        tm.train(cfg, train_ds, test_ds)
        kept = (run / "metrics.jsonl").read_text().splitlines(keepends=True)[:3]
        on_disk = []

        def hook(epoch, idx, bundle):
            if not on_disk:
                on_disk.append((run / "metrics.jsonl").read_text())

        tm.train(cfg, train_ds, test_ds, batch_hook=hook,
                 resume_from=str(run / "ckpt_epoch3.ltck"))
        assert on_disk == ["".join(kept)]

    def test_resume_accepts_ints_given_for_float_settings(self, tmp_path):
        # margin is compared through resolved.cfg, decay_factor through the LTCK file
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        cfg = small_config("ltc", epochs=4, out_dir=str(run), margin=16, decay_factor=1)
        cfg.checkpoint_every = 2
        tm.train(cfg, train_ds, test_ds)
        result = tm.train(cfg, train_ds, test_ds, resume_from=str(run / "ckpt_epoch2.ltck"))
        assert [m.epoch for m in result.metrics] == [3, 4]

    def test_resume_accepts_a_list_of_widths_and_an_int_margin(self, tmp_path):
        # resume compares values: [8] is the (8,) of the checkpoint, 16 its 16.0
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        hp = small_config("ltc", epochs=4, margin=16).hp
        cfg = TrainConfig(mode="ltc", hp=hp, feature_widths=[8], encoder_hidden=32,
                             checkpoint_every=2, out_dir=str(run))
        assert cfg.feature_widths == (8,)
        tm.train(cfg, train_ds, test_ds)
        result = tm.train(cfg, train_ds, test_ds, resume_from=str(run / "ckpt_epoch2.ltck"))
        assert [m.epoch for m in result.metrics] == [3, 4]

    def test_resume_rejects_mismatched_dims(self, tmp_path):
        train_ds, test_ds = blob_sets()
        cfg = small_config("ltc", epochs=4, out_dir=str(tmp_path / "src"))
        result = tm.train(cfg, train_ds, test_ds)
        other = small_config("ltc", epochs=4)
        other.feature_widths = (48, 24)
        with pytest.raises(ConfigError, match="feature_widths"):
            tm.train(other, train_ds, test_ds, resume_from=result.final_checkpoint)

    def test_resume_rejects_data_of_another_width(self, tmp_path):
        train_ds, test_ds = blob_sets()
        cfg = small_config("ltc", epochs=4, out_dir=str(tmp_path / "src"))
        result = tm.train(cfg, train_ds, test_ds)
        wide_train, wide_test = (
            dm.Dataset(X=np.hstack([ds.X, ds.X[:, :1]]), y=ds.y) for ds in (train_ds, test_ds)
        )
        with pytest.raises(DimensionError, match="input_dim 16 -> 17"):
            tm.train(small_config("ltc", epochs=4), wide_train, wide_test,
                     resume_from=result.final_checkpoint)

    def test_resume_rejects_mode_mismatch(self, tmp_path):
        train_ds, test_ds = blob_sets()
        cfg = small_config("htc", epochs=4, out_dir=str(tmp_path / "src"))
        result = tm.train(cfg, train_ds, test_ds)
        with pytest.raises(ConfigError):
            tm.train(small_config("ltc", epochs=4), train_ds, test_ds,
                     resume_from=result.final_checkpoint)

    def test_resolved_cfg_parses_back_to_the_config(self, tmp_path):
        train_ds, test_ds = blob_sets()
        config = small_config("ltc", epochs=1, out_dir=str(tmp_path / "r"), lr_codes=0.5)
        config.decay_codes = False
        tm.train(config, train_ds, test_ds)
        settings = parse_config_file(tmp_path / "r" / "resolved.cfg")
        assert "train_data" not in settings  # unset keys are left out
        assert build_config(settings) == config

    def test_resolved_cfg_keeps_a_hash_inside_a_path(self, tmp_path):
        train_ds, test_ds = blob_sets()
        run = tmp_path / "runs" / "#2"
        tm.train(small_config("ltc", epochs=1, out_dir=str(run)), train_ds, test_ds)
        assert parse_config_file(run / "resolved.cfg")["out_dir"] == str(run)
        cfg = tmp_path / "hand.cfg"
        cfg.write_text("# a comment line\nout_dir = runs/#2\t# where it goes\n")
        assert parse_config_file(cfg) == {"out_dir": "runs/#2"}

    def test_metrics_jsonl_schema(self, tmp_path):
        train_ds, test_ds = blob_sets()
        config = small_config("ltc", epochs=2, out_dir=str(tmp_path / "m"))
        tm.train(config, train_ds, test_ds)
        lines = (tmp_path / "m" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert list(entry) == [
            "epoch", "ce", "mse", "triplet", "corr", "total", "top1", "top5", "code_corr"
        ]
        assert entry["epoch"] == 1
        assert 0.0 <= entry["top1"] <= entry["top5"] <= 1.0


class TestNonFiniteGradient:
    """A non-finite parameter or code gradient aborts the step before it
    changes anything, so the saved checkpoint is the state after the last
    good step."""

    def test_abort_saves_the_last_good_step(self, tmp_path, monkeypatch):
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        config = small_config("ltc", epochs=4, out_dir=str(run))
        steps_per_epoch = len(dm.batches(train_ds, config.hp.batch_size, 0, 0))
        bad_step = 2 * steps_per_epoch + 5  # the sixth step of epoch 3
        real_backward = nm.backward
        seen = {"steps": 0}
        snapshots = []

        def backward(cache, grad_logits, grad_semantic=None):
            grads = real_backward(cache, grad_logits, grad_semantic)
            seen["model"] = cache.model
            seen["steps"] += 1
            if seen["steps"] == bad_step:
                grads[0][0][0, 0] = np.inf
            return grads

        def hook(epoch, idx, bundle):
            snapshots.append([
                (layer.weight.tobytes(), layer.bias.tobytes())
                for layer in seen["model"].all_layers()
            ])

        monkeypatch.setattr(nm, "backward", backward)
        with pytest.raises(TrainingDiverged, match="at epoch 3: parameter gradient") as info:
            tm.train(config, train_ds, test_ds, batch_hook=hook)
        assert len(snapshots) == bad_step - 1
        assert info.value.checkpoint_path == str(run / "ckpt_diverged_last_good.ltck")
        state = nm.load_checkpoint(info.value.checkpoint_path)
        assert state.epoch == 2
        assert [
            (layer.weight.tobytes(), layer.bias.tobytes())
            for layer in state.model.all_layers()
        ] == snapshots[-1]
        lines = (run / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in lines] == [1, 2]

    def test_bad_code_gradient_leaves_the_last_good_step(self, tmp_path, monkeypatch):
        # the parameter gradients of the bad step are finite: only its code
        # gradient is not, so the model, momentum and bank must not take it
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        config = small_config("ltc", epochs=2, out_dir=str(run))
        made = {}
        real_compose, real_init_optimizer, real_init_bank = (
            lm.compose_objective, nm.init_optimizer, tm._init_bank
        )

        def compose_objective(*args, **kwargs):
            bundle = real_compose(*args, **kwargs)
            made["steps"] = made.get("steps", 0) + 1
            if made["steps"] == 5:
                grad_codes = bundle.grad_codes.copy()
                grad_codes[0, 0] = np.nan
                bundle = dataclasses.replace(bundle, grad_codes=grad_codes)
            return bundle

        def init_optimizer(model, hp, **kwargs):
            made["model"] = model
            return real_init_optimizer(model, hp, **kwargs)

        def init_bank(config, num_classes):
            made["bank"] = real_init_bank(config, num_classes)
            return made["bank"]

        def state_bytes(model, bank):
            return (
                [(layer.weight.tobytes(), layer.bias.tobytes()) for layer in model.all_layers()],
                model.momentum.tobytes(),
                bank.weights.tobytes(),
            )

        snapshots = []

        def hook(epoch, idx, bundle):
            snapshots.append(state_bytes(made["model"], made["bank"]))

        monkeypatch.setattr(lm, "compose_objective", compose_objective)
        monkeypatch.setattr(nm, "init_optimizer", init_optimizer)
        monkeypatch.setattr(tm, "_init_bank", init_bank)
        with pytest.raises(TrainingDiverged, match="at epoch 1: code gradient") as info:
            tm.train(config, train_ds, test_ds, batch_hook=hook)
        assert len(snapshots) == 4
        state = nm.load_checkpoint(info.value.checkpoint_path)
        assert state_bytes(state.model, state.bank) == snapshots[-1]

    def test_numeric_error_from_a_batch_hook_is_a_divergence(self, tmp_path):
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"
        config = small_config("ltc", epochs=3, out_dir=str(run))

        def hook(epoch, idx, bundle):
            if epoch == 1:
                raise NumericError("the hook saw a NaN")

        with pytest.raises(TrainingDiverged, match="at epoch 2: the hook saw a NaN") as info:
            tm.train(config, train_ds, test_ds, batch_hook=hook)
        assert info.value.checkpoint_path == str(run / "ckpt_diverged_last_good.ltck")
        assert nm.load_checkpoint(info.value.checkpoint_path).epoch == 1

    def test_numeric_error_in_evaluation_is_not_a_divergence(self, tmp_path, monkeypatch):
        # only a step's faults end in the divergence checkpoint
        train_ds, test_ds = blob_sets()
        run = tmp_path / "run"

        def evaluate(model, ds):
            raise NumericError("NaN logit in evaluation")

        monkeypatch.setattr(tm, "evaluate", evaluate)
        with pytest.raises(NumericError, match="NaN logit") as info:
            tm.train(small_config("ltc", epochs=2, out_dir=str(run)), train_ds, test_ds)
        assert not isinstance(info.value, TrainingDiverged)
        assert not (run / "ckpt_diverged_last_good.ltck").exists()


# Trains the run of the config file argv[1] and SIGKILLs itself at argv[2]:
# "replace" inside the os.replace that would put ckpt_epoch3.ltck in place,
# "hook" at the third step of epoch 5.
KILLED_RUN = """
import os, signal, sys
from targetcodes import trainer as tm
from targetcodes.config import build_config, parse_config_file

def die():
    os.kill(os.getpid(), signal.SIGKILL)

real_replace = os.replace

def replace(src, dst):
    if os.path.basename(dst) == "ckpt_epoch3.ltck":
        die()
    real_replace(src, dst)

hook = None
if sys.argv[2] == "replace":
    os.replace = replace
else:
    steps = []
    def hook(epoch, idx, bundle):
        steps.append(epoch)
        if steps.count(4) == 3:
            die()
tm.train(build_config(parse_config_file(sys.argv[1])), batch_hook=hook)
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
class TestKillAndResume:
    """A run killed at a fixed point and resumed from its newest epoch
    checkpoint into the same directory leaves the files of an uninterrupted
    run, and no temporary file."""

    @pytest.fixture(scope="class")
    def full_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("kill")
        train_ds, test_ds = blob_sets(per_class=60, test_per_class=20)
        dm.save_csv(train_ds, root / "train.csv")
        dm.save_csv(test_ds, root / "test.csv")
        config = small_config("ltc", epochs=6, out_dir=str(root / "full"))
        config.checkpoint_every = 1
        config.train_data, config.test_data = str(root / "train.csv"), str(root / "test.csv")
        tm.train(config)
        return root, config

    @pytest.mark.parametrize("point, newest", [("replace", 2), ("hook", 4)])
    def test_resume_after_a_kill_matches_an_uninterrupted_run(self, full_run, point, newest):
        root, config = full_run
        run = root / point
        config = dataclasses.replace(config, out_dir=str(run))
        cfg_path = root / f"{point}.cfg"
        cfg_path.write_text(format_config(config))
        src = os.path.dirname(os.path.dirname(tm.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_RUN, str(cfg_path), point], env=env, timeout=120
        )
        assert killed.returncode == -signal.SIGKILL
        if point == "replace":
            assert len(list(run.glob("ckpt_epoch3.ltck.*.tmp"))) == 1
        checkpoints = sorted(
            int(p.name[len("ckpt_epoch"):-len(".ltck")]) for p in run.glob("ckpt_epoch*.ltck")
        )
        assert checkpoints[-1] == newest
        tm.train(config, resume_from=str(run / f"ckpt_epoch{newest}.ltck"))
        names = sorted(os.listdir(root / "full"))
        assert sorted(os.listdir(run)) == names
        for name in names:
            want, got = (root / "full" / name).read_bytes(), (run / name).read_bytes()
            if name == "resolved.cfg":
                want, got = (
                    [line for line in b.splitlines() if not line.startswith(b"out_dir =")]
                    for b in (want, got)
                )
            assert got == want, name


class TornFile:
    """A file that keeps half of its first write and then fails, as a full
    disk does part-way through a write."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestAtomicWrites:
    @pytest.mark.parametrize("name", ["ckpt_final.ltck", "bank.ltcb", "data.csv", "corr.csv"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        train_ds, test_ds = blob_sets()
        result = tm.train(small_config("ltc", epochs=1, out_dir=str(tmp_path)), train_ds, test_ds)
        state = nm.load_checkpoint(result.final_checkpoint)
        write = {
            "ckpt_final.ltck": lambda p: nm.save_checkpoint(p, state),
            "bank.ltcb": lambda p: cm.save_bank(result.bank, p),
            "data.csv": lambda p: dm.save_csv(test_ds, p),
            "corr.csv": lambda p: tm.export_code_correlation(result.bank, p),
        }[name]
        path = tmp_path / name
        if not path.exists():
            write(path)
        before = path.read_bytes()
        listing = sorted(os.listdir(tmp_path))
        real_open = open

        def torn_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return TornFile(fh) if "w" in mode else fh

        with monkeypatch.context() as patched:
            patched.setattr("builtins.open", torn_open)
            with pytest.raises(OSError):
                write(path)
        assert path.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == listing


def classifier_model(weight):
    """A model whose logits are its input times ``weight``: no feature layer."""
    model = nm.init_model(weight.shape[0], (), weight.shape[1], 2, 2, Rng(64))
    model.classifier.weight[...] = weight
    return model


class TestEvaluate:
    def test_uniformly_random_logits_near_chance(self):
        rng = Rng(60)
        logits = rng.normals(1000, 10)
        model = classifier_model(np.eye(10))
        y = np.arange(1000) % 10
        ds = dm.Dataset(X=logits, y=y)
        top1, top5 = tm.evaluate(model, ds)
        assert abs(top1 - 0.1) <= 0.03
        assert abs(top5 - 0.5) <= 0.05

    def test_perfect_logits(self):
        y = np.array([0, 1, 2, 1])
        x = np.eye(3)[y] * 10.0
        model = classifier_model(np.eye(3))
        ds = dm.Dataset(X=x, y=y)
        top1, top5 = tm.evaluate(model, ds)
        assert top1 == 1.0 and top5 == 1.0

    def test_top5_at_least_top1_after_training(self):
        train_ds, test_ds = blob_sets()
        result = tm.train(small_config("baseline", epochs=3), train_ds, test_ds)
        for entry in result.metrics:
            assert entry.top5 >= entry.top1

    def test_inference_ignores_encoder_and_bank(self):
        train_ds, test_ds = blob_sets()
        result = tm.train(small_config("ltc", epochs=4), train_ds, test_ds)
        model = result.model
        before = tm.evaluate(model, test_ds)
        # the encoder's span of the flat store follows the classifier's
        trunk = sum(l.weight.size + l.bias.size for l in (*model.feature, model.classifier))
        model.flat[trunk:] = np.nan
        assert tm.evaluate(model, test_ds) == before


class TestEvaluateRanking:
    @pytest.mark.parametrize("k", [3, 8])
    def test_exact_ties_match_dense_stable_argsort(self, k):
        # Logits are 0, 10 or +-inf: one-hot and all-zero rows tie exactly,
        # and inputs of +-1e308 overflow to +-inf through the weight 10 * I.
        n = 600
        rng = Rng(67 + k)
        hot = np.array([rng.below(k + 1) for _ in range(n)])  # k: an all-zero row
        x = np.zeros((n, k))
        rows = np.flatnonzero(hot < k)
        x[rows, hot[rows]] = 1.0
        for row in range(0, n, 3):
            x[row, rng.below(k)] = (1e308, -1e308)[rng.below(2)]
            if row % 2:
                x[row, rng.below(k)] = (1e308, -1e308)[rng.below(2)]
        y = np.array([rng.below(k) for _ in range(n)])
        model = classifier_model(10.0 * np.eye(k))
        with np.errstate(over="ignore"):
            _, logits, _, _ = nm.forward(model, x, semantic=False)
            got = tm.evaluate(model, dm.Dataset(x, y))
        assert set(np.unique(logits)) == {-np.inf, 0.0, 10.0, np.inf}

        order = np.argsort(-logits, axis=1, kind="stable")
        dense = (
            float((order[:, 0] == y).mean()),
            float((order[:, :min(5, k)] == y[:, None]).any(axis=1).mean()),
        )
        assert got == dense
        assert 0.0 < dense[0] < dense[1]  # the cases tell the ranks apart

    def test_label_beyond_the_classifier_rejected(self):
        x = np.eye(3)
        with pytest.raises(DomainError, match="labels reach 3, but the model has 3 classes"):
            tm.evaluate(classifier_model(np.eye(3)), dm.Dataset(x, np.array([0, 1, 3])))

    def test_nan_logit_rejected(self):
        weight = np.eye(3)
        weight[1, 2] = np.nan
        x = np.eye(3)
        with pytest.raises(NumericError):
            tm.evaluate(classifier_model(weight), dm.Dataset(x, np.array([0, 1, 2])))


def tie_heavy_scores(rows, cols, seed):
    """Small integers, so most rows hold exact ties, and about one entry in
    eighteen at +-inf."""
    g = Rng(seed).normals(rows, cols)
    scores = np.round(g)
    scores[g > 1.9] = np.inf
    scores[g < -1.9] = -np.inf
    return scores


class TestRankKernels:
    """The counting kernels against a dense stable argsort of each row."""

    @pytest.mark.parametrize("k", [1, 2, 8, 100])
    def test_rank_of_every_column(self, k):
        scores = tie_heavy_scores(300, k, 75 + k)
        order = np.argsort(-scores, axis=1, kind="stable")
        position = np.argsort(order, axis=1)  # position[i, c]: where column c ranks
        for col in range(k):
            got = tm._rank_of(scores, np.full(len(scores), col))
            assert np.array_equal(got, position[:, col])
        if k > 1:
            assert (np.isinf(scores).any(axis=1) & (scores == 0).any(axis=1)).any()

    @pytest.mark.parametrize("k", [2, 8, 100])
    def test_first_hit_rank_is_the_first_hit_in_order(self, k):
        scores = tie_heavy_scores(300, k, 79 + k)
        hits = Rng(83 + k).normals(300, k) > 0
        several = hits.sum(axis=1) >= 2
        assert several.sum() > 50
        order = np.argsort(-scores, axis=1, kind="stable")
        first = np.argmax(np.take_along_axis(hits, order, axis=1), axis=1)
        scored = hits.any(axis=1)  # a row without a hit has no rank
        assert np.array_equal(tm._first_hit_rank(scores, hits)[scored], first[scored])


# the 3000 x 128 embeddings and 3000 x 100 logits take 5.4 MB; the rows are
# forwarded in 1 MiB blocks and the similarities scored in 1 MiB blocks, where
# one unblocked forward held 11.5 MB of layer outputs at once
@pytest.mark.parametrize("fn", ["evaluate", "retrieval_eval"])
def test_memory_at_paper_dims(fn):
    model = nm.init_model(128, (256, 128), 100, 256, 512, Rng(68))
    ds = dm.Dataset(Rng(69).normals(3000, 128), np.arange(3000) % 100)
    tracemalloc.start()
    try:
        getattr(tm, fn)(model, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # evaluate keeps per-block counts, not the N-row logits or embeddings
    assert peak < (4 if fn == "evaluate" else 10) * 2**20


def scorer(name):
    """``trainer.<name>``, or ``score`` with the default recall depths for
    ``score_recall``."""
    if name == "score_recall":
        return lambda model, ds: tm.score(model, ds, tm.RECALL_DEPTHS)
    return getattr(tm, name)


class TestBlockedScoring:
    """score, evaluate and retrieval_eval forward their rows and score their
    queries in blocks of at most ``trainer._BLOCK_BYTES``; the blocks change no
    result and no refusal."""

    def model_and_data(self, rows=301):
        model = nm.init_model(16, (24, 12), 7, 8, 8, Rng(70))
        x = Rng(71).normals(rows, 16)
        return model, dm.Dataset(x, np.arange(rows) % 7)

    def count_forwards(self, monkeypatch):
        calls = []
        forward = nm.forward

        def counted(model, x, semantic=True):
            calls.append(len(x))
            return forward(model, x, semantic)

        monkeypatch.setattr(nm, "forward", counted)
        return calls

    @pytest.mark.parametrize("fn", ["score", "evaluate", "retrieval_eval"])
    def test_several_blocks_give_the_one_block_result(self, monkeypatch, fn):
        model, ds = self.model_and_data()
        calls = self.count_forwards(monkeypatch)
        whole = getattr(tm, fn)(model, ds)
        assert calls == [301]
        # 64 rows of the widest layer (24) per forward block, 301 // 64 = 4
        # full blocks and a partial one; similarity blocks of 5 rows
        monkeypatch.setattr(tm, "_BLOCK_BYTES", 8 * 24 * 64)
        assert tm._block_rows(301) == 5
        calls.clear()
        blocked = getattr(tm, fn)(model, ds)
        assert calls == [64, 64, 64, 64, 45]
        assert blocked == whole

    def test_score_is_evaluate_and_retrieval_eval(self, monkeypatch):
        model, ds = self.model_and_data()
        for block_bytes in (tm._BLOCK_BYTES, 8 * 24 * 64):
            monkeypatch.setattr(tm, "_BLOCK_BYTES", block_bytes)
            assert tm.score(model, ds, tm.RECALL_DEPTHS) == (
                *tm.evaluate(model, ds), tm.retrieval_eval(model, ds)
            )

    def test_retrieval_leaves_the_rows_alone(self):
        # without a feature layer the trunk embeddings are the rows themselves,
        # and Recall@K normalizes its embeddings in place
        x = Rng(72).normals(40, 3)
        ds = dm.Dataset(x.copy(), np.arange(40) % 4)
        tm.retrieval_eval(classifier_model(np.eye(3)), ds, ks=(1,))
        assert np.array_equal(ds.X, x)

    @pytest.mark.parametrize("fn", ["score", "score_recall", "evaluate", "retrieval_eval"])
    def test_no_rows_is_the_dimension_error_of_an_empty_matrix(self, fn):
        model, _ = self.model_and_data()
        ds = dm.Dataset(np.zeros((0, 16)), np.zeros(0, dtype=np.intp))
        with pytest.raises(DimensionError, match=r"non-empty, got shape \(0, 16\)"):
            scorer(fn)(model, ds)

    @pytest.mark.parametrize("fn", ["score", "evaluate", "retrieval_eval"])
    def test_wrong_width_is_a_dimension_error(self, fn):
        model, _ = self.model_and_data()
        ds = dm.Dataset(np.zeros((20, 15)), np.arange(20) % 7)
        with pytest.raises(DimensionError, match="input dim 15 does not match first layer 16"):
            getattr(tm, fn)(model, ds)

    @pytest.mark.parametrize("fn", ["score", "evaluate", "retrieval_eval"])
    def test_nan_in_the_last_block_is_a_numeric_error(self, monkeypatch, fn):
        model, ds = self.model_and_data()
        ds.X[-1, 3] = np.nan
        monkeypatch.setattr(tm, "_BLOCK_BYTES", 8 * 24 * 64)
        with pytest.raises(NumericError):
            getattr(tm, fn)(model, ds)


class TestRefusalOrder:
    """With several faults at once, the forward's refusals come first, then a
    label of at least K, then a NaN logit, then Recall@K's refusals."""

    def model(self):
        return nm.init_model(16, (24, 12), 7, 8, 8, Rng(70))

    @pytest.mark.parametrize("fn", ["score", "score_recall", "evaluate"])
    def test_wrong_width_before_a_label_beyond_the_classifier(self, fn):
        ds = dm.Dataset(np.zeros((20, 15)), np.arange(20) % 9)
        with pytest.raises(DimensionError, match="input dim 15 does not match first layer 16"):
            scorer(fn)(self.model(), ds)

    @pytest.mark.parametrize("fn", ["score", "score_recall", "evaluate"])
    def test_label_beyond_the_classifier_before_a_nan_logit(self, fn):
        model = self.model()
        model.classifier.bias[0, 2] = np.nan
        ds = dm.Dataset(Rng(71).normals(20, 16), np.arange(20) % 9)
        with pytest.raises(DomainError, match="labels reach 8, but the model has 7 classes"):
            scorer(fn)(model, ds)

    def test_label_beyond_the_classifier_before_too_few_rows_for_recall(self):
        ds = dm.Dataset(Rng(71).normals(5, 16), np.array([0, 1, 8, 1, 0]))
        with pytest.raises(DomainError, match="labels reach 8"):
            scorer("score_recall")(self.model(), ds)


def identity_model(dim):
    """A model whose trunk embedding is its input: no feature layer."""
    return nm.init_model(dim, (), 2, 2, 2, Rng(73))


class TestRetrieval:
    def test_duplicate_samples_give_recall_one(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        report = tm.retrieval_eval(identity_model(2), dm.Dataset(x, np.array([0, 0, 1, 1])),
                                   ks=(1, 2))
        assert report.recall_at[1] == 1.0
        assert report.skipped_queries == 0

    def test_random_embeddings_near_chance_for_two_classes(self):
        rng = Rng(61)
        x = rng.normals(1000, 8)
        y = np.arange(1000) % 2
        report = tm.retrieval_eval(identity_model(8), dm.Dataset(x, y), ks=(1,))
        assert abs(report.recall_at[1] - 0.5) <= 0.05

    def test_monotone_in_k(self):
        train_ds, test_ds = blob_sets()
        result = tm.train(small_config("ltc", epochs=3), train_ds, test_ds)
        report = tm.retrieval_eval(result.model, test_ds)
        values = [report.recall_at[k] for k in (1, 2, 4, 8)]
        assert values == sorted(values)

    def test_singleton_class_skipped_and_counted(self):
        x = np.array([[1.0, 0.0], [1.0, 0.1], [0.0, 1.0]])
        report = tm.retrieval_eval(identity_model(2), dm.Dataset(x, np.array([0, 0, 1])),
                                   ks=(1, 2))
        assert report.skipped_queries == 1
        assert report.num_queries == 2

    def test_exact_ties_match_dense_stable_argsort(self):
        # One-hot and all-zero rows make every similarity exactly 0 or 1 in
        # any summation order, so ties are real ties; 700 rows span several
        # query blocks and a partial last one.
        n, dim = 700, 6
        rng = Rng(65)
        hot = np.array([rng.below(dim + 1) for _ in range(n)])  # dim: an all-zero row
        x = np.zeros((n, dim))
        rows = np.flatnonzero(hot < dim)
        x[rows, hot[rows]] = 1.0
        y = np.array([rng.below(40) for _ in range(n)])
        y[[3, 350, 699]] = [40, 41, 42]  # singleton classes
        y = np.unique(y, return_inverse=True)[1]
        ks = (1, 2, 3, 5, 8, 20, 64, 200)
        report = tm.retrieval_eval(identity_model(dim), dm.Dataset(x, y), ks=ks)

        sim = x @ x.T
        np.fill_diagonal(sim, -np.inf)
        order = np.argsort(-sim, axis=1, kind="stable")
        same = y[order] == y[:, None]
        valid = np.bincount(y)[y] >= 2
        dense = {k: float(same[:, :k].any(axis=1)[valid].mean()) for k in ks}
        assert report.recall_at == dense
        assert report.skipped_queries == 3
        assert len(set(dense.values())) > 4  # the depths tell the ranks apart

    def test_memory_linear_in_queries(self):
        rng = Rng(66)
        x = rng.normals(2000, 16)
        y = np.arange(2000) % 50
        model, ds = identity_model(16), dm.Dataset(x, y)
        tracemalloc.start()
        try:
            tm.retrieval_eval(model, ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20  # one dense 2000 x 2000 float64 matrix is 32 MB

    @pytest.mark.parametrize("ks", [(), (0, 1), (-1,)])
    def test_recall_depth_below_one_rejected(self, ks):
        x = np.eye(4)
        with pytest.raises(DomainError):
            tm.retrieval_eval(identity_model(4), dm.Dataset(x, np.array([0, 0, 1, 1])), ks=ks)

    def test_non_finite_embedding_rejected(self):
        # a Dataset refuses a NaN feature, so the NaN comes from the model
        model = nm.init_model(4, (4,), 2, 2, 2, Rng(74))
        model.feature[0].bias[0, 1] = np.nan
        with pytest.raises(NumericError):
            tm.retrieval_eval(model, dm.Dataset(np.eye(4), np.array([0, 0, 1, 1])), ks=(1,))


class TestCorrelationExport:
    def test_hadamard_bank_offdiagonal_zero(self, tmp_path):
        bank = cm.select_hadamard_codes(16, 8, Rng(62))
        path = tmp_path / "corr.csv"
        tm.export_code_correlation(bank, path)
        corr = read_correlation_csv(path)
        assert corr.shape == (8, 8)
        assert np.array_equal(np.diag(corr), np.ones(8))
        off = corr[~np.eye(8, dtype=bool)]
        assert np.abs(off).max() == 0.0

    def test_sign_bank_diagonal_exactly_one(self, tmp_path):
        bank = cm.init_learnable_codes(5, 16, Rng(63))
        path = tmp_path / "corr.csv"
        tm.export_code_correlation(bank, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        corr = read_correlation_csv(path)
        assert np.array_equal(np.diag(corr), np.ones(5))
        assert np.abs(corr).max() <= 1.0

    def test_exports_written_during_training(self, tmp_path):
        train_ds, test_ds = blob_sets()
        config = small_config("ltc", epochs=3, out_dir=str(tmp_path / "run"))
        tm.train(config, train_ds, test_ds)
        assert (tmp_path / "run" / "corr_init.csv").exists()
        assert (tmp_path / "run" / "corr_epoch3.csv").exists()

    def test_failed_initial_export_closes_the_metrics_file(self, tmp_path):
        # a handle left open warns when collected, which pyproject.toml's
        # filterwarnings turns into a failure of this test
        run = tmp_path / "run"
        (run / "corr_init.csv").mkdir(parents=True)
        train_ds, test_ds = blob_sets()
        with pytest.raises(OSError):
            tm.train(small_config("ltc", epochs=1, out_dir=str(run)), train_ds, test_ds)

    def test_six_decimal_format(self, tmp_path):
        bank = cm.init_learnable_codes(3, 8, Rng(64))
        path = tmp_path / "corr.csv"
        tm.export_code_correlation(bank, path)
        first = path.read_text().splitlines()[0].split(",")
        assert all(len(cell.split(".")[1]) == 6 for cell in first)
