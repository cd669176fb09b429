"""Workload definitions and the seeded input generator.

Every input the benchmark feeds to ``targetcodes`` is built here from the
``--seed`` argument, before any timing starts, and written to files: the
training and test CSVs for the two training workloads, and a paper-dims
checkpoint plus a held-out CSV for ``eval-retrieval``. The program under
test only ever sees those files. A sha256 over the generated files is
recorded so that a change to the generator shows up in the results.
"""

from __future__ import annotations

import hashlib
import os

DESK_SWEEP = "desk-sweep"
PAPER_LTC = "paper-ltc"
EVAL_RETRIEVAL = "eval-retrieval"
WORKLOADS = (DESK_SWEEP, PAPER_LTC, EVAL_RETRIEVAL)

FULL = "full"
SMOKE = "smoke"
SCALES = (FULL, SMOKE)

# Stream ids for the generator's own RNGs, disjoint from the trainer's
# per-component streams (1..3) and from the acceptance tests' stream 100.
_STREAM_DATA = 200
_STREAM_CKPT_MODEL = 201
_STREAM_CKPT_CODES = 202

# Per workload and scale: how the data is drawn (``data``), how a training
# run is configured (``train``) and the floor below which the last-epoch
# top-1 of the ltc run counts as a failed run (``top1_floor``).
SPECS = {
    DESK_SWEEP: {
        FULL: {
            "data": dict(classes=8, dim=16, groups=2, per_class=400, test_per_class=150,
                         spread_within=2.0, spread_group=6.0, ratio=10.0),
            "train": dict(modes=["baseline", "htc", "ltc"], epochs=60, code_length=32,
                          feature_widths=[64, 32], encoder_hidden=32, batch_size=32,
                          lr_feature=0.01, lr_new=0.01, decay_epochs=[40], margin=16.0),
            "top1_floor": 0.5,
        },
        SMOKE: {
            "data": dict(classes=8, dim=16, groups=2, per_class=40, test_per_class=10,
                         spread_within=2.0, spread_group=6.0, ratio=4.0),
            "train": dict(modes=["baseline", "htc", "ltc"], epochs=2, code_length=16,
                          feature_widths=[16, 8], encoder_hidden=8, batch_size=16,
                          lr_feature=0.01, lr_new=0.01, decay_epochs=[1], margin=8.0),
            "top1_floor": 0.0,
        },
    },
    PAPER_LTC: {
        FULL: {
            "data": dict(classes=100, dim=128, groups=10, per_class=60, test_per_class=20,
                         spread_within=2.0, spread_group=6.0, ratio=1.0),
            "train": dict(modes=["ltc"], epochs=2, code_length=512,
                          feature_widths=[256, 128], encoder_hidden=256, batch_size=16,
                          lr_feature=0.001, lr_new=0.01, decay_epochs=[40, 70], margin=512.0),
            "top1_floor": 0.4,
        },
        SMOKE: {
            "data": dict(classes=10, dim=16, groups=2, per_class=12, test_per_class=4,
                         spread_within=2.0, spread_group=6.0, ratio=1.0),
            "train": dict(modes=["ltc"], epochs=1, code_length=16,
                          feature_widths=[32, 16], encoder_hidden=16, batch_size=8,
                          lr_feature=0.001, lr_new=0.01, decay_epochs=[40, 70], margin=16.0),
            "top1_floor": 0.0,
        },
    },
    EVAL_RETRIEVAL: {
        FULL: {
            "data": dict(classes=100, dim=128, groups=10, per_class=30,
                         spread_within=2.0, spread_group=6.0),
            "model": dict(feature_widths=[256, 128], encoder_hidden=256, code_length=512),
            "top1_floor": 0.0,
        },
        SMOKE: {
            "data": dict(classes=10, dim=16, groups=2, per_class=8,
                         spread_within=2.0, spread_group=6.0),
            "model": dict(feature_widths=[32, 16], encoder_hidden=16, code_length=16),
            "top1_floor": 0.0,
        },
    },
}


def _blobs(tc, data: dict, per_class: int, rng):
    return tc.data.make_blobs(
        data["classes"], data["dim"], data["groups"], per_class,
        data["spread_within"], data["spread_group"], rng,
    )


def generate(workload: str, scale: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``.

    Returns the file map the worker reads (name -> path) under ``files``
    and the sha256 over all generated bytes under ``digest``.
    """
    import targetcodes as tc
    from targetcodes.core import Rng, derive_seed

    spec = SPECS[workload][scale]
    data = spec["data"]
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    rng = Rng(derive_seed(seed, _STREAM_DATA))
    if workload in (DESK_SWEEP, PAPER_LTC):
        pool = _blobs(tc, data, data["per_class"], rng)
        train, test = tc.data.split_per_class(pool, data["test_per_class"])
        if data["ratio"] > 1.0:
            train = tc.data.long_tail_subsample(train, data["ratio"], rng)
        files["train"] = os.path.join(out_dir, "train.csv")
        files["test"] = os.path.join(out_dir, "test.csv")
        tc.data.save_csv(train, files["train"])
        tc.data.save_csv(test, files["test"])
    else:
        model_spec = spec["model"]
        heldout = _blobs(tc, data, data["per_class"], rng)
        files["heldout"] = os.path.join(out_dir, "heldout.csv")
        tc.data.save_csv(heldout, files["heldout"])
        hp = tc.Hyperparams(num_classes=data["classes"], code_length=model_spec["code_length"],
                            seed=seed)
        model = tc.init_model(
            data["dim"], tuple(model_spec["feature_widths"]), data["classes"],
            model_spec["encoder_hidden"], model_spec["code_length"],
            Rng(derive_seed(seed, _STREAM_CKPT_MODEL)),
        )
        bank = tc.init_learnable_codes(
            data["classes"], model_spec["code_length"], Rng(derive_seed(seed, _STREAM_CKPT_CODES))
        )
        state = tc.network.CheckpointState(
            mode="ltc", seed=seed, rng_state=derive_seed(seed, 3), epoch=0,
            model=model, optimizer=tc.init_optimizer(model, hp), bank=bank,
        )
        files["checkpoint"] = os.path.join(out_dir, "model.ltck")
        tc.network.save_checkpoint(files["checkpoint"], state)
    return {"files": files, "digest": digest_files(files.values())}


def digest_files(paths) -> str:
    """sha256 over the given files' bytes, in sorted path order."""
    h = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
