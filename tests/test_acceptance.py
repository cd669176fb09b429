"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s or -v to see them inline).

Trend criteria (5-8, 11) run full desk-scale training sweeps with frozen seeds;
everything is deterministic, so these results are stable across reruns.
"""

import time

import numpy as np
import pytest

from targetcodes import codes as cm
from targetcodes import data as dm
from targetcodes import network as nm
from targetcodes import trainer as tm
from targetcodes.config import Hyperparams, TrainConfig
from targetcodes.core import Rng, derive_seed
from targetcodes.gradcheck import run_suite

SEEDS = (0, 1, 2, 3, 4)


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# -- shared desk-scale builders -------------------------------------------------

def select_classes(ds, classes):
    """Restrict to the given class ids and relabel them 0..len-1."""
    classes = list(classes)
    remap = {int(c): i for i, c in enumerate(classes)}
    mask = np.isin(ds.y, classes)
    y = np.array([remap[int(c)] for c in ds.y[mask]], dtype=np.intp)
    return dm.Dataset(X=ds.X[mask].copy(), y=y)


def group_correlation_split(corr, groups):
    """Mean absolute off-diagonal correlation within vs. across superclass
    groups. Returns (intra_mean, inter_mean)."""
    k = corr.shape[0]
    intra, inter = [], []
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            (intra if groups[a] == groups[b] else inter).append(abs(corr[a, b]))
    assert intra and inter, "need at least two groups with two classes each"
    return float(np.mean(intra)), float(np.mean(inter))


def test_group_correlation_split():
    corr = np.array([
        [1.0, 0.8, 0.1, 0.2],
        [0.8, 1.0, 0.3, 0.0],
        [0.1, 0.3, 1.0, 0.6],
        [0.2, 0.0, 0.6, 1.0],
    ])
    intra, inter = group_correlation_split(corr, np.array([0, 0, 1, 1]))
    assert intra == pytest.approx((0.8 + 0.6) / 2)
    assert inter == pytest.approx((0.1 + 0.2 + 0.3 + 0.0) / 4)


def longtail_sets(seed):
    """2000-sample balanced training pool over 8 classes in 2 groups,
    long-tailed to ratio 10; 1200-sample balanced test split."""
    rng = Rng(derive_seed(seed, 100))
    ds = dm.make_blobs(8, 16, 2, 400, 2.0, 6.0, rng)
    train_pool, test = dm.split_per_class(ds, 150)
    train = dm.long_tail_subsample(train_pool, 10.0, rng)
    return train, test


def longtail_config(mode, seed, mse_w, tri_w, corr_w):
    hp = Hyperparams(
        num_classes=8, code_length=32, epochs=60, batch_size=32,
        mse_weight=mse_w, triplet_weight=tri_w, corr_weight=corr_w,
        lr_feature=0.01, lr_new=0.01, decay_epochs=(40,), margin=16.0, seed=seed,
    )
    return TrainConfig(mode=mode, hp=hp, feature_widths=(64, 32), encoder_hidden=32)


def test_c01_hadamard_property_suite():
    start = time.perf_counter()
    for m in (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024):
        h = cm.hadamard_matrix(m)
        assert np.array_equal(h @ h.T, float(m) * np.eye(m)), f"m={m} not orthogonal"
        k = min(m - 1, 257)
        bank = cm.select_hadamard_codes(m, k, Rng(m))
        assert cm.plus_one_counts(bank.weights).tolist() == [m // 2] * k
        if k >= 2:
            ham = cm.pairwise_hamming(bank.weights)
            off = ham[~np.eye(k, dtype=bool)]
            assert off.min() == off.max() == m // 2, f"m={m} distances not m/2"
    elapsed = time.perf_counter() - start
    report("C1 hadamard-properties", elapsed < 10.0,
           f"orders 2..1024 exact, {elapsed:.1f}s < 10s")


def test_c02_gradient_oracle_suite():
    start = time.perf_counter()
    rows = run_suite(seed=0, rounds=20, h=1e-5, tol=1e-5)
    elapsed = time.perf_counter() - start
    worst = max(r.max_rel_err for r in rows)
    names = {r.name for r in rows}
    assert names == {"ce", "mse", "triplet", "corr", "network"}
    assert all(r.instances >= 20 for r in rows)
    ok = all(r.passed for r in rows) and elapsed < 60.0
    report("C2 gradient-oracles", ok,
           f"5 checks x 20 instances, worst rel err {worst:.2e} <= 1e-5, {elapsed:.1f}s < 60s")


def test_c03_ste_contract():
    bank = cm.init_learnable_codes(2, 3, Rng(1))
    out = cm.ste_backward(bank, np.array([[2.5, -0.3, -7.0], [0.0, 0.9, 1.0]]), "clipped")
    assert out[0].tolist() == [1.0, -0.3, -1.0]
    grid = np.concatenate([np.linspace(0.1, 4.0, 200), -np.linspace(0.1, 4.0, 200)])
    w = grid.reshape(4, 100)
    tanh_bank = cm.CodeBank("learnable", w.copy(),
                            activation="tanh_scaled", tanh_scale=100.0)
    sign_bank = cm.CodeBank("learnable", w.copy())
    gap = float(np.abs(cm.activate(tanh_bank) - cm.activate(sign_bank)).max())
    report("C3 ste-contract", gap <= 5e-9,
           f"clip map exact, tanh(100w) vs sign gap {gap:.2e} <= 5e-9 for |w|>=0.1")


def test_c04_degenerate_weight_equivalence(tmp_path):
    start = time.perf_counter()
    rng = Rng(derive_seed(12, 100))
    ds = dm.make_blobs(8, 16, 2, 240, 1.5, 6.0, rng)
    train, test = dm.split_per_class(ds, 40)
    outputs = {}
    for name, mode, weights in (
        ("ltc0", "ltc", (0.0, 0.0, 0.0)),
        ("base", "baseline", (1.0, 0.01, 0.1)),  # weights unused by baseline
    ):
        hp = Hyperparams(
            num_classes=8, code_length=32, epochs=30, batch_size=32,
            mse_weight=weights[0], triplet_weight=weights[1], corr_weight=weights[2],
            lr_feature=0.01, lr_new=0.01, decay_epochs=(20,), margin=16.0, seed=12,
        )
        config = TrainConfig(mode=mode, hp=hp, feature_widths=(64, 32),
                                encoder_hidden=32, out_dir=str(tmp_path / name))
        tm.train(config, train, test)
        outputs[name] = (tmp_path / name / "metrics.jsonl").read_bytes()
    elapsed = time.perf_counter() - start
    ok = outputs["ltc0"] == outputs["base"] and elapsed < 120.0
    report("C4 degenerate-weights", ok,
           f"30-epoch metrics byte-identical, {elapsed:.1f}s < 2min")


ABLATION_VARIANTS = (
    ("ce", "baseline", (0.0, 0.0, 0.0)),
    ("ce+mse", "ltc", (1.0, 0.0, 0.0)),
    ("ce+mse+triplet", "ltc", (1.0, 0.01, 0.0)),
    ("full", "ltc", (1.0, 0.01, 0.1)),
)


@pytest.fixture(scope="module")
def ablation_runs():
    """C5's sweep, trained once for C5 and C11: per variant name, one
    (train, test, result) per seed, and the sweep's wall time in seconds."""
    start = time.perf_counter()
    sets = {seed: longtail_sets(seed) for seed in SEEDS}
    runs = {}
    for name, mode, (mw, tw, cw) in ABLATION_VARIANTS:
        runs[name] = [
            (*sets[seed], tm.train(longtail_config(mode, seed, mw, tw, cw), *sets[seed]))
            for seed in SEEDS
        ]
    return runs, time.perf_counter() - start


def test_c05_component_ablation_trend(ablation_runs):
    runs, elapsed = ablation_runs
    means = [
        (name, float(np.mean([result.metrics[-1].top1 for _, _, result in runs[name]])))
        for name, _, _ in ABLATION_VARIANTS
    ]
    values = [m for _, m in means]
    # non-decreasing order with at most one adjacent inversion of <= 0.5 points
    inversions = [max(0.0, values[i] - values[i + 1]) for i in range(3)]
    n_inverted = sum(1 for inv in inversions if inv > 0)
    ok = (
        n_inverted <= 1
        and max(inversions) <= 0.005
        and values[3] > values[0]
        and elapsed < 900.0
    )
    detail = " ".join(f"{n}={m:.4f}" for n, m in means)
    report("C5 ablation-trend", ok, f"{detail}, {elapsed:.0f}s < 15min")


def tail_classes(class_counts):
    """The tail third of the class ids when they are split into head,
    medium and tail thirds (3/2/3 for 8 classes) by training count, largest
    first, ties broken by class index."""
    order = sorted(range(len(class_counts)), key=lambda c: (-int(class_counts[c]), c))
    third = -(-len(order) // 3)
    return order[-third:]


def per_class_top1(model, test):
    """Top-1 of each class of ``test``, ties broken at the first maximum logit."""
    pred = nm.forward(model, test.X, semantic=False)[1].argmax(axis=1)
    return np.array([np.mean(pred[test.y == c] == c) for c in range(test.num_classes)])


def test_c11_imbalance_tail_gain(ablation_runs):
    runs, _ = ablation_runs
    tail, overall = {}, {}
    for name in ("ce", "full"):
        tails, alls = [], []
        for train, test, result in runs[name]:
            acc = per_class_top1(result.model, test)
            assert acc.mean() == pytest.approx(result.metrics[-1].top1, abs=1e-12)
            tails.append(acc[tail_classes(train.class_counts)].mean())
            alls.append(acc.mean())
        tail[name], overall[name] = float(np.mean(tails)), float(np.mean(alls))
    tail_gain = tail["full"] - tail["ce"]
    overall_gain = overall["full"] - overall["ce"]
    ok = tail_gain > 0 and tail_gain >= overall_gain
    report("C11 imbalance-tail-gain", ok,
           f"tail {tail['ce']:.4f}->{tail['full']:.4f} ({tail_gain:+.4f}), "
           f"overall {overall['ce']:.4f}->{overall['full']:.4f} ({overall_gain:+.4f})")


def test_c06_orthogonality_pressure(tmp_path):
    reductions = []
    for seed in SEEDS:
        rng = Rng(derive_seed(seed, 100))
        ds = dm.make_blobs(8, 16, 8, 150, 1.0, 6.0, rng)
        train, test = dm.split_per_class(ds, 30)
        hp = Hyperparams(
            num_classes=8, code_length=256, epochs=40, batch_size=32,
            corr_weight=0.1, lr_feature=0.01, lr_new=0.01,
            decay_epochs=(), margin=256.0, seed=seed,
        )
        config = TrainConfig(mode="ltc", hp=hp, feature_widths=(64, 32),
                                encoder_hidden=32, out_dir=str(tmp_path / f"s{seed}"))
        tm.train(config, train, test)
        run_dir = tmp_path / f"s{seed}"
        initial = cm.mean_abs_off_diagonal(
            np.loadtxt(run_dir / "corr_init.csv", delimiter=",", ndmin=2))
        final = cm.mean_abs_off_diagonal(
            np.loadtxt(run_dir / "corr_epoch40.csv", delimiter=",", ndmin=2))
        reductions.append(1.0 - final / initial)
    mean_reduction = float(np.mean(reductions))
    detail = "reductions " + " ".join(f"{r:.0%}" for r in reductions)
    report("C6 orthogonality-pressure", mean_reduction >= 0.5,
           f"{detail}, mean {mean_reduction:.0%} >= 50%")


def test_c07_correlation_structure_emergence():
    hits = 0
    pairs = []
    for seed in SEEDS:
        rng = Rng(derive_seed(seed, 100))
        ds = dm.make_blobs(8, 16, 2, 150, 1.0, 8.0, rng, class_center_spread=0.6)
        train, test = dm.split_per_class(ds, 30)
        hp = Hyperparams(
            num_classes=8, code_length=64, epochs=40, batch_size=32,
            lr_feature=0.01, lr_new=0.01, decay_epochs=(), margin=32.0, seed=seed,
        )
        config = TrainConfig(mode="ltc", hp=hp, feature_widths=(64, 32),
                                encoder_hidden=32)
        result = tm.train(config, train, test)
        corr = cm.normalized_correlation(cm.activate(result.bank))
        intra, inter = group_correlation_split(corr, np.arange(8) // 4)
        pairs.append((intra, inter))
        hits += intra > inter
    detail = " ".join(f"({a:.3f}>{b:.3f})" for a, b in pairs)
    report("C7 correlation-structure", hits >= 4, f"intra>inter in {hits}/5 seeds: {detail}")


def test_c08_retrieval_sanity():
    base_scores, ltc_scores = [], []
    monotone = True
    for seed in SEEDS:
        rng = Rng(derive_seed(seed, 100))
        ds = dm.make_blobs(8, 16, 8, 120, 1.0, 6.0, rng)
        noise = rng.normals(ds.num_samples, 16) * 6.0  # nuisance dims shared by all classes
        ds = dm.Dataset(X=np.hstack([ds.X, noise]), y=ds.y)
        train_half = select_classes(ds, range(4))
        held_out = select_classes(ds, range(4, 8))
        for mode, scores in (("baseline", base_scores), ("ltc", ltc_scores)):
            hp = Hyperparams(
                num_classes=4, code_length=32, epochs=40, batch_size=32,
                lr_feature=0.01, lr_new=0.01, decay_epochs=(), margin=32.0, seed=seed,
            )
            config = TrainConfig(mode=mode, hp=hp, feature_widths=(64, 32),
                                    encoder_hidden=32)
            result = tm.train(config, train_half, train_half)
            rep = tm.retrieval_eval(result.model, held_out)
            values = [rep.recall_at[k] for k in (1, 2, 4, 8)]
            monotone = monotone and values == sorted(values)
            scores.append(rep.recall_at[1])
    base_mean = float(np.mean(base_scores))
    ltc_mean = float(np.mean(ltc_scores))
    ok = ltc_mean >= base_mean and monotone
    report("C8 retrieval-sanity", ok,
           f"held-out R@1 ltc {ltc_mean:.4f} >= baseline {base_mean:.4f}, monotone={monotone}")


def test_c09_determinism_and_resumption(tmp_path):
    rng = Rng(derive_seed(4, 100))
    ds = dm.make_blobs(8, 16, 2, 160, 1.5, 6.0, rng)
    train, test = dm.split_per_class(ds, 30)

    def config(out, epochs=20, ckpt=0):
        hp = Hyperparams(num_classes=8, code_length=32, epochs=epochs, batch_size=32,
                         lr_feature=0.01, lr_new=0.01, decay_epochs=(14,),
                         margin=16.0, seed=4)
        return TrainConfig(mode="ltc", hp=hp, feature_widths=(64, 32),
                              encoder_hidden=32, out_dir=str(tmp_path / out),
                              checkpoint_every=ckpt)

    tm.train(config("a", ckpt=10), train, test)
    tm.train(config("b"), train, test)
    identical = (tmp_path / "a" / "metrics.jsonl").read_bytes() == (
        tmp_path / "b" / "metrics.jsonl").read_bytes()

    tm.train(config("resumed"), train, test,
             resume_from=str(tmp_path / "a" / "ckpt_epoch10.ltck"))
    full = (tmp_path / "a" / "metrics.jsonl").read_text().splitlines()
    tail = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
    resumed_ok = tail == full[10:]
    report("C9 determinism-resumption", identical and resumed_ok,
           f"rerun bytes identical={identical}, resume epochs 11..20 identical={resumed_ok}")


def test_c10_imbalance_construction():
    results = []
    ok = True
    for n_max in (100, 500):
        balanced = dm.make_blobs(10, 4, 1, n_max, 1.0, 1.0, Rng(44))
        for ratio in (10.0, 50.0, 100.0):
            out = dm.long_tail_subsample(balanced, ratio, Rng(45))
            achieved = float(out.class_counts.max() / out.class_counts.min())
            results.append(f"n{n_max}:{ratio:.0f}->{achieved:.1f}")
            ok = ok and 0.9 * ratio <= achieved <= 1.1 * ratio
    report("C10 imbalance-construction", ok, " ".join(results))
