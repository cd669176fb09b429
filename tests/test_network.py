"""Forward/backward correctness, the grouped optimizer, and checkpoint I/O."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from targetcodes import cli
from targetcodes.codes import init_learnable_codes, select_hadamard_codes
from targetcodes.config import Hyperparams, TrainConfig
from targetcodes.core import Rng, finite_diff_check, pack_matrix
from targetcodes.data import Dataset, make_blobs, save_csv
from targetcodes.errors import (
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    TargetCodesError,
    UsageError,
    VersionError,
)
from targetcodes.network import (
    _CHUNK,
    _layer_forward,
    _views,
    GROUP_CODES,
    GROUP_FEATURE,
    GROUP_NEW,
    CheckpointState,
    DenseLayer,
    ModelParams,
    backward,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from targetcodes.trainer import train as train_model

from ltck_writer import layer_sections, momentum_matrices, write_ltck


def toy_model(seed=0, input_dim=8, widths=(10, 8), classes=3, hidden=8, length=8):
    return init_model(input_dim, widths, classes, hidden, length, Rng(seed))


def zero_model(input_dim=4, classes=3, hidden=5, length=6):
    model = init_model(input_dim, (5,), classes, hidden, length, Rng(0))
    model.flat[:] = 0.0
    return model


def copied(grads):
    """A copy of each (grad_weight, grad_bias) pair that backward returned."""
    return [(gw.copy(), gb.copy()) for gw, gb in grads]


def momentum_views(model):
    """The (weight, bias) momentum pairs of ``model``, one per layer."""
    return _views(model.momentum, model.shapes)


class TestForward:
    def test_zero_model_outputs(self):
        model = zero_model()
        x = Rng(1).normals(3, 4)
        _, logits, v, _ = forward(model, x)
        assert not logits.any()
        assert not v.any()  # tanh(0) = 0

    def test_identity_feature_layer(self):
        # without a feature layer, the trunk embedding is the input itself
        model = init_model(4, (), 2, 3, 5, Rng(0))
        x = Rng(2).normals(6, 4)
        z, _, _, _ = forward(model, x)
        assert np.array_equal(z, x)

    def test_semantic_codes_strictly_inside_unit_box(self):
        model = toy_model(3)
        _, _, v, _ = forward(model, Rng(4).normals(10, 8))
        assert np.abs(v).max() < 1.0

    def test_semantic_skip(self):
        model = toy_model(5)
        z, logits, v, cache = forward(model, Rng(6).normals(4, 8), semantic=False)
        assert v is None
        assert len(cache.io) == len(model.feature) + 1

    def test_input_dim_mismatch(self):
        with pytest.raises(DimensionError):
            forward(toy_model(), np.zeros((2, 9)))


    @pytest.mark.parametrize("activation", ["relu", "tanh", "none"])
    def test_layer_forward_bits_match_the_out_of_place_formula(self, activation):
        rng = Rng(8)
        layer = DenseLayer(rng.normals(12, 7), rng.normals(1, 7), activation)
        x = rng.normals(9, 12)
        pre = x @ layer.weight + layer.bias
        want = {"relu": np.maximum(pre, 0.0), "tanh": np.tanh(pre), "none": pre}[activation]
        assert _layer_forward(layer, x).tobytes() == want.tobytes()


class TestBackward:
    def test_zero_grads_give_zero_parameter_grads(self):
        model = toy_model(7)
        _, logits, v, cache = forward(model, Rng(8).normals(5, 8))
        grads = backward(cache, np.zeros_like(logits), np.zeros_like(v))
        assert len(grads) == len(model.all_layers())
        for gw, gb in grads:
            assert not gw.any() and not gb.any()

    def test_dead_semantic_branch_matches_classifier_only(self):
        model = toy_model(9)
        x = Rng(10).normals(5, 8)
        _, logits, v, cache = forward(model, x)
        g_logits = Rng(11).normals(*logits.shape)
        # copied: the next backward overwrites the views a backward returns
        with_zero_v = copied(backward(cache, g_logits, np.zeros_like(v)))
        _, _, _, cache2 = forward(model, x, semantic=False)
        without = backward(cache2, g_logits, None)
        assert len(without) == len(model.feature) + 1
        for (gw_a, gb_a), (gw_b, gb_b) in zip(with_zero_v, without):
            np.testing.assert_array_equal(gw_a, gw_b)
            np.testing.assert_array_equal(gb_a, gb_b)

    def test_shared_trunk_gradient_additivity(self):
        model = toy_model(12)
        x = Rng(13).normals(6, 8)
        _, logits, v, cache = forward(model, x)
        g_logits = Rng(14).normals(*logits.shape)
        g_v = Rng(15).normals(*v.shape)
        both = copied(backward(cache, g_logits, g_v))
        ce_only = copied(backward(cache, g_logits, np.zeros_like(v)))
        sem_only = backward(cache, np.zeros_like(logits), g_v)
        trunk = slice(0, len(model.feature))
        for (gw, _), (gw_c, _), (gw_s, _) in zip(both[trunk], ce_only[trunk], sem_only[trunk]):
            np.testing.assert_allclose(gw, gw_c + gw_s, atol=1e-12)

    def test_semantic_grad_without_semantic_forward(self):
        model = toy_model(19)
        _, logits, _, cache = forward(model, Rng(20).normals(2, 8), semantic=False)
        with pytest.raises(UsageError):
            backward(cache, np.zeros_like(logits), np.zeros((2, 8)))

    def test_full_gradcheck_through_composite_loss(self):
        # covered exhaustively by the gradcheck suite; spot-check one layer here
        from targetcodes.gradcheck import _check_network

        report = _check_network(Rng(21), h=1e-5, tol=1e-5)
        assert report.passed, report

    @pytest.mark.parametrize("mode", ["baseline", "htc", "ltc"])
    def test_round_trip_gradient_check_every_mode(self, mode):
        # 3-class, 8-dim toy model; each training branch's composed objective
        # must match finite differences through the full forward pass
        from targetcodes.losses import compose_objective

        hp = Hyperparams(num_classes=3, code_length=8, margin=2.0)
        model = toy_model(55)
        x = Rng(56).normals(4, 8)
        y = np.array([0, 2, 1, 2])
        s = np.where(Rng(57).normals(3, 8) >= 0, 1.0, -1.0)

        def objective():
            _, logits, v, cache = forward(model, x, semantic=True)
            return compose_objective(mode, hp, logits, v, s, y), cache

        bundle, cache = objective()
        grads = backward(cache, bundle.grad_logits, bundle.grad_semantic)
        for layer, (gw, _) in zip(model.all_layers(), grads):
            original = layer.weight.copy()

            def f(p, _weight=layer.weight):
                _weight[...] = p  # in place: the layer is a view of the flat store
                return objective()[0].total

            report = finite_diff_check(f, original, gw, h=1e-5, tol=1e-5)
            layer.weight[...] = original
            assert report.passed, (mode, report)


class TestOptimizer:
    def test_plain_sgd_without_momentum(self):
        model = toy_model(22)
        hp = Hyperparams(num_classes=3, code_length=8, momentum=0.0, weight_decay=0.0,
                         lr_feature=0.1, lr_new=0.1)
        opt = init_optimizer(model, hp)
        w_before = model.feature[0].weight.copy()
        x = Rng(23).normals(4, 8)
        _, logits, v, cache = forward(model, x)
        grads = backward(cache, np.ones_like(logits), np.zeros_like(v))
        gw = grads[0][0].copy()
        sgd_step(opt, model, epoch=0)
        np.testing.assert_allclose(model.feature[0].weight, w_before - 0.1 * gw, atol=1e-15)

    def test_two_momentum_steps_displacement(self):
        # buf1 = g, buf2 = 0.9 g + g, so total displacement is lr*g*(1 + 1.9)
        model = init_model(1, (), 1, 1, 1, Rng(20))
        model.classifier.weight[0, 0] = 1.0
        hp = Hyperparams(num_classes=1, code_length=1, momentum=0.9, weight_decay=0.0,
                         lr_new=0.01)
        # the plain classification path exercises the classifier group only
        opt = init_optimizer(model, hp)
        backward(forward(model, [[1.0]], semantic=False)[3], [[2.0]])
        sgd_step(opt, model, 0)
        sgd_step(opt, model, 0)
        assert model.classifier.weight[0, 0] == pytest.approx(1.0 - 0.01 * 2.0 * 2.9, rel=1e-12)

    def test_decay_boundary_scales_lr_exactly_once(self):
        model = toy_model(24)
        hp = Hyperparams(num_classes=3, code_length=8, decay_epochs=(5, 9), decay_factor=0.1)
        opt = init_optimizer(model, hp)
        assert opt.lr(GROUP_NEW, 4) == pytest.approx(hp.lr_new)
        assert opt.lr(GROUP_NEW, 5) == pytest.approx(hp.lr_new * 0.1)
        assert opt.lr(GROUP_NEW, 8) == pytest.approx(hp.lr_new * 0.1)
        assert opt.lr(GROUP_NEW, 9) == pytest.approx(hp.lr_new * 0.01)
        assert opt.lr(GROUP_FEATURE, 9) == pytest.approx(hp.lr_feature * 0.01)

    def test_codes_group_can_be_exempt_from_decay(self):
        model = toy_model(25)
        hp = Hyperparams(num_classes=3, code_length=8, decay_epochs=(2,))
        exempt = init_optimizer(model, hp, decay_codes=False)
        decayed = init_optimizer(model, hp, decay_codes=True)
        assert exempt.lr(GROUP_CODES, 10) == pytest.approx(hp.lr_codes)
        assert decayed.lr(GROUP_CODES, 10) == pytest.approx(hp.lr_codes * 0.1)

    def test_weight_decay_pulls_toward_zero(self):
        model = init_model(1, (), 1, 1, 1, Rng(21))
        model.classifier.weight[0, 0] = 10.0
        hp = Hyperparams(num_classes=1, code_length=1, momentum=0.0, weight_decay=0.1,
                         lr_new=0.5)
        opt = init_optimizer(model, hp)
        backward(forward(model, [[1.0]], semantic=False)[3], [[0.0]])
        sgd_step(opt, model, 0)
        assert model.classifier.weight[0, 0] == pytest.approx(10.0 - 0.5 * 0.1 * 10.0)

    def test_nonfinite_gradient_leaves_model_untouched(self):
        model = toy_model(26)
        hp = Hyperparams(num_classes=3, code_length=8)
        opt = init_optimizer(model, hp)
        _, logits, v, cache = forward(model, Rng(27).normals(2, 8))
        # one good step first, so that the momentum is not all zero
        backward(cache, np.ones_like(logits), np.ones_like(v))
        sgd_step(opt, model, 0)
        grads = backward(cache, np.zeros_like(logits), np.zeros_like(v))
        i = len(model.feature) + 2  # the second encoder layer
        grads[i][0][...] = np.nan
        before = [(l.weight.copy(), l.bias.copy()) for l in model.all_layers()]
        momentum = model.momentum.copy()
        with pytest.raises(NumericError):
            sgd_step(opt, model, 0)
        for layer, (weight, bias) in zip(model.all_layers(), before):
            np.testing.assert_array_equal(layer.weight, weight)
            np.testing.assert_array_equal(layer.bias, bias)
        np.testing.assert_array_equal(model.momentum, momentum)

    def test_a_step_before_any_backward_is_refused(self):
        model = toy_model(28)
        opt = init_optimizer(model, Hyperparams(num_classes=3, code_length=8))
        params = model.flat.copy()
        with pytest.raises(UsageError, match="backward"):
            sgd_step(opt, model, 0)
        assert model.flat.tobytes() == params.tobytes()
        assert not model.momentum.any()

    def test_init_optimizer_restarts_momentum_in_a_new_store(self):
        hp = Hyperparams(num_classes=3, code_length=8)
        model = toy_model(29)
        opt = init_optimizer(model, hp)
        rng = Rng(30)
        x, g_logits, g_v = rng.normals(4, 8), rng.normals(4, 3), rng.normals(4, 8)
        for _ in range(2):  # a trained model, with non-zero momentum
            backward(forward(model, x)[3], g_logits, g_v)
            sgd_step(opt, model, 0)
        old = model.momentum
        old_bytes = old.tobytes()
        assert old.any()
        twin = toy_model(29)
        twin.flat[:] = model.flat
        opt = init_optimizer(model, hp)
        assert model.momentum is not old and old.tobytes() == old_bytes
        assert model.momentum.size == model.flat.size and not model.momentum.any()
        # the next step is a first step: that of a fresh model holding the same parameters
        for m in (model, twin):
            backward(forward(m, x)[3], g_logits, g_v)
            sgd_step(opt, m, 1)
        assert model.flat.tobytes() == twin.flat.tobytes()
        assert model.momentum.tobytes() == twin.momentum.tobytes()


def assert_one_flat_store(model):
    """Every layer's weight then bias, in ``all_layers()`` order, sits back
    to back in ``model.flat``, and its momentum likewise in
    ``model.momentum``, a buffer of its own; the model's ``shapes`` and span
    ends describe that layout."""
    assert not np.shares_memory(model.flat, model.momentum)
    layers = model.all_layers()
    assert model.shapes == [l.weight.shape for l in layers]
    sizes = [l.weight.size + l.bias.size for l in layers]
    n = len(model.feature)
    assert (model.feature_end, model.classifier_end) == (sum(sizes[:n]), sum(sizes[: n + 1]))
    params = [a for l in model.all_layers() for a in (l.weight, l.bias)]
    momentum = [a for pair in momentum_views(model) for a in pair]
    for flat, views in ((model.flat, params), (model.momentum, momentum)):
        start = flat.__array_interface__["data"][0]
        at = 0
        for view in views:
            assert view.base is flat
            assert view.__array_interface__["data"][0] == start + 8 * at
            at += view.size
        assert at == flat.size


class TestFlatStore:
    def test_steps_match_the_per_layer_formula_bit_for_bit(self):
        # 200*180 + 180 feature elements, then 19634 more: more than one
        # chunk, and the feature/new boundary inside the second one
        model = init_model(200, (180,), 10, 64, 32, Rng(80))
        split = sum(l.weight.size + l.bias.size for l in model.feature)
        assert _CHUNK < split < min(2 * _CHUNK, model.flat.size)
        hp = Hyperparams(num_classes=10, code_length=32, lr_feature=0.05, lr_new=0.2,
                         weight_decay=0.01, decay_epochs=(2,))
        opt = init_optimizer(model, hp)
        n = len(model.feature)
        want = [(l.weight.copy(), l.bias.copy()) for l in model.all_layers()]
        want_bufs = [(np.zeros_like(w), np.zeros_like(b)) for w, b in want]
        rng = Rng(81)
        for epoch in range(3):
            _, logits, v, cache = forward(model, rng.normals(16, 200))
            grads = backward(cache, rng.normals(*logits.shape), rng.normals(*v.shape))
            for i, (params, bufs, g) in enumerate(zip(want, want_bufs, grads)):
                lr = opt.lr(GROUP_FEATURE if i < n else GROUP_NEW, epoch)
                for p, buf, grad in zip(params, bufs, g):  # the per-layer formula
                    buf *= hp.momentum
                    buf += grad + hp.weight_decay * p
                    p -= lr * buf
            sgd_step(opt, model, epoch)
        for layer, (w, b), (bw, bb), (got_bw, got_bb) in zip(
            model.all_layers(), want, want_bufs, momentum_views(model)
        ):
            assert layer.weight.tobytes() == w.tobytes()
            assert layer.bias.tobytes() == b.tobytes()
            assert got_bw.tobytes() == bw.tobytes() and got_bb.tobytes() == bb.tobytes()

    @pytest.mark.parametrize("encoder_last", [False, True],
                             ids=["full-first", "baseline-first"])
    def test_baseline_gradient_leaves_the_encoder_alone(self, encoder_last):
        # a step covers the span that the last backward filled, whatever came before
        model = toy_model(82)
        opt = init_optimizer(model, Hyperparams(num_classes=3, code_length=8))
        model.momentum[:] = Rng(83).normals(1, model.momentum.size)[0]  # non-zero momentum
        x = Rng(84).normals(4, 8)
        for semantic in (not encoder_last, encoder_last):
            _, logits, v, cache = forward(model, x, semantic=semantic)
            grad = None if model.grad is None else model.grad.copy()
            grads = backward(cache, np.ones_like(logits), np.ones_like(v) if semantic else None)
        params, momentum = model.flat.copy(), model.momentum.copy()
        sgd_step(opt, model, 0)
        n = len(model.feature) + 1  # the feature and classifier prefix
        assert len(grads) == (len(model.all_layers()) if encoder_last else n)
        end = sum(l.weight.size + l.bias.size for l in model.all_layers()[:n])
        assert not np.array_equal(model.flat[:end], params[:end])
        assert not np.array_equal(model.momentum[:end], momentum[:end])
        assert (model.flat[end:].tobytes() == params[end:].tobytes()) != encoder_last
        assert (model.momentum[end:].tobytes() == momentum[end:].tobytes()) != encoder_last
        if not encoder_last:  # the baseline backward kept the encoder's span of the store
            assert model.grad[end:].tobytes() == grad[end:].tobytes() and grad[end:].any()

    def test_every_backward_fills_one_store_per_model(self, tmp_path):
        model = toy_model(94)
        opt = init_optimizer(model, Hyperparams(num_classes=3, code_length=8))
        path = tmp_path / "state.ltck"
        save_checkpoint(path, CheckpointState(
            mode="ltc", seed=1, rng_state=2, epoch=1, model=model, optimizer=opt,
            bank=init_learnable_codes(3, 8, Rng(95)),
        ))
        rng = Rng(96)
        for m in (model, load_checkpoint(path).model):
            assert m.grad is None  # a model that only evaluates holds no store
            _, logits, v, cache = forward(m, rng.normals(3, 8))
            first = backward(cache, rng.normals(*logits.shape), rng.normals(*v.shape))
            store = m.grad
            assert store.size == m.flat.size
            second = backward(cache, rng.normals(*logits.shape), None)
            third = backward(cache, rng.normals(*logits.shape), rng.normals(*v.shape))
            assert m.grad is store
            for later in (second, third):
                for (gw, gb), (gw1, gb1) in zip(later, first):
                    assert gw.base is store and gb.base is store
                    assert np.shares_memory(gw, gw1) and np.shares_memory(gb, gb1)

    def test_a_layer_rebound_after_init_optimizer_is_refused(self):
        model = toy_model(86)
        opt = init_optimizer(model, Hyperparams(num_classes=3, code_length=8))
        _, logits, v, cache = forward(model, Rng(87).normals(2, 8))
        backward(cache, np.ones_like(logits), np.ones_like(v))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.classifier.weight = model.classifier.weight.copy()
        assert model.classifier.weight.base is model.flat
        sgd_step(opt, model, 0)
        assert model.momentum.any()

    def test_loaded_and_resumed_models_are_one_flat_store(self, tmp_path):
        model = toy_model(88)
        opt = init_optimizer(model, Hyperparams(num_classes=3, code_length=8))
        assert_one_flat_store(model)
        state = CheckpointState(
            mode="ltc", seed=1, rng_state=2, epoch=1, model=model, optimizer=opt,
            bank=init_learnable_codes(3, 8, Rng(89)),
        )
        path = tmp_path / "state.ltck"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert_one_flat_store(loaded.model)
        assert loaded.model.flat.tobytes() == model.flat.tobytes()

        train = make_blobs(3, 8, 1, 20, 1.0, 3.0, Rng(90))
        config = TrainConfig(
            mode="ltc", hp=Hyperparams(num_classes=3, code_length=8, epochs=2, batch_size=8),
            feature_widths=(6,), encoder_hidden=4, checkpoint_every=1,
            out_dir=str(tmp_path / "run"),
        )
        first = train_model(config, train, train)
        assert_one_flat_store(first.model)
        resumed = train_model(config, train, train,
                              resume_from=str(tmp_path / "run" / "ckpt_epoch1.ltck"))
        assert_one_flat_store(resumed.model)
        assert resumed.model.flat.tobytes() == first.model.flat.tobytes()


class TestInitModel:
    def test_same_seed_identical(self):
        a = toy_model(30)
        b = toy_model(30)
        for la, lb in zip(a.all_layers(), b.all_layers()):
            assert np.array_equal(la.weight, lb.weight)

    def test_biases_zero(self):
        model = toy_model(31)
        for layer in model.all_layers():
            assert not layer.bias.any()

    def test_momentum_starts_at_zero(self):
        model = toy_model(32)
        assert model.momentum.shape == model.flat.shape and not model.momentum.any()

    def test_hidden_preactivation_variance_order_one(self):
        # fan-in scaled init targets Var(pre) = 2 on standard-normal input;
        # the Monte-Carlo estimate must be O(1), neither vanishing nor exploding
        model = init_model(64, (64,), 3, 64, 8, Rng(32))
        x = Rng(33).normals(1000, 64)
        pre = x @ model.feature[0].weight + model.feature[0].bias
        var = float(pre.var())
        assert 0.5 <= var <= 2.6

    def test_encoder_structure(self):
        model = toy_model(34, hidden=12, length=20)
        acts = [l.activation for l in model.encoder]
        assert acts == ["relu", "relu", "tanh"]
        assert model.encoder[-1].weight.shape[1] == 20

    @pytest.mark.parametrize("widths", [(0,), (3, 0)])
    def test_a_zero_feature_width_is_refused(self, widths):
        with pytest.raises(TargetCodesError):
            init_model(4, widths, 2, 3, 5, Rng(35))

    @pytest.mark.parametrize("dims", [
        (0, (5,), 2, 3, 5), (4, (5, 0), 2, 3, 5), (4, (5,), 0, 3, 5), (4, (5,), 2, 0, 5),
        (4, (5,), 2, 3, 0), (4, (5,), 2, 3, -1),
    ])
    def test_model_params_refuses_a_dimension_below_one(self, dims):
        with pytest.raises(DomainError, match="all model dimensions must be positive"):
            ModelParams(dims)


class TestCheckpoint:
    def build_state(self, seed=40, **dims):
        model = toy_model(seed, **dims)
        classes, length = dims.get("classes", 3), dims.get("length", 8)
        hp = Hyperparams(num_classes=classes, code_length=length, seed=seed)
        opt = init_optimizer(model, hp)
        # dirty the buffers so serialization covers non-zero state
        rng = Rng(seed + 1)
        for bw, bb in momentum_views(model):
            bw[:] = rng.normals(*bw.shape)
            bb[:] = rng.normals(*bb.shape)
        bank = init_learnable_codes(classes, length, Rng(seed + 2))
        return CheckpointState(
            mode="ltc", seed=seed, rng_state=12345, epoch=17,
            model=model, optimizer=opt, bank=bank,
        )

    def test_roundtrip_bitwise(self, tmp_path):
        state = self.build_state()
        path = tmp_path / "state.ltck"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.mode == "ltc"
        assert loaded.seed == 40
        assert loaded.rng_state == 12345
        assert loaded.epoch == 17
        for la, lb in zip(state.model.all_layers(), loaded.model.all_layers()):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        assert loaded.model.momentum.tobytes() == state.model.momentum.tobytes()
        assert np.array_equal(state.bank.weights, loaded.bank.weights)
        assert loaded.optimizer.decay_epochs == state.optimizer.decay_epochs

    def test_save_is_deterministic(self, tmp_path):
        state = self.build_state()
        p1, p2 = tmp_path / "a.ltck", tmp_path / "b.ltck"
        save_checkpoint(p1, state)
        save_checkpoint(p2, state)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_holds_one_copy_of_the_bytes(self, tmp_path):
        state = self.build_state(
            input_dim=128, widths=(256, 128), classes=100, hidden=256, length=512
        )
        path = tmp_path / "big.ltck"
        tracemalloc.start()
        try:
            save_checkpoint(path, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the packed parts are one copy of the file; joining them made a second
        assert peak < 1.5 * path.stat().st_size

    def test_load_holds_one_copy_of_the_bytes(self, tmp_path):
        state = self.build_state(
            input_dim=128, widths=(256, 128), classes=100, hidden=256, length=512
        )
        path = tmp_path / "big.ltck"
        save_checkpoint(path, state)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrices it returns are one copy of the file; reading the whole
        # file first and copying each matrix out of it made a second
        assert peak < 1.25 * path.stat().st_size

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ltck"
        save_checkpoint(path, self.build_state())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes after checkpoint payload"):
            load_checkpoint(path)

    def test_oversized_matrix_header_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.ltck"
        save_checkpoint(path, self.build_state())
        raw = bytearray(path.read_bytes())
        # the first weight's u32 rows and cols follow the 32-byte header, the
        # u32 feature layer count and the first layer's u8 activation
        assert struct.unpack_from("<II", raw, 37) == (8, 10)
        struct.pack_into("<II", raw, 37, 2**31, 2**31)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated checkpoint file"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_corrupted_magic(self, tmp_path):
        state = self.build_state()
        path = tmp_path / "bad.ltck"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        state = self.build_state()
        path = tmp_path / "ver.ltck"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        raw[4] = 250
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        # a small model keeps the sweep over every prefix length short
        state = self.build_state(input_dim=2, widths=(2,), classes=2, hidden=2, length=2)
        path = tmp_path / "trunc.ltck"
        save_checkpoint(path, state)
        raw = path.read_bytes()
        for end in range(len(raw)):
            path.write_bytes(raw[:end])
            with pytest.raises(FormatError):
                load_checkpoint(path)

    def test_non_finite_matrix_rejected(self, tmp_path):
        state = self.build_state()
        state.model.classifier.weight[1, 2] = np.nan
        path = tmp_path / "nan.ltck"
        save_checkpoint(path, state)
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["fan_in", "activation", "encoder_depth"])
    def test_layers_that_do_not_chain_rejected(self, tmp_path, edit):
        state = self.build_state()
        sections = layer_sections(state.model)
        feature, (classifier,), encoder = sections
        if edit == "fan_in":
            feature[1] = (feature[1][0], np.zeros((11, 8)), feature[1][2])
        elif edit == "activation":
            sections[1] = [("relu", *classifier[1:])]
        else:
            del encoder[1]
        path = tmp_path / "chain.ltck"
        write_ltck(path, sections, momentum_matrices(state), state)
        with pytest.raises(FormatError, match="do not chain"):
            load_checkpoint(path)

    def test_the_test_writer_packs_what_save_checkpoint_writes(self, tmp_path):
        # the malformed files below are written by ltck_writer, so it must
        # agree with save_checkpoint on every well-formed file
        state = self.build_state()
        save_checkpoint(tmp_path / "saved.ltck", state)
        write_ltck(tmp_path / "packed.ltck", layer_sections(state.model),
                   momentum_matrices(state), state)
        assert (tmp_path / "packed.ltck").read_bytes() == (tmp_path / "saved.ltck").read_bytes()

    def test_zero_sized_layers_rejected(self, tmp_path, capsys):
        # the layers chain into one model, but its input is 0 wide
        shapes = [("relu", 0, 4), ("none", 4, 2), ("relu", 4, 3), ("relu", 3, 3), ("tanh", 3, 5)]
        layers = [(act, np.zeros((i, o)), np.zeros((1, o))) for act, i, o in shapes]
        path = tmp_path / "empty.ltck"
        write_ltck(path, [layers[:1], layers[1:2], layers[2:]],
                   [a for _, w, b in layers for a in (w, b)])
        message = "all model dimensions must be positive"
        with pytest.raises(DomainError, match=message):
            load_checkpoint(path)
        data = tmp_path / "data.csv"
        save_csv(Dataset(np.zeros((3, 4)), np.arange(3) % 2), data)
        assert cli.main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_bias_unlike_its_weight_rejected(self, tmp_path, capsys):
        # without this check the load succeeds: the value pass fills the
        # (1, 10) view from the 9 values of the bias and the bytes after them
        state = self.build_state()
        sections = layer_sections(state.model)
        act, weight, bias = sections[0][0]
        sections[0][0] = (act, weight, bias[:, :-1])
        path = tmp_path / "bias.ltck"
        write_ltck(path, sections, momentum_matrices(state), state)
        message = "bias shape (1, 9) does not match weight (8, 10)"
        with pytest.raises(DimensionError, match=re.escape(message)):
            load_checkpoint(path)
        data = tmp_path / "data.csv"
        save_csv(Dataset(np.zeros((3, 8)), np.arange(3)), data)
        assert cli.main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    def test_misshaped_momentum_buffer_rejected(self, tmp_path):
        state = self.build_state()
        momentum = momentum_matrices(state)
        momentum[-1] = np.zeros((1, 9))
        path = tmp_path / "buf.ltck"
        write_ltck(path, layer_sections(state.model), momentum, state)
        message = "checkpoint momentum (1, 9) of layer 5 does not match its bias (1, 8)"
        with pytest.raises(FormatError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        ("short_bank", "code bank is 3 x 4, but its model has 3 classes and code length 8"),
        ("extra_class", "code bank is 4 x 8, but its model has 3 classes and code length 8"),
        ("hadamard_in_ltc", "code bank is hadamard_fixed in mode 'ltc'"),
        ("learnable_in_htc", "code bank is learnable in mode 'htc'"),
    ], ids=["short_bank", "extra_class", "hadamard_in_ltc", "learnable_in_htc"])
    def test_bank_that_does_not_fit_the_model_rejected(self, tmp_path, edit, message):
        state = self.build_state()
        if edit == "short_bank":
            state.bank = init_learnable_codes(3, 4, Rng(0))
        elif edit == "extra_class":
            state.bank = init_learnable_codes(4, 8, Rng(0))
        elif edit == "hadamard_in_ltc":
            state.bank = select_hadamard_codes(8, 3, Rng(0))
        else:
            state.mode = "htc"
        path = tmp_path / "bank.ltck"
        save_checkpoint(path, state)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_unknown_bank_activation_code(self, tmp_path):
        state = self.build_state()
        path = tmp_path / "act.ltck"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        # the bank section ends the file: u32 kind, u32 activation, f64 tanh
        # scale, then the 3 x 8 weights (u32 rows, u32 cols, f64 data)
        act_at = len(raw) - (8 + 3 * 8 * 8) - 8 - 4
        assert struct.unpack_from("<I", raw, act_at) == (0,)
        struct.pack_into("<I", raw, act_at, 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="activation"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value, message", [
        ("mode", 7, "unknown mode code 7"),
        ("feature_activation", 7, "unknown activation code 7"),
        ("classifier_count", 0, "exactly one classifier layer"),
    ])
    def test_patched_header_field_rejected(self, tmp_path, capsys, field, value, message):
        # after the magic and u32 version: u32 mode at byte 8, then the rest
        # of the 32-byte header, the u32 feature layer count and the first
        # layer's u8 activation; the classifier group's u32 count follows
        # the feature layers
        state = self.build_state()
        path = tmp_path / "patched.ltck"
        save_checkpoint(path, state)
        raw = bytearray(path.read_bytes())
        feature_bytes = sum(
            1 + len(pack_matrix(l.weight)) + len(pack_matrix(l.bias)) for l in state.model.feature
        )
        fmt, at, was = {
            "mode": ("<I", 8, 2),
            "feature_activation": ("<B", 36, 0),
            "classifier_count": ("<I", 36 + feature_bytes, 1),
        }[field]
        assert struct.unpack_from(fmt, raw, at) == (was,)
        struct.pack_into(fmt, raw, at, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)
        data = tmp_path / "data.csv"
        save_csv(Dataset(np.zeros((3, 8)), np.arange(3)), data)
        assert cli.main(["eval", "--checkpoint", str(path), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err
