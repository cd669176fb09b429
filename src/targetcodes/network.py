"""Feedforward model with explicit backprop, a grouped momentum-SGD
optimizer, and binary checkpoint serialization.

The model is three sub-networks sharing one trunk: a feature extractor
(ReLU MLP) producing z, a linear classifier producing logits, and a
three-layer semantic encoder (ReLU, ReLU, tanh) producing a semantic code
in (-1, 1)^L. Inference uses only the extractor and the classifier.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codes as codes_mod
from .core import Matrix, Reader, Rng, as_matrix, pack_matrix
from .errors import (
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    UsageError,
    VersionError,
)

RELU = "relu"
TANH = "tanh"
NONE = "none"

GROUP_FEATURE = "feature"
GROUP_NEW = "new"
GROUP_CODES = "codes"

_ACT_CODES = {RELU: 0, TANH: 1, NONE: 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}

_CKPT_MAGIC = b"LTCK"
_CKPT_VERSION = 1


@dataclass
class DenseLayer:
    """Fully connected layer: out = act(x @ weight + bias)."""

    weight: Matrix  # (fan_in, fan_out)
    bias: Matrix  # (1, fan_out)
    activation: str = NONE

    def __post_init__(self):
        self.weight = as_matrix(self.weight)
        self.bias = as_matrix(self.bias)
        if self.bias.shape != (1, self.weight.shape[1]):
            raise DimensionError(
                f"bias shape {self.bias.shape} does not match weight {self.weight.shape}"
            )
        if self.activation not in _ACT_CODES:
            raise UsageError(f"unknown activation {self.activation!r}")


@dataclass
class ModelParams:
    """Feature extractor layers, classifier layer, and semantic encoder layers."""

    feature: list[DenseLayer]
    classifier: DenseLayer
    encoder: list[DenseLayer]

    def all_layers(self) -> list[DenseLayer]:
        return [*self.feature, self.classifier, *self.encoder]


@dataclass
class ForwardCache:
    """Per-layer (input, output) pairs captured by forward for backward."""

    model: ModelParams
    feature_io: list[tuple[Matrix, Matrix]]
    classifier_io: tuple[Matrix, Matrix]
    encoder_io: Optional[list[tuple[Matrix, Matrix]]]


@dataclass
class ModelGrads:
    """Parameter gradients mirroring ModelParams; encoder is None when the
    semantic branch was not run."""

    feature: list[tuple[Matrix, Matrix]]
    classifier: tuple[Matrix, Matrix]
    encoder: Optional[list[tuple[Matrix, Matrix]]]


def _layer_forward(layer: DenseLayer, x: Matrix) -> Matrix:
    pre = x @ layer.weight + layer.bias
    if layer.activation == RELU:
        return np.maximum(pre, 0.0)
    if layer.activation == TANH:
        return np.tanh(pre)
    return pre


def _layer_backward(
    layer: DenseLayer, x: Matrix, out: Matrix, grad_out: Matrix
) -> tuple[Matrix, Matrix, Matrix]:
    """Returns (grad_weight, grad_bias, grad_input). ReLU derivative at
    exactly zero is zero."""
    if layer.activation == RELU:
        grad_pre = grad_out * (out > 0.0)
    elif layer.activation == TANH:
        grad_pre = grad_out * (1.0 - out * out)
    else:
        grad_pre = grad_out
    gw = x.T @ grad_pre
    gb = grad_pre.sum(axis=0, keepdims=True)
    return gw, gb, grad_pre @ layer.weight.T


def init_model(
    input_dim: int,
    feature_widths: tuple[int, ...],
    num_classes: int,
    encoder_hidden: int,
    code_length: int,
    rng: Rng,
) -> ModelParams:
    """Build a model with fan-in scaled-normal weights and zero biases.

    ReLU layers use std sqrt(2 / fan_in) to preserve activation variance;
    the classifier and the final tanh layer use std sqrt(1 / fan_in).
    """
    if input_dim < 1 or num_classes < 1 or encoder_hidden < 1 or code_length < 1:
        raise DomainError("all model dimensions must be positive")

    def dense(fan_in, fan_out, activation):
        std = np.sqrt(2.0 / fan_in) if activation == RELU else np.sqrt(1.0 / fan_in)
        return DenseLayer(
            weight=rng.normals(fan_in, fan_out) * std,
            bias=np.zeros((1, fan_out)),
            activation=activation,
        )

    feature = []
    width = input_dim
    for w in feature_widths:
        feature.append(dense(width, int(w), RELU))
        width = int(w)
    classifier = dense(width, num_classes, NONE)
    encoder = [
        dense(width, encoder_hidden, RELU),
        dense(encoder_hidden, encoder_hidden, RELU),
        dense(encoder_hidden, code_length, TANH),
    ]
    return ModelParams(feature=feature, classifier=classifier, encoder=encoder)


def forward(
    model: ModelParams, x, semantic: bool = True
) -> tuple[Matrix, Matrix, Optional[Matrix], ForwardCache]:
    """Run the model on a batch.

    Returns (z, logits, semantic_codes, cache); semantic_codes is None when
    ``semantic`` is False (plain classification path).
    """
    x = as_matrix(x)
    first = model.feature[0] if model.feature else model.classifier
    if x.shape[1] != first.weight.shape[0]:
        raise DimensionError(
            f"input dim {x.shape[1]} does not match first layer {first.weight.shape[0]}"
        )
    feature_io = []
    h = x
    for layer in model.feature:
        out = _layer_forward(layer, h)
        feature_io.append((h, out))
        h = out
    z = h
    logits = _layer_forward(model.classifier, z)
    classifier_io = (z, logits)
    encoder_io = None
    v = None
    if semantic:
        encoder_io = []
        h = z
        for layer in model.encoder:
            out = _layer_forward(layer, h)
            encoder_io.append((h, out))
            h = out
        v = h
    cache = ForwardCache(model, feature_io, classifier_io, encoder_io)
    return z, logits, v, cache


def backward(
    model: ModelParams,
    cache: ForwardCache,
    grad_logits,
    grad_semantic=None,
) -> ModelGrads:
    """Exact reverse-mode parameter gradients for one forward pass.

    The feature trunk receives the sum of the classifier-path and
    semantic-path gradients. Pass ``grad_semantic=None`` to skip the
    encoder entirely (its gradient slot in the result is then None).
    """
    if cache.model is not model:
        raise UsageError("cache does not belong to this model")
    grad_logits = as_matrix(grad_logits)
    z, logits = cache.classifier_io
    if grad_logits.shape != logits.shape:
        raise DimensionError(
            f"grad_logits shape {grad_logits.shape} does not match logits {logits.shape}"
        )
    gw_c, gb_c, grad_z = _layer_backward(model.classifier, z, logits, grad_logits)

    encoder_grads = None
    if grad_semantic is not None:
        if cache.encoder_io is None:
            raise UsageError("forward pass skipped the semantic branch")
        grad_semantic = as_matrix(grad_semantic)
        v = cache.encoder_io[-1][1]
        if grad_semantic.shape != v.shape:
            raise DimensionError(
                f"grad_semantic shape {grad_semantic.shape} does not match codes {v.shape}"
            )
        encoder_grads = [None] * len(model.encoder)
        g = grad_semantic
        for i in range(len(model.encoder) - 1, -1, -1):
            x_i, out_i = cache.encoder_io[i]
            gw, gb, g = _layer_backward(model.encoder[i], x_i, out_i, g)
            encoder_grads[i] = (gw, gb)
        grad_z = grad_z + g

    feature_grads = [None] * len(model.feature)
    g = grad_z
    for i in range(len(model.feature) - 1, -1, -1):
        x_i, out_i = cache.feature_io[i]
        gw, gb, g = _layer_backward(model.feature[i], x_i, out_i, g)
        feature_grads[i] = (gw, gb)
    return ModelGrads(feature=feature_grads, classifier=(gw_c, gb_c), encoder=encoder_grads)


@dataclass
class Optimizer:
    """Momentum SGD with weight decay, per-group learning rates, and a
    step-decay schedule shared by every group.

    ``decay_codes=False`` exempts the code learning rate from the schedule.
    Momentum buffers exist for model parameters only; learnable codes take
    plain gradient steps at ``lr(GROUP_CODES, epoch)``.
    """

    momentum: float
    weight_decay: float
    lr_feature: float
    lr_new: float
    lr_codes: float
    decay_epochs: tuple[int, ...]
    decay_factor: float
    decay_codes: bool = True
    feature_bufs: list[tuple[Matrix, Matrix]] = field(default_factory=list, repr=False)
    classifier_buf: Optional[tuple[Matrix, Matrix]] = field(default=None, repr=False)
    encoder_bufs: list[tuple[Matrix, Matrix]] = field(default_factory=list, repr=False)

    def lr(self, group: str, epoch: int) -> float:
        base = {
            GROUP_FEATURE: self.lr_feature,
            GROUP_NEW: self.lr_new,
            GROUP_CODES: self.lr_codes,
        }[group]
        if group == GROUP_CODES and not self.decay_codes:
            return base
        steps = sum(1 for d in self.decay_epochs if epoch >= d)
        return base * self.decay_factor**steps


def init_optimizer(model: ModelParams, hp, decay_codes: bool = True) -> Optimizer:
    """Fresh optimizer with zeroed momentum buffers for ``model``."""

    def zeros_like_layer(layer):
        return (np.zeros_like(layer.weight), np.zeros_like(layer.bias))

    return Optimizer(
        momentum=hp.momentum,
        weight_decay=hp.weight_decay,
        lr_feature=hp.lr_feature,
        lr_new=hp.lr_new,
        lr_codes=hp.lr_codes,
        decay_epochs=tuple(hp.decay_epochs),
        decay_factor=hp.decay_factor,
        decay_codes=decay_codes,
        feature_bufs=[zeros_like_layer(l) for l in model.feature],
        classifier_buf=zeros_like_layer(model.classifier),
        encoder_bufs=[zeros_like_layer(l) for l in model.encoder],
    )


def _apply_sgd(layer: DenseLayer, buf, grads, lr, momentum, weight_decay):
    gw, gb = grads
    bw, bb = buf
    bw *= momentum
    bw += gw + weight_decay * layer.weight
    bb *= momentum
    bb += gb + weight_decay * layer.bias
    layer.weight -= lr * bw
    layer.bias -= lr * bb


def sgd_step(opt: Optimizer, model: ModelParams, grads: ModelGrads, epoch: int) -> None:
    """One optimizer step: buf <- momentum*buf + grad + wd*param, then
    param <- param - lr(group, epoch)*buf.

    Skips the encoder when its gradients are absent (plain classification).
    All gradients are validated before any parameter changes, so a numeric
    error leaves the model untouched.
    """
    if len(grads.feature) != len(model.feature):
        raise DimensionError("feature gradient count does not match model")
    if grads.encoder is not None and len(grads.encoder) != len(model.encoder):
        raise DimensionError("encoder gradient count does not match model")
    checked = list(grads.feature) + [grads.classifier] + list(grads.encoder or [])
    for gw, gb in checked:
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError("parameter gradient contains non-finite entries")
    lr_f = opt.lr(GROUP_FEATURE, epoch)
    lr_n = opt.lr(GROUP_NEW, epoch)
    for layer, buf, g in zip(model.feature, opt.feature_bufs, grads.feature):
        _apply_sgd(layer, buf, g, lr_f, opt.momentum, opt.weight_decay)
    _apply_sgd(
        model.classifier, opt.classifier_buf, grads.classifier, lr_n, opt.momentum, opt.weight_decay
    )
    if grads.encoder is not None:
        for layer, buf, g in zip(model.encoder, opt.encoder_bufs, grads.encoder):
            _apply_sgd(layer, buf, g, lr_n, opt.momentum, opt.weight_decay)


# --- checkpoint serialization ------------------------------------------------

@dataclass
class CheckpointState:
    """Everything needed to resume a run exactly where it stopped."""

    mode: str
    seed: int
    rng_state: int
    epoch: int
    model: ModelParams
    optimizer: Optimizer
    bank: Optional[codes_mod.CodeBank]


_MODE_CODES = {"baseline": 0, "htc": 1, "ltc": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}


def save_checkpoint(path, state: CheckpointState) -> None:
    """Write the full training state as a little-endian LTCK file.

    Layout after the magic and u32 version: u32 mode, u64 seed, u64 RNG
    state, u32 epoch; u32 feature layer count then per layer u8 activation
    + weight + bias matrices; the classifier layer; u32 encoder layer count
    and its layers; the momentum buffers in the same order; u8 bank flag
    and, when set, the :func:`codes.pack_bank` section. Matrices serialize
    as :func:`core.pack_matrix`.
    """
    parts = [
        _CKPT_MAGIC,
        struct.pack(
            "<IIQQI",
            _CKPT_VERSION,
            _MODE_CODES[state.mode],
            state.seed & (2**64 - 1),
            state.rng_state & (2**64 - 1),
            state.epoch,
        ),
    ]

    def pack_layers(layers):
        parts.append(struct.pack("<I", len(layers)))
        for layer in layers:
            parts.append(struct.pack("<B", _ACT_CODES[layer.activation]))
            parts.append(pack_matrix(layer.weight))
            parts.append(pack_matrix(layer.bias))

    pack_layers(state.model.feature)
    pack_layers([state.model.classifier])
    pack_layers(state.model.encoder)
    opt = state.optimizer
    parts.append(
        struct.pack(
            "<ddddd?",
            opt.momentum,
            opt.weight_decay,
            opt.lr_feature,
            opt.lr_new,
            opt.lr_codes,
            opt.decay_codes,
        )
    )
    parts.append(struct.pack("<Id", len(opt.decay_epochs), opt.decay_factor))
    for d in opt.decay_epochs:
        parts.append(struct.pack("<I", d))
    for bufs in (opt.feature_bufs, [opt.classifier_buf], opt.encoder_bufs):
        for bw, bb in bufs:
            parts.append(pack_matrix(bw))
            parts.append(pack_matrix(bb))
    if state.bank is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(codes_mod.pack_bank(state.bank))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path) -> CheckpointState:
    """Read an LTCK file written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4 or raw[:4] != _CKPT_MAGIC:
        raise FormatError(f"not a checkpoint file (bad magic {raw[:4]!r})")
    rd = Reader(raw, "checkpoint")
    rd.take(4)
    (version,) = rd.unpack("<I")
    if version != _CKPT_VERSION:
        raise VersionError(f"unsupported checkpoint version {version}")
    mode_code, seed, rng_state, epoch = rd.unpack("<IQQI")
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"unknown mode code {mode_code}")

    def read_layers():
        (count,) = rd.unpack("<I")
        layers = []
        for _ in range(count):
            (act,) = rd.unpack("<B")
            if act not in _ACT_NAMES:
                raise FormatError(f"unknown activation code {act}")
            w = rd.matrix()
            b = rd.matrix()
            layers.append(DenseLayer(weight=w, bias=b, activation=_ACT_NAMES[act]))
        return layers

    feature = read_layers()
    classifier_layers = read_layers()
    if len(classifier_layers) != 1:
        raise FormatError("checkpoint must contain exactly one classifier layer")
    encoder = read_layers()
    model = ModelParams(feature=feature, classifier=classifier_layers[0], encoder=encoder)
    momentum, weight_decay, lr_f, lr_n, lr_c, decay_codes = rd.unpack("<ddddd?")
    n_decay, decay_factor = rd.unpack("<Id")
    decay_epochs = tuple(rd.unpack("<I")[0] for _ in range(n_decay))
    opt = Optimizer(
        momentum=momentum,
        weight_decay=weight_decay,
        lr_feature=lr_f,
        lr_new=lr_n,
        lr_codes=lr_c,
        decay_epochs=decay_epochs,
        decay_factor=decay_factor,
        decay_codes=decay_codes,
    )
    opt.feature_bufs = [(rd.matrix(), rd.matrix()) for _ in feature]
    opt.classifier_buf = (rd.matrix(), rd.matrix())
    opt.encoder_bufs = [(rd.matrix(), rd.matrix()) for _ in encoder]
    (has_bank,) = rd.unpack("<B")
    bank = codes_mod.read_bank(rd) if has_bank else None
    rd.finish()
    return CheckpointState(
        mode=_MODE_NAMES[mode_code],
        seed=seed,
        rng_state=rng_state,
        epoch=epoch,
        model=model,
        optimizer=opt,
        bank=bank,
    )
