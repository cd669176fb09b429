"""Feedforward model with explicit backprop, a grouped momentum-SGD
optimizer, and binary checkpoint serialization.

The model is three sub-networks sharing one trunk: a feature extractor
(ReLU MLP) producing z, a linear classifier producing logits, and a
three-layer semantic encoder (ReLU, ReLU, tanh) producing a semantic code
in (-1, 1)^L. Inference uses only the extractor and the classifier.
:func:`layer_specs` states this architecture once, and every model is
built from it.

Parameters, momentum and gradients each live in one flat float64 buffer
owned by the model, every layer's weight then bias in ``all_layers()``
order, and the per-layer matrices are views of it. So an optimizer step is
a few ufuncs over whole slices of those buffers, not a few per layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import codes as codes_mod
from .core import Matrix, Reader, Rng, as_matrix, atomic_open, pack_matrix
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

# Elements per slice that one SGD ufunc pass covers. Whole-buffer passes
# were slower at paper dims: their temporaries fall out of cache.
_CHUNK = 1 << 15


def _views(flat: np.ndarray, shapes) -> list[tuple[Matrix, Matrix]]:
    """For each ``(fan_in, fan_out)`` of ``shapes``, a weight then a bias
    as views of ``flat``, back to back from its start."""
    pairs, at = [], 0
    for r, c in shapes:
        end = at + r * c
        pairs.append((flat[at:end].reshape(r, c), flat[end : end + c].reshape(1, c)))
        at = end + c
    return pairs


def _flat(shapes) -> tuple[np.ndarray, list[tuple[Matrix, Matrix]]]:
    """A fresh zeroed 1-D float64 buffer sized for ``shapes``, and its
    :func:`_views`."""
    flat = np.zeros(sum([(r + 1) * c for r, c in shapes]))
    return flat, _views(flat, shapes)


@dataclass(frozen=True)
class DenseLayer:
    """Fully connected layer: out = act(x @ weight + bias). Its arrays are
    views of its model's flat store and its activation comes from
    :func:`layer_specs`; edit the arrays in place, as rebinding them fails."""

    weight: Matrix  # (fan_in, fan_out)
    bias: Matrix  # (1, fan_out)
    activation: str


class ModelParams:
    """The model that :func:`layer_specs` lays out for ``dims``, its
    ``(input_dim, feature_widths, num_classes, encoder_hidden,
    code_length)`` with ``feature_widths`` a tuple, over a zeroed flat
    store ``flat`` of its own: the feature layers, the classifier layer and
    the semantic encoder layers, each weight then bias in ``all_layers()``
    order, their ``(fan_in, fan_out)`` in ``shapes``. The feature span of
    ``flat`` ends at ``feature_end`` and the classifier's at
    ``classifier_end``. :func:`init_model` and :func:`load_checkpoint`
    build every model so; a dimension below 1 raises DomainError first.

    ``momentum`` is its momentum store, laid out like ``flat``, zeroed here
    and rebound zeroed by :func:`init_optimizer`.

    ``grad`` is its one gradient store, laid out like ``flat``, and
    ``grads`` the per-layer (grad_weight, grad_bias) views of it. The first
    :func:`backward` allocates them, so a model that only evaluates holds
    none. ``grad_end`` is where the span of ``grad`` that the last backward
    filled ends: ``classifier_end``, or the size of the store.
    """

    def __init__(self, dims):
        if min(dims[0], *dims[1], *dims[2:]) < 1:
            raise DomainError("all model dimensions must be positive")
        self.dims = dims
        specs = layer_specs(*dims)
        self.shapes = [(fan_in, fan_out) for fan_in, fan_out, _ in specs]
        self.flat, pairs = _flat(self.shapes)
        self.momentum = np.zeros(self.flat.size)
        layers = [DenseLayer(w, b, act) for (w, b), (_, _, act) in zip(pairs, specs)]
        n = len(dims[1])
        self.feature, self.classifier = tuple(layers[:n]), layers[n]
        self.encoder = tuple(layers[n + 1 :])
        sizes = [(r + 1) * c for r, c in self.shapes]
        self.feature_end, self.classifier_end = sum(sizes[:n]), sum(sizes[: n + 1])
        self.grad: Optional[np.ndarray] = None
        self.grads: list[tuple[Matrix, Matrix]] = []
        self.grad_end = 0

    def all_layers(self) -> list[DenseLayer]:
        return [*self.feature, self.classifier, *self.encoder]


@dataclass
class ForwardCache:
    """One (input, output) pair per layer that forward ran, in
    ``all_layers()`` order; the encoder's pairs are absent when the
    semantic branch was skipped."""

    model: ModelParams
    io: list[tuple[Matrix, Matrix]]


def _layer_forward(layer: DenseLayer, x: Matrix) -> Matrix:
    # bias and activation run in place on the product: same ufuncs, same bits
    out = x @ layer.weight
    out += layer.bias
    if layer.activation == RELU:
        np.maximum(out, 0.0, out=out)
    elif layer.activation == TANH:
        np.tanh(out, out=out)
    return out


def _layer_backward(
    layer: DenseLayer, x: Matrix, out: Matrix, grad_out: Matrix, into, need_input: bool = True
) -> Optional[Matrix]:
    """Writes (grad_weight, grad_bias) into the pair ``into`` and returns
    grad_input, or None when ``need_input`` is False. ReLU derivative at
    exactly zero is zero."""
    if layer.activation == RELU:
        grad_pre = grad_out * (out > 0.0)
    elif layer.activation == TANH:
        grad_pre = grad_out * (1.0 - out * out)
    else:
        grad_pre = grad_out
    np.matmul(x.T, grad_pre, out=into[0])
    np.add.reduce(grad_pre, axis=0, keepdims=True, out=into[1])
    return grad_pre @ layer.weight.T if need_input else None


def layer_specs(
    input_dim: int,
    feature_widths: tuple[int, ...],
    num_classes: int,
    encoder_hidden: int,
    code_length: int,
) -> list[tuple[int, int, str]]:
    """(fan_in, fan_out, activation) of every layer, in ``all_layers()``
    order: the ReLU feature layers, the linear classifier, and the
    ReLU-ReLU-tanh semantic encoder."""
    specs = []
    width = input_dim
    for w in feature_widths:
        specs.append((width, int(w), RELU))
        width = int(w)
    specs.append((width, num_classes, NONE))
    specs += [
        (width, encoder_hidden, RELU),
        (encoder_hidden, encoder_hidden, RELU),
        (encoder_hidden, code_length, TANH),
    ]
    return specs


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
    dims = (input_dim, tuple(feature_widths), num_classes, encoder_hidden, code_length)
    model = ModelParams(dims)
    for layer, (fan_in, fan_out) in zip(model.all_layers(), model.shapes):
        std = np.sqrt(2.0 / fan_in) if layer.activation == RELU else np.sqrt(1.0 / fan_in)
        np.multiply(rng.normals(fan_in, fan_out), std, out=layer.weight)
    return model


def forward(
    model: ModelParams, x, semantic: bool = True
) -> tuple[Matrix, Matrix, Optional[Matrix], ForwardCache]:
    """Run the model on a batch.

    Returns (z, logits, semantic_codes, cache); semantic_codes is None when
    ``semantic`` is False (plain classification path).
    """
    x = as_matrix(x)
    if x.shape[1] != model.dims[0]:
        raise DimensionError(f"input dim {x.shape[1]} does not match first layer {model.dims[0]}")
    io = []
    h = x
    for layer in model.feature:
        out = _layer_forward(layer, h)
        io.append((h, out))
        h = out
    z = h
    logits = _layer_forward(model.classifier, z)
    io.append((z, logits))
    v = None
    if semantic:
        for layer in model.encoder:
            out = _layer_forward(layer, h)
            io.append((h, out))
            h = out
        v = h
    return z, logits, v, ForwardCache(model, io)


def backward(cache: ForwardCache, grad_logits, grad_semantic=None) -> list[tuple[Matrix, Matrix]]:
    """Exact reverse-mode parameter gradients for the forward pass that
    made ``cache``, one (grad_weight, grad_bias) pair per layer in
    ``all_layers()`` order, written into the gradient store ``grad`` of
    ``cache.model`` (allocated by the first call) and returned as its views
    ``grads``. The next backward on the same model overwrites them: copy a
    pair to keep it.

    The feature trunk receives the sum of the classifier-path and
    semantic-path gradients. Pass ``grad_semantic=None`` to skip the
    encoder entirely; its pairs are then absent from the result, the
    model's ``grad_end`` marks only the feature and classifier prefix of
    the store as filled, and the encoder's span keeps what it held.
    """
    model = cache.model
    layers = model.all_layers()
    n = len(model.feature)
    grad_logits = as_matrix(grad_logits)
    z, logits = cache.io[n]
    if grad_logits.shape != logits.shape:
        raise DimensionError(
            f"grad_logits shape {grad_logits.shape} does not match logits {logits.shape}"
        )
    if grad_semantic is not None:
        if len(cache.io) != len(layers):
            raise UsageError("forward pass skipped the semantic branch")
        grad_semantic = as_matrix(grad_semantic)
        v = cache.io[-1][1]
        if grad_semantic.shape != v.shape:
            raise DimensionError(
                f"grad_semantic shape {grad_semantic.shape} does not match codes {v.shape}"
            )
    else:
        layers = layers[: n + 1]
    if model.grad is None:  # zeros: the span a baseline step skips is defined too
        model.grad, model.grads = _flat(model.shapes)
    model.grad_end = model.classifier_end if grad_semantic is None else model.grad.size
    grads = model.grads[: len(layers)]
    grad_z = _layer_backward(model.classifier, z, logits, grad_logits, grads[n])
    if grad_semantic is not None:
        g = grad_semantic
        for i in range(len(layers) - 1, n, -1):
            g = _layer_backward(layers[i], *cache.io[i], g, grads[i])
        grad_z = grad_z + g
    g = grad_z
    for i in range(n - 1, -1, -1):
        # nothing reads the gradient of the model's input
        g = _layer_backward(layers[i], *cache.io[i], g, grads[i], need_input=i > 0)
    return grads


@dataclass
class Optimizer:
    """Momentum SGD with weight decay, per-group learning rates, and a
    step-decay schedule shared by every group.

    It holds only settings: the momentum buffer is the model's
    ``momentum``. ``decay_codes=False`` exempts the code learning rate from
    the schedule. Momentum exists for model parameters only; learnable codes
    take plain gradient steps at ``lr(GROUP_CODES, epoch)``.
    """

    momentum: float
    weight_decay: float
    lr_feature: float
    lr_new: float
    lr_codes: float
    decay_epochs: tuple[int, ...]
    decay_factor: float
    decay_codes: bool

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


# the Optimizer settings stored as "<ddddd?" in an LTCK file, in file order
_OPT_SCALARS = ("momentum", "weight_decay", "lr_feature", "lr_new", "lr_codes", "decay_codes")
# the Optimizer settings init_optimizer copies from same-named Hyperparams fields
_HP_SETTINGS = (*_OPT_SCALARS[:-1], "decay_epochs", "decay_factor")


def init_optimizer(model: ModelParams, hp, decay_codes: bool = True) -> Optimizer:
    """Fresh optimizer with ``hp``'s settings. Momentum restarts from zero:
    ``model`` gets a new zeroed ``momentum`` store, and the old one is left
    as it was."""
    model.momentum = np.zeros(model.flat.size)
    return Optimizer(**{k: getattr(hp, k) for k in _HP_SETTINGS}, decay_codes=decay_codes)


def sgd_step(opt: Optimizer, model: ModelParams, epoch: int) -> None:
    """One optimizer step: buf <- momentum*buf + grad + wd*param, then
    param <- param - lr(group, epoch)*buf with ``buf`` the model's
    ``momentum``, over the flat stores in slices of at most ``_CHUNK``
    elements; the feature span takes the feature rate and the rest the
    new-head rate.

    The step reads the model's gradient store ``model.grad`` over the span
    that the last :func:`backward` filled, so the encoder is skipped after
    a backward without it (plain classification). The gradient is
    validated before any parameter changes, so a numeric error leaves the
    model untouched.
    """
    if model.grad is None:
        raise UsageError("sgd_step needs a backward on this model first")
    p, buf, g = model.flat, model.momentum, model.grad[: model.grad_end]
    # checked a slice at a time, so no mask the size of the store is allocated
    if not all(np.isfinite(g[a : a + _CHUNK]).all() for a in range(0, g.size, _CHUNK)):
        raise NumericError("parameter gradient contains non-finite entries")
    split = model.feature_end
    lr_feature, lr_new = opt.lr(GROUP_FEATURE, epoch), opt.lr(GROUP_NEW, epoch)
    scratch = np.empty(min(_CHUNK, g.size))
    for a in range(0, g.size, _CHUNK):
        b = min(a + _CHUNK, g.size)
        pa, ba, t = p[a:b], buf[a:b], scratch[: b - a]
        # the per-layer formula's ufuncs, in its order: same bits
        ba *= opt.momentum
        np.multiply(pa, opt.weight_decay, out=t)
        t += g[a:b]
        ba += t
        np.multiply(ba, lr_new, out=t)
        if a < split:
            np.multiply(ba[: split - a], lr_feature, out=t[: split - a])
        pa -= t


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
    model, opt = state.model, state.optimizer
    with atomic_open(path, "wb") as fh:
        # each section is written as soon as it is packed: no copy of the file
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack(
            "<IIQQI",
            _CKPT_VERSION,
            _MODE_CODES[state.mode],
            state.seed & (2**64 - 1),
            state.rng_state & (2**64 - 1),
            state.epoch,
        ))
        for layers in (model.feature, [model.classifier], model.encoder):
            fh.write(struct.pack("<I", len(layers)))
            for layer in layers:
                fh.write(struct.pack("<B", _ACT_CODES[layer.activation]))
                fh.write(pack_matrix(layer.weight))
                fh.write(pack_matrix(layer.bias))
        fh.write(struct.pack("<ddddd?", *(getattr(opt, k) for k in _OPT_SCALARS)))
        fh.write(struct.pack("<Id", len(opt.decay_epochs), opt.decay_factor))
        for d in opt.decay_epochs:
            fh.write(struct.pack("<I", d))
        for pair in _views(model.momentum, model.shapes):
            for a in pair:
                fh.write(pack_matrix(a))
        fh.write(struct.pack("<B", state.bank is not None))
        if state.bank is not None:
            fh.write(codes_mod.pack_bank(state.bank))


def load_checkpoint(path) -> CheckpointState:
    """Read an LTCK file written by :func:`save_checkpoint`. A file that
    disagrees with itself raises FormatError: layers that do not chain,
    a momentum matrix or a bank shaped unlike the model, or a bank kind
    that does not follow the mode (Hadamard exactly in ``htc``).

    The values go straight from the file into the flat store: a first pass
    over the layer sections reads their shapes and skips their values,
    which then fill the views of the model those shapes describe."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise FormatError(f"not a checkpoint file (bad magic {magic!r})")
        rd = Reader(fh, "checkpoint")
        (version,) = rd.unpack("<I")
        if version != _CKPT_VERSION:
            raise VersionError(f"unsupported checkpoint version {version}")
        mode_code, seed, rng_state, epoch = rd.unpack("<IQQI")
        if mode_code not in _MODE_NAMES:
            raise FormatError(f"unknown mode code {mode_code}")
        counts, acts, shapes, offsets = [], [], [], []
        for section in range(3):  # feature, classifier, encoder
            counts.append(rd.unpack("<I")[0])
            if section == 1 and counts[-1] != 1:
                raise FormatError("checkpoint must contain exactly one classifier layer")
            for _ in range(counts[-1]):
                (act,) = rd.unpack("<B")
                if act not in _ACT_NAMES:
                    raise FormatError(f"unknown activation code {act}")
                acts.append(_ACT_NAMES[act])
                weight = rd.unpack("<II")
                offsets.append(rd.skip(8 * weight[0] * weight[1]))
                bias = rd.unpack("<II")
                offsets.append(rd.skip(8 * bias[0] * bias[1]))
                if bias != (1, weight[1]):
                    raise DimensionError(f"bias shape {bias} does not match weight {weight}")
                shapes.append(weight)
        n = counts[0]
        hidden = shapes[n + 1][1] if counts[2] else 0
        dims = (shapes[0][0], tuple(w for _, w in shapes[:n]), shapes[n][1], hidden, shapes[-1][1])
        got = [(*shape, act) for shape, act in zip(shapes, acts)]
        if got != layer_specs(*dims):
            raise FormatError(f"checkpoint layers {got} do not chain into one model")
        model = ModelParams(dims)
        for at, view in zip(offsets, [a for l in model.all_layers() for a in (l.weight, l.bias)]):
            rd.fill(view, at)
        settings = dict(zip(_OPT_SCALARS, rd.unpack("<ddddd?")))
        n_decay, settings["decay_factor"] = rd.unpack("<Id")
        settings["decay_epochs"] = tuple(rd.unpack("<I")[0] for _ in range(n_decay))
        for i, pair in enumerate(_views(model.momentum, model.shapes)):
            for name, view in zip(("weight", "bias"), pair):
                shape = rd.unpack("<II")
                if shape != view.shape:
                    raise FormatError(
                        f"checkpoint momentum {shape} of layer {i} does not match its {name} "
                        f"{view.shape}"
                    )
                rd.fill(view)
        (has_bank,) = rd.unpack("<B")
        bank = codes_mod.read_bank(rd) if has_bank else None
        rd.finish()
    mode = _MODE_NAMES[mode_code]
    if bank is not None:
        _, _, num_classes, _, code_length = model.dims
        if bank.weights.shape != (num_classes, code_length):
            raise FormatError(
                f"checkpoint code bank is {bank.num_classes} x {bank.code_length}, but its "
                f"model has {num_classes} classes and code length {code_length}"
            )
        if (bank.kind == codes_mod.HADAMARD_FIXED) != (mode == "htc"):
            raise FormatError(f"checkpoint code bank is {bank.kind} in mode {mode!r}")
    return CheckpointState(
        mode=mode,
        seed=seed,
        rng_state=rng_state,
        epoch=epoch,
        model=model,
        optimizer=Optimizer(**settings),
        bank=bank,
    )
