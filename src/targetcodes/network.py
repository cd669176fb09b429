"""Feedforward model with explicit backprop, a grouped momentum-SGD
optimizer, and binary checkpoint serialization.

The model is three sub-networks sharing one trunk: a feature extractor
(ReLU MLP) producing z, a linear classifier producing logits, and a
three-layer semantic encoder (ReLU, ReLU, tanh) producing a semantic code
in (-1, 1)^L. Inference uses only the extractor and the classifier.

Parameters, momentum and gradients each live in one flat float64 buffer,
every layer's weight then bias in ``all_layers()`` order, and the
per-layer matrices are views of it. So an optimizer step is a few ufuncs
over whole slices of those buffers, not a few per layer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
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


def _flat(dims, fill=np.empty) -> tuple[np.ndarray, list[tuple[Matrix, Matrix]]]:
    """The one allocation site of the flat store: a fresh 1-D float64
    buffer holding, for each ``(fan_in, fan_out)`` of ``dims``, a weight
    then a bias, back to back, and each such (weight, bias) pair as views
    of it. One pass over ``dims``: backward runs this every step."""
    flat = fill(sum([(r + 1) * c for r, c in dims]))
    pairs, at = [], 0
    for r, c in dims:
        end = at + r * c
        pairs.append((flat[at:end].reshape(r, c), flat[end : end + c].reshape(1, c)))
        at = end + c
    return flat, pairs


def _check_bias(weight_shape, bias_shape) -> None:
    if bias_shape != (1, weight_shape[1]):
        raise DimensionError(f"bias shape {bias_shape} does not match weight {weight_shape}")


def _views_of(flat: Optional[np.ndarray], pairs) -> bool:
    """Whether every array of ``pairs`` is a view of ``flat``."""
    return flat is not None and all(a.base is flat for pair in pairs for a in pair)


@dataclass
class DenseLayer:
    """Fully connected layer: out = act(x @ weight + bias)."""

    weight: Matrix  # (fan_in, fan_out)
    bias: Matrix  # (1, fan_out)
    activation: str = NONE

    def __post_init__(self):
        self.weight = as_matrix(self.weight)
        self.bias = as_matrix(self.bias)
        _check_bias(self.weight.shape, self.bias.shape)
        if self.activation not in _ACT_CODES:
            raise UsageError(f"unknown activation {self.activation!r}")


@dataclass
class ModelParams:
    """Feature extractor layers, classifier layer, and semantic encoder layers.

    ``flat`` holds every layer's weight then bias, in ``all_layers()``
    order, and the layers' arrays are views of it. :func:`init_model` and
    :func:`load_checkpoint` build models so, and :func:`sgd_step` trains
    no other. A model built by hand, with ``flat`` None, still runs
    :func:`forward`, evaluation and :func:`save_checkpoint`.
    """

    feature: list[DenseLayer]
    classifier: DenseLayer
    encoder: list[DenseLayer]
    flat: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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


def model_dims(model: ModelParams) -> tuple[int, tuple[int, ...], int, int, int]:
    """``(input_dim, feature_widths, num_classes, encoder_hidden,
    code_length)`` read from ``model``'s weight shapes: the arguments of
    :func:`layer_specs` for a model that it lays out."""
    shapes = [l.weight.shape for l in model.all_layers()]
    n = len(model.feature)
    hidden = shapes[n + 1][1] if model.encoder else 0
    return shapes[0][0], tuple(w for _, w in shapes[:n]), shapes[n][1], hidden, shapes[-1][1]


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
    specs = layer_specs(input_dim, feature_widths, num_classes, encoder_hidden, code_length)
    flat, pairs = _flat([(i, o) for i, o, _ in specs], np.zeros)
    layers = []
    for (fan_in, fan_out, act), (w, b) in zip(specs, pairs):
        std = np.sqrt(2.0 / fan_in) if act == RELU else np.sqrt(1.0 / fan_in)
        np.multiply(rng.normals(fan_in, fan_out), std, out=w)
        layers.append(DenseLayer(w, b, act))
    n = len(feature_widths)
    return ModelParams(
        feature=layers[:n], classifier=layers[n], encoder=layers[n + 1 :], flat=flat
    )


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


class Gradients(tuple):
    """What :func:`backward` returns, and the only gradients that
    :func:`sgd_step` takes: one (grad_weight, grad_bias) pair per layer it
    reached, in ``all_layers()`` order, each pair views of the one flat
    buffer ``flat``. No pair can be replaced, so ``flat`` always holds
    what the pairs hold; edit a gradient in place through its views."""

    def __new__(cls, flat: np.ndarray, pairs: list[tuple[Matrix, Matrix]]):
        grads = super().__new__(cls, pairs)
        grads.flat = flat
        return grads


def backward(
    model: ModelParams,
    cache: ForwardCache,
    grad_logits,
    grad_semantic=None,
) -> Gradients:
    """Exact reverse-mode parameter gradients for one forward pass, one
    (grad_weight, grad_bias) pair per layer in ``all_layers()`` order,
    written into one fresh flat buffer.

    The feature trunk receives the sum of the classifier-path and
    semantic-path gradients. Pass ``grad_semantic=None`` to skip the
    encoder entirely; its pairs are then absent from the result, which
    covers only the feature and classifier prefix of the flat store.
    """
    if cache.model is not model:
        raise UsageError("cache does not belong to this model")
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
    grads = Gradients(*_flat([l.weight.shape for l in layers]))
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

    ``decay_codes=False`` exempts the code learning rate from the schedule.
    ``flat`` is the momentum buffer, laid out like the model's ``flat``,
    and ``bufs`` holds its (weight, bias) views, one pair per layer in
    ``all_layers()`` order. Momentum buffers exist for model parameters
    only; learnable codes take plain gradient steps at
    ``lr(GROUP_CODES, epoch)``.
    """

    momentum: float
    weight_decay: float
    lr_feature: float
    lr_new: float
    lr_codes: float
    decay_epochs: tuple[int, ...]
    decay_factor: float
    decay_codes: bool = True
    bufs: list[tuple[Matrix, Matrix]] = field(default_factory=list, repr=False)
    flat: Optional[np.ndarray] = field(default=None, repr=False)

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
    """Fresh optimizer with zeroed momentum buffers, laid out like the flat
    store of ``model``."""
    flat, bufs = _flat([l.weight.shape for l in model.all_layers()], np.zeros)
    return Optimizer(
        **{k: getattr(hp, k) for k in _HP_SETTINGS},
        decay_codes=decay_codes,
        bufs=bufs,
        flat=flat,
    )


def sgd_step(opt: Optimizer, model: ModelParams, grads, epoch: int) -> None:
    """One optimizer step: buf <- momentum*buf + grad + wd*param, then
    param <- param - lr(group, epoch)*buf, over the flat store in slices
    of at most ``_CHUNK`` elements; the feature span takes the feature
    rate and the rest the new-head rate.

    ``grads`` is what :func:`backward` returns for ``model``, which
    :func:`init_model` or :func:`load_checkpoint` built; the encoder is
    skipped when its gradients are absent (plain classification). All
    gradients are validated before any parameter changes, so a numeric
    error leaves the model untouched.
    """
    layers = model.all_layers()
    n = len(model.feature)
    if len(grads) not in (n + 1, len(layers)):
        raise DimensionError("gradient count does not match model")
    if not isinstance(grads, Gradients):
        raise UsageError("gradients must be what backward returns")
    p, buf, g = model.flat, opt.flat, grads.flat
    params = [(l.weight, l.bias) for l in layers]
    if not (_views_of(p, params) and _views_of(buf, opt.bufs) and buf.size == p.size):
        raise UsageError(
            "model and momentum are not one flat store: build the model with "
            "init_model or load_checkpoint, and its momentum with init_optimizer"
        )
    sizes = [w.size + b.size for w, b in params]
    if g.size != sum(sizes[: len(grads)]):
        raise DimensionError("gradient shapes do not match model")
    if not np.isfinite(g).all():
        raise NumericError("parameter gradient contains non-finite entries")
    split = sum(sizes[:n])  # where the feature span ends
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
    parts.append(struct.pack("<ddddd?", *(getattr(opt, k) for k in _OPT_SCALARS)))
    parts.append(struct.pack("<Id", len(opt.decay_epochs), opt.decay_factor))
    for d in opt.decay_epochs:
        parts.append(struct.pack("<I", d))
    for bw, bb in opt.bufs:
        parts.append(pack_matrix(bw))
        parts.append(pack_matrix(bb))
    if state.bank is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<B", 1))
        parts.append(codes_mod.pack_bank(state.bank))
    with atomic_open(path, "wb") as fh:
        for part in parts:  # no joined copy of the whole file
            fh.write(part)


def load_checkpoint(path) -> CheckpointState:
    """Read an LTCK file written by :func:`save_checkpoint`. A file that
    disagrees with itself raises FormatError: layers that do not chain,
    momentum buffers or a bank shaped unlike the model, or a bank kind
    that does not follow the mode (Hadamard exactly in ``htc``).

    The values go straight from the file into the flat store: a first pass
    over the layer sections reads their shapes and skips their values,
    which then fill the views of a store of that size."""
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
        counts, acts, dims, offsets = [], [], [], []
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
                _check_bias(weight, bias)
                dims.append(weight)
        flat, pairs = _flat(dims)
        layers = [DenseLayer(w, b, act) for (w, b), act in zip(pairs, acts)]
        n = counts[0]
        model = ModelParams(
            feature=layers[:n], classifier=layers[n], encoder=layers[n + 1 :], flat=flat
        )
        got = [(*l.weight.shape, l.activation) for l in layers]
        if got != layer_specs(*model_dims(model)):
            raise FormatError(f"checkpoint layers {got} do not chain into one model")
        for at, view in zip(offsets, [a for pair in pairs for a in pair]):
            rd.fill(view, at)
        settings = dict(zip(_OPT_SCALARS, rd.unpack("<ddddd?")))
        n_decay, settings["decay_factor"] = rd.unpack("<Id")
        settings["decay_epochs"] = tuple(rd.unpack("<I")[0] for _ in range(n_decay))
        momentum, bufs = _flat(dims)
        opt = Optimizer(**settings, bufs=bufs, flat=momentum)
        for i, (layer, pair) in enumerate(zip(layers, opt.bufs)):
            got = []
            for view in pair:
                got.append(rd.unpack("<II"))
                if got[-1] == view.shape:
                    rd.fill(view)
                else:
                    rd.skip(8 * got[-1][0] * got[-1][1])
            if got != [view.shape for view in pair]:
                raise FormatError(
                    f"checkpoint momentum buffers {got[0]}, {got[1]} of layer {i} do not "
                    f"match its weight {layer.weight.shape} and bias {layer.bias.shape}"
                )
        (has_bank,) = rd.unpack("<B")
        bank = codes_mod.read_bank(rd) if has_bank else None
        rd.finish()
    mode = _MODE_NAMES[mode_code]
    if bank is not None:
        _, _, num_classes, _, code_length = model_dims(model)
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
        optimizer=opt,
        bank=bank,
    )
