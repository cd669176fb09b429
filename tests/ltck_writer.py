"""Writes LTCK v1 checkpoint files part by part, so that tests can make the
malformed files that ``network.save_checkpoint`` cannot: layers that do not
chain, momentum shaped unlike its layers, zero-sized matrices."""

import struct

from targetcodes.codes import pack_bank
from targetcodes.core import pack_matrix
from targetcodes.network import _views

_ACT_CODES = {"relu": 0, "tanh": 1, "none": 2}
_MODE_CODES = {"baseline": 0, "htc": 1, "ltc": 2}


def layer_sections(model):
    """``model``'s feature, classifier and encoder sections, each a list of
    (activation, weight, bias)."""
    return [
        [(l.activation, l.weight, l.bias) for l in part]
        for part in (model.feature, [model.classifier], model.encoder)
    ]


def momentum_matrices(state):
    """The momentum of ``state``: each layer's weight then bias matrix."""
    return [a for pair in _views(state.model.momentum, state.model.shapes) for a in pair]


def write_ltck(path, sections, momentum, state=None):
    """Write an LTCK v1 file holding the layer ``sections`` (as
    :func:`layer_sections` gives them) and the ``momentum`` matrices. The
    header, optimizer settings and code bank are those of ``state``; without
    one, they are a baseline run at epoch 0 with no code bank."""
    if state is None:
        head, bank = ("baseline", 0, 0, 0), None
        scalars, decay_factor, decay_epochs = (0.9, 5e-4, 0.01, 0.1, 0.01, True), 0.1, ()
    else:
        opt, bank = state.optimizer, state.bank
        head = (state.mode, state.seed, state.rng_state, state.epoch)
        scalars = (opt.momentum, opt.weight_decay, opt.lr_feature, opt.lr_new, opt.lr_codes,
                   opt.decay_codes)
        decay_factor, decay_epochs = opt.decay_factor, opt.decay_epochs
    mode, seed, rng_state, epoch = head
    parts = [b"LTCK", struct.pack("<IIQQI", 1, _MODE_CODES[mode], seed, rng_state, epoch)]
    for section in sections:
        parts.append(struct.pack("<I", len(section)))
        for act, weight, bias in section:
            parts += [struct.pack("<B", _ACT_CODES[act]), pack_matrix(weight), pack_matrix(bias)]
    parts.append(struct.pack("<ddddd?", *scalars))
    parts.append(struct.pack("<Id", len(decay_epochs), decay_factor))
    parts += [struct.pack("<I", d) for d in decay_epochs]
    parts += [pack_matrix(m) for m in momentum]
    parts.append(struct.pack("<B", bank is not None))
    if bank is not None:
        parts.append(pack_bank(bank))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
