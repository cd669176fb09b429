"""End-to-end training loop with three branches (plain cross-entropy,
fixed Hadamard codes, learnable codes), evaluation metrics, retrieval
Recall@K, correlation-matrix export and checkpointing.

Every run is a pure function of its config: the single seed fans out into
fixed per-component streams (codes, model init, batch order), so reruns
and checkpoint resumption reproduce results bit for bit.
"""

from __future__ import annotations

import json
import logging
import os
import re
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import codes as codes_mod
from . import data as data_mod
from . import losses as losses_mod
from . import network as net_mod
from .config import (
    CONFIG_KEYS, HTC, LTC, RESUMABLE_KEYS, TrainConfig,
    build_config, format_config, parse_config_file, settings,
)
from .core import Rng, atomic_open, derive_seed
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FormatError,
    NumericError,
    TrainingDiverged,
)

log = logging.getLogger("targetcodes")

STREAM_CODES = 1
STREAM_MODEL = 2
STREAM_BATCHES = 3

# Bytes of one float64 block of rows in an N-row scoring pass: inference
# forwards the rows in blocks and Recall@K scores its queries in blocks,
# so neither holds more than a block's layer outputs or similarities.
_BLOCK_BYTES = 1 << 20
RECALL_DEPTHS = (1, 2, 4, 8)

METRIC_KEYS = ("epoch", "ce", "mse", "triplet", "corr", "total", "top1", "top5", "code_corr")

# the temporary file core.atomic_open leaves beside a run file when a run is
# killed mid-write
_STALE_RUN_TMP = re.compile(
    r"(resolved\.cfg|metrics\.jsonl|corr_(init|epoch\d+)\.csv"
    r"|ckpt_(epoch\d+|final|diverged_last_good)\.ltck)\.\d+\.tmp"
)


@dataclass(frozen=True)
class EpochMetrics:
    """Metrics for one evaluated epoch; epoch numbers are 1-based.

    Loss components are the weighted contributions to the total. The
    ``code_corr`` field is the mean absolute normalized off-diagonal
    correlation of the activated code bank.
    """

    epoch: int
    ce: float
    mse: float
    triplet: float
    corr: float
    total: float
    top1: float
    top5: float
    code_corr: float

    def json_line(self) -> str:
        """Deterministic JSON for one metrics.jsonl line."""
        return json.dumps({k: getattr(self, k) for k in METRIC_KEYS})


@dataclass(frozen=True)
class RetrievalReport:
    """Recall@K over a gallery of embeddings, query excluded from candidates."""

    recall_at: dict[int, float]
    num_queries: int
    skipped_queries: int


@dataclass
class TrainResult:
    model: net_mod.ModelParams
    bank: codes_mod.CodeBank
    optimizer: net_mod.Optimizer
    metrics: list[EpochMetrics] = field(default_factory=list)
    final_checkpoint: Optional[str] = None


def validate_config(
    config: TrainConfig, train_ds: data_mod.Dataset, test_ds: data_mod.Dataset
) -> None:
    """Refuse ``config`` before any compute or output: ``check()``, then the data checks."""
    config.check()
    hp = config.hp
    if hp.num_classes != train_ds.num_classes:
        raise ConfigError(f"config says {hp.num_classes} classes, data has {train_ds.num_classes}")
    if hp.batch_size > train_ds.num_samples:
        raise ConfigError(
            f"batch size {hp.batch_size} exceeds the {train_ds.num_samples} training rows"
        )
    if test_ds.y.max() >= hp.num_classes:
        raise ConfigError(
            f"test labels reach {int(test_ds.y.max())}, config has {hp.num_classes} classes"
        )
    if test_ds.X.shape[1] != train_ds.X.shape[1]:
        raise ConfigError(
            f"train dim {train_ds.X.shape[1]} does not match test dim {test_ds.X.shape[1]}"
        )


def _init_bank(config: TrainConfig, num_classes: int) -> codes_mod.CodeBank:
    # Every mode gets a bank from the same derived stream so the correlation
    # diagnostic is comparable across modes; only htc/ltc actually use it.
    rng = Rng(derive_seed(config.hp.seed, STREAM_CODES))
    if config.mode == HTC:
        return codes_mod.select_hadamard_codes(config.hp.code_length, num_classes, rng)
    return codes_mod.init_learnable_codes(
        num_classes,
        config.hp.code_length,
        rng,
        activation=config.activation,
        tanh_scale=config.hp.tanh_scale,
    )


def _recorded_settings(state: net_mod.CheckpointState, resume_from: str) -> dict:
    """``key -> value`` of the run that wrote ``resume_from``: a
    ``resolved.cfg`` beside it, if any, overlaid with what the LTCK file
    stores (mode, seed, optimizer settings, the model's dimensions and,
    for a learnable bank, its activation and tanh scale)."""
    recorded = {}
    cfg_path = os.path.join(os.path.dirname(resume_from), "resolved.cfg")
    if os.path.exists(cfg_path):
        try:
            recorded = settings(build_config(parse_config_file(cfg_path)))
        except (TypeError, ValueError) as exc:  # a missing key, undecodable bytes
            raise FormatError(f"{cfg_path}: not a readable run config: {exc}") from None
    opt, bank = state.optimizer, state.bank
    # every Optimizer field but the momentum buffers is a config key
    recorded.update(
        (f.name, getattr(opt, f.name)) for f in fields(opt) if f.name not in ("bufs", "flat")
    )
    recorded.update(mode=state.mode, seed=state.seed)
    (_, recorded["feature_widths"], recorded["num_classes"], recorded["encoder_hidden"],
     recorded["code_length"]) = net_mod.model_dims(state.model)
    if bank.kind == codes_mod.LEARNABLE:
        recorded.update(activation=bank.activation, tanh_scale=bank.tanh_scale)
    return recorded


def _check_resume_state(
    state: net_mod.CheckpointState, config: TrainConfig, input_dim: int, resume_from: str
) -> None:
    """Refuse ``state`` unless ``config`` would continue the same run: a code
    bank, a first layer as wide as the data, every setting of
    :func:`_recorded_settings` outside ``RESUMABLE_KEYS`` equal in value (an
    int given for a float setting matches that float), and epochs left to
    train. :func:`network.load_checkpoint` has already checked the file
    against itself."""
    hp = config.hp
    if state.bank is None:
        raise ConfigError("checkpoint is missing the code bank")
    old_dim = net_mod.model_dims(state.model)[0]
    if old_dim != input_dim:
        raise DimensionError(
            f"checkpoint layers do not match config: input_dim {old_dim} -> {input_dim}"
        )
    wanted = settings(config)
    changed = [
        f"{key} {CONFIG_KEYS[key][1](old)} -> {CONFIG_KEYS[key][1](wanted[key])}"
        for key, old in _recorded_settings(state, resume_from).items()
        if key not in RESUMABLE_KEYS and old != wanted[key]
    ]
    if changed:
        raise ConfigError(
            f"resume changes settings recorded by {resume_from}: {', '.join(changed)}"
        )
    if state.epoch >= hp.epochs:
        raise ConfigError(
            f"checkpoint is at epoch {state.epoch}, so none of the {hp.epochs} "
            "configured epochs is left to train"
        )


def _metrics_through(path, epoch: int) -> list[bytes]:
    """The complete lines of an existing metrics file up to ``epoch``, so a
    run resumed into its own directory keeps its history. A complete line
    that is not a JSON object with an integer ``epoch`` raises FormatError."""
    if not os.path.exists(path):
        return []
    kept = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):
                continue  # torn by a killed write
            try:
                line_epoch = json.loads(line)["epoch"]
            except (ValueError, TypeError, KeyError):
                line_epoch = None
            if type(line_epoch) is not int:
                raise FormatError(
                    f"{path}:{line_no}: expected a JSON object with an integer epoch"
                )
            if line_epoch <= epoch:
                kept.append(line)
    return kept


def train(
    config: TrainConfig,
    train_ds: Optional[data_mod.Dataset] = None,
    test_ds: Optional[data_mod.Dataset] = None,
    batch_hook: Optional[Callable[[int, np.ndarray, losses_mod.LossBundle], None]] = None,
    resume_from: Optional[str] = None,
) -> TrainResult:
    """Run the configured training branch end to end.

    Per batch: forward the trunk and classifier, plus the semantic encoder
    when regularizing; compose the mode's objective; backprop; apply the
    grouped momentum-SGD step; and, for learnable codes, push the clipped
    straight-through gradient into the code bank. Metrics are emitted at
    ``eval_every`` cadence using only the inference path (trunk+classifier).

    Nothing under ``out_dir`` changes until the config and the resume
    checkpoint have passed their checks; then the temporary files a killed
    run left beside its run files are removed, and ``resolved.cfg`` records
    the config. A resumed run keeps the ``metrics.jsonl`` lines up to the
    checkpoint's epoch and the ``corr_init.csv`` already in ``out_dir``.
    A NumericError met in a step (a non-finite loss or gradient, or one a
    ``batch_hook`` raises) ends the run as TrainingDiverged, after saving
    ``ckpt_diverged_last_good.ltck`` with the state after the last good step.
    """
    if train_ds is None:
        if not config.train_data:
            raise ConfigError("no training dataset: set train_data or pass one in")
        train_ds = data_mod.load_csv(config.train_data)
    if test_ds is None:
        if not config.test_data:
            raise ConfigError("no test dataset: set test_data or pass one in")
        test_ds = data_mod.load_csv(config.test_data)
    hp = config.hp
    validate_config(config, train_ds, test_ds)
    input_dim = train_ds.X.shape[1]

    start_epoch = 0
    if resume_from is not None:
        state = net_mod.load_checkpoint(resume_from)
        _check_resume_state(state, config, input_dim, resume_from)
        model, optimizer, bank = state.model, state.optimizer, state.bank
        start_epoch = state.epoch
    else:
        bank = _init_bank(config, hp.num_classes)
        model = net_mod.init_model(
            input_dim,
            config.feature_widths,
            hp.num_classes,
            config.encoder_hidden,
            hp.code_length,
            Rng(derive_seed(hp.seed, STREAM_MODEL)),
        )
        optimizer = net_mod.init_optimizer(model, hp, decay_codes=config.decay_codes)

    out_dir = config.out_dir
    metrics_fh = None
    if out_dir is not None:
        metrics_path = os.path.join(out_dir, "metrics.jsonl")
        kept = [] if resume_from is None else _metrics_through(metrics_path, start_epoch)
        os.makedirs(out_dir, exist_ok=True)
        for name in os.listdir(out_dir):
            if _STALE_RUN_TMP.fullmatch(name):
                os.remove(os.path.join(out_dir, name))
        with atomic_open(os.path.join(out_dir, "resolved.cfg")) as fh:
            fh.write(format_config(config))
        with atomic_open(metrics_path, "wb") as fh:
            fh.writelines(kept)
        if resume_from is None:
            export_code_correlation(bank, os.path.join(out_dir, "corr_init.csv"))
        # opened last: only the try/finally below closes it
        metrics_fh = open(metrics_path, "a")

    batch_seed = derive_seed(hp.seed, STREAM_BATCHES)
    regularized = config.mode in (HTC, LTC)
    result = TrainResult(model=model, bank=bank, optimizer=optimizer)

    def save(name: str, epoch: int) -> str:
        path = os.path.join(out_dir, name)
        net_mod.save_checkpoint(path, net_mod.CheckpointState(
            mode=config.mode, seed=hp.seed, rng_state=batch_seed, epoch=epoch,
            model=model, optimizer=optimizer, bank=bank,
        ))
        return path

    try:
        for epoch in range(start_epoch, hp.epochs):
            sums = (0.0,) * 5  # ce, mse, triplet, corr, total, as EpochMetrics orders them
            seen = 0
            # a step checks everything before it changes anything, so a NumericError
            # here leaves the model, its momentum and the bank at the last good step
            try:
                for idx in data_mod.batches(train_ds, hp.batch_size, batch_seed, epoch):
                    xb = train_ds.X[idx]
                    yb = train_ds.y[idx]
                    _, logits, v, cache = net_mod.forward(model, xb, semantic=regularized)
                    s = codes_mod.activate(bank) if regularized else None
                    bundle = losses_mod.compose_objective(config.mode, hp, logits, v, s, yb)
                    if not np.isfinite(bundle.total):
                        raise NumericError(f"non-finite loss {bundle.total}")
                    grads = net_mod.backward(model, cache, bundle.grad_logits, bundle.grad_semantic)
                    if config.mode == LTC:
                        grad_w = codes_mod.ste_backward(bank, bundle.grad_codes, config.ste_rule)
                        if not np.isfinite(grad_w).all():
                            raise NumericError("code gradient contains non-finite entries")
                    net_mod.sgd_step(optimizer, model, grads, epoch)
                    if config.mode == LTC:
                        codes_mod.update_codes(
                            bank, grad_w, optimizer.lr(net_mod.GROUP_CODES, epoch)
                        )
                    nb = len(idx)
                    seen += nb
                    terms = (bundle.ce, hp.mse_weight * bundle.mse,
                             hp.triplet_weight * bundle.triplet,
                             hp.corr_weight * bundle.corr, bundle.total)
                    sums = tuple(acc + t * nb for acc, t in zip(sums, terms))
                    if batch_hook is not None:
                        batch_hook(epoch, idx, bundle)
            except NumericError as exc:
                path = None if out_dir is None else save("ckpt_diverged_last_good.ltck", epoch)
                raise TrainingDiverged(f"training diverged at epoch {epoch + 1}: {exc}", path)

            epoch_no = epoch + 1
            if epoch_no % config.eval_every == 0 or epoch_no == hp.epochs:
                top1, top5 = evaluate(model, test_ds)
                code_corr = codes_mod.mean_abs_off_diagonal(
                    codes_mod.normalized_correlation(codes_mod.activate(bank))
                )
                entry = EpochMetrics(
                    epoch_no,
                    *(acc / seen for acc in sums),
                    top1=top1,
                    top5=top5,
                    code_corr=code_corr,
                )
                result.metrics.append(entry)
                log.info(
                    "epoch %d: total %.4f ce %.4f top1 %.4f top5 %.4f corr %.4f",
                    epoch_no, entry.total, entry.ce, entry.top1, entry.top5, entry.code_corr,
                )
                if metrics_fh is not None:
                    metrics_fh.write(entry.json_line() + "\n")
                    metrics_fh.flush()
                if out_dir is not None:
                    export_code_correlation(
                        bank, os.path.join(out_dir, f"corr_epoch{epoch_no}.csv")
                    )
            if (
                out_dir is not None
                and config.checkpoint_every > 0
                and epoch_no % config.checkpoint_every == 0
            ):
                save(f"ckpt_epoch{epoch_no}.ltck", epoch_no)
        if out_dir is not None:
            result.final_checkpoint = save("ckpt_final.ltck", hp.epochs)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
    return result


def _first_hit_rank(scores: np.ndarray, hits: np.ndarray) -> np.ndarray:
    """Per row, the 0-based position of the first hit in a ranking of the
    columns by descending score, ties broken by lower column index, with no
    sort: the candidates scored above the row's best hit, plus those tied
    with it at a lower column. Rows without a hit get no meaningful rank,
    so callers leave them out. Scores must not be NaN.
    """
    best = np.max(scores, axis=1, where=hits, initial=-np.inf, keepdims=True)
    at_best = scores == best
    first = np.argmax(hits & at_best, axis=1)
    rank = np.count_nonzero(scores > best, axis=1) + np.count_nonzero(
        at_best & (np.arange(scores.shape[1]) < first[:, None]), axis=1
    )
    return rank


def _block_rows(width: int) -> int:
    """Rows of ``width`` float64 values that fit in ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _blocks(model: net_mod.ModelParams, X):
    """Yield ``(first row, trunk embeddings, logits)`` per block of ``X``:
    :func:`_block_rows` of the widest trunk or classifier layer. The forward
    raises for rows it cannot take, an empty ``X`` included."""
    rows = _block_rows(max(l.weight.shape[1] for l in [*model.feature, model.classifier]))
    for r0 in range(0, max(len(X), 1), rows):
        yield r0, *net_mod.forward(model, X[r0 : r0 + rows], semantic=False)[:2]


def score(
    model: net_mod.ModelParams, ds: data_mod.Dataset, ks: tuple[int, ...] = ()
) -> tuple[float, float, Optional[RetrievalReport]]:
    """Top-1 and top-k accuracy as :func:`evaluate` scores them and, for a
    non-empty ``ks``, Recall@K as :func:`retrieval_eval` scores it, from one
    pass of :func:`_blocks`. Only the rows' class ranks outlive a block, and
    the N trunk embeddings when ``ks`` is given. Forward errors come first,
    then a label of at least K, then a NaN logit, then Recall@K's refusals.
    """
    n, (d, k) = len(ds.y), model.classifier.weight.shape
    rank = np.empty(n, dtype=np.intp)
    z = np.empty((n, d)) if ks else None
    nan = False
    for r0, z_block, logits in _blocks(model, ds.X):
        r1 = r0 + len(logits)
        if z is not None:
            z[r0:r1] = z_block
        nan = nan or np.isnan(logits).any()
        if not nan:
            rank[r0:r1] = _first_hit_rank(logits, ds.y[r0:r1, None] == np.arange(k))
    if ds.y.max() >= k:
        raise DomainError(f"labels reach {int(ds.y.max())}, but the model has {k} classes")
    if nan:
        raise NumericError("NaN logit in evaluation")
    top1, top5 = float((rank == 0).mean()), float((rank < min(5, k)).mean())
    return top1, top5, _recall_at(z, ds.y, ks) if ks else None


def evaluate(model: net_mod.ModelParams, ds: data_mod.Dataset) -> tuple[float, float]:
    """Top-1 and top-k accuracy using only the trunk and the classifier.

    k is min(5, K). Ties rank the lower class index first. A sample's rank
    is counted, not sorted: the classes with a higher logit than its own,
    plus those tied with it at a lower index. A label of at least K raises
    DomainError and a NaN logit NumericError. The semantic encoder and the
    code bank play no part at inference time.
    """
    return score(model, ds)[:2]


def _recall_at(z: np.ndarray, y: np.ndarray, ks: tuple[int, ...]) -> RetrievalReport:
    # Recall@K of the trunk embeddings z, which it normalizes in place
    n = len(y)
    if not ks or min(ks) < 1:
        raise DomainError(f"recall depths must be at least 1, got {tuple(ks)}")
    if max(ks) >= n:
        raise DomainError(f"recall depth {max(ks)} needs more than {max(ks)} samples")
    if not np.isfinite(z).all():
        raise NumericError("non-finite embedding in retrieval")
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    np.divide(z, norms, out=z, where=norms > 0)  # a zero row stays zero
    valid = np.bincount(y)[y] >= 2
    rank = np.empty(n, dtype=np.int64)
    rows = _block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        diag = (np.arange(r1 - r0), np.arange(r0, r1))
        sim = z[r0:r1] @ z.T
        sim[diag] = -np.inf
        same = y[r0:r1, None] == y[None, :]
        same[diag] = False
        rank[r0:r1] = _first_hit_rank(sim, same)
    n_valid = int(valid.sum())
    recall = {
        int(k): float((rank[valid] < k).mean()) if n_valid else 0.0 for k in sorted(ks)
    }
    return RetrievalReport(
        recall_at=recall, num_queries=n_valid, skipped_queries=int(n - n_valid)
    )


def retrieval_eval(
    model: net_mod.ModelParams, ds: data_mod.Dataset, ks: tuple[int, ...] = RECALL_DEPTHS
) -> RetrievalReport:
    """Recall@K with L2-normalized trunk embeddings and cosine ranking.

    Each sample queries all the others; a query counts as a hit at K when
    any of its K nearest candidates shares its class. Candidates with equal
    similarity rank the lower sample index first. Queries whose class has
    no second sample are skipped and counted. Every K must be at least 1
    and below the sample count; a non-finite embedding raises NumericError.

    The rows are forwarded, and the queries scored, in blocks of rows
    whose widest float64 array fits in ``_BLOCK_BYTES`` (1 MiB): a query
    block is ``max(1, 2**20 // (8 * N))`` rows of N similarities. So
    memory is the N embeddings plus one block, with no N x N similarity
    matrix or sort. A query's rank is the position of its first
    same-class candidate in the ranking, counted by ``_first_hit_rank``.
    """
    z = np.empty((len(ds.y), model.classifier.weight.shape[0]))
    for r0, z_block, _ in _blocks(model, ds.X):
        z[r0 : r0 + len(z_block)] = z_block
    return _recall_at(z, ds.y, ks)


def export_code_correlation(bank: codes_mod.CodeBank, path) -> None:
    """Write the K x K normalized codeword correlation matrix as CSV,
    six decimal places."""
    corr = codes_mod.normalized_correlation(codes_mod.activate(bank))
    with atomic_open(path) as fh:
        for row in corr:
            fh.write(",".join("%.6f" % v for v in row) + "\n")
