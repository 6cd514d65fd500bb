"""Optimization loop, stratified folds, and the metric suite.

Training minimizes the weighted multi-task loss with bias-corrected Adam.
The epoch rule, shared by train, pretrain.pretrain and gan.train_gan:
epoch_order seeds a generator from (run seed, epoch) and permutes the
index set with it, and the caller keeps drawing from that generator for
the epoch's views or latents; batch_sums runs one step per consecutive
`batch`-sized run of the order and sums the steps' values in float64 from
0 in batch order, and an epoch's mean is that sum over the batch count.
Runs are reproducible bit for bit.  Evaluation produces a full
classification report (confusion matrix, per-class precision/recall/F1,
accuracy, macro and weighted averages) plus pooled mean IoU over
segmentation masks, and can emit the curves and tables as CSV files.
"""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import astuple, dataclass, field

import numpy as np

from . import backbone as bb
from . import heads as hd
from . import imaging as im
from . import tensor as T
from .errors import ContractError, NumericError, diverges_as

__all__ = [
    "OptimizerState",
    "init_optimizer",
    "adam_step",
    "optimizer_step",
    "epoch_order",
    "batch_sums",
    "FoldPlan",
    "stratified_folds",
    "MetricsReport",
    "classification_metrics",
    "mean_iou",
    "TrainConfig",
    "TrainData",
    "EpochStats",
    "TrainResult",
    "train",
    "evaluate",
    "emit_plot_data",
]


# ---------------------------------------------------------------------------
# Adam

# Elements per adam_step block: 256 KiB per float64 buffer. In an interleaved
# sweep on a 2-vCPU Xeon with 2 MiB of L2 per core and one BLAS thread, the
# GAN generator's step (628k elements) took a median of 10.7 ms at 4k
# elements, 9.5 at 8k, 8.9 at 16k, 8.7 at 32k, 9.6 at 64k, 11.4 at 256k and
# 23.8 ms over whole arrays; the paper model's (3.3M) 48.2 ms at 16k, 48.9 at
# 32k and 77.1 whole. Larger blocks leave the cache between the passes.
_ADAM_BLOCK = 1 << 15


@dataclass
class OptimizerState:
    """Bias-corrected Adam accumulators for an ordered parameter list."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def check_lr(lr: float) -> None:
    """Reject a learning rate that is negative or not finite; 0 freezes
    every parameter."""
    if not 0 <= lr < float("inf"):
        raise ContractError(f"lr must be finite and >= 0, got {lr}")


def init_optimizer(params: list, lr: float) -> OptimizerState:
    state = OptimizerState(lr=lr)
    state.m = [np.zeros(p.shape, dtype=np.float64) for p in params]
    state.v = [np.zeros(p.shape, dtype=np.float64) for p in params]
    return state


def _adam_non_finite(kind, flag):
    raise NumericError("adam_step produced non-finite values")


@np.errstate(over="call", invalid="call", call=_adam_non_finite)
def adam_step(params: list, state: OptimizerState) -> None:
    """One Adam update (Kingma & Ba 2014); every parameter must carry a
    gradient, which the step leaves as it is.

    Each parameter is updated over blocks of _ADAM_BLOCK elements. The
    float64 moments m and v (the C-contiguous arrays init_optimizer made)
    are updated in place, and the new values are rounded once into a new
    storage-dtype array that replaces p.data. Per element the float64
    operations are the whole-array update's, in its order
    (tests/oracles.py keeps it), so parameters and moments keep their
    bytes; the step holds two block-sized float64 buffers, not about ten
    full-size temporaries per parameter.
    An overflowing or NaN update, its float32 rounding included, raises
    NumericError; the parameters before it keep their new values.
    """
    for i, p in enumerate(params):
        if p.grad is None:
            raise ContractError(f"parameter {i} has no gradient")
    state.step += 1
    t = state.step
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    width = min(_ADAM_BLOCK, max((p.size for p in params), default=0))
    g_buf, u_buf = np.empty(width), np.empty(width)
    for p, m, v in zip(params, state.m, state.v):
        grad, old = p.grad.reshape(-1), p.data.reshape(-1)
        m, v = m.reshape(-1), v.reshape(-1)
        new = np.empty(p.shape, dtype=p.data.dtype)
        out = new.reshape(-1)
        for lo in range(0, grad.size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, grad.size)
            g, u = g_buf[:hi - lo], u_buf[:hi - lo]
            mb, vb = m[lo:hi], v[lo:hi]
            g[...] = grad[lo:hi]          # a float64 copy, never a view of p.grad
            # m = beta1 * m + (1 - beta1) * g
            mb *= b1
            np.multiply(g, 1.0 - b1, out=u)
            mb += u
            # v = beta2 * v + (1 - beta2) * g * g
            vb *= b2
            np.multiply(g, 1.0 - b2, out=u)
            u *= g
            vb += u
            # update = lr * (m / c1) / (sqrt(v / c2) + eps), into g
            np.divide(vb, c2, out=u)
            np.sqrt(u, out=u)
            u += eps
            np.divide(mb, c1, out=g)
            g *= lr
            g /= u
            np.subtract(old[lo:hi], g, out=g)
            out[lo:hi] = g
        p.data = new


@contextlib.contextmanager
def optimizer_step(params: list, state: OptimizerState, component: str):
    """One training step: the block runs its forward and backward on the
    yielded fresh Tape, then adam_step updates `params` and their gradients
    are cleared, all under errors.diverges_as(component)."""
    with diverges_as(component):
        with T.Tape() as tape:
            yield tape
        adam_step(params, state)
        T.zero_grads(params)


def epoch_order(indices, seed: int, epoch: int) -> tuple:
    """(order, rng): `indices` (an array, or n for 0..n-1) permuted by a
    generator seeded from (seed, epoch), and that generator, from which
    the caller draws the epoch's views or latents."""
    rng = np.random.default_rng([seed, epoch])
    return rng.permutation(indices), rng


def batch_sums(order, batch: int, step) -> tuple:
    """(sums, count): `step` runs on each consecutive `batch`-sized run of
    `order` and returns a tuple of values; sums adds them in float64 from 0
    in batch order, and count is the number of runs."""
    sums, count = 0.0, 0
    for start in range(0, len(order), batch):
        sums += np.asarray(step(order[start:start + batch]), dtype=np.float64)
        count += 1
    return sums, count


# ---------------------------------------------------------------------------
# stratified folds


@dataclass(frozen=True)
class FoldPlan:
    """Sample-to-fold assignment; folds partition the index set."""

    assignments: np.ndarray
    k: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def split(self, fold: int) -> tuple:
        """(train indices, validation indices) for one held-out fold."""
        return (np.flatnonzero(self.assignments != fold),
                np.flatnonzero(self.assignments == fold))


def stratified_folds(labels, k: int = 5, seed: int = 0) -> FoldPlan:
    """Shuffle each class and deal round-robin with a fold pointer that
    continues across classes, so fold sizes stay balanced even when class
    sizes are not multiples of k."""
    labels = np.asarray(labels)
    if k < 2:
        raise ContractError(f"need at least 2 folds, got {k}")
    rng = np.random.default_rng(seed)
    assignments = np.full(labels.shape[0], -1, dtype=np.int64)
    pointer = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ContractError(
                f"class {cls} has {idx.size} samples, fewer than {k} folds")
        for i in rng.permutation(idx):
            assignments[i] = pointer % k
            pointer += 1
    return FoldPlan(assignments=assignments, k=k)


# ---------------------------------------------------------------------------
# metrics


@dataclass
class MetricsReport:
    confusion: np.ndarray          # (k, k) counts, rows = truth
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    macro: tuple                   # (precision, recall, f1)
    weighted: tuple
    mean_iou: float = 0.0
    iou_per_class: tuple = ()
    zero_division: bool = False


def _confusion(truth, pred, k: int, what: str) -> np.ndarray:
    """The (k, k) int64 count of (truth, pred) pairs, truth by row. Raises
    ContractError for arrays of different shapes or a value outside [0, k),
    which would land in another pair's cell."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = np.asarray(pred, dtype=np.int64)
    if truth.shape != pred.shape:
        raise ContractError(f"{what} shapes differ: {truth.shape} vs {pred.shape}")
    if truth.size and (min(truth.min(), pred.min()) < 0 or max(truth.max(), pred.max()) >= k):
        raise ContractError(f"{what} values outside [0, {k})")
    return np.bincount((truth * k + pred).ravel(), minlength=k * k).reshape(k, k)


def classification_metrics(labels, preds, num_classes: int) -> MetricsReport:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ContractError("cannot compute metrics over an empty sample set")
    confusion = _confusion(labels, preds, num_classes, "label")
    tp = np.diag(confusion).astype(np.float64)
    col = confusion.sum(axis=0).astype(np.float64)
    row = confusion.sum(axis=1).astype(np.float64)
    flagged = bool(np.any(col == 0) or np.any(row == 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(col > 0, tp / np.where(col > 0, col, 1), 0.0)
        recall = np.where(row > 0, tp / np.where(row > 0, row, 1), 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2 * precision * recall / np.where(pr > 0, pr, 1), 0.0)
        if np.any(pr == 0):
            flagged = True
    support = confusion.sum(axis=1)
    total = float(labels.size)
    macro = (float(precision.mean()), float(recall.mean()), float(f1.mean()))
    weighted = (float(precision @ support / total),
                float(recall @ support / total),
                float(f1 @ support / total))
    return MetricsReport(confusion=confusion, precision=precision,
                         recall=recall, f1=f1, support=support,
                         accuracy=float(tp.sum() / total), macro=macro,
                         weighted=weighted, zero_division=flagged)


def mean_iou(pred_masks, true_masks, num_classes: int) -> tuple:
    """Pooled IoU per class over all pixels of all pairs; mean over classes.

    A pair is one mask each, or two equally shaped stacks of masks; the
    pairs may come from iterators, and each is counted as it arrives.

    Returns (mean, per-class tuple, zero_division flag); classes absent from
    both prediction and truth contribute 0 and raise the flag.
    """
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for pm, tm in zip(pred_masks, true_masks):
        confusion += _confusion(tm, pm, num_classes, "mask")
    inter = np.diag(confusion)
    union = confusion.sum(axis=0) + confusion.sum(axis=1) - inter
    flagged = bool(np.any(union == 0))
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / np.where(union > 0, union, 1), 0.0)
    return float(iou.mean()), tuple(float(x) for x in iou), flagged


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    lr: float = 2e-3
    batch: int = 32
    seed: int = 0
    weights: hd.LossWeights = hd.LossWeights()
    backbone: bb.BackboneConfig = field(default_factory=bb.desk_config)

    def __post_init__(self):
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ContractError(f"batch must be >= 1, got {self.batch}")
        check_lr(self.lr)


@dataclass
class TrainData:
    """A dataset ready for the model: images (N,3,H,W), integer labels (N,),
    integer masks (N,H,W), growth targets (N,).

    ``images`` is anything that reports that shape and whose ``[sel]`` gives
    the float32 model batch of the selected rows: dataio.load_dataset holds
    an imaging.StagedImages, one uint8 stack scaled per batch; a float32
    array of model values serves as well.
    """

    images: np.ndarray
    labels: np.ndarray
    masks: np.ndarray
    growth: np.ndarray

    def __post_init__(self):
        n = self.images.shape[0]
        if not (self.labels.shape[0] == self.masks.shape[0]
                == self.growth.shape[0] == n):
            raise ContractError("dataset arrays disagree on sample count")

    def __len__(self):
        return self.images.shape[0]


@dataclass
class EpochStats:
    epoch: int
    train_acc: float
    val_acc: float
    l_cls: float
    l_seg: float
    l_growth: float
    l_total: float


@dataclass
class TrainResult:
    params: bb.BackboneParams
    heads: hd.HeadParams
    history: list            # EpochStats per epoch
    best_epoch: int
    best_val_loss: float


def _one_hot_masks(masks: np.ndarray, num_classes: int) -> np.ndarray:
    return np.transpose(np.eye(num_classes, dtype=np.float32)[masks],
                        (0, 3, 1, 2))


def _score(params, heads, data: TrainData, sel, weights) -> tuple:
    """Predict one batch of samples; returns (loss, values), values being
    the LossReport's four components and the correct count."""
    pred = hd.predict(params, heads, T.const(data.images[sel]))
    masks_1h = T.const(_one_hot_masks(data.masks[sel], heads.cls_w.shape[-1]))
    total, report = hd.compute_losses(pred, data.labels[sel], masks_1h,
                                      data.growth[sel].astype(np.float64), weights)
    return total, (*astuple(report), np.sum(pred.labels == data.labels[sel]))


def _snapshot(tensors):
    return [t.data.copy() for t in tensors]


def _restore(tensors, snap):
    for t, saved in zip(tensors, snap, strict=True):
        t.data = saved


def train(data: TrainData, cfg: TrainConfig, train_idx, val_idx,
          params: bb.BackboneParams = None) -> TrainResult:
    """Adam training of backbone + heads on the weighted multi-task loss.

    Each epoch steps over train_idx in epoch_order, then scores val_idx in
    its given order; an empty index set, or an index outside
    [0, len(data)), raises ContractError. The
    best-validation-loss parameters (by l_total) are restored before
    returning. Pretrained backbone parameters may be passed in to continue
    from them; the heads always start fresh.
    """
    train_idx = np.asarray(train_idx)
    val_idx = np.asarray(val_idx)
    if train_idx.size == 0 or val_idx.size == 0:
        raise ContractError(f"train needs non-empty train and validation index "
                            f"sets, got {train_idx.size} and {val_idx.size}")
    for name, idx in (("train", train_idx), ("validation", val_idx)):
        outside = idx[(idx < 0) | (idx >= len(data))]
        if outside.size:
            raise ContractError(f"{name} index {outside[0]} lies outside the "
                                f"{len(data)} samples")
    bcfg = cfg.backbone
    rng = np.random.default_rng(cfg.seed)
    if params is None:
        params = bb.init_backbone(bcfg, rng)
    heads = hd.init_heads(bcfg, rng)

    tensors = T.leaves((params, heads))
    state = init_optimizer(tensors, cfg.lr)

    def fit(sel):
        with optimizer_step(tensors, state, "total") as tape:
            total, values = _score(params, heads, data, sel, cfg.weights)
            tape.backward(total)
        return values

    history = []
    best_val = float("inf")
    best_epoch = -1
    best = _snapshot(tensors)
    for epoch in range(cfg.epochs):
        order, _ = epoch_order(train_idx, cfg.seed, epoch)
        sums, batches = batch_sums(order, cfg.batch, fit)
        val_sums, val_batches = batch_sums(
            val_idx, cfg.batch, lambda sel: _score(params, heads, data, sel, cfg.weights)[1])
        val_total = val_sums[3] / val_batches
        history.append(EpochStats(epoch, float(sums[4] / order.size),
                                  float(val_sums[4] / val_idx.size),
                                  *(sums[:4] / batches)))
        if val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            best = _snapshot(tensors)

    _restore(tensors, best)
    return TrainResult(params=params, heads=heads, history=history,
                       best_epoch=best_epoch, best_val_loss=best_val)


def evaluate(params: bb.BackboneParams, heads: hd.HeadParams,
             data: TrainData, indices=None) -> MetricsReport:
    """Classification report plus pooled mean IoU over the given samples.

    The model runs over chunks of whole images of at most
    imaging._CHUNK_PIXELS pixels: 32 images at the desk preset, one at the
    paper preset. Each chunk's predicted masks are counted into the (k, k)
    mask confusion as the chunk ends, so memory is bounded by a chunk, not
    by the set. The IoU is pooled over every pixel of the set, as
    mean_iou over the per-image masks gives it.
    """
    idx = np.arange(len(data)) if indices is None else np.asarray(indices)
    if idx.size == 0:
        raise ContractError("cannot evaluate an empty sample set")
    num_classes = heads.cls_w.shape[-1]
    per = max(1, im._CHUNK_PIXELS // (data.images.shape[2] * data.images.shape[3]))
    starts = range(0, idx.size, per)
    preds = np.empty(idx.size, dtype=np.int64)

    def pred_masks():
        for start in starts:
            sel = idx[start:start + per]
            pred = hd.predict(params, heads, T.const(data.images[sel]))
            preds[start:start + sel.size] = pred.labels
            masks = np.argmax(pred.seg_mask.data, axis=1)
            del pred  # the next chunk's forward runs without this one's maps
            yield masks

    miou, per_class, flagged = mean_iou(
        pred_masks(), (data.masks[idx[start:start + per]] for start in starts),
        num_classes)
    report = classification_metrics(data.labels[idx], preds, num_classes)
    report.mean_iou = miou
    report.iou_per_class = per_class
    report.zero_division = report.zero_division or flagged
    return report


# ---------------------------------------------------------------------------
# CSV emission


def emit_plot_data(history: list, report: MetricsReport, outdir) -> dict:
    """Write history.csv, confusion.csv and report.csv; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, f"{name}.csv")
             for name in ("history", "confusion", "report")}

    with open(paths["history"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_acc", "val_acc", "l_cls", "l_seg",
                    "l_growth", "l_total"])
        for row in history:
            w.writerow([row.epoch, f"{row.train_acc:.6f}", f"{row.val_acc:.6f}",
                        f"{row.l_cls:.6f}", f"{row.l_seg:.6f}",
                        f"{row.l_growth:.6f}", f"{row.l_total:.6f}"])

    k = report.confusion.shape[0]
    with open(paths["confusion"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["truth\\pred"] + [f"pred_{j}" for j in range(k)])
        for i in range(k):
            w.writerow([f"true_{i}"] + [int(v) for v in report.confusion[i]])

    with open(paths["report"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["class", "precision", "recall", "f1", "support"])
        for i in range(k):
            w.writerow([i, f"{report.precision[i]:.6f}",
                        f"{report.recall[i]:.6f}", f"{report.f1[i]:.6f}",
                        int(report.support[i])])
        w.writerow(["accuracy", f"{report.accuracy:.6f}", "", "",
                    int(report.support.sum())])
        w.writerow(["macro", f"{report.macro[0]:.6f}", f"{report.macro[1]:.6f}",
                    f"{report.macro[2]:.6f}", int(report.support.sum())])
        w.writerow(["weighted", f"{report.weighted[0]:.6f}",
                    f"{report.weighted[1]:.6f}", f"{report.weighted[2]:.6f}",
                    int(report.support.sum())])
        w.writerow(["mean_iou", f"{report.mean_iou:.6f}", "", "", ""])
    return paths
