"""Multi-task output heads and the weighted composite objective.

Three heads read the fused backbone feature: a softmax classifier, a
segmentation head over the CNN spatial map (1x1 conv, per-pixel softmax,
bilinear upsample to input resolution), and a scalar growth regressor.
The training objective is the weighted sum

    L_total = alpha * L_cls + beta * L_seg + gamma * L_growth

with cross-entropy, soft Dice (eps = 1), and mean squared error as the
component losses.  Default weights are (0.5, 0.3, 0.2).

Heads and losses are batch-only: features are (N, d), spatial maps and
masks (N, C, h, w), labels and growth targets (N,); an input without the
leading batch axis raises DimensionError.  `predict` is the one model
forward (backbone plus all three heads) behind training, evaluation,
inference and quantized inference.  `build_heads` names and shapes the head
tensors; HeadParams' field order (`tensor.leaves`) is their checkpoint order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig, BackboneParams, backbone_forward
from .errors import ContractError, DimensionError, diverges_as

__all__ = [
    "NUM_CLASSES",
    "Prediction",
    "LossWeights",
    "LossReport",
    "HeadParams",
    "build_heads",
    "init_heads",
    "classify_head",
    "cross_entropy",
    "segment_head",
    "dice_loss",
    "growth_head",
    "mse_loss",
    "total_loss",
    "predict",
    "compute_losses",
]

NUM_CLASSES = 4
CE_FLOOR = 1e-12
DICE_EPS = 1.0


@dataclass
class Prediction:
    """A batch's outputs: class distributions, mask probabilities, growth."""

    class_probs: T.Tensor    # (N, num_classes)
    seg_mask: T.Tensor       # (N, num_classes, H, W), per-pixel distributions
    growth: T.Tensor         # (N,)

    @property
    def labels(self) -> np.ndarray:
        """Top-1 class per sample, (N,) int64."""
        return np.argmax(self.class_probs.data, axis=-1)


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.5
    beta: float = 0.3
    gamma: float = 0.2

    def __post_init__(self):
        if not all(0 <= w < float("inf") for w in (self.alpha, self.beta, self.gamma)):
            raise ContractError(f"loss weights must be finite and non-negative, got {self}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ContractError("at least one loss weight must be positive")


@dataclass(frozen=True)
class LossReport:
    l_cls: float
    l_seg: float
    l_growth: float
    l_total: float


@dataclass
class HeadParams:
    cls_w: T.Tensor          # (fusion_dim, num_classes)
    cls_b: T.Tensor          # (num_classes,)
    seg_kernel: T.Tensor     # (num_classes, cnn_channels[-1], 1, 1)
    seg_bias: T.Tensor       # (num_classes,)
    growth_w: T.Tensor       # (fusion_dim, 1)
    growth_b: T.Tensor       # (1,)
    image_size: tuple = field(metadata=T.STATIC)


def build_heads(cfg: BackboneConfig, param) -> HeadParams:
    """Walk the head parameter layout; param(name, shape, init) makes each
    tensor, as in backbone.build_backbone.  Draw order, field order and
    checkpoint order are one order."""

    def xavier(name, shape):
        return param(name, shape, math.sqrt(2.0 / (shape[0] + shape[-1])))

    c_spatial = cfg.cnn_channels[-1]
    return HeadParams(
        cls_w=xavier("head.cls_w", (cfg.fusion_dim, NUM_CLASSES)),
        cls_b=param("head.cls_b", (NUM_CLASSES,), "zeros"),
        seg_kernel=param("head.seg_kernel", (NUM_CLASSES, c_spatial, 1, 1),
                         math.sqrt(2.0 / c_spatial)),
        seg_bias=param("head.seg_bias", (NUM_CLASSES,), "zeros"),
        growth_w=xavier("head.growth_w", (cfg.fusion_dim, 1)),
        growth_b=param("head.growth_b", (1,), "zeros"),
        image_size=tuple(cfg.image_size))


def init_heads(cfg: BackboneConfig, rng: np.random.Generator) -> HeadParams:
    return build_heads(cfg, lambda name, shape, init: T.init_param(shape, init, rng))


def _check_rows(f: T.Tensor, w: T.Tensor) -> None:
    if f.ndim != 2 or f.shape[1] != w.shape[0]:
        raise DimensionError(
            f"expected (N, {w.shape[0]}) features, got {f.shape}")


def classify_head(f_final: T.Tensor, params: HeadParams) -> T.Tensor:
    """Linear layer then softmax over the class axis: (N,d) -> (N,K)."""
    _check_rows(f_final, params.cls_w)
    return T.softmax(T.add_bcast(T.matmul(f_final, params.cls_w), params.cls_b), axis=-1)


def cross_entropy(probs: T.Tensor, labels) -> T.Tensor:
    """Mean over rows of -log p(label), probabilities floored at 1e-12."""
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or labels.shape != probs.shape[:1]:
        raise DimensionError(
            f"expected (N,K) probabilities and (N,) labels, got {probs.shape} "
            f"and {labels.shape}")
    k = probs.shape[-1]
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in [0, {k}), got {labels.tolist()}")
    onehot = T.const(np.eye(k)[labels])
    picked = T.sum_(T.mul(probs, onehot), axis=-1)
    return T.mean(T.neg(T.log(T.clamp_min(picked, CE_FLOOR))))


def segment_head(spatial: T.Tensor, params: HeadParams) -> T.Tensor:
    """1x1 conv -> per-pixel softmax -> bilinear upsample to image size."""
    if spatial.ndim != 4 or spatial.shape[1] != params.seg_kernel.shape[1]:
        raise DimensionError(
            f"spatial map {spatial.shape} vs seg kernel {params.seg_kernel.shape}")
    logits = T.conv2d(spatial, params.seg_kernel, bias=params.seg_bias)
    probs = T.softmax(logits, axis=1)
    return T.upsample_bilinear2d(probs, params.image_size)


def dice_loss(seg_mask: T.Tensor, truth_mask: T.Tensor) -> T.Tensor:
    """Soft Dice averaged over classes, pooled over all pixels of the batch.

    1 - (2 * sum(p*t) + eps) / (sum(p) + sum(t) + eps) per class, eps = 1.
    """
    if seg_mask.shape != truth_mask.shape:
        raise DimensionError(
            f"mask shapes differ: {seg_mask.shape} vs {truth_mask.shape}")
    if seg_mask.ndim != 4:
        raise DimensionError(f"expected (N,K,h,w) masks, got {seg_mask.shape}")
    pool = (0, 2, 3)
    inter = T.sum_(T.mul(seg_mask, truth_mask), axis=pool)
    psum = T.sum_(seg_mask, axis=pool)
    tsum = T.sum_(truth_mask, axis=pool)
    frac = T.div(T.add(T.mul(inter, 2.0), DICE_EPS),
                 T.add(T.add(psum, tsum), DICE_EPS))
    return T.mean(T.add(T.neg(frac), 1.0))


def growth_head(f_final: T.Tensor, params: HeadParams) -> T.Tensor:
    """Linear scalar regressor: (N,d) -> (N,)."""
    _check_rows(f_final, params.growth_w)
    out = T.add_bcast(T.matmul(f_final, params.growth_w), params.growth_b)
    return T.reshape(out, (out.shape[0],))


def mse_loss(growth: T.Tensor, truth) -> T.Tensor:
    """(prediction - truth)^2, averaged over the batch if present."""
    t = truth if isinstance(truth, T.Tensor) else T.const(
        np.asarray(truth, dtype=np.float64))
    if growth.shape != t.shape:
        raise DimensionError(f"growth shapes differ: {growth.shape} vs {t.shape}")
    d = T.sub(growth, t)
    return T.mean(T.mul(d, d))


def total_loss(l_cls: T.Tensor, l_seg: T.Tensor, l_growth: T.Tensor,
               weights: LossWeights = LossWeights()) -> T.Tensor:
    """Exact weighted sum of the three component losses."""
    return T.add(T.add(T.mul(l_cls, weights.alpha), T.mul(l_seg, weights.beta)),
                 T.mul(l_growth, weights.gamma))


def predict(params: BackboneParams, head_params: HeadParams,
            x: T.Tensor) -> Prediction:
    """Backbone plus all three heads over an (N,3,H,W) batch.

    A NumericError becomes errors.diverges_as's DivergenceError naming
    the component: backbone, classification, segmentation or growth.
    """
    with diverges_as("backbone"):
        feats = backbone_forward(x, params)
    with diverges_as("classification"):
        probs = classify_head(feats.f_final, head_params)
    with diverges_as("segmentation"):
        mask = segment_head(feats.spatial, head_params)
    with diverges_as("growth"):
        growth = growth_head(feats.f_final, head_params)
    return Prediction(class_probs=probs, seg_mask=mask, growth=growth)


def compute_losses(prediction: Prediction, labels, truth_masks: T.Tensor,
                   growth_truth, weights: LossWeights = LossWeights()) -> tuple:
    """The three losses of a batched prediction plus the weighted total;
    returns (loss, LossReport).  `truth_masks` is one-hot (N,K,H,W).

    A NumericError becomes errors.diverges_as's DivergenceError naming
    the loss component, or "total" for the weighted sum.
    """
    with diverges_as("classification"):
        l_cls = cross_entropy(prediction.class_probs, labels)
    with diverges_as("segmentation"):
        l_seg = dice_loss(prediction.seg_mask, truth_masks)
    with diverges_as("growth"):
        l_growth = mse_loss(prediction.growth, growth_truth)
    with diverges_as("total"):
        ltot = total_loss(l_cls, l_seg, l_growth, weights)
    report = LossReport(l_cls=float(l_cls.data), l_seg=float(l_seg.data),
                        l_growth=float(l_growth.data),
                        l_total=float(ltot.data))
    return ltot, report
