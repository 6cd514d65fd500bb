"""Multi-task output heads and the weighted composite objective.

Three heads read the fused backbone feature: a softmax classifier, a
segmentation head over the CNN spatial map (1x1 conv, per-pixel softmax,
bilinear upsample to input resolution), and a scalar growth regressor.
The training objective is the weighted sum

    L_total = alpha * L_cls + beta * L_seg + gamma * L_growth

with cross-entropy, soft Dice (eps = 1), and mean squared error as the
component losses.  Default weights are (0.5, 0.3, 0.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import BackboneConfig, BackboneFeatures
from .errors import ContractError, DimensionError

__all__ = [
    "NUM_CLASSES",
    "Prediction",
    "LossWeights",
    "LossReport",
    "HeadParams",
    "build_heads",
    "init_heads",
    "named_head_parameters",
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
    """One sample's outputs: class distribution, mask probabilities, growth."""

    class_probs: T.Tensor    # (num_classes,)
    seg_mask: T.Tensor       # (num_classes, H, W), per-pixel distributions
    growth: float

    @property
    def label(self) -> int:
        return int(np.argmax(self.class_probs.data))


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.5
    beta: float = 0.3
    gamma: float = 0.2

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ContractError(f"loss weights must be non-negative, got {self}")
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
    image_size: tuple


def build_heads(cfg: BackboneConfig, param,
                num_classes: int = NUM_CLASSES) -> HeadParams:
    """Walk the head parameter layout; param(name, shape, init) makes each
    tensor, as in backbone.build_backbone."""

    def xavier(name, shape):
        return param(name, shape, math.sqrt(2.0 / (shape[0] + shape[-1])))

    c_spatial = cfg.cnn_channels[-1]
    return HeadParams(
        cls_w=xavier("head.cls_w", (cfg.fusion_dim, num_classes)),
        cls_b=param("head.cls_b", (num_classes,), "zeros"),
        seg_kernel=param("head.seg_kernel", (num_classes, c_spatial, 1, 1),
                         math.sqrt(2.0 / c_spatial)),
        seg_bias=param("head.seg_bias", (num_classes,), "zeros"),
        growth_w=xavier("head.growth_w", (cfg.fusion_dim, 1)),
        growth_b=param("head.growth_b", (1,), "zeros"),
        image_size=tuple(cfg.image_size))


def init_heads(cfg: BackboneConfig, rng: np.random.Generator,
               num_classes: int = NUM_CLASSES) -> HeadParams:
    return build_heads(cfg, lambda name, shape, init: T.init_param(shape, init, rng),
                       num_classes)


def named_head_parameters(params: HeadParams) -> list:
    return [("head.cls_w", params.cls_w), ("head.cls_b", params.cls_b),
            ("head.seg_kernel", params.seg_kernel),
            ("head.seg_bias", params.seg_bias),
            ("head.growth_w", params.growth_w),
            ("head.growth_b", params.growth_b)]


def _promote_rows(f: T.Tensor) -> tuple:
    if f.ndim == 1:
        return T.reshape(f, (1,) + f.shape), True
    if f.ndim == 2:
        return f, False
    raise DimensionError(f"expected feature vector or batch, got {f.shape}")


def classify_head(f_final: T.Tensor, params: HeadParams) -> T.Tensor:
    """Linear layer then softmax over the class axis."""
    f, single = _promote_rows(f_final)
    if f.shape[-1] != params.cls_w.shape[0]:
        raise DimensionError(
            f"feature dim {f.shape[-1]} vs head input {params.cls_w.shape[0]}")
    probs = T.softmax(T.add_rowvec(T.matmul(f, params.cls_w), params.cls_b),
                      axis=-1)
    return T.reshape(probs, probs.shape[1:]) if single else probs


def cross_entropy(class_probs: T.Tensor, label) -> T.Tensor:
    """-log p(label), probabilities floored at 1e-12; batches are averaged."""
    probs, single = _promote_rows(class_probs)
    k = probs.shape[-1]
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    if single and labels.shape != (1,):
        raise DimensionError(f"one probability row but {labels.shape[0]} labels")
    if not single and labels.shape[0] != probs.shape[0]:
        raise DimensionError(
            f"{probs.shape[0]} probability rows but {labels.shape[0]} labels")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in [0, {k}), got {labels.tolist()}")
    onehot = T.const(np.eye(k)[labels])
    picked = T.sum_(T.mul(probs, onehot), axis=-1)
    return T.mean(T.neg(T.log(T.clamp_min(picked, CE_FLOOR))))


def segment_head(spatial: T.Tensor, params: HeadParams) -> T.Tensor:
    """1x1 conv -> per-pixel softmax -> bilinear upsample to image size."""
    single = spatial.ndim == 3
    s = T.reshape(spatial, (1,) + spatial.shape) if single else spatial
    if s.ndim != 4 or s.shape[1] != params.seg_kernel.shape[1]:
        raise DimensionError(
            f"spatial map {spatial.shape} vs seg kernel {params.seg_kernel.shape}")
    logits = T.conv2d(s, params.seg_kernel, bias=params.seg_bias)
    probs = T.softmax(logits, axis=1)
    up = T.upsample_bilinear2d(probs, params.image_size)
    return T.reshape(up, up.shape[1:]) if single else up


def dice_loss(seg_mask: T.Tensor, truth_mask: T.Tensor) -> T.Tensor:
    """Soft Dice averaged over classes, pooled over all pixels (and batch).

    1 - (2 * sum(p*t) + eps) / (sum(p) + sum(t) + eps) per class, eps = 1.
    """
    if seg_mask.shape != truth_mask.shape:
        raise DimensionError(
            f"mask shapes differ: {seg_mask.shape} vs {truth_mask.shape}")
    if seg_mask.ndim == 3:
        pool = (1, 2)
    elif seg_mask.ndim == 4:
        pool = (0, 2, 3)
    else:
        raise DimensionError(f"expected (K,h,w) or (N,K,h,w), got {seg_mask.shape}")
    inter = T.sum_(T.mul(seg_mask, truth_mask), axis=pool)
    psum = T.sum_(seg_mask, axis=pool)
    tsum = T.sum_(truth_mask, axis=pool)
    frac = T.div(T.add(T.mul(inter, 2.0), DICE_EPS),
                 T.add(T.add(psum, tsum), DICE_EPS))
    return T.mean(T.add(T.neg(frac), 1.0))


def growth_head(f_final: T.Tensor, params: HeadParams) -> T.Tensor:
    """Linear scalar regressor; returns () for one sample, (N,) for a batch."""
    f, single = _promote_rows(f_final)
    if f.shape[-1] != params.growth_w.shape[0]:
        raise DimensionError(
            f"feature dim {f.shape[-1]} vs head input {params.growth_w.shape[0]}")
    out = T.add_rowvec(T.matmul(f, params.growth_w), params.growth_b)
    return T.reshape(out, ()) if single else T.reshape(out, (out.shape[0],))


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


def predict(features: BackboneFeatures, params: HeadParams) -> Prediction:
    """Package one sample's head outputs (input features must be unbatched)."""
    probs = classify_head(features.f_final, params)
    mask = segment_head(features.spatial, params)
    growth = growth_head(features.f_final, params)
    return Prediction(class_probs=probs, seg_mask=mask,
                      growth=float(growth.data))


def compute_losses(features: BackboneFeatures, params: HeadParams, labels,
                   truth_masks: T.Tensor, growth_truth,
                   weights: LossWeights = LossWeights()) -> tuple:
    """All three heads plus the weighted total; returns (loss, LossReport)."""
    probs = classify_head(features.f_final, params)
    l_cls = cross_entropy(probs, labels)
    mask = segment_head(features.spatial, params)
    l_seg = dice_loss(mask, truth_masks)
    growth = growth_head(features.f_final, params)
    l_growth = mse_loss(growth, growth_truth)
    ltot = total_loss(l_cls, l_seg, l_growth, weights)
    report = LossReport(l_cls=float(l_cls.data), l_seg=float(l_seg.data),
                        l_growth=float(l_growth.data),
                        l_total=float(ltot.data))
    return ltot, report
