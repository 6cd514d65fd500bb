"""Self-supervised contrastive pretraining of the CNN and ViT branches.

Two independently augmented views of each image form a positive pair; all
other views in the batch act as negatives.  Pooled CNN and ViT features
are concatenated, passed through a small projection head, L2-normalized,
and scored with the normalized-temperature cross-entropy (NT-Xent) loss.
Only the CNN and ViT parameters are updated; the graph branch keeps its
random initialization and the projection head is discarded afterward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import imaging as im
from . import tensor as T
from .errors import ContractError
from .training import (batch_sums, check_lr, epoch_order, init_optimizer,
                       optimizer_step)

__all__ = [
    "ContrastiveConfig",
    "make_views",
    "l2_normalize_rows",
    "nt_xent_loss",
    "ProjectionParams",
    "init_projection",
    "forward_embeddings",
    "pretrain",
]

DEFAULT_OPS = ("identity",) + im.GEOMETRIC_OPS


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.5
    projection_dim: int = 32
    batch_pairs: int = 8
    epochs: int = 20
    lr: float = 1e-3
    ops: tuple = DEFAULT_OPS
    gamma_range: tuple = (0.8, 1.25)

    def __post_init__(self):
        if not self.temperature > 0:
            raise ContractError(f"temperature must be > 0, got {self.temperature}")
        if self.projection_dim < 1:
            raise ContractError(
                f"projection_dim must be >= 1, got {self.projection_dim}")
        if self.batch_pairs < 1:
            raise ContractError(f"batch_pairs must be >= 1, got {self.batch_pairs}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        check_lr(self.lr)
        lo, hi = self.gamma_range
        if not (0 < lo <= hi):
            raise ContractError(f"gamma_range must satisfy 0 < lo <= hi, "
                                f"got {self.gamma_range}")
        for op in self.ops:
            if op != "identity" and op not in im.GEOMETRIC_OPS:
                raise ContractError(f"unknown view op {op!r}")


def make_views(images: list, rng: np.random.Generator,
               cfg: ContrastiveConfig) -> np.ndarray:
    """(2B, H, W, C) uint8 views of B images; rows 2i and 2i+1 are image i's.

    Each view draws its op, then its gamma (no draw for a one-value range).
    Each op then runs once over the views that drew it, and one (2B, 256)
    gamma table maps every view. Quarter turns among the configured ops
    need square images, whatever the draws.
    """
    views = np.repeat(np.stack([img.as_array() for img in images]), 2, axis=0)
    turns = [op for op in cfg.ops if op in ("rot90", "rot270")]
    if turns and views.shape[1] != views.shape[2]:
        raise ContractError(f"view ops {', '.join(turns)} need square images, "
                            f"got {views.shape[1]}x{views.shape[2]}")
    lo, hi = cfg.gamma_range
    ops, gammas = [], []
    for _ in range(2 * len(images)):
        ops.append(cfg.ops[int(rng.integers(len(cfg.ops)))])
        gammas.append(lo if lo == hi else float(rng.uniform(lo, hi)))
    for op in set(ops) - {"identity"}:
        picked = [i for i, drawn in enumerate(ops) if drawn == op]
        views[picked] = im._geometric_stack(views[picked], op)
    for view, lut in zip(views, im._gamma_luts(gammas)):
        view[...] = lut[view]
    return views


def l2_normalize_rows(z: T.Tensor) -> T.Tensor:
    """Scale each row of a (N, d) tensor to unit Euclidean norm."""
    sq = T.sum_(T.mul(z, z), axis=1)
    inv = T.pow_const(T.sqrt(T.clamp_min(sq, 1e-24)), -1.0)
    return T.scale_rows(z, inv)


def nt_xent_loss(z: T.Tensor, tau: float) -> T.Tensor:
    """NT-Xent over (2B, d) unit-norm rows where rows 2i and 2i+1 pair up.

    Mean over all 2B anchors of -log( exp(sim+/tau) / sum_{k != anchor}
    exp(sim_k/tau) ).  A single pair has no negatives and yields exactly 0.
    """
    if z.ndim != 2 or z.shape[0] < 2 or z.shape[0] % 2:
        raise ContractError(
            f"need an even number >= 2 of embedding rows, got shape {z.shape}")
    if not tau > 0:
        raise ContractError(f"temperature must be > 0, got {tau}")
    n = z.shape[0]
    logits = T.mul(T.matmul(z, T.transpose(z, (1, 0))), 1.0 / tau)
    mask = np.zeros((n, n))
    np.fill_diagonal(mask, -1e9)  # remove self-similarity from the softmax
    probs = T.softmax(T.add(logits, T.const(mask)), axis=1)
    partner = np.zeros((n, n))
    partner[np.arange(n), np.arange(n) ^ 1] = 1.0
    picked = T.sum_(T.mul(probs, T.const(partner)), axis=1)
    return T.mean(T.neg(T.log(T.clamp_min(picked, 1e-12))))


@dataclass
class ProjectionParams:
    """Throwaway head mapping pooled features to the contrastive space."""

    w1: T.Tensor
    b1: T.Tensor
    w2: T.Tensor
    b2: T.Tensor


def init_projection(in_dim: int, out_dim: int,
                    rng: np.random.Generator) -> ProjectionParams:
    def xavier(n_in, n_out):
        bound = math.sqrt(6.0 / (n_in + n_out))
        return T.Tensor(rng.uniform(-bound, bound, (n_in, n_out)),
                        requires_grad=True)

    return ProjectionParams(w1=xavier(in_dim, out_dim),
                            b1=T.zeros(out_dim, requires_grad=True),
                            w2=xavier(out_dim, out_dim),
                            b2=T.zeros(out_dim, requires_grad=True))


def forward_embeddings(x: T.Tensor, params: bb.BackboneParams,
                       proj: ProjectionParams) -> T.Tensor:
    """Batch of images -> unit-norm rows in the contrastive space."""
    cnn_vec, _ = bb.cnn_forward(x, params)
    _, vit_vec = bb.vit_forward(x, params.vit, params.config)
    feats = T.concat([cnn_vec, vit_vec], axis=1)
    hidden = T.relu(T.add_bcast(T.matmul(feats, proj.w1), proj.b1))
    out = T.add_bcast(T.matmul(hidden, proj.w2), proj.b2)
    return l2_normalize_rows(out)


def pretrain(images: list, cfg: ContrastiveConfig,
             backbone_cfg: bb.BackboneConfig, seed: int = 0,
             normalize: bool = True) -> tuple:
    """Contrastive pretraining loop; returns (backbone params, loss history).

    `images` is a sequence of ImageU8 already at the backbone's input size.
    The backbone starts from init_backbone(backbone_cfg, rng([seed, 0xB0])).
    Epochs follow the epoch rule of the `training` module over the image
    indices, batch_pairs images a batch; each batch draws its 2B views from
    the epoch's generator with one `make_views` call and scales them with
    one `imaging.to_model_tensor(..., normalize)` call over the stack, as
    preprocessing scales training and evaluation inputs.
    History holds one mean NT-Xent value per epoch; the projection head is
    created internally and never returned.
    """
    if len(images) < 2:
        raise ContractError(f"pretraining needs >= 2 images, got {len(images)}")
    for img in images:
        if (img.height, img.width) != tuple(backbone_cfg.image_size):
            raise ContractError(
                f"image {(img.height, img.width)} does not match backbone "
                f"input {tuple(backbone_cfg.image_size)}")
    params = bb.init_backbone(backbone_cfg, np.random.default_rng([seed, 0xB0]))
    proj = init_projection(backbone_cfg.cnn_channels[-1] + backbone_cfg.embed_dim,
                           cfg.projection_dim,
                           np.random.default_rng([seed, 0xA1]))
    # only the CNN and ViT branches (and the projection) take gradient steps
    trainable = T.leaves((params.cnn, params.vit, proj))
    state = init_optimizer(trainable, cfg.lr)

    history = []
    for epoch in range(cfg.epochs):
        order, rng = epoch_order(len(images), seed, epoch)

        def step(picked):
            views = make_views([images[i] for i in picked], rng, cfg)
            batch = T.const(im.to_model_tensor(views, normalize))
            with optimizer_step(trainable, state, "contrastive") as tape:
                loss = nt_xent_loss(forward_embeddings(batch, params, proj),
                                    cfg.temperature)
                tape.backward(loss)
            return (loss.data,)

        sums, batches = batch_sums(order, cfg.batch_pairs, step)
        history.append(float(sums[0] / batches))
    return params, history
