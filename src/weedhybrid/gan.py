"""Conditional DCGAN for minority-class oversampling.

The generator maps a latent vector concatenated with a learned label
embedding through a dense layer and two stride-2 transposed convolutions
to a tanh image in (-1, 1).  The discriminator projects the label to an
extra input channel and runs a stride-2 conv stack to one logit per image.
Losses are the stable softplus forms of binary cross-entropy on logits,
with the non-saturating generator objective.

Images enter and leave this module on the (-1, 1) scale; helpers convert
to and from the (N, H, W, 3) uint8 stacks the rest of the pipeline holds.
The networks are batch-only: latents are (N, latent_dim), images
(N, 3, H, W) and labels (N,); an input without the leading batch axis
raises DimensionError.
`build_gan` names and shapes the tensors; GanParams holds them as `g`
(generator) and `d` (discriminator), whose field order (`tensor.leaves`) is
each network's optimizer order and, generator first, the checkpoint order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import imaging as im
from . import tensor as T
from .errors import ContractError, DimensionError, diverges_as
from .training import (OptimizerState, batch_sums, check_lr, epoch_order,
                       init_optimizer, optimizer_step)

__all__ = [
    "GanConfig",
    "GeneratorParams",
    "DiscriminatorParams",
    "GanParams",
    "build_gan",
    "init_gan",
    "generate",
    "discriminate",
    "gan_train_step",
    "train_gan",
    "to_unit_range",
    "to_uint8",
    "rebalance",
]

_SAMPLE_CHUNK = 16   # rows per generate call in rebalance; 288 at once peak at 109 MB


@dataclass(frozen=True)
class GanConfig:
    latent_dim: int = 128
    class_count: int = 4
    image_size: tuple = (32, 32)
    epochs: int = 50
    lr: float = 2e-4
    batch: int = 16
    base_channels: int = 32
    label_dim: int = 16

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ContractError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.class_count < 1:
            raise ContractError(f"class_count must be >= 1, got {self.class_count}")
        if self.epochs < 1:
            raise ContractError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise ContractError(f"batch must be >= 1, got {self.batch}")
        if self.base_channels < 1:
            raise ContractError(f"base_channels must be >= 1, got {self.base_channels}")
        check_lr(self.lr)
        h, w = self.image_size
        if h % 4 or w % 4 or h < 4 or w < 4:
            raise ContractError(
                f"image size must be a positive multiple of 4, got {self.image_size}")

    @property
    def seed_hw(self) -> tuple:
        """Spatial extent of the generator's first feature map (H/4, W/4)."""
        return (self.image_size[0] // 4, self.image_size[1] // 4)


@dataclass
class GeneratorParams:
    embed: T.Tensor          # (class_count, label_dim)
    fc_w: T.Tensor           # (latent+label_dim, 2*base*seed_h*seed_w)
    fc_b: T.Tensor
    deconv1: T.Tensor        # (2*base, base, 4, 4)
    deconv1_b: T.Tensor
    deconv2: T.Tensor        # (base, 3, 4, 4)
    deconv2_b: T.Tensor


@dataclass
class DiscriminatorParams:
    embed: T.Tensor          # (class_count, H*W) label projection channel
    conv1: T.Tensor          # (base, 4, 4, 4)
    conv1_b: T.Tensor
    conv2: T.Tensor          # (2*base, base, 4, 4)
    conv2_b: T.Tensor
    fc_w: T.Tensor           # (2*base*seed_h*seed_w, 1)
    fc_b: T.Tensor


@dataclass
class GanParams:
    """Generator and discriminator tensors plus a trained-steps counter."""

    g: GeneratorParams
    d: DiscriminatorParams
    config: GanConfig = field(repr=False, default=None, metadata=T.STATIC)
    trained_steps: int = field(default=0, metadata=T.STATIC)


def build_gan(cfg: GanConfig, param) -> GanParams:
    """Walk the GAN parameter layout; param(name, shape, init) makes each
    tensor, as in backbone.build_backbone.  Draw order, field order and
    checkpoint order are one order: generator, then discriminator."""
    sh, sw = cfg.seed_hw
    base = cfg.base_channels
    h, w = cfg.image_size
    flat = 2 * base * sh * sw
    g = GeneratorParams(
        embed=param("gan.g_embed", (cfg.class_count, cfg.label_dim), 0.1),
        fc_w=param("gan.g_fc_w", (cfg.latent_dim + cfg.label_dim, flat),
                   math.sqrt(2.0 / (cfg.latent_dim + cfg.label_dim))),
        fc_b=param("gan.g_fc_b", (flat,), "zeros"),
        deconv1=param("gan.g_deconv1", (2 * base, base, 4, 4), 0.02),
        deconv1_b=param("gan.g_deconv1_b", (base,), "zeros"),
        deconv2=param("gan.g_deconv2", (base, 3, 4, 4), 0.02),
        deconv2_b=param("gan.g_deconv2_b", (3,), "zeros"))
    d = DiscriminatorParams(
        embed=param("gan.d_embed", (cfg.class_count, h * w), 0.1),
        conv1=param("gan.d_conv1", (base, 4, 4, 4), 0.02),
        conv1_b=param("gan.d_conv1_b", (base,), "zeros"),
        conv2=param("gan.d_conv2", (2 * base, base, 4, 4), 0.02),
        conv2_b=param("gan.d_conv2_b", (2 * base,), "zeros"),
        fc_w=param("gan.d_fc_w", (flat, 1), math.sqrt(1.0 / flat)),
        fc_b=param("gan.d_fc_b", (1,), "zeros"))
    return GanParams(g=g, d=d, config=cfg)


def init_gan(cfg: GanConfig, rng: np.random.Generator) -> GanParams:
    return build_gan(cfg, lambda name, shape, init: T.init_param(shape, init, rng))


def _check_labels(labels, class_count: int) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if arr.min() < 0 or arr.max() >= class_count:
        raise ContractError(
            f"labels must lie in [0, {class_count}), got {arr.tolist()}")
    return arr


def _one_hot(labels: np.ndarray, class_count: int) -> T.Tensor:
    return T.const(np.eye(class_count)[labels])


def generate(z: T.Tensor, label, params: GanParams) -> T.Tensor:
    """Deterministic conditional generation: (N, latent) -> (N,3,H,W) in (-1, 1)."""
    cfg = params.config
    if z.ndim != 2 or z.shape[1] != cfg.latent_dim:
        raise DimensionError(
            f"expected (N, {cfg.latent_dim}) latents, got {z.shape}")
    labels = _check_labels(label, cfg.class_count)
    if labels.size != z.shape[0]:
        raise DimensionError(f"{z.shape[0]} latents but {labels.size} labels")
    g = params.g
    cond = T.matmul(_one_hot(labels, cfg.class_count), g.embed)
    h = T.concat([z, cond], axis=1)
    h = T.relu(T.add_bcast(T.matmul(h, g.fc_w), g.fc_b))
    sh, sw = cfg.seed_hw
    h = T.reshape(h, (z.shape[0], 2 * cfg.base_channels, sh, sw))
    h = T.relu(T.conv_transpose2d(h, g.deconv1, stride=2, padding=1,
                                  bias=g.deconv1_b))
    return T.tanh(T.conv_transpose2d(h, g.deconv2, stride=2, padding=1,
                                     bias=g.deconv2_b))


def _disc_logit(x: T.Tensor, label, params: GanParams) -> T.Tensor:
    cfg = params.config
    h, w = cfg.image_size
    if x.ndim != 4 or x.shape[1:] != (3, h, w):
        raise DimensionError(f"images {x.shape} do not match configured "
                             f"(N, 3, {h}, {w})")
    n = x.shape[0]
    labels = _check_labels(label, cfg.class_count)
    if labels.size != n:
        raise DimensionError(f"{n} images but {labels.size} labels")
    d = params.d
    proj = T.matmul(_one_hot(labels, cfg.class_count), d.embed)
    proj = T.reshape(proj, (n, 1, h, w))
    stacked = T.concat([x, proj], axis=1)
    f = T.leaky_relu(T.conv2d(stacked, d.conv1, stride=2, padding=1,
                              bias=d.conv1_b))
    f = T.leaky_relu(T.conv2d(f, d.conv2, stride=2, padding=1,
                              bias=d.conv2_b))
    flat = T.reshape(f, (n, f.size // n))
    logit = T.add_bcast(T.matmul(flat, d.fc_w), d.fc_b)
    return T.reshape(logit, (n,))


def discriminate(x: T.Tensor, label, params: GanParams) -> T.Tensor:
    """Probability each image is real, per the current discriminator: (N,)."""
    return T.sigmoid(_disc_logit(x, label, params))


def _bce_real(logit: T.Tensor) -> T.Tensor:
    """Mean of -log sigmoid(logit) = softplus(-logit)."""
    return T.mean(T.softplus(T.neg(logit)))


def _bce_fake(logit: T.Tensor) -> T.Tensor:
    """Mean of -log(1 - sigmoid(logit)) = softplus(logit)."""
    return T.mean(T.softplus(logit))


def gan_train_step(real: T.Tensor, labels, params: GanParams,
                   d_state: OptimizerState, g_state: OptimizerState,
                   rng: np.random.Generator) -> tuple:
    """One discriminator update then one generator update.

    `real` is a non-empty (B, 3, H, W) batch on the (-1, 1) scale; latent
    draws come from `rng`.  Returns (d_loss, g_loss) as floats.  Each
    update is an optimizer_step named "adversarial".  The generator runs
    once, on its step's tape: the discriminator's step nests inside it and
    scores a constant of its output, and the generator loss reuses the
    taped output, which the discriminator update cannot change (z and the
    generator weights are fixed within the step).
    """
    cfg = params.config
    if real.ndim != 4 or real.shape[0] < 1:
        raise ContractError(f"need a non-empty image batch, got {real.shape}")
    labels = _check_labels(labels, cfg.class_count)
    n = real.shape[0]
    z = T.const(rng.standard_normal((n, cfg.latent_dim)))
    d_params, g_params = T.leaves(params.d), T.leaves(params.g)

    with optimizer_step(g_params, g_state, "adversarial") as g_tape:
        fake = generate(z, labels, params)
        with optimizer_step(d_params, d_state, "adversarial") as d_tape:
            d_loss = T.add(_bce_real(_disc_logit(real, labels, params)),
                           _bce_fake(_disc_logit(T.const(fake.data), labels,
                                                 params)))
            d_tape.backward(d_loss)

        g_loss = _bce_real(_disc_logit(fake, labels, params))
        g_tape.backward(g_loss)
    T.zero_grads(d_params)  # the generator's backward reaches the discriminator

    params.trained_steps += 1
    return float(d_loss.data), float(g_loss.data)


def train_gan(images: np.ndarray, labels: np.ndarray, cfg: GanConfig,
              seed: int = 0) -> tuple:
    """Full conditional-GAN training run; returns (params, loss history).

    `images` is (N, 3, H, W) on the (-1, 1) scale, with N labels.  The
    networks start from init_gan(cfg, rng([seed, 0xC0FFEE])); epochs follow
    the epoch rule of the `training` module, each step drawing its latents
    from the epoch's generator.  History holds one (epoch mean d_loss,
    epoch mean g_loss) pair per epoch; the whole run is reproducible from
    `seed`.
    """
    if images.ndim != 4 or images.shape[0] < 1:
        raise ContractError(f"need a non-empty image set, got {images.shape}")
    if len(labels) != images.shape[0]:
        raise ContractError(f"{len(labels)} labels for {images.shape[0]} images")
    params = init_gan(cfg, np.random.default_rng([seed, 0xC0FFEE]))
    d_state = init_optimizer(T.leaves(params.d), cfg.lr)
    g_state = init_optimizer(T.leaves(params.g), cfg.lr)
    history = []
    for epoch in range(cfg.epochs):
        order, rng = epoch_order(images.shape[0], seed, epoch)
        sums, batches = batch_sums(order, cfg.batch, lambda sel: gan_train_step(
            T.const(images[sel]), labels[sel], params, d_state, g_state, rng))
        history.append(tuple(float(x) for x in sums / batches))
    return params, history


def to_unit_range(stack: np.ndarray) -> np.ndarray:
    """(N, H, W, 3) uint8 stack -> float32 (N, 3, H, W) array in (-1, 1)."""
    return np.transpose(stack, (0, 3, 1, 2)).astype(np.float32) / 127.5 - 1.0


def to_uint8(x: np.ndarray) -> np.ndarray:
    """Float (N, 3, H, W) array in (-1, 1) -> (N, H, W, 3) uint8 stack."""
    return np.clip(np.floor((np.transpose(x, (0, 2, 3, 1)) + 1.0) * 127.5 + 0.5),
                   0, 255).astype(np.uint8)


def rebalance(counts, target: int, params: GanParams, seed: int = 0,
              out_size: tuple = None):
    """The generated images that top every class up from `counts[class]`
    samples to `target`, as an iterator of (label, images) chunks.

    Chunks come class by class; each holds at most _SAMPLE_CHUNK images of
    one class as an (n, H, W, 3) uint8 stack, at `out_size` if it is given
    and the generator's size otherwise. A class's latents are one
    (need, latent_dim) draw, generated a chunk at a time as the chunks are
    asked for, so a caller that writes each chunk holds one. The arguments
    are checked when rebalance is called. A NumericError in the generator
    becomes DivergenceError("generator") when its chunk is asked for.
    """
    if params.trained_steps < 1:
        raise ContractError("rebalance requires a trained generator")
    cfg = params.config
    if len(counts) != cfg.class_count:
        raise ContractError(f"{len(counts)} class counts for a generator of "
                            f"{cfg.class_count} classes")
    needs = [max(0, target - int(count)) for count in counts]
    size = tuple(cfg.image_size if out_size is None else out_size)

    def chunks():
        rng = np.random.default_rng([seed, 0xFA4E])
        for cls, need in enumerate(needs):
            z = rng.standard_normal((need, cfg.latent_dim))
            for start in range(0, need, _SAMPLE_CHUNK):
                rows = z[start:start + _SAMPLE_CHUNK]
                with diverges_as("generator"):
                    fake = generate(T.const(rows), [cls] * len(rows), params)
                images = np.empty((len(rows),) + size + (3,), dtype=np.uint8)
                for i, pixels in enumerate(to_uint8(fake.data)):
                    images[i] = im.resize_bilinear(pixels, size)
                yield cls, images
                del images  # the next chunk is made without this one

    return chunks()
