"""Flat `key = value` run configuration with line-numbered validation.

One document configures every stage, using section-prefixed keys:

    seed = 7
    preset = desk
    optimizer.lr = 0.002
    loss.w_seg = 0.3
    gan.epochs = 50

Blank lines and `#` comments are ignored.  Unknown keys, duplicate keys
and unparseable values (a non-finite number, a learning rate that is not
positive, a negative seed) raise DataError naming the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from . import backbone as bb
from . import gan as gn
from . import imaging as im
from . import pretrain as pt
from . import training as tr
from .errors import ContractError, DataError
from .heads import LossWeights

__all__ = ["RunConfig", "parse_config", "load_config"]


def _to_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _to_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _to_rate(text: str) -> float:
    value = _to_float(text)
    if value <= 0:
        raise ValueError(f"a learning rate must be positive, got {value}")
    return value


def _to_preset(text: str) -> str:
    if text not in ("desk", "paper"):
        raise ValueError(f"preset must be desk or paper, got {text!r}")
    return text


@dataclass(frozen=True)
class RunConfig:
    """Every tunable across the pipeline, with desk-scale defaults."""

    seed: int = 0
    preset: str = "desk"
    preprocess_median_window: int = 3
    preprocess_clahe_tile: int = 8
    preprocess_clahe_clip: float = 2.0
    preprocess_gamma: float = 1.0
    preprocess_beta: float = 0.0
    preprocess_normalize: bool = True
    loss_w_cls: float = 0.5
    loss_w_seg: float = 0.3
    loss_w_growth: float = 0.2
    optimizer_lr: float = 2e-3
    optimizer_epochs: int = 60
    optimizer_batch: int = 32
    folds_k: int = 5
    gan_latent_dim: int = 128
    gan_epochs: int = 50
    gan_lr: float = 2e-4
    gan_batch: int = 16
    gan_base_channels: int = 32
    gan_image_size: int = 32
    ssl_temperature: float = 0.5
    ssl_projection_dim: int = 32
    ssl_epochs: int = 20
    ssl_lr: float = 1e-3
    ssl_batch_pairs: int = 8

    def backbone_config(self) -> bb.BackboneConfig:
        return bb.paper_config() if self.preset == "paper" else bb.desk_config()

    def preprocess_config(self, image_size: tuple = None) -> im.PreprocessConfig:
        """The preprocessing settings; image_size (a loaded model's) overrides
        the preset's."""
        if image_size is None:
            image_size = self.backbone_config().image_size
        return im.PreprocessConfig(
            target_size=tuple(image_size),
            median_window=self.preprocess_median_window,
            clahe_tile=self.preprocess_clahe_tile,
            clahe_clip=self.preprocess_clahe_clip,
            gamma=self.preprocess_gamma,
            beta=self.preprocess_beta,
            normalize=self.preprocess_normalize)

    def loss_weights(self) -> LossWeights:
        return LossWeights(alpha=self.loss_w_cls, beta=self.loss_w_seg,
                           gamma=self.loss_w_growth)

    def train_config(self, seed: int = None) -> tr.TrainConfig:
        return tr.TrainConfig(epochs=self.optimizer_epochs,
                              lr=self.optimizer_lr,
                              batch=self.optimizer_batch,
                              seed=self.seed if seed is None else seed,
                              weights=self.loss_weights(),
                              backbone=self.backbone_config())

    def gan_config(self) -> gn.GanConfig:
        return gn.GanConfig(latent_dim=self.gan_latent_dim,
                            image_size=(self.gan_image_size,
                                        self.gan_image_size),
                            epochs=self.gan_epochs, lr=self.gan_lr,
                            batch=self.gan_batch,
                            base_channels=self.gan_base_channels)

    def contrastive_config(self) -> pt.ContrastiveConfig:
        return pt.ContrastiveConfig(temperature=self.ssl_temperature,
                                    projection_dim=self.ssl_projection_dim,
                                    epochs=self.ssl_epochs, lr=self.ssl_lr,
                                    batch_pairs=self.ssl_batch_pairs)


# document key -> (dataclass field, converter)
_KEYS = {
    "seed": ("seed", int),
    "preset": ("preset", _to_preset),
    "preprocess.median_window": ("preprocess_median_window", int),
    "preprocess.clahe_tile": ("preprocess_clahe_tile", int),
    "preprocess.clahe_clip": ("preprocess_clahe_clip", _to_float),
    "preprocess.gamma": ("preprocess_gamma", _to_float),
    "preprocess.beta": ("preprocess_beta", _to_float),
    "preprocess.normalize": ("preprocess_normalize", _to_bool),
    "loss.w_cls": ("loss_w_cls", _to_float),
    "loss.w_seg": ("loss_w_seg", _to_float),
    "loss.w_growth": ("loss_w_growth", _to_float),
    "optimizer.lr": ("optimizer_lr", _to_rate),
    "optimizer.epochs": ("optimizer_epochs", int),
    "optimizer.batch": ("optimizer_batch", int),
    "folds.k": ("folds_k", int),
    "gan.latent_dim": ("gan_latent_dim", int),
    "gan.epochs": ("gan_epochs", int),
    "gan.lr": ("gan_lr", _to_rate),
    "gan.batch": ("gan_batch", int),
    "gan.base_channels": ("gan_base_channels", int),
    "gan.image_size": ("gan_image_size", int),
    "ssl.temperature": ("ssl_temperature", _to_float),
    "ssl.projection_dim": ("ssl_projection_dim", int),
    "ssl.epochs": ("ssl_epochs", int),
    "ssl.lr": ("ssl_lr", _to_rate),
    "ssl.batch_pairs": ("ssl_batch_pairs", int),
}

assert {f.name for f in fields(RunConfig)} == {f for f, _ in _KEYS.values()}


def parse_config(text: str, source: str = "<config>",
                 overrides: dict = None) -> RunConfig:
    """Parse a key = value document into a validated RunConfig.

    ``overrides`` (RunConfig field -> value, e.g. command-line ``seed`` and
    ``preset``) replace the document's values before validation; an error in
    an override names no line.
    """
    values = {}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected key = value, "
                            f"got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise DataError(f"{source}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise DataError(f"{source}:{lineno}: duplicate key {key!r} "
                            f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        field_name, convert = _KEYS[key]
        try:
            values[field_name] = convert(value)
        except ValueError as exc:
            raise DataError(f"{source}:{lineno}: bad value for {key}: "
                            f"{exc}") from None
    overrides = overrides or {}
    cfg = replace(RunConfig(), **{**values, **overrides})
    _validate(cfg, source, {key: line for key, line in first_line.items()
                            if _KEYS[key][0] not in overrides})
    return cfg


def _validate(cfg: RunConfig, source: str, first_line: dict) -> None:
    """Build every sub-config once so constraint violations surface at load.

    A violation names the line of the first key in the section that breaks
    a constraint on its own (with the document's seed and preset), else the
    section's first line: a contradiction between keys has no one culprit.
    """
    if cfg.seed < 0:
        line = first_line.get("seed")
        where = f":{line}" if line else ""
        raise DataError(f"{source}{where}: seed must be >= 0, got {cfg.seed}")
    base = RunConfig(seed=cfg.seed, preset=cfg.preset)
    for section, build in [("preprocess", RunConfig.preprocess_config),
                           ("loss", RunConfig.loss_weights),
                           ("optimizer", RunConfig.train_config),
                           ("gan", RunConfig.gan_config),
                           ("ssl", RunConfig.contrastive_config)]:
        try:
            build(cfg)
        except (ContractError, ValueError) as exc:
            keys = sorted((line, _KEYS[key][0]) for key, line in first_line.items()
                          if key.startswith(section + "."))
            alone = [line for line, field in keys
                     if _breaks(build, replace(base, **{field: getattr(cfg, field)}))]
            lines = alone or [line for line, _ in keys]
            where = f":{lines[0]}" if lines else ""
            raise DataError(f"{source}{where}: invalid {section} "
                            f"configuration: {exc}") from exc
    if cfg.folds_k < 2:
        line = first_line.get("folds.k")
        where = f":{line}" if line else ""
        raise DataError(f"{source}{where}: folds.k must be at least 2, "
                        f"got {cfg.folds_k}")


def _breaks(build, cfg: RunConfig) -> bool:
    try:
        build(cfg)
    except (ContractError, ValueError):
        return True
    return False


def load_config(path: str, overrides: dict = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), source=path, overrides=overrides)
