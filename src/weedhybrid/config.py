"""Flat `key = value` run configuration with line-numbered validation.

One document configures every stage, using section-prefixed keys:

    seed = 7
    preset = desk
    optimizer.lr = 0.002
    loss.w_seg = 0.3
    gan.epochs = 50

Blank lines and `#` comments are ignored.  Unknown keys, duplicate keys
and unparseable values (a non-finite number, a learning rate that is not
positive, a negative seed) raise DataError naming the offending line, and
a file that is not UTF-8 raises DataError naming the offset of its first
bad byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from . import backbone as bb
from . import gan as gn
from . import imaging as im
from . import pretrain as pt
from . import training as tr
from .dataio import read_text
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


def _to_square(text: str) -> tuple:
    side = int(text)
    return (side, side)


def _to_preset(text: str) -> str:
    if text not in ("desk", "paper"):
        raise ValueError(f"preset must be desk or paper, got {text!r}")
    return text


@dataclass(frozen=True)
class RunConfig:
    """The run's seed, preset and fold count, plus the stage settings a
    document set, as section -> {config field: value}.

    Each builder passes its section's settings to the stage's config class,
    so a key the document leaves out takes that class's own default.
    """

    seed: int = 0
    preset: str = "desk"
    folds_k: int = 5
    sections: dict = field(default_factory=dict)

    def _settings(self, section: str) -> dict:
        return self.sections.get(section, {})

    def backbone_config(self) -> bb.BackboneConfig:
        return bb.paper_config() if self.preset == "paper" else bb.desk_config()

    def preprocess_config(self, image_size: tuple = None) -> im.PreprocessConfig:
        """The preprocessing settings; image_size (a loaded model's) overrides
        the preset's."""
        if image_size is None:
            image_size = self.backbone_config().image_size
        return im.PreprocessConfig(target_size=tuple(image_size),
                                   **self._settings("preprocess"))

    def loss_weights(self) -> LossWeights:
        return LossWeights(**self._settings("loss"))

    def train_config(self) -> tr.TrainConfig:
        return tr.TrainConfig(seed=self.seed, weights=self.loss_weights(),
                              backbone=self.backbone_config(),
                              **self._settings("optimizer"))

    def gan_config(self) -> gn.GanConfig:
        return gn.GanConfig(**self._settings("gan"))

    def contrastive_config(self) -> pt.ContrastiveConfig:
        return pt.ContrastiveConfig(**self._settings("ssl"))


# document key -> (section, field, converter); a key without a section sets
# a RunConfig field, the others a field of their section's config class
_KEYS = {
    "seed": (None, "seed", int),
    "preset": (None, "preset", _to_preset),
    "preprocess.median_window": ("preprocess", "median_window", int),
    "preprocess.clahe_tile": ("preprocess", "clahe_tile", int),
    "preprocess.clahe_clip": ("preprocess", "clahe_clip", _to_float),
    "preprocess.gamma": ("preprocess", "gamma", _to_float),
    "preprocess.beta": ("preprocess", "beta", _to_float),
    "preprocess.normalize": ("preprocess", "normalize", _to_bool),
    "loss.w_cls": ("loss", "alpha", _to_float),
    "loss.w_seg": ("loss", "beta", _to_float),
    "loss.w_growth": ("loss", "gamma", _to_float),
    "optimizer.lr": ("optimizer", "lr", _to_rate),
    "optimizer.epochs": ("optimizer", "epochs", int),
    "optimizer.batch": ("optimizer", "batch", int),
    "folds.k": (None, "folds_k", int),
    "gan.latent_dim": ("gan", "latent_dim", int),
    "gan.epochs": ("gan", "epochs", int),
    "gan.lr": ("gan", "lr", _to_rate),
    "gan.batch": ("gan", "batch", int),
    "gan.base_channels": ("gan", "base_channels", int),
    "gan.image_size": ("gan", "image_size", _to_square),
    "ssl.temperature": ("ssl", "temperature", _to_float),
    "ssl.projection_dim": ("ssl", "projection_dim", int),
    "ssl.epochs": ("ssl", "epochs", int),
    "ssl.lr": ("ssl", "lr", _to_rate),
    "ssl.batch_pairs": ("ssl", "batch_pairs", int),
}

# section -> the builder of its stage config, in validation order
_BUILDERS = {"preprocess": RunConfig.preprocess_config,
             "loss": RunConfig.loss_weights,
             "optimizer": RunConfig.train_config,
             "gan": RunConfig.gan_config,
             "ssl": RunConfig.contrastive_config}


def parse_config(text: str, source: str = "<config>",
                 overrides: dict = None) -> RunConfig:
    """Parse a key = value document into a validated RunConfig.

    ``overrides`` (RunConfig field -> value, e.g. command-line ``seed`` and
    ``preset``) replace the document's values before validation; an error in
    an override names no line.
    """
    values = {}
    sections = {}
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
        section, name, convert = _KEYS[key]
        target = sections.setdefault(section, {}) if section else values
        try:
            target[name] = convert(value)
        except ValueError as exc:
            raise DataError(f"{source}:{lineno}: bad value for {key}: "
                            f"{exc}") from None
    overrides = overrides or {}
    cfg = RunConfig(**{**values, **overrides}, sections=sections)
    _validate(cfg, source, {key: line for key, line in first_line.items()
                            if _KEYS[key][0] or _KEYS[key][1] not in overrides})
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
    for section, build in _BUILDERS.items():
        try:
            build(cfg)
        except (ContractError, ValueError) as exc:
            keys = sorted((line, _KEYS[key][1]) for key, line in first_line.items()
                          if _KEYS[key][0] == section)
            alone = [line for line, name in keys
                     if _breaks(build, replace(base, sections={
                         section: {name: cfg.sections[section][name]}}))]
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
    """parse_config over a file's text, read by dataio.read_text."""
    return parse_config(read_text(path), source=path, overrides=overrides)
