"""Tab-separated sample manifests and dataset loading.

A manifest is line-oriented UTF-8: one record per line, five tab-separated
fields — image path, class label, mask path, growth scalar, synthetic flag
— with "-" marking an absent mask or growth value.  Lines starting with
"#" and blank lines are ignored.  Paths are relative to the manifest's
directory.  All validation errors carry 1-based line numbers.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import imaging as im
from .errors import DataError
from .synthdata import CLASS_NAMES
from .training import TrainData

__all__ = ["Sample", "write_manifest", "read_manifest", "read_mask", "load_dataset"]

_MISSING = "-"


@dataclass(frozen=True)
class Sample:
    """One manifest record; paths are relative to the manifest directory."""

    image: str
    label: int
    mask: str = None
    growth: float = None
    synthetic: bool = False
    line: int = 0

    @property
    def label_name(self) -> str:
        return CLASS_NAMES[self.label]


def write_manifest(path: str, samples) -> None:
    """Write Samples as manifest records, replacing the file atomically."""
    lines = ["# image\tlabel\tmask\tgrowth\tsynthetic"]
    for s in samples:
        growth = _MISSING if s.growth is None else f"{s.growth:.6f}"
        lines.append("\t".join([
            s.image, CLASS_NAMES[s.label], s.mask or _MISSING, growth,
            "1" if s.synthetic else "0"]))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def read_manifest(path: str) -> list:
    """Parse and validate a manifest; returns Samples in file order.

    Raises DataError with the offending line number on malformed fields,
    unknown labels, or missing files.  Warns (and keeps both) on duplicate
    image paths; warns on an empty manifest.
    """
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.rstrip("\n")
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            fields = text.split("\t")
            if len(fields) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 tab-separated "
                                f"fields, got {len(fields)}")
            image, label_name, mask, growth_s, synth_s = fields
            if label_name not in CLASS_NAMES:
                raise DataError(f"{path}:{lineno}: unknown label "
                                f"{label_name!r} (expected one of "
                                f"{', '.join(CLASS_NAMES)})")
            if not os.path.exists(os.path.join(base, image)):
                raise DataError(f"{path}:{lineno}: image file not found: {image}")
            mask_rel = None if mask == _MISSING else mask
            if mask_rel is not None and not os.path.exists(
                    os.path.join(base, mask_rel)):
                raise DataError(f"{path}:{lineno}: mask file not found: {mask_rel}")
            growth = None
            if growth_s != _MISSING:
                try:
                    growth = float(growth_s)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: growth must be a real "
                                    f"number, got {growth_s!r}") from None
                if not 0.0 <= growth <= 1.0:
                    raise DataError(f"{path}:{lineno}: growth must lie in "
                                    f"[0, 1], got {growth}")
            if synth_s not in ("0", "1"):
                raise DataError(f"{path}:{lineno}: synthetic flag must be 0 "
                                f"or 1, got {synth_s!r}")
            if image in seen:
                warnings.warn(f"{path}:{lineno}: duplicate image path {image}; "
                              f"keeping both records")
            seen.add(image)
            samples.append(Sample(image=image, label=CLASS_NAMES.index(label_name),
                                  mask=mask_rel, growth=growth,
                                  synthetic=synth_s == "1", line=lineno))
    if not samples:
        warnings.warn(f"{path}: manifest is empty")
    return samples


def _resize_mask_nearest(mask: np.ndarray, size) -> np.ndarray:
    """Nearest-neighbor resample preserving integer class ids."""
    h_in, w_in = mask.shape
    h_out, w_out = size
    rows = np.minimum(((np.arange(h_out) + 0.5) * h_in / h_out).astype(np.int64),
                      h_in - 1)
    cols = np.minimum(((np.arange(w_out) + 0.5) * w_in / w_out).astype(np.int64),
                      w_in - 1)
    return mask[np.ix_(rows, cols)]


def read_mask(manifest_path: str, sample: Sample, size) -> np.ndarray:
    """A sample's checked single-channel uint8 mask, nearest-resampled to (H, W)."""
    mask_img = im.read_image(os.path.join(
        os.path.dirname(os.path.abspath(manifest_path)), sample.mask))
    if mask_img.channels != 1:
        raise DataError(f"{manifest_path}:{sample.line}: mask must be "
                        f"single-channel: {sample.mask}")
    arr = mask_img.as_array()[:, :, 0]
    if arr.max() >= len(CLASS_NAMES):
        raise DataError(f"{manifest_path}:{sample.line}: mask value "
                        f"{arr.max()} outside the class vocabulary")
    return _resize_mask_nearest(arr, size)


def load_dataset(manifest_path: str, pre_cfg: im.PreprocessConfig) -> tuple:
    """Load, preprocess and batch every manifest sample -> (TrainData, samples).

    Every row is read and checked (image channels, then mask) in manifest
    order, so the first bad row raises; then all images run as one batch
    through the preprocessing pipeline at pre_cfg's target size.  Masks are
    nearest-neighbor resampled to the same size; a row without a mask
    raises.  A missing growth value falls back to the mask's foreground
    fraction (foreground = any non-soil class).  An empty manifest raises
    DataError.
    """
    from .synthdata import SOIL_ID

    samples = read_manifest(manifest_path)
    if not samples:
        raise DataError(f"{manifest_path}: no samples to load")
    base = os.path.dirname(os.path.abspath(manifest_path))
    h, w = pre_cfg.target_size
    n = len(samples)
    raw = []
    labels = np.zeros(n, dtype=np.int64)
    masks = np.zeros((n, h, w), dtype=np.uint8)
    growth = np.zeros(n, dtype=np.float64)
    for i, s in enumerate(samples):
        img = im.read_image(os.path.join(base, s.image))
        if img.channels != 3:
            raise DataError(f"{manifest_path}:{s.line}: expected a color "
                            f"image, got {img.channels} channel(s): {s.image}")
        raw.append(img)
        labels[i] = s.label
        if s.mask is None:
            raise DataError(f"{manifest_path}:{s.line}: sample has no mask "
                            f"(required for training): {s.image}")
        masks[i] = read_mask(manifest_path, s, (h, w))
        growth[i] = (float((masks[i] != SOIL_ID).mean()) if s.growth is None
                     else s.growth)
    images = im.preprocess_batch(raw, pre_cfg)
    return TrainData(images=images, labels=labels, masks=masks,
                     growth=growth), samples
