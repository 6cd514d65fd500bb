"""Tab-separated sample manifests and dataset loading.

A manifest is line-oriented UTF-8: one record per line, five tab-separated
fields — image path, class label, mask path, growth scalar, synthetic flag
— with "-" marking an absent mask or growth value.  Lines starting with
"#" and blank lines are ignored.  Paths are relative to the manifest's
directory.  All validation errors carry 1-based line numbers.

A manifest that ``preprocess`` wrote holds its stage record: one comment
line naming the stage settings its images went through, e.g.::

    # preprocessed target_size=32x32 median_window=3 clahe_tile=8 clahe_clip=2.0 gamma=1.0 beta=0.0

Its images are model-ready but for scaling, so loaders stack them as read
after checking that the run's settings agree with the record.

Every command reads a manifest's images through image_rows, which decides
which images are refused and how a row becomes pixels at the size the
command needs; read_images and load_dataset stack the rows as uint8.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import imaging as im
from .errors import DataError
from .synthdata import CLASS_NAMES
from .training import TrainData

__all__ = ["Sample", "write_manifest", "write_staged_manifest", "read_text",
           "read_manifest", "read_stages", "check_stages", "read_mask",
           "image_rows", "read_images", "load_dataset"]

_MISSING = "-"
_HEADER = "# image\tlabel\tmask\tgrowth\tsynthetic"
_STAGES = "preprocessed"   # the first word of a stage record's comment


def _to_size(text: str) -> tuple:
    h, w = (int(side) for side in text.split("x"))
    if h < 1 or w < 1:
        raise ValueError(text)
    return (h, w)


def _to_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# PreprocessConfig field -> parser of each stage a record names
_STAGE_KEYS = {
    "target_size": _to_size,
    "median_window": int,
    "clahe_tile": int,
    "clahe_clip": _to_finite,
    "gamma": _to_finite,
    "beta": _to_finite,
}


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
    _write(path, [_HEADER], samples)


def write_staged_manifest(path: str, samples, cfg: im.PreprocessConfig) -> None:
    """write_manifest, headed by the record of the stages cfg runs."""
    stages = " ".join(f"{key}={_stage_text(key, getattr(cfg, key))}"
                      for key in _STAGE_KEYS)
    _write(path, [f"# {_STAGES} {stages}", _HEADER], samples)


def _stage_text(key: str, value) -> str:
    """A stage value as a record writes it: HxW for the size, the shortest
    repr for a float, which float() reads back exactly."""
    if key == "target_size":
        return "x".join(str(int(side)) for side in value)
    if _STAGE_KEYS[key] is int:
        return str(int(value))
    return repr(float(value))


def _write(path: str, lines: list, samples) -> None:
    for s in samples:
        growth = _MISSING if s.growth is None else f"{s.growth:.6f}"
        lines.append("\t".join([
            s.image, CLASS_NAMES[s.label], s.mask or _MISSING, growth,
            "1" if s.synthetic else "0"]))
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def read_text(path: str) -> str:
    """A UTF-8 text file's contents with "\\r\\n" and "\\r" read as "\\n", as
    a text-mode open reads them.

    Raises DataError naming the file and the offset of the first byte that
    is not UTF-8.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: byte {data[exc.start]:#04x} "
                        f"at offset {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_manifest(path: str) -> list:
    """Parse and validate a manifest; returns Samples in file order.

    Raises DataError with the offending line number on malformed fields,
    unknown labels, or missing files, and as read_text does on bytes that
    are not UTF-8.  Warns (and keeps both) on duplicate image paths; warns
    on an empty manifest.
    """
    base = os.path.dirname(os.path.abspath(path))
    samples = []
    seen = set()
    for lineno, text in enumerate(read_text(path).split("\n"), start=1):
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


def read_stages(path: str):
    """The stage record of a manifest, as {PreprocessConfig field: value},
    or None if it has none.

    Raises DataError naming the line on a malformed record: a field that is
    not key=value, an unknown, repeated or missing key, a value that is not
    an integer, a finite number or a HxW size of positive integers as its
    key needs, or a second record; and as read_text does on bytes that are
    not UTF-8.
    """
    record, first = None, 0
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        text = raw.strip()
        words = text[1:].split()
        if not text.startswith("#") or words[:1] != [_STAGES]:
            continue
        if record is not None:
            raise DataError(f"{path}:{lineno}: a second stage record "
                            f"(the first is on line {first})")
        record, first = {}, lineno
        for field in words[1:]:
            key, eq, text = field.partition("=")
            if not eq or key not in _STAGE_KEYS:
                raise DataError(f"{path}:{lineno}: unknown stage record "
                                f"field {field!r}")
            if key in record:
                raise DataError(f"{path}:{lineno}: stage {key} is recorded twice")
            try:
                record[key] = _STAGE_KEYS[key](text)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad value for stage "
                                f"{key}: {text!r}") from None
        missing = [key for key in _STAGE_KEYS if key not in record]
        if missing:
            raise DataError(f"{path}:{lineno}: stage record is missing "
                            f"{', '.join(missing)}")
    return record


def check_stages(path: str, cfg: im.PreprocessConfig) -> bool:
    """Whether a manifest's images went through cfg's stages already.

    False for a manifest without a stage record. With one, a stage on which
    cfg disagrees with the record raises DataError naming the key and both
    values.
    """
    record = read_stages(path)
    if record is None:
        return False
    for key, recorded in record.items():
        value = getattr(cfg, key)
        if (tuple(value) if key == "target_size" else value) != recorded:
            raise DataError(f"{path}: the run's {key} {_stage_text(key, value)} "
                            f"disagrees with the recorded {key} "
                            f"{_stage_text(key, recorded)}")
    return True


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
    arr = im.read_image(os.path.join(
        os.path.dirname(os.path.abspath(manifest_path)), sample.mask))
    if arr.shape[2] != 1:
        raise DataError(f"{manifest_path}:{sample.line}: mask must be "
                        f"single-channel: {sample.mask}")
    arr = arr[:, :, 0]
    if arr.max() >= len(CLASS_NAMES):
        raise DataError(f"{manifest_path}:{sample.line}: mask value "
                        f"{arr.max()} outside the class vocabulary")
    return _resize_mask_nearest(arr, size)


def image_rows(manifest_path: str, samples, size=None, staged: bool = False):
    """Yield each sample's image as an (H, W, 3) uint8 array, in manifest
    order, reading one file at a time.

    A grey image raises DataError naming the row.  With a size, a staged
    manifest's image must have it (DataError otherwise), and a raw
    manifest's is bilinear-resized to it.
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    for s in samples:
        pixels = im.read_image(os.path.join(base, s.image))
        h, w, channels = pixels.shape
        if channels != 3:
            raise DataError(f"{manifest_path}:{s.line}: expected a color "
                            f"image, got {channels} channel(s): {s.image}")
        if size is not None and (h, w) != tuple(size):
            if staged:
                raise DataError(f"{manifest_path}:{s.line}: image {s.image} is "
                                f"{h}x{w}, not the recorded target size "
                                f"{size[0]}x{size[1]}")
            pixels = im.resize_bilinear(pixels, size)
        yield pixels


def read_images(manifest_path: str, samples, size, staged: bool = False) -> np.ndarray:
    """The samples' images, read and checked as image_rows does, written
    into one preallocated (N, H, W, 3) uint8 stack at size."""
    row = np.dtype((np.uint8, tuple(size) + (3,)))
    return np.fromiter(image_rows(manifest_path, samples, size, staged), row,
                       count=len(samples))


def load_dataset(manifest_path: str, pre_cfg: im.PreprocessConfig) -> tuple:
    """Load, preprocess and batch every manifest sample -> (TrainData, samples).

    Every row is read and checked (image, as image_rows does, then mask) in
    manifest order, so the first bad row raises.  The images fill one uint8
    stack at pre_cfg's target size, which runs through the preprocessing
    pipeline unless the manifest's stage record (see check_stages) says it
    has already; imaging.StagedImages holds it and scales each batch on
    use.  Masks are nearest-neighbor resampled to the same size; a row
    without a mask raises.  A missing growth value falls back to the mask's
    foreground fraction (foreground = any non-soil class).  An empty
    manifest raises DataError.
    """
    from .synthdata import SOIL_ID

    recorded = check_stages(manifest_path, pre_cfg)
    samples = read_manifest(manifest_path)
    if not samples:
        raise DataError(f"{manifest_path}: no samples to load")
    h, w = pre_cfg.target_size
    n = len(samples)
    images = np.empty((n, h, w, 3), dtype=np.uint8)
    labels = np.zeros(n, dtype=np.int64)
    masks = np.zeros((n, h, w), dtype=np.uint8)
    growth = np.zeros(n, dtype=np.float64)
    rows = image_rows(manifest_path, samples, (h, w), recorded)
    for i, (s, pixels) in enumerate(zip(samples, rows)):
        images[i] = pixels
        labels[i] = s.label
        if s.mask is None:
            raise DataError(f"{manifest_path}:{s.line}: sample has no mask "
                            f"(required for training): {s.image}")
        masks[i] = read_mask(manifest_path, s, (h, w))
        growth[i] = (float((masks[i] != SOIL_ID).mean()) if s.growth is None
                     else s.growth)
    if not recorded:
        images = im.preprocess_batch(images, pre_cfg)
    return TrainData(images=im.StagedImages(images, pre_cfg.normalize),
                     labels=labels, masks=masks, growth=growth), samples
