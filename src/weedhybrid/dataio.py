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

Every command opens a manifest through open_manifest, which checks its
stage record and then its row count, and reads its images through
image_rows, which decides which images are refused and how a row becomes
pixels at the size the command needs. read_chunks adds each row's mask
and growth and runs the stages over chunks of whole images, so a command
that takes one row at a time (preprocess, eval) holds one chunk;
load_dataset stacks the chunks for the commands that need every row at
once, and read_images stacks the bare images as uint8.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import imaging as im
from .errors import DataError
from .synthdata import CLASS_NAMES, SOIL_ID
from .training import TrainData

__all__ = ["Sample", "write_manifest", "write_staged_manifest", "read_text",
           "read_manifest", "read_stages", "open_manifest", "check_stages",
           "read_mask", "image_rows", "read_images", "Chunk", "read_chunks",
           "load_dataset"]

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
    with im.atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


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


def open_manifest(path: str, pre_cfg: im.PreprocessConfig = None,
                  minimum: int = 1) -> tuple:
    """(samples, staged): a manifest's rows and whether its images went
    through pre_cfg's stages already; the one way a command opens one.

    The stage record is checked before any row is read. With pre_cfg it is
    compared with pre_cfg (check_stages). Without, a manifest that holds
    one raises DataError: its images went through the pipeline already, and
    running it again, or mixing synthetic rows with them, would feed the
    model images no raw manifest gives. Then the rows are read
    (read_manifest), and fewer than minimum raise DataError.
    """
    if pre_cfg is None and read_stages(path) is not None:
        raise DataError(f"{path}: already preprocessed (it holds a stage "
                        f"record); give the raw manifest instead")
    staged = pre_cfg is not None and check_stages(path, pre_cfg)
    samples = read_manifest(path)
    if len(samples) < minimum:
        raise DataError(f"{path}: too few samples ({len(samples)}; the "
                        f"command needs at least {minimum})")
    return samples, staged


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
    """A sample's checked single-channel uint8 mask, nearest-resampled to
    (H, W) unless it has that size already."""
    arr = im.read_image(os.path.join(
        os.path.dirname(os.path.abspath(manifest_path)), sample.mask))
    if arr.shape[2] != 1:
        raise DataError(f"{manifest_path}:{sample.line}: mask must be "
                        f"single-channel: {sample.mask}")
    arr = arr[:, :, 0]
    if arr.max() >= len(CLASS_NAMES):
        raise DataError(f"{manifest_path}:{sample.line}: mask value "
                        f"{arr.max()} outside the class vocabulary")
    return arr if arr.shape == tuple(size) else _resize_mask_nearest(arr, size)


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


@dataclass(frozen=True)
class Chunk:
    """Consecutive manifest rows as read_chunks yields them."""

    samples: list          # the rows' Samples, in manifest order
    images: np.ndarray     # (n, H, W, 3) uint8, through the stages
    labels: np.ndarray     # (n,) int64
    masks: np.ndarray      # (n, H, W) uint8; zeros for a row without a mask
    growth: np.ndarray     # (n,) float64; NaN for a row without either

    def train_data(self, normalize: bool = True) -> TrainData:
        """The chunk as model inputs, scaled on use (imaging.StagedImages)."""
        return TrainData(images=im.StagedImages(self.images, normalize),
                         labels=self.labels, masks=self.masks, growth=self.growth)


def read_chunks(manifest_path: str, samples, pre_cfg: im.PreprocessConfig,
                staged: bool = False, masks_required: bool = True):
    """Yield the samples as Chunks in manifest order: whole images of at
    most imaging._CHUNK_PIXELS pixels at pre_cfg's target size (at least
    one image), the chunks preprocess_batch runs, so a chunk's bytes are
    those of the whole stack's rows.

    When masks_required, the first row without a mask raises DataError
    before any image is read; otherwise such a row's mask is zeros. Each
    row is then read and checked in order, its image as image_rows does
    and then its mask, so the first bad row raises. Masks are
    nearest-neighbor resampled to the target size, and a missing growth
    value falls back to the mask's foreground fraction (foreground = any
    non-soil class). Unless staged (the manifest's stage record says its
    images went through pre_cfg's stages, see check_stages), each chunk's
    images run through imaging.preprocess_batch.
    """
    if masks_required:
        for s in samples:
            if s.mask is None:
                raise DataError(f"{manifest_path}:{s.line}: sample has no mask "
                                f"(required by train and eval): {s.image}")
    h, w = pre_cfg.target_size
    per = max(1, im._CHUNK_PIXELS // (h * w))
    rows = image_rows(manifest_path, samples, (h, w), staged)
    for start in range(0, len(samples), per):
        part = samples[start:start + per]
        images = np.empty((len(part), h, w, 3), dtype=np.uint8)
        masks = np.zeros((len(part), h, w), dtype=np.uint8)
        growth = np.full(len(part), np.nan)
        for i, (s, pixels) in enumerate(zip(part, rows)):
            images[i] = pixels
            if s.mask is not None:
                masks[i] = read_mask(manifest_path, s, (h, w))
            if s.growth is not None:
                growth[i] = s.growth
            elif s.mask is not None:
                growth[i] = float((masks[i] != SOIL_ID).mean())
        if not staged:
            images = im.preprocess_batch(images, pre_cfg)
        yield Chunk(samples=part, images=images,
                    labels=np.array([s.label for s in part], dtype=np.int64),
                    masks=masks, growth=growth)


def load_dataset(manifest_path: str, pre_cfg: im.PreprocessConfig) -> tuple:
    """Every row of a manifest (open_manifest), read as read_chunks reads
    it with every mask required, in one dataset -> (TrainData, samples),
    for the commands that need random access to every row.

    The chunks fill one preallocated uint8 image stack, which
    imaging.StagedImages holds and scales per batch on use, and one array
    each of labels, masks and growth; so the first bad row raises, as
    read_chunks checks it.
    """
    samples, staged = open_manifest(manifest_path, pre_cfg)
    chunks = read_chunks(manifest_path, samples, pre_cfg, staged)
    h, w = pre_cfg.target_size
    n = len(samples)
    images = np.empty((n, h, w, 3), dtype=np.uint8)
    labels = np.empty(n, dtype=np.int64)
    masks = np.empty((n, h, w), dtype=np.uint8)
    growth = np.empty(n, dtype=np.float64)
    at = 0
    for chunk in chunks:
        rows = slice(at, at + len(chunk.samples))
        images[rows], labels[rows] = chunk.images, chunk.labels
        masks[rows], growth[rows] = chunk.masks, chunk.growth
        at = rows.stop
    return TrainData(images=im.StagedImages(images, pre_cfg.normalize),
                     labels=labels, masks=masks, growth=growth), samples
