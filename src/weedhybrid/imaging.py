"""Image preprocessing and classical augmentation.

All operations work on :class:`ImageU8`, an 8-bit row-major, channel-
interleaved image container (grayscale or RGB), and are deterministic pure
functions.  The canonical preprocessing pipeline is::

    resize -> median denoise -> adaptive histogram equalization -> gamma
           -> standardize to a float32 model tensor

Denoising runs before the contrast operations so impulse noise cannot
distort tile histograms.  Disk I/O is binary PPM (P6) for color and PGM
(P5) for grayscale; no other container is parsed.

Every stage after resizing runs on private kernels over an (N, H, W, C)
uint8 stack: an exact bitwise radix median for any odd window, read as
shifted views of one edge-padded array; CLAHE with one ``bincount`` over
(image, tile, luma) keys for every tile histogram; brightness and gamma.
The pipeline body exists once, in :func:`preprocess_batch`: it resizes
each image and runs the stages over chunks of whole images, each chunk at
most ``_CHUNK_PIXELS`` target pixels, so its working memory is bounded by
a chunk, not by the batch.  :func:`to_model_tensor` is the one scaler from
a uint8 stack to per-image, per-channel standardized model values; the
pipeline and contrastive pretraining both call it.  The one-image calls
of the same code are ``gamma_correct``, which pretraining views use, and
``median_filter``, ``adaptive_hist_eq`` and ``preprocess``, kept because
the benchmark's traced run times them by name.  The kernels are
byte-identical to the per-image reference pipeline in ``tests/oracles.py``:
the float64 operations, and the order of every float64 sum, are the same.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as tensor_ops
from .errors import ContractError, DimensionError, FormatError

__all__ = [
    "ImageU8",
    "PreprocessConfig",
    "read_image",
    "write_image",
    "resize_bilinear",
    "median_filter",
    "adaptive_hist_eq",
    "gamma_correct",
    "to_model_tensor",
    "geometric_augment",
    "preprocess",
    "preprocess_batch",
    "GEOMETRIC_OPS",
]

GEOMETRIC_OPS = ("hflip", "vflip", "rot90", "rot180", "rot270")

# ITU-R 601 luma weights used when equalizing color images.
_LUMA = (0.299, 0.587, 0.114)

_CHUNK_PIXELS = 1 << 15   # target pixels (N*H*W) of one preprocessing chunk


@dataclass(frozen=True)
class ImageU8:
    """8-bit image: ``pixels`` holds H*W*C bytes, row-major, interleaved."""

    height: int
    width: int
    channels: int
    pixels: bytes

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise DimensionError(
                f"image extents must be positive, got {self.height}x{self.width}")
        if self.channels not in (1, 3):
            raise ContractError(f"channels must be 1 or 3, got {self.channels}")
        want = self.height * self.width * self.channels
        if len(self.pixels) != want:
            raise ContractError(
                f"pixel buffer holds {len(self.pixels)} bytes, expected {want}")

    @classmethod
    def from_array(cls, arr) -> "ImageU8":
        """Build from an (H,W) or (H,W,C) array; values are cast to uint8."""
        a = np.asarray(arr)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise DimensionError(f"expected 2-D or 3-D array, got shape {a.shape}")
        a = np.ascontiguousarray(a.astype(np.uint8))
        h, w, c = a.shape
        return cls(h, w, c, a.tobytes())

    def as_array(self):
        """Return the pixels as an (H, W, C) uint8 array."""
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(
            self.height, self.width, self.channels)


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the fixed preprocessing pipeline.

    ``beta`` is an optional additive brightness offset applied just before
    gamma correction; it defaults to 0.0 (disabled).  ``normalize`` selects
    per-channel standardization of the final tensor versus a plain [0,1]
    scaling.
    """

    target_size: tuple = (224, 224)
    median_window: int = 3
    clahe_tile: int = 8
    clahe_clip: float = 2.0
    gamma: float = 1.0
    beta: float = 0.0
    normalize: bool = True

    def __post_init__(self):
        th, tw = self.target_size
        if th < 1 or tw < 1:
            raise DimensionError(f"target size must be positive, got {self.target_size}")
        if self.median_window < 1 or self.median_window % 2 == 0:
            raise ContractError(
                f"median window must be odd and >= 1, got {self.median_window}")
        if self.median_window > min(th, tw):
            raise ContractError(
                f"median window {self.median_window} exceeds the target size "
                f"{self.target_size}")
        if self.clahe_tile < 1:
            raise ContractError(f"clahe tile must be >= 1, got {self.clahe_tile}")
        if self.clahe_clip <= 0:
            raise ContractError(f"clahe clip must be positive, got {self.clahe_clip}")
        if self.gamma <= 0:
            raise ContractError(f"gamma must be positive, got {self.gamma}")


# ---------------------------------------------------------------------------
# PPM / PGM I/O


def _next_token(buf: bytes, pos: int) -> tuple:
    """Return (token, new_pos), skipping whitespace and # comments."""
    n = len(buf)
    while pos < n:
        ch = buf[pos:pos + 1]
        if ch == b"#":
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise FormatError(f"truncated header at byte {start}")
    return buf[start:pos], pos


def read_image(path) -> ImageU8:
    """Read a binary PGM (P5) or PPM (P6) file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _next_token(buf, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise FormatError(f"unsupported magic {magic!r}; expected P5 or P6")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _next_token(buf, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise FormatError(f"non-numeric {name} field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"non-positive image extents {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise FormatError(f"expected whitespace after maxval at byte {pos}")
    pos += 1
    want = height * width * channels
    data = buf[pos:pos + want]
    if len(data) != want:
        raise FormatError(
            f"pixel payload holds {len(data)} bytes, expected {want}")
    return ImageU8(height, width, channels, data)


def write_image(path, img: ImageU8) -> None:
    """Write a binary PGM (1 channel) or PPM (3 channels) file atomically."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (img.width, img.height)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Geometry


def resize_bilinear(img: ImageU8, target) -> ImageU8:
    """Resize with bilinear interpolation, half-pixel-center convention."""
    th, tw = int(target[0]), int(target[1])
    if th < 1 or tw < 1:
        raise DimensionError(f"target size must be positive, got {target}")
    if (th, tw) == (img.height, img.width):
        return img
    arr = img.as_array().astype(np.float64)
    h, w = img.height, img.width

    def axis_weights(n_out, n_in):
        src = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
        src = np.clip(src, 0.0, n_in - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        return lo, hi, src - lo

    y0, y1, wy = axis_weights(th, h)
    x0, x1, wx = axis_weights(tw, w)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    top = arr[y0][:, x0] * (1.0 - wx) + arr[y0][:, x1] * wx
    bot = arr[y1][:, x0] * (1.0 - wx) + arr[y1][:, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    out = np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)
    return ImageU8(th, tw, img.channels, out.tobytes())


def geometric_augment(img: ImageU8, op: str) -> ImageU8:
    """Apply an exact pixel permutation: flip or quarter-turn rotation."""
    arr = img.as_array()
    if op == "hflip":
        out = arr[:, ::-1]
    elif op == "vflip":
        out = arr[::-1, :]
    elif op == "rot90":
        out = np.rot90(arr, 1)
    elif op == "rot180":
        out = np.rot90(arr, 2)
    elif op == "rot270":
        out = np.rot90(arr, 3)
    else:
        raise ContractError(f"unknown geometric op {op!r}; expected one of "
                            f"{', '.join(GEOMETRIC_OPS)}")
    out = np.ascontiguousarray(out)
    return ImageU8(out.shape[0], out.shape[1], img.channels, out.tobytes())


# ---------------------------------------------------------------------------
# Stack kernels: (N, H, W, C) uint8 in, uint8 out


def _median_stack(arr: np.ndarray, window: int) -> np.ndarray:
    """Exact per-channel window median of an (N,H,W,C) uint8 stack.

    Edges are clamped. The median's bits are set from high to low: a bit
    stays set when at most window**2 // 2 of the window's values lie below
    the trial value. The window is read as shifted views of one padded array.
    """
    if window == 1:
        return arr
    n, h, w, c = arr.shape
    r = window // 2
    padded = np.pad(arr, ((0, 0), (r, r), (r, r), (0, 0)), mode="edge")
    rank = window * window // 2
    out = np.zeros(arr.shape, dtype=np.uint8)
    trial = np.empty(arr.shape, dtype=np.uint8)
    below = np.empty(arr.shape, dtype=bool)
    count = np.empty(arr.shape, dtype=np.min_scalar_type(window * window))
    for shift in range(7, -1, -1):
        np.bitwise_or(out, 1 << shift, out=trial)
        count.fill(0)
        for dy in range(window):
            for dx in range(window):
                np.less(padded[:, dy:dy + h, dx:dx + w], trial, out=below)
                np.add(count, below.view(np.uint8), out=count, casting="unsafe")
        np.less_equal(count, rank, out=below)
        out |= below.view(np.uint8) << shift
    return out


def _luminance(arr: np.ndarray) -> np.ndarray:
    """Quantized ITU-R 601 luma of a (..., 3) uint8 array, as uint8."""
    r = arr[..., 0].astype(np.float64)
    g = arr[..., 1].astype(np.float64)
    b = arr[..., 2].astype(np.float64)
    y = _LUMA[0] * r + _LUMA[1] * g + _LUMA[2] * b
    return np.floor(y + 0.5).astype(np.uint8)


def _tile_bounds(h: int, w: int, tile: int) -> tuple:
    """Tile boundaries floor(i * extent / grid) per axis, grid clamped to the extent."""
    gy = min(tile, h)
    gx = min(tile, w)
    by = np.floor(np.arange(gy + 1, dtype=np.int64) * h / gy).astype(np.int64)
    bx = np.floor(np.arange(gx + 1, dtype=np.int64) * w / gx).astype(np.int64)
    return by, bx


def _clahe_luts(lum: np.ndarray, by, bx, clip: float) -> np.ndarray:
    """(N, gy, gx, 256) float64 tile mappings of an (N,H,W) uint8 luma stack.

    One bincount over (image, tile, luma) keys gives every tile histogram.
    Each is clipped at max(1, clip * area / 256) counts per bin, the excess
    is spread evenly over the 256 bins, and the mapping is 255 * cdf / area,
    monotone non-decreasing.
    """
    n = lum.shape[0]
    gy, gx = len(by) - 1, len(bx) - 1
    rows, cols = np.diff(by), np.diff(bx)
    tile = (np.repeat(np.arange(gy) * gx, rows)[:, None]
            + np.repeat(np.arange(gx), cols)[None, :])
    keys = ((np.arange(n)[:, None, None] * (gy * gx) + tile) << 8) + lum
    hist = np.bincount(keys.ravel(), minlength=n * gy * gx * 256)
    hist = hist.reshape(n, gy, gx, 256).astype(np.float64)
    area = (rows[:, None] * cols[None, :])[:, :, None]
    climit = np.maximum(1.0, clip * area / 256.0)
    share = np.sum(np.maximum(hist - climit, 0.0), axis=-1, keepdims=True) / 256.0
    np.minimum(hist, climit, out=hist)
    hist += share
    np.cumsum(hist, axis=-1, out=hist)
    hist *= 255.0
    hist /= area
    return hist


def _blend_axis(extent: int, bounds) -> tuple:
    """Tile index and fractional weight toward the next tile, per coordinate."""
    n = len(bounds) - 1
    centers = (bounds[:-1] + bounds[1:] - 1) / 2.0
    pos = np.arange(extent, dtype=np.float64)
    if n == 1:
        return np.zeros(extent, dtype=np.int64), np.zeros(extent, dtype=np.float64)
    t = np.clip(np.searchsorted(centers, pos, side="right") - 1, 0, n - 2)
    u = np.clip((pos - centers[t]) / (centers[t + 1] - centers[t]), 0.0, 1.0)
    return t, u


def _clahe_stack(arr: np.ndarray, tile: int, clip: float) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization of an (N,H,W,C) stack."""
    n, h, w, c = arr.shape
    lum = _luminance(arr) if c == 3 else arr[..., 0]
    by, bx = _tile_bounds(h, w, tile)
    luts = _clahe_luts(lum, by, bx, clip)
    gy, gx = luts.shape[1], luts.shape[2]

    ty, uy = _blend_axis(h, by)
    tx, ux = _blend_axis(w, bx)
    ty2 = np.minimum(ty + 1, gy - 1)
    tx2 = np.minimum(tx + 1, gx - 1)

    flat = luts.reshape(-1)
    # flat index of (image, luma); each corner adds its tile's offset
    lv = np.arange(n, dtype=np.int64)[:, None, None] * (gy * gx << 8) + lum

    def at(rows, cols):
        return flat.take(lv + ((rows[:, None] * gx + cols[None, :]) << 8))

    w00 = (1.0 - uy)[:, None] * (1.0 - ux)[None, :]
    w01 = (1.0 - uy)[:, None] * ux[None, :]
    w10 = uy[:, None] * (1.0 - ux)[None, :]
    w11 = uy[:, None] * ux[None, :]
    m = w00 * at(ty, tx)
    m += w01 * at(ty, tx2)
    m += w10 * at(ty2, tx)
    m += w11 * at(ty2, tx2)

    fallback = np.clip(np.floor(m + 0.5), 0, 255)
    if c == 1:
        return fallback.astype(np.uint8)[..., None]
    # A zero-luma pixel takes the equalized value on every channel: its
    # ratio is 0, so its scaled channels are 0 and fill adds the value.
    zero = lum == 0
    ratio = np.where(zero, 0.0, m / np.maximum(lum, 1))
    fill = np.where(zero, fallback, 0.0)
    out = np.empty(arr.shape, dtype=np.uint8)
    for ch in range(c):
        scaled = arr[..., ch] * ratio
        scaled += 0.5
        np.clip(np.floor(scaled, out=scaled), 0, 255, out=scaled)
        scaled += fill
        out[..., ch] = scaled
    return out


def _brighten(arr: np.ndarray, beta: float) -> np.ndarray:
    if beta == 0.0:
        return arr
    out = arr.astype(np.float64) + beta
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def _gamma(arr: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 1.0:
        return arr
    levels = np.arange(256, dtype=np.float64) / 255.0
    lut = np.clip(np.floor(255.0 * np.power(levels, gamma) + 0.5), 0, 255)
    return lut.astype(np.uint8)[arr]


def _stage(arr: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """The image-space stages after resizing, over an (N,H,W,C) stack."""
    arr = _median_stack(arr, cfg.median_window)
    arr = _clahe_stack(arr, cfg.clahe_tile, cfg.clahe_clip)
    arr = _brighten(arr, cfg.beta)
    return _gamma(arr, cfg.gamma)


def _as_image(arr: np.ndarray) -> ImageU8:
    h, w, c = arr.shape
    return ImageU8(h, w, c, arr.tobytes())


# ---------------------------------------------------------------------------
# One-image calls of the stack kernels


def median_filter(img: ImageU8, window: int = 3) -> ImageU8:
    """Per-channel windowed median with clamp-to-border edge handling."""
    if window < 1 or window % 2 == 0:
        raise ContractError(f"median window must be odd and >= 1, got {window}")
    if window == 1:
        return img
    return _as_image(_median_stack(img.as_array()[None], window)[0])


def adaptive_hist_eq(img: ImageU8, tile: int = 8, clip: float = 2.0) -> ImageU8:
    """Contrast-limited adaptive histogram equalization.

    Grayscale images are equalized directly.  Color images equalize the
    quantized luma channel and rescale all three channels by the ratio of
    equalized to original luma, preserving chroma ratios; zero-luma pixels
    take the equalized value on every channel.  Each pixel blends the
    mappings of its four nearest tile centers bilinearly, and the final
    value is rounded half-up.
    """
    if tile < 1:
        raise ContractError(f"tile must be >= 1, got {tile}")
    if clip <= 0:
        raise ContractError(f"clip must be positive, got {clip}")
    return _as_image(_clahe_stack(img.as_array()[None], tile, clip)[0])


def gamma_correct(img: ImageU8, gamma: float) -> ImageU8:
    """Power-law intensity mapping: out = round(255 * (in/255) ** gamma)."""
    if gamma <= 0:
        raise ContractError(f"gamma must be positive, got {gamma}")
    if gamma == 1.0:
        return img
    return _as_image(_gamma(img.as_array(), gamma))


# ---------------------------------------------------------------------------
# The batched pipeline


def to_model_tensor(arr: np.ndarray, normalize: bool = True) -> np.ndarray:
    """(N,H,W,C) uint8 -> (N,C,H,W) float64 model values.

    Each image channel is standardized on the integer scale as
    (x - mu) / (sigma + 255e-6), the [0,1]-scale formula with every term
    multiplied by 255; integer-valued means are exact, so constant channels
    come out exactly zero. Without normalize the values are x / 255.

    The channel sums are integers, exact in any order. The squared
    deviations are summed as NumPy's mean and std sum one (H,W,C) image:
    pairwise over the contiguous pixels of a one-channel image, and in pixel
    order, one running sum per channel, for a colour image.
    """
    n, h, w, c = arr.shape
    x = np.ascontiguousarray(np.transpose(arr, (0, 3, 1, 2))).reshape(
        n, c, h * w).astype(np.float64)
    if not normalize:
        return (x / 255.0).reshape(n, c, h, w)
    dev = x - x.sum(axis=-1, keepdims=True) / (h * w)
    sq = np.multiply(dev, dev, out=x)
    if c == 1:
        total = sq.sum(axis=-1, keepdims=True)
    else:
        total = np.add.accumulate(sq, axis=-1, out=sq)[..., -1:]
    dev /= np.sqrt(total / (h * w)) + 255.0e-6
    return dev.reshape(n, c, h, w)


def _chunks(images, pixels: int):
    """(start, stop) runs of whole images with one channel count, each at
    most _CHUNK_PIXELS target pixels (and at least one image)."""
    per = max(1, _CHUNK_PIXELS // pixels)
    start = 0
    while start < len(images):
        stop = start + 1
        while (stop < min(len(images), start + per)
               and images[stop].channels == images[start].channels):
            stop += 1
        yield start, stop
        start = stop


def preprocess_batch(images, cfg: PreprocessConfig = PreprocessConfig(),
                     as_images: bool = False):
    """Run the pipeline over a sequence of images, chunk by chunk.

    Each image is resized to ``cfg.target_size``; the resized images are
    stacked in chunks of whole images and the remaining stages run over each
    chunk at once. Returns an (N,C,H,W) float32 array of model values, or,
    with ``as_images``, the list of image-space results (everything but
    scaling). The tensor form needs one channel count across the images.
    """
    th, tw = cfg.target_size
    channels = {img.channels for img in images}
    if not as_images and len(channels) > 1:
        raise ContractError(f"images mix channel counts {sorted(channels)}")
    out = [] if as_images else np.empty(
        (len(images), channels.pop() if channels else 3, th, tw), dtype=np.float32)
    for start, stop in _chunks(images, th * tw):
        stack = _stage(np.stack([resize_bilinear(img, cfg.target_size).as_array()
                                 for img in images[start:stop]]), cfg)
        if as_images:
            out.extend(_as_image(a) for a in stack)
        else:
            out[start:stop] = to_model_tensor(stack, cfg.normalize)
    return out


def preprocess(img: ImageU8, cfg: PreprocessConfig = PreprocessConfig()):
    """Run the full pipeline over one image -> (C,H,W) model tensor."""
    return tensor_ops.Tensor(preprocess_batch([img], cfg)[0])
