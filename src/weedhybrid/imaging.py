"""Image preprocessing and classical augmentation.

An image is a plain (H, W, C) uint8 NumPy array, C 1 (grayscale) or 3
(RGB), and every operation is a deterministic pure function.  The canonical
preprocessing pipeline is::

    resize -> median denoise -> adaptive histogram equalization -> gamma
           -> standardize to a float32 model tensor

Denoising runs before the contrast operations so impulse noise cannot
distort tile histograms.  Disk I/O is binary PPM (P6) for color and PGM
(P5) for grayscale; no other container is parsed.

Every stage after resizing runs on private kernels over an (N, H, W, C)
uint8 stack, reading a window as shifted views of one edge-padded array.
The median is exact: for the 3x3 window both presets use it is Paeth's
median-of-9 network (18 min/max passes); any other odd window takes a
bitwise radix (8 * window**2 compare-and-add passes with four working
planes, where a selection network's live planes grow with the window).  CLAHE
takes every tile histogram of a sub-stack of images from one ``bincount``
over (image, tile, luma) keys, with sub-stacks sized so their float64 tile
maps fit in ``_BLOCK_BYTES`` (a share of a core's L2 cache), and blends in
bands of at most ``_BAND_PIXELS`` pixels.  Brightness and gamma follow.
The image-space body exists once, in :func:`preprocess_batch`: it takes a
stack already resized to the target size (``dataio`` resizes each manifest
row as it reads it) and runs the stages over chunks of whole images, each
chunk at most ``_CHUNK_PIXELS`` pixels, so its working memory is bounded by
a chunk, not by the batch.  ``BENCH_preprocess.json`` has the per-stage
timings.  Scaling is the pipeline's cheap tail and runs on use:
:class:`StagedImages` holds the staged stack and scales each selection, in
groups of images of at most ``_BLOCK_BYTES`` of float64 pixels, with
:func:`to_model_tensor`, the one scaler from a uint8 stack to per-image,
per-channel standardized model values (contrastive pretraining calls it on
its views).  :func:`preprocess` runs the whole pipeline over one image
and is ``infer``'s path.  ``median_filter``, ``adaptive_hist_eq`` and
``gamma_correct`` are one-image calls of the same code, kept because the
benchmark's traced run times them by name.  The kernels are byte-identical
to the per-image reference pipeline in ``tests/oracles.py``: the float64
operations, and the order of every float64 sum, are the same, whatever the
chunk, sub-stack, band and group boundaries.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, FormatError

__all__ = [
    "PreprocessConfig",
    "read_image",
    "write_image",
    "resize_bilinear",
    "median_filter",
    "adaptive_hist_eq",
    "gamma_correct",
    "to_model_tensor",
    "preprocess",
    "preprocess_batch",
    "StagedImages",
    "GEOMETRIC_OPS",
]

GEOMETRIC_OPS = ("hflip", "vflip", "rot90", "rot180", "rot270")

# ITU-R 601 luma weights used when equalizing color images.
_LUMA = (0.299, 0.587, 0.114)

_CHUNK_PIXELS = 1 << 15   # pixels (N*H*W) of one preprocessing chunk
# float64 bytes of one cache-sized block: the tile maps of a CLAHE sub-stack,
# or the pixels of a group of images being scaled
_BLOCK_BYTES = 1 << 19
_BAND_PIXELS = 1 << 13    # pixels of one CLAHE blend band


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


def read_image(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) file as a read-only (H, W, C)
    uint8 array over the file's bytes.

    Width, height and maxval must be ASCII decimal digits, maxval 255, and
    the payload exactly H*W*C bytes; anything else raises FormatError.
    """
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
        if not tok.isdigit():   # ASCII digits only: no sign, "_" or spaces
            raise FormatError(f"non-numeric {name} field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"non-positive image extents {width}x{height}")
    if maxval != 255:
        raise FormatError(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(buf) or not buf[pos:pos + 1].isspace():
        raise FormatError(f"expected whitespace after maxval at byte {pos}")
    pos += 1
    want = height * width * channels
    have = len(buf) - pos
    if have < want:
        raise FormatError(f"pixel payload holds {have} bytes, expected {want}")
    if have > want:
        raise FormatError(f"{have - want} trailing bytes at offset {pos + want}")
    return np.frombuffer(buf, dtype=np.uint8, count=want, offset=pos).reshape(
        height, width, channels)


def write_image(path, arr: np.ndarray) -> None:
    """Write an (H, W) or (H, W, 1) uint8 array as binary PGM, or an
    (H, W, 3) one as PPM, atomically.

    Any other dtype, rank or channel count, or a zero extent, raises
    ContractError before a file is created.
    """
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ContractError(f"image must be uint8, got {arr.dtype}")
    if arr.ndim not in (2, 3) or (arr.ndim == 3 and arr.shape[2] not in (1, 3)):
        raise ContractError(f"image must be (H, W) or (H, W, 1|3), got shape "
                            f"{arr.shape}")
    if 0 in arr.shape[:2]:
        raise ContractError(f"image extents must be positive, got shape {arr.shape}")
    magic = b"P6" if arr.ndim == 3 and arr.shape[2] == 3 else b"P5"
    header = magic + b"\n%d %d\n255\n" % (arr.shape[1], arr.shape[0])
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(arr))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Geometry


def resize_bilinear(arr: np.ndarray, target) -> np.ndarray:
    """Resize an (H, W, C) uint8 array with bilinear interpolation,
    half-pixel-center convention; an array already at target is returned."""
    th, tw = int(target[0]), int(target[1])
    if th < 1 or tw < 1:
        raise DimensionError(f"target size must be positive, got {target}")
    h, w, _ = arr.shape
    if (th, tw) == (h, w):
        return arr
    arr = arr.astype(np.float64)

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
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Stack kernels: (N, H, W, C) uint8 in, uint8 out


def _pad_edge(arr: np.ndarray, r: int) -> np.ndarray:
    """An (N,H,W,C) stack with r clamped-edge rows and columns on each side
    (what np.pad's "edge" mode gives, at a fraction of its call cost)."""
    n, h, w, c = arr.shape
    p = np.empty((n, h + 2 * r, w + 2 * r, c), dtype=arr.dtype)
    p[:, r:r + h, r:r + w] = arr
    p[:, :r, r:r + w] = arr[:, :1]
    p[:, r + h:, r:r + w] = arr[:, -1:]
    p[:, :, :r] = p[:, :, r:r + 1]
    p[:, :, r + w:] = p[:, :, r + w - 1:r + w]
    return p


def _median_stack(arr: np.ndarray, window: int) -> np.ndarray:
    """Exact per-channel window median of an (N,H,W,C) uint8 stack.

    Edges are clamped. The 3x3 window, the one both presets use, runs a
    median-of-9 network (:func:`_median9`): 18 min/max passes over the
    stack. Any other window sets the median's bits from high to low: a bit
    stays set when at most window**2 // 2 of the window's values lie below
    the trial value, counted over shifted views of one padded array. That
    is 8 * window**2 compares and adds with four working planes for any
    window, where a selection network for a wider window keeps
    (window**2 + 3) / 2 planes alive, without bound over the windows the
    config allows.
    """
    if window == 1:
        return arr
    if window == 3:
        return _median9(arr)
    n, h, w, c = arr.shape
    r = window // 2
    padded = _pad_edge(arr, r)
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


def _med3(a, b, c):
    """Elementwise median of three arrays: min(max(a, min(b, c)), max(b, c))."""
    lo = np.minimum(b, c)
    hi = np.maximum(b, c)
    np.maximum(a, lo, out=lo)
    return np.minimum(lo, hi, out=lo)


def _median9(arr: np.ndarray) -> np.ndarray:
    """Exact 3x3 median of an (N,H,W,C) uint8 stack, edges clamped.

    Paeth's median-of-9 network ("Median finding on a 3x3 grid", Graphics
    Gems, 1990) opens with nine exchanges that sort three triples. Here the
    triples are columns, so each column of the edge-padded stack is sorted
    once and shared by the three windows that read it. Its other ten
    exchanges, less the outputs the median never reads, take the median of
    the largest column minimum, the median of the column medians and the
    smallest column maximum. A median is exact, so any correct network
    gives the radix's bytes.
    """
    w = arr.shape[2]
    p = _pad_edge(arr, 1)
    # sort each column triple: lo <= mid <= hi
    lo = np.minimum(p[:, :-2], p[:, 1:-1])
    hi = np.maximum(p[:, :-2], p[:, 1:-1])
    mid = np.minimum(hi, p[:, 2:])
    np.maximum(hi, p[:, 2:], out=hi)
    # spent planes (p, then the unsorted middles, then lo) take the later
    # results, so the network holds about as many planes as the radix
    spare = mid
    mid = np.maximum(lo, spare, out=p[:, 2:])
    np.minimum(lo, spare, out=lo)
    low = np.maximum(lo[:, :, :w], lo[:, :, 1:w + 1], out=spare[:, :, :w])
    np.maximum(low, lo[:, :, 2:], out=low)
    high = np.minimum(hi[:, :, :w], hi[:, :, 1:w + 1], out=lo[:, :, :w])
    np.minimum(high, hi[:, :, 2:], out=high)
    return _med3(low, _med3(mid[:, :, :w], mid[:, :, 1:w + 1], mid[:, :, 2:]), high)


def _luminance(arr: np.ndarray) -> np.ndarray:
    """Quantized ITU-R 601 luma of a (..., 3) uint8 array, as uint8."""
    y = np.multiply(arr[..., 0], _LUMA[0], dtype=np.float64)
    term = np.multiply(arr[..., 1], _LUMA[1], dtype=np.float64)
    y += term
    y += np.multiply(arr[..., 2], _LUMA[2], dtype=np.float64, out=term)
    y += 0.5
    return np.floor(y, out=y).astype(np.uint8)


def _tile_bounds(h: int, w: int, tile: int) -> tuple:
    """Tile boundaries floor(i * extent / grid) per axis, grid clamped to the extent."""
    gy = min(tile, h)
    gx = min(tile, w)
    by = np.floor(np.arange(gy + 1, dtype=np.int64) * h / gy).astype(np.int64)
    bx = np.floor(np.arange(gx + 1, dtype=np.int64) * w / gx).astype(np.int64)
    return by, bx


def _clahe_luts(lum: np.ndarray, by, bx, clip: float, out=None) -> np.ndarray:
    """(N, gy, gx, 256) float64 tile mappings of an (N,H,W) uint8 luma stack,
    written to ``out`` if given.

    One bincount over (image, tile, luma) keys gives every tile histogram.
    Each is clipped at max(1, clip * area / 256) counts per bin, the excess
    is spread evenly over the 256 bins, and the mapping is 255 * cdf / area,
    monotone non-decreasing. :func:`_clahe_stack` calls it on sub-stacks
    whose maps fit in a core's L2 cache, with one ``out`` for all of them,
    so the passes over the maps stay in cache and allocate little.
    """
    n = lum.shape[0]
    gy, gx = len(by) - 1, len(bx) - 1
    rows, cols = np.diff(by), np.diff(bx)
    tile = (np.repeat(np.arange(gy) * gx, rows)[:, None]
            + np.repeat(np.arange(gx), cols)[None, :])
    keys = np.add(tile << 8, lum)
    keys += (np.arange(n) * (gy * gx << 8))[:, None, None]
    counts = np.bincount(keys.ravel(), minlength=n * gy * gx * 256)
    counts = counts.reshape(n, gy, gx, 256)
    hist = np.empty(counts.shape) if out is None else out
    hist[...] = counts
    area = (rows[:, None] * cols[None, :])[:, :, None].astype(np.float64)
    climit = np.maximum(1.0, clip * area / 256.0)
    # the counts are copied, so their memory can hold the excess
    excess = np.subtract(hist, climit, out=counts.view(np.float64))
    np.maximum(excess, 0.0, out=excess)
    share = np.sum(excess, axis=-1, keepdims=True) / 256.0
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
    """Contrast-limited adaptive histogram equalization of an (N,H,W,C) stack.

    The stack is equalized in sub-stacks of whole images whose float64
    tile maps take at most _BLOCK_BYTES (at least one image), and each
    sub-stack is blended in bands of whole rows of at most _BAND_PIXELS
    pixels (at least one row), so the maps and every per-pixel temporary
    stay in cache. Each image's maps and pixels see the same float64
    operations in the same order whatever the split.
    """
    n, h, w, c = arr.shape
    by, bx = _tile_bounds(h, w, tile)
    gy, gx = len(by) - 1, len(bx) - 1
    ty, uy = _blend_axis(h, by)
    tx, ux = _blend_axis(w, bx)
    # per axis, each pixel's two nearest tiles as offsets into an image's
    # maps, with their weights
    rows = (((ty * gx) << 8, 1.0 - uy), ((np.minimum(ty + 1, gy - 1) * gx) << 8, uy))
    cols = ((tx << 8, 1.0 - ux), (np.minimum(tx + 1, gx - 1) << 8, ux))
    per = max(1, _BLOCK_BYTES // (gy * gx * 256 * 8))
    maps = np.empty((min(per, n), gy, gx, 256))
    out = np.empty(arr.shape, dtype=np.uint8)
    for start in range(0, n, per):
        part = arr[start:start + per]
        lum = _luminance(part) if c == 3 else part[..., 0]
        flat = _clahe_luts(lum, by, bx, clip, maps[:len(part)]).reshape(-1)
        # offset of each image's maps in flat
        base = (np.arange(len(part)) * (gy * gx << 8))[:, None, None]
        band = max(1, _BAND_PIXELS // (len(part) * w))
        for r0 in range(0, h, band):
            rs = slice(r0, r0 + band)
            _blend(part[:, rs], lum[:, rs], flat, base,
                   [(off[rs, None], weight[rs, None]) for off, weight in rows],
                   cols, out[start:start + per, rs])
    return out


def _blend(part, lum, flat, base, rows, cols, out):
    """Equalize a band of rows of a sub-stack into out.

    Each pixel blends the mappings of its four nearest tiles bilinearly,
    (((w00 * a) + w01 * b) + w10 * c) + w11 * d, and rounds half up. A
    colour pixel's channels are scaled by the ratio of equalized to
    original luma; a zero-luma pixel takes the equalized value on every
    channel.
    """
    lv = np.add(base, lum)
    row_idx = np.empty_like(lv)
    idx = np.empty_like(lv)
    m = None
    for row_off, wy in rows:
        np.add(lv, row_off, out=row_idx)
        for col_off, wx in cols:
            term = flat.take(np.add(row_idx, col_off, out=idx))
            term *= wy * wx
            if m is None:
                m = term
            else:
                m += term
    if part.shape[-1] == 1:
        m += 0.5
        out[..., 0] = np.clip(np.floor(m, out=m), 0, 255, out=m)
        return
    zero = lum == 0
    fallback = np.clip(np.floor(m[zero] + 0.5), 0, 255)
    ratio = np.divide(m, np.maximum(lum, 1), out=m)
    scaled = np.empty(lv.shape)
    for ch in range(part.shape[-1]):
        np.multiply(part[..., ch], ratio, out=scaled)
        scaled += 0.5
        np.clip(np.floor(scaled, out=scaled), 0, 255, out=scaled)
        out[..., ch] = scaled
    out[zero] = fallback[:, None]


def _brighten(arr: np.ndarray, beta: float) -> np.ndarray:
    if beta == 0.0:
        return arr
    out = arr.astype(np.float64) + beta
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def _geometric_stack(arr: np.ndarray, op: str) -> np.ndarray:
    """A flip or quarter-turn of every image of an (N,H,W,C) stack (a view)."""
    if op == "hflip":
        return arr[:, :, ::-1]
    if op == "vflip":
        return arr[:, ::-1]
    turns = {"rot90": 1, "rot180": 2, "rot270": 3}.get(op)
    if turns is None:
        raise ContractError(f"unknown geometric op {op!r}; expected one of "
                            f"{', '.join(GEOMETRIC_OPS)}")
    return np.rot90(arr, turns, axes=(1, 2))


def _gamma_luts(gammas) -> np.ndarray:
    """(n, 256) uint8 tables round(255 * (level/255) ** gamma), one row per
    gamma, from one np.power call. NumPy computes a scalar exponent of 0.5
    or 2.0 as sqrt or square, which can differ from pow in the last place,
    but every such level still rounds to the same byte (tests compare them)."""
    levels = np.arange(256, dtype=np.float64) / 255.0
    powers = np.power(levels, np.asarray(gammas, dtype=np.float64)[:, None])
    return np.clip(np.floor(255.0 * powers + 0.5), 0, 255).astype(np.uint8)


def _gamma(arr: np.ndarray, gamma: float) -> np.ndarray:
    if gamma == 1.0:
        return arr
    return _gamma_luts([gamma])[0][arr]


def _stage(arr: np.ndarray, cfg: PreprocessConfig) -> np.ndarray:
    """The image-space stages after resizing, over an (N,H,W,C) stack."""
    arr = _median_stack(arr, cfg.median_window)
    arr = _clahe_stack(arr, cfg.clahe_tile, cfg.clahe_clip)
    arr = _brighten(arr, cfg.beta)
    return _gamma(arr, cfg.gamma)


# ---------------------------------------------------------------------------
# One-image calls of the stack kernels: (H, W, C) uint8 in, uint8 out


def median_filter(arr: np.ndarray, window: int = 3) -> np.ndarray:
    """Per-channel windowed median with clamp-to-border edge handling."""
    if window < 1 or window % 2 == 0:
        raise ContractError(f"median window must be odd and >= 1, got {window}")
    return _median_stack(arr[None], window)[0]


def adaptive_hist_eq(arr: np.ndarray, tile: int = 8, clip: float = 2.0) -> np.ndarray:
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
    return _clahe_stack(arr[None], tile, clip)[0]


def gamma_correct(arr: np.ndarray, gamma: float) -> np.ndarray:
    """Power-law intensity mapping: out = round(255 * (in/255) ** gamma)."""
    if gamma <= 0:
        raise ContractError(f"gamma must be positive, got {gamma}")
    return _gamma(arr, gamma)


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


def preprocess_batch(stack: np.ndarray,
                     cfg: PreprocessConfig = PreprocessConfig()) -> np.ndarray:
    """Run the image-space stages over an (N,H,W,C) uint8 stack already at
    ``cfg.target_size``, in chunks of whole images of at most _CHUNK_PIXELS
    pixels (at least one image). Returns the staged (N,H,W,C) uint8 stack:
    everything but scaling, which :class:`StagedImages` applies on use.
    """
    n, h, w, _ = stack.shape
    out = np.empty_like(stack)
    per = max(1, _CHUNK_PIXELS // (h * w))
    for start in range(0, n, per):
        out[start:start + per] = _stage(stack[start:start + per], cfg)
    return out


class StagedImages:
    """A staged (N,H,W,C) uint8 stack as model inputs.

    A read-only view that reports the model batch's ``shape``, (N,C,H,W),
    and ``len``. ``view[sel]`` is the float32 (len(sel),C,H,W) batch of the
    selected images (an integer gives one (C,H,W) image), scaled by
    :func:`to_model_tensor` in groups of whole images of at most
    _BLOCK_BYTES of float64 pixels, so no float copy of the whole set ever
    exists. Scaling is per image, so an image's values do not depend on the
    selection or group it is scaled in.
    """

    def __init__(self, stack: np.ndarray, normalize: bool = True):
        self._stack = stack.view()
        self._stack.flags.writeable = False
        self._normalize = normalize

    @property
    def shape(self) -> tuple:
        n, h, w, c = self._stack.shape
        return (n, c, h, w)

    def __len__(self):
        return self._stack.shape[0]

    def __getitem__(self, sel) -> np.ndarray:
        idx = np.arange(len(self))[sel]
        if idx.ndim == 0:
            return self[idx[None]][0]
        _, c, h, w = self.shape
        out = np.empty((idx.size, c, h, w), dtype=np.float32)
        per = max(1, _BLOCK_BYTES // (h * w * c * 8))
        for at in range(0, idx.size, per):
            out[at:at + per] = to_model_tensor(self._stack[idx[at:at + per]],
                                               self._normalize)
        return out


def preprocess(arr: np.ndarray, cfg: PreprocessConfig = PreprocessConfig()) -> np.ndarray:
    """Run the full pipeline over one (H, W, C) uint8 image -> the float32
    (C, H, W) model input at cfg.target_size."""
    stack = resize_bilinear(arr, cfg.target_size)[None]
    return StagedImages(preprocess_batch(stack, cfg), cfg.normalize)[0]
