"""Procedural synthetic field imagery standing in for UAV captures.

Each class gets a distinctive texture with an exact per-pixel mask:

    broadleaf  a few large smooth blobs of foliage
    grass      thin stripes at a random orientation
    soil       filtered noise, no foreground at all
    soybean    periodic planted crop rows

Mask pixels carry class ids with soil as the background class, so every
foreground pixel belongs to the sample's own class by construction.  The
growth scalar is the foreground area fraction.  Every sample is generated
from an rng seeded by (seed, class, index), making output byte-identical
regardless of generation order.
"""

from __future__ import annotations

import numbers
import os
from collections.abc import Mapping

import numpy as np

from . import imaging as im
from .errors import ContractError

__all__ = [
    "CLASS_NAMES",
    "SOIL_ID",
    "IMBALANCE_COUNTS",
    "generate_sample",
    "generate_dataset",
]

CLASS_NAMES = ("broadleaf", "grass", "soil", "soybean")
SOIL_ID = CLASS_NAMES.index("soil")

# Historical field-survey class ratio: soybean 48%, grass 23%, soil 21%,
# broadleaf 8% of a 600-sample collection.
IMBALANCE_COUNTS = {"broadleaf": 48, "grass": 138, "soil": 126, "soybean": 288}


def _smooth_noise(rng, size, passes=2):
    """Box-filtered uniform noise in [0, 1] (wrap-around neighborhood).

    Each pass copies the field into an (h+2, w+2) array whose border rows
    and columns wrap around from the opposite edge, then adds that array's
    nine (h, w) windows into a zero array, shifts (dy, dx) in row-major
    order over {-1, 0, 1}^2, and divides by 9.  The window for (dy, dx)
    holds np.roll(np.roll(field, dy, axis=0), dx, axis=1), so every sum
    takes the same addends in the same order as the rolled form and the
    field is byte-identical to it.
    """
    field = rng.uniform(0.0, 1.0, size)
    h, w = size
    padded = np.empty((h + 2, w + 2))
    for _ in range(passes):
        padded[1:-1, 1:-1] = field
        padded[0, 1:-1] = field[-1]
        padded[-1, 1:-1] = field[0]
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]
        acc = np.zeros(size)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += padded[1 - dy:1 - dy + h, 1 - dx:1 - dx + w]
        field = acc / 9.0
    return field


def _foreground_mask(label: int, size, rng) -> np.ndarray:
    h, w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    name = CLASS_NAMES[label]
    if name == "broadleaf":
        # 2-4 large soft blobs
        fg = np.zeros(size, dtype=bool)
        for _ in range(int(rng.integers(2, 5))):
            cy, cx = rng.uniform(0.2, 0.8) * h, rng.uniform(0.2, 0.8) * w
            ry = rng.uniform(0.18, 0.30) * h
            rx = rng.uniform(0.18, 0.30) * w
            theta = rng.uniform(0, np.pi)
            dy, dx = yy - cy, xx - cx
            u = dy * np.cos(theta) + dx * np.sin(theta)
            v = -dy * np.sin(theta) + dx * np.cos(theta)
            fg |= (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
        return fg
    if name == "grass":
        # stripes along a random orientation, a few pixels wide
        theta = rng.uniform(0, np.pi)
        period = rng.uniform(9.0, 13.0)
        phase = rng.uniform(0, period)
        coord = yy * np.cos(theta) + xx * np.sin(theta)
        width = rng.uniform(2.5, 4.0)
        return np.mod(coord + phase, period) < width
    if name == "soybean":
        # periodic planted rows, axis-aligned
        period = float(rng.integers(9, 13))
        phase = float(rng.integers(0, int(period)))
        width = float(rng.integers(4, 6))
        coord = yy if rng.integers(2) == 0 else xx
        return np.mod(coord + phase, period) < width
    return np.zeros(size, dtype=bool)  # soil: pure background


def _check_size(size) -> tuple:
    if size[0] < 4 or size[1] < 4:
        raise ContractError(f"image size must be at least 4x4, got {size}")
    return size


def generate_sample(label: int, size, rng) -> tuple:
    """One synthetic field image -> (ImageU8, mask ImageU8, growth in [0,1])."""
    if not 0 <= label < len(CLASS_NAMES):
        raise ContractError(f"label must lie in [0, {len(CLASS_NAMES)}), got {label}")
    h, w = _check_size(size)
    fg = _foreground_mask(label, (h, w), rng)

    tone = _smooth_noise(rng, (h, w))
    grain = rng.uniform(-1.0, 1.0, (h, w))
    # soil background: browns modulated by the noise field
    rgb = np.empty((h, w, 3))
    rgb[..., 0] = 118 + 48 * tone + 10 * grain
    rgb[..., 1] = 86 + 36 * tone + 8 * grain
    rgb[..., 2] = 56 + 26 * tone + 6 * grain
    if fg.any():
        leaf = _smooth_noise(rng, (h, w))
        green = np.empty((h, w, 3))
        green[..., 0] = 52 + 34 * leaf + 8 * grain
        green[..., 1] = 128 + 70 * leaf + 10 * grain
        green[..., 2] = 44 + 28 * leaf + 8 * grain
        rgb = np.where(fg[..., None], green, rgb)
    pixels = np.clip(np.floor(rgb + 0.5), 0, 255).astype(np.uint8)

    mask_arr = np.full((h, w, 1), SOIL_ID, dtype=np.uint8)
    mask_arr[fg, 0] = label
    growth = float(fg.sum()) / float(h * w)
    return (im.ImageU8.from_array(pixels), im.ImageU8.from_array(mask_arr),
            growth)


def _is_integer(value) -> bool:
    """Whether value is an integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def generate_dataset(out_dir: str, counts, size=(32, 32), seed: int = 0) -> str:
    """Write images/, masks/ and manifest.tsv under out_dir; returns the
    manifest path.

    `counts` maps class name (or index 0-3) -> sample count, or is one
    count for every class; the string "imbalance" selects the historical
    48/23/21/8 percent split over 600 samples.  Generation is reproducible
    byte-for-byte from `seed`.  A key that names no class, a count that is
    not a non-negative integer, a zero total or a size below 4x4 raises
    ContractError before out_dir is created.
    """
    if counts == "imbalance":
        counts = IMBALANCE_COUNTS
    if not isinstance(counts, Mapping):
        counts = {name: counts for name in CLASS_NAMES}
    per_class = [0] * len(CLASS_NAMES)
    for key, value in counts.items():
        if key in CLASS_NAMES:
            idx = CLASS_NAMES.index(key)
        elif _is_integer(key) and 0 <= key < len(CLASS_NAMES):
            idx = int(key)
        else:
            raise ContractError(f"unknown class {key!r}: expected one of "
                                f"{', '.join(CLASS_NAMES)} or an index 0-"
                                f"{len(CLASS_NAMES) - 1}")
        if not _is_integer(value):
            raise ContractError(f"the count of {CLASS_NAMES[idx]} must be an "
                                f"integer, got {value!r}")
        per_class[idx] = int(value)
    if min(per_class) < 0 or sum(per_class) == 0:
        raise ContractError(f"per-class sample counts must be >= 0 with a "
                            f"positive total, got {per_class}")
    _check_size(size)

    from .dataio import Sample, write_manifest

    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "masks"), exist_ok=True)
    records = []
    for label, count in enumerate(per_class):
        name = CLASS_NAMES[label]
        for i in range(count):
            rng = np.random.default_rng([seed, label, i])
            img, mask, growth = generate_sample(label, size, rng)
            img_rel = os.path.join("images", f"{name}_{i:04d}.ppm")
            mask_rel = os.path.join("masks", f"{name}_{i:04d}.pgm")
            im.write_image(os.path.join(out_dir, img_rel), img)
            im.write_image(os.path.join(out_dir, mask_rel), mask)
            records.append(Sample(image=img_rel, label=label, mask=mask_rel,
                                  growth=growth))

    manifest = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, records)
    return manifest
