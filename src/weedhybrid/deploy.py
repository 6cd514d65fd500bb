"""Deployment artifacts: binary checkpoints, pruning, int8 quantization.

Checkpoint layout (all integers little-endian; see docs/checkpoint-format.md):

    offset 0   magic  b"HWDM"
    offset 4   format version, uint16 (currently 1)
    offset 6   flags, uint16 bitfield (pretrain-only / full / quantized / gan)
    offset 8   tensor count, uint32
    then per tensor:
        name length uint16, name bytes (utf-8, unique per file)
        kind uint8          0 = float32 payload, 1 = int8 quantized
        rank uint8, dims rank x uint32
        kind 1 only: scale float32, zero_point int8 (always 0)
        payload             float32[n] or int8[n], n = product of dims

The codec streams over a binary file object. The writer sends each payload
straight from its array; the reader rejects NaN/inf float32 payloads and
int8 scales that are not finite and positive, naming the tensor and the
byte offset, and reads each payload into an aligned array of its own,
which a model built from the entries adopts.

Quantization is symmetric per-tensor: scale = max|x|/127 (1.0 for all-zero
tensors), zero point 0, codes rounded half away from zero and clamped to
[-127, 127], so every element reconstructs to within scale/2.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import backbone as bb
from . import gan as gn
from . import heads as hd
from . import tensor as T
from .errors import ContractError, FormatError
from .imaging import atomic_write

__all__ = [
    "MAGIC",
    "VERSION",
    "FLAG_PRETRAIN",
    "FLAG_FULL",
    "FLAG_QUANTIZED",
    "FLAG_GAN",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "prune_magnitude",
    "save_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
    "read_checkpoint",
    "encode_backbone_config",
    "decode_backbone_config",
    "model_entries",
    "model_from_entries",
    "save_model",
    "load_model",
    "gan_entries",
    "gan_from_entries",
    "save_gan",
    "load_gan",
    "quantize_entries",
    "quantized_forward",
]

MAGIC = b"HWDM"
VERSION = 1

FLAG_PRETRAIN = 1
FLAG_FULL = 2
FLAG_QUANTIZED = 4
FLAG_GAN = 8

_KIND_FLOAT32 = 0
_KIND_INT8 = 1


# ---------------------------------------------------------------------------
# Quantization and pruning


@dataclass(frozen=True)
class QuantizedTensor:
    """Symmetric int8 codes plus the per-tensor scale (zero point is 0)."""

    codes: np.ndarray  # int8
    scale: float

    @property
    def shape(self) -> tuple:
        return self.codes.shape


def quantize(values: np.ndarray) -> QuantizedTensor:
    """code = clamp(round_half_away(x / scale), -127, 127), scale = max|x|/127.

    One float64 work array takes |x|, then |x| / scale + 0.5, floored and
    signed in place: |x| / scale is |x / scale| exactly, so the codes are
    those of rounding x / scale half away from zero.
    """
    work = np.array(values, dtype=np.float64)
    negative = work < 0
    np.abs(work, out=work)
    amax = float(work.max()) if work.size else 0.0
    scale = amax / 127.0 if amax > 0 else 1.0
    work /= scale
    work += 0.5
    np.floor(work, out=work)
    np.negative(work, out=work, where=negative)
    np.clip(work, -127, 127, out=work)
    return QuantizedTensor(codes=work.astype(np.int8), scale=scale)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """float32(code * scale): the float64 product, rounded once to float32
    as it is stored, with no float64 copy of the tensor."""
    return np.multiply(qt.codes, qt.scale, dtype=np.float64,
                       out=np.empty(qt.codes.shape, dtype=np.float32),
                       casting="same_kind")


def prune_magnitude(entries: dict, fraction: float) -> dict:
    """Zero the smallest-|w| fraction of each weight array in place; return
    keep masks by name.

    Every checkpoint entry but the meta. ones is a weight. The k =
    int(fraction * size) dropped elements are those below the k-th
    smallest |w| (found by np.partition, O(size)), then the lowest-index ties
    at it: the mask of a stable sort by |w|, so repeated pruning at growing
    fractions zeroes supersets. An int8 QuantizedTensor among the weights
    raises ContractError before anything is zeroed.
    """
    if not 0.0 <= fraction < 1.0:
        raise ContractError(f"prune fraction must lie in [0, 1), got {fraction}")
    weights = {n: v for n, v in entries.items() if not n.startswith("meta.")}
    for name, value in weights.items():
        if isinstance(value, QuantizedTensor):
            raise ContractError(f"{name} is int8; prune the float checkpoint, "
                                f"then quantize it")
    masks = {}
    for name, data in weights.items():
        flat = data.reshape(-1)
        k = int(fraction * flat.size)
        mask = np.ones(flat.size, dtype=bool)
        if k > 0:
            mags = np.abs(flat)
            kth = np.partition(mags, k - 1)[k - 1]
            below = np.flatnonzero(mags < kth)
            ties = np.flatnonzero(mags == kth)[:k - below.size]
            drop = np.concatenate([below, ties])
            flat[drop] = 0
            mask[drop] = False
        masks[name] = mask.reshape(data.shape)
    return masks


# ---------------------------------------------------------------------------
# Binary checkpoint encoding


def save_checkpoint(fh, entries: dict, flags: int = FLAG_FULL) -> None:
    """Write named tensors (float32 arrays or QuantizedTensor) to a binary
    file object: each header, then its payload straight from the array."""
    fh.write(MAGIC + struct.pack("<HHI", VERSION, flags, len(entries)))
    for name, value in entries.items():
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ContractError(f"tensor name too long: {name!r}")
        if isinstance(value, QuantizedTensor):
            arr = np.ascontiguousarray(value.codes)
            if arr.dtype != np.int8:
                raise ContractError(f"{name}: quantized codes must be int8")
            kind, scale = _KIND_INT8, struct.pack("<fb", float(value.scale), 0)
        else:
            arr = np.ascontiguousarray(value, dtype="<f4")
            kind, scale = _KIND_FLOAT32, b""
        fh.write(struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded),
                             encoded, kind, arr.ndim, *arr.shape) + scale)
        fh.write(arr)


def load_checkpoint(fh) -> tuple:
    """Decode a checkpoint from a binary file object -> (entries dict,
    flags); inverse of save_checkpoint.

    Every payload is read into a new aligned array of its own. Before each
    read the bytes that remain in the file are checked, so a header that
    claims more than the file holds fails before anything is allocated.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    offset = 0

    def read(count, what, subject=None, dtype=None):
        """The next `count` bytes, as bytes or as a new array of `dtype`; a
        short read names `what` (of `subject`), formatted only then."""
        nonlocal offset
        whole = count <= size - offset
        if whole and dtype is None:
            out = fh.read(count)
            whole = len(out) == count
        elif whole:
            out = np.empty(count // np.dtype(dtype).itemsize, dtype)
            whole = fh.readinto(out) == count
        if not whole:
            if subject is not None:
                what = f"{what} {subject}"
            raise FormatError(f"truncated checkpoint at offset {offset}: "
                              f"needed {count} bytes for {what}")
        offset += count
        return out

    raw = read(4, "magic")
    if raw != MAGIC:
        raise FormatError(f"bad magic {raw!r} at offset 0 (expected {MAGIC!r})")
    version, flags = struct.unpack("<HH", read(4, "version and flags"))
    if version != VERSION:
        raise FormatError(f"unsupported version {version} at offset 4")
    (count,) = struct.unpack("<I", read(4, "tensor count"))
    entries = {}
    for index in range(count):
        (name_len,) = struct.unpack("<H", read(2, "name length of tensor", index))
        raw = read(name_len, "name of tensor", index)
        try:
            name = str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"name of tensor {index} at offset "
                              f"{offset - name_len} is not UTF-8: {exc}") from exc
        if name in entries:
            raise FormatError(f"duplicate tensor name {name!r} at offset "
                              f"{offset - name_len}")
        kind, rank = struct.unpack("<BB", read(2, "kind/rank of", name))
        if kind not in (_KIND_FLOAT32, _KIND_INT8):
            raise FormatError(f"unknown tensor kind {kind} for {name} at "
                              f"offset {offset - 2}")
        dims = struct.unpack(f"<{rank}I", read(4 * rank, "dims of", name))
        n = math.prod(dims)  # exact: a wrapped count would pass the size check
        if kind == _KIND_FLOAT32:
            values = read(4 * n, "payload of", name, "<f4")
            # a NaN or an inf reaches the payload's min or max, and neither
            # needs a payload-sized temporary
            if n and not (np.isfinite(values.min()) and np.isfinite(values.max())):
                bad = int(np.argmin(np.isfinite(values)))
                raise FormatError(f"non-finite value in {name} at offset "
                                  f"{offset - 4 * n + 4 * bad}")
            entries[name] = values.reshape(dims)
        else:
            scale, zero_point = struct.unpack("<fb", read(5, "scale of", name))
            if zero_point != 0:
                raise FormatError(f"nonzero zero point for {name} at offset "
                                  f"{offset - 1}")
            if not 0 < scale < np.inf:
                raise FormatError(f"non-positive or non-finite scale for {name} "
                                  f"at offset {offset - 5}")
            codes = read(n, "codes of", name, np.int8).reshape(dims)
            entries[name] = QuantizedTensor(codes=codes, scale=float(scale))
    if offset != size:
        raise FormatError(f"{size - offset} trailing bytes at offset {offset}")
    return entries, flags


def write_checkpoint(path: str, entries: dict, flags: int = FLAG_FULL) -> None:
    """Stream a checkpoint into path through imaging.atomic_write."""
    with atomic_write(path) as fh:
        save_checkpoint(fh, entries, flags)


def read_checkpoint(path: str) -> tuple:
    with open(path, "rb") as fh:
        return load_checkpoint(fh)


# ---------------------------------------------------------------------------
# Model bridging: parameter structures <-> named entries


def encode_backbone_config(cfg: bb.BackboneConfig) -> np.ndarray:
    """Slot 5 is the ViT depth, always 1: the one attention stage."""
    vals = [cfg.image_size[0], cfg.image_size[1], cfg.patch_size,
            cfg.embed_dim, cfg.num_heads, 1,
            cfg.attention_reduction, cfg.in_channels, cfg.fusion_dim,
            len(cfg.cnn_channels), *cfg.cnn_channels,
            len(cfg.gcn_dims), *cfg.gcn_dims]
    return np.asarray(vals, dtype=np.float32)


def decode_backbone_config(arr: np.ndarray) -> bb.BackboneConfig:
    try:
        vals = [int(v) for v in np.asarray(arr).reshape(-1)]
        (h, w, patch, embed, heads, depth, reduction, in_ch, fusion,
         n_cnn) = vals[:10]
        cnn = tuple(vals[10:10 + n_cnn])
        n_gcn = vals[10 + n_cnn]
        gcn = tuple(vals[11 + n_cnn:11 + n_cnn + n_gcn])
        if len(gcn) != n_gcn:
            raise IndexError
        if depth != 1:
            raise ValueError(f"ViT depth {depth}, expected 1")
        return bb.BackboneConfig(image_size=(h, w), patch_size=patch,
                                 embed_dim=embed, num_heads=heads,
                                 cnn_channels=cnn, gcn_dims=gcn,
                                 fusion_dim=fusion,
                                 attention_reduction=reduction,
                                 in_channels=in_ch)
    except (IndexError, ValueError, OverflowError, ContractError) as exc:
        raise FormatError(f"invalid backbone config entry: {exc}") from exc


def _entry_name(name, shape, init):
    """Builder callback that makes each tensor's checkpoint entry name."""
    return name


def _named_arrays(names, params) -> dict:
    """Entry name -> float32 values of each tensor of `params` (the tensor's
    own array when it is float32 already); `names` is the same builder
    walked with _entry_name."""
    return {name: t.data.astype(np.float32, copy=False)
            for name, t in zip(T.leaves(names), T.leaves(params), strict=True)}


def model_entries(params: bb.BackboneParams,
                  head_params: hd.HeadParams = None) -> dict:
    cfg = params.config
    entries = {"meta.backbone": encode_backbone_config(cfg)}
    entries |= _named_arrays(bb.build_backbone(cfg, _entry_name), params)
    if head_params is not None:
        entries |= _named_arrays(hd.build_heads(cfg, _entry_name), head_params)
    return entries


def _entry_array(value) -> np.ndarray:
    return dequantize(value) if isinstance(value, QuantizedTensor) else value


def _entry_param(entries: dict):
    """Builder callback that takes each tensor from its checkpoint entry.

    The entry's shape is checked before anything is allocated, so a corrupt
    config fails on the first mismatched entry without allocating for it.
    A float32 entry is adopted as the tensor's array; int8 is dequantized.
    """

    def param(name, shape, init):
        if name not in entries:
            raise FormatError(f"checkpoint is missing tensor {name}")
        value = entries[name]
        if tuple(value.shape) != shape:
            raise FormatError(f"tensor {name} has shape {tuple(value.shape)}, "
                              f"expected {shape}")
        return T.Tensor(_entry_array(value), requires_grad=True, dtype=np.float32)

    return param


def model_from_entries(entries: dict) -> tuple:
    """Rebuild (BackboneParams, HeadParams or None) from checkpoint entries."""
    if "meta.backbone" not in entries:
        raise FormatError("checkpoint has no meta.backbone entry")
    cfg = decode_backbone_config(_entry_array(entries["meta.backbone"]))
    param = _entry_param(entries)
    params = bb.build_backbone(cfg, param)
    has_heads = any(name in entries
                    for name in T.leaves(hd.build_heads(cfg, _entry_name)))
    return params, (hd.build_heads(cfg, param) if has_heads else None)


def save_model(path: str, params: bb.BackboneParams,
               head_params: hd.HeadParams = None) -> None:
    """Write a full model, or a pretraining checkpoint without heads."""
    flags = FLAG_FULL if head_params is not None else FLAG_PRETRAIN
    write_checkpoint(path, model_entries(params, head_params), flags)


def load_model(path: str) -> tuple:
    entries, flags = read_checkpoint(path)
    params, head_params = model_from_entries(entries)
    return params, head_params, flags


def gan_entries(params: gn.GanParams) -> dict:
    cfg = params.config
    meta = np.asarray([cfg.latent_dim, cfg.class_count, cfg.image_size[0],
                       cfg.image_size[1], cfg.base_channels, cfg.label_dim],
                      dtype=np.float32)
    entries = {"meta.gan": meta,
               "meta.gan_steps": np.asarray([params.trained_steps],
                                            dtype=np.float32)}
    entries |= _named_arrays(gn.build_gan(cfg, _entry_name), params)
    return entries


def gan_from_entries(entries: dict) -> gn.GanParams:
    if "meta.gan" not in entries:
        raise FormatError("checkpoint has no meta.gan entry")
    try:
        vals = [int(v) for v in _entry_array(entries["meta.gan"])]
        latent, classes, h, w, base, label_dim = vals
        cfg = gn.GanConfig(latent_dim=latent, class_count=classes,
                           image_size=(h, w), base_channels=base,
                           label_dim=label_dim)
        steps = np.ravel(_entry_array(entries.get("meta.gan_steps", [0])))
        if steps.size != 1:
            raise ValueError(f"meta.gan_steps holds {steps.size} values, expected 1")
        trained_steps = int(steps[0])
    except (ValueError, OverflowError, ContractError) as exc:
        raise FormatError(f"invalid gan config entry: {exc}") from exc
    params = gn.build_gan(cfg, _entry_param(entries))
    params.trained_steps = trained_steps
    return params


def save_gan(path: str, params: gn.GanParams) -> None:
    write_checkpoint(path, gan_entries(params), flags=FLAG_GAN)


def load_gan(path: str) -> gn.GanParams:
    entries, flags = read_checkpoint(path)
    if not flags & FLAG_GAN:
        raise ContractError("checkpoint does not hold a GAN")
    return gan_from_entries(entries)


def quantize_entries(entries: dict) -> dict:
    """Quantize every non-meta tensor; meta entries stay exact float32."""
    out = {}
    for name, value in entries.items():
        if name.startswith("meta.") or isinstance(value, QuantizedTensor):
            out[name] = value
        else:
            out[name] = quantize(value)
    return out


def quantized_forward(source, images) -> hd.Prediction:
    """Run batched inference from a quantized checkpoint (weights int8 on
    disk, dequantized to float32 on use; no gradients are recorded).

    `source` is a checkpoint path or an (entries, flags) pair; `images` is an
    (N, 3, H, W) model-scale array or tensor.
    """
    if isinstance(source, (str, os.PathLike)):
        entries, flags = read_checkpoint(source)
    else:
        entries, flags = source
    if not flags & FLAG_QUANTIZED:
        raise ContractError("checkpoint is not quantized")
    params, head_params = model_from_entries(entries)
    if head_params is None:
        raise ContractError("checkpoint has no head parameters")
    x = images if isinstance(images, T.Tensor) else T.const(np.asarray(images))
    return hd.predict(params, head_params, x)
