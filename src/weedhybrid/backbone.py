"""Hybrid CNN-ViT-GNN feature extractor with channel attention fusion.

Three branches share one input image: a convolutional stack for local
texture, one patch-embedding multi-head self-attention stage for global
context, and a graph network over the patch grid for region
relationships.  The CNN and ViT branch vectors are concatenated,
reweighted by squeeze-excite channel attention, joined with the pooled
graph embedding, and projected to the final fused feature.  Channel
attention gates the fused (N, C) vector F = [F_CNN || F_ViT], one weight
in (0, 1) per channel.  The attention stage is one tensor.attention op,
one tape record however many heads it has; checkpoints still hold one
w_q, w_k and w_v entry per head.

Forward functions are batch-only: images are (N, C, H, W), token sets
(N, P, d) and feature vectors (N, d); an input without the leading batch
axis raises DimensionError.  A caller with one sample adds the axis itself.
The graph functions work on node features of any leading shape.  Every
function is differentiable through :mod:`weedhybrid.tensor`.

`build_backbone` is the one place that names and shapes the tensors; the
parameter structures' field order (`tensor.leaves`) is checkpoint, optimizer
and snapshot order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError

__all__ = [
    "BackboneConfig",
    "ViTParams",
    "PlantGraph",
    "ChannelAttentionParams",
    "FusionParams",
    "BackboneParams",
    "BackboneFeatures",
    "desk_config",
    "paper_config",
    "build_backbone",
    "init_backbone",
    "cnn_forward",
    "patch_embed",
    "vit_forward",
    "build_plant_graph",
    "gcn_layer",
    "gnn_forward",
    "channel_attention",
    "fuse_final",
    "backbone_forward",
]


@dataclass(frozen=True)
class BackboneConfig:
    """Architecture hyperparameters; see :func:`desk_config` for defaults."""

    image_size: tuple = (32, 32)
    patch_size: int = 8
    embed_dim: int = 32
    num_heads: int = 4
    cnn_channels: tuple = (8, 16)
    gcn_dims: tuple = (16, 32)
    fusion_dim: int = 64
    attention_reduction: int = 4
    in_channels: int = 3

    def __post_init__(self):
        h, w = self.image_size
        if h < 1 or w < 1:
            raise DimensionError(f"image size must be positive, got {self.image_size}")
        if self.patch_size < 1 or h % self.patch_size or w % self.patch_size:
            raise ContractError(
                f"patch size {self.patch_size} must divide image size {self.image_size}")
        if self.num_heads < 1:
            raise ContractError(f"num_heads must be >= 1, got {self.num_heads}")
        if self.embed_dim < 1 or self.embed_dim % self.num_heads:
            raise ContractError(
                f"embed dim {self.embed_dim} must be divisible by "
                f"{self.num_heads} heads")
        if not self.cnn_channels:
            raise ContractError("cnn_channels must be non-empty")
        if not self.gcn_dims:
            raise ContractError("gcn_dims must be non-empty")
        down = 2 ** len(self.cnn_channels)
        if h % down or w % down:
            raise ContractError(
                f"{len(self.cnn_channels)} conv blocks downsample by {down}, "
                f"which must divide image size {self.image_size}")
        r = self.attention_reduction
        if r < 1 or self.concat_dim // r < 1:
            raise ContractError(f"attention reduction {r} leaves no hidden units")

    @property
    def grid(self) -> tuple:
        return (self.image_size[0] // self.patch_size,
                self.image_size[1] // self.patch_size)

    @property
    def num_patches(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def patch_dim(self) -> int:
        return self.in_channels * self.patch_size * self.patch_size

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def concat_dim(self) -> int:
        """Length of F = [F_CNN || F_ViT]."""
        return self.cnn_channels[-1] + self.embed_dim

    @property
    def spatial_hw(self) -> tuple:
        down = 2 ** len(self.cnn_channels)
        return (self.image_size[0] // down, self.image_size[1] // down)


def desk_config() -> BackboneConfig:
    """Small preset sized for CPU experiments: 32x32 input, 4x4 patch grid."""
    return BackboneConfig()


def paper_config() -> BackboneConfig:
    """Full-size preset: 224x224 input, 16x16 patches, 12 heads, GCN 64/128."""
    return BackboneConfig(image_size=(224, 224), patch_size=16, embed_dim=768,
                          num_heads=12, cnn_channels=(32, 64, 128), gcn_dims=(64, 128),
                          fusion_dim=256)


@dataclass
class ViTParams:
    w_e: T.Tensor              # (patch_dim, embed_dim)
    e_pos: T.Tensor            # (num_patches, embed_dim)
    heads: tuple               # (w_q, w_k, w_v) per head, each (embed_dim, head_dim)


@dataclass(frozen=True)
class PlantGraph:
    """Patch-region graph: nodes are row-major grid cells, edges 4-neighbor."""

    node_features: T.Tensor    # (..., N, d)
    adjacency: T.Tensor        # (N, N) normalized: D^-1 (A + I)
    neighbors: tuple           # neighbor index lists, excluding self
    grid: tuple


@dataclass
class ChannelAttentionParams:
    w1: T.Tensor               # (C, C // r)
    w2: T.Tensor               # (C // r, C)


@dataclass
class FusionParams:
    w: T.Tensor                # (concat + gcn_out, fusion_dim)
    b: T.Tensor                # (fusion_dim,)


@dataclass
class BackboneParams:
    cnn: tuple                 # ((kernel, bias), ...) per block
    vit: ViTParams
    gcn: tuple                 # (d_in, d_out) weight per layer
    attention: ChannelAttentionParams
    fusion: FusionParams
    config: BackboneConfig = field(repr=False, default=None, metadata=T.STATIC)


def build_backbone(cfg: BackboneConfig, param) -> BackboneParams:
    """Walk the parameter layout of cfg; param(name, shape, init) makes each tensor.

    Tensors are requested in a fixed order, the order init_backbone draws
    them: every head's w_q, then every w_k, then every w_v, before w_e.  The
    returned fields hold them in checkpoint order (tensor.leaves).  `name` is
    the checkpoint entry name; `init` is "zeros" or the standard deviation of
    a normal draw (see tensor.init_param): He for conv/fusion weights, Xavier
    for projections.
    """

    def he(name, shape, fan_in):
        return param(name, shape, math.sqrt(2.0 / fan_in))

    def xavier(name, shape):
        return param(name, shape, math.sqrt(2.0 / (shape[0] + shape[-1])))

    cnn = []
    c_in = cfg.in_channels
    for i, c_out in enumerate(cfg.cnn_channels):
        cnn.append((he(f"cnn.{i}.kernel", (c_out, c_in, 3, 3), c_in * 9),
                    param(f"cnn.{i}.bias", (c_out,), "zeros")))
        c_in = c_out

    def heads(kind):
        return [xavier(f"vit.0.{h}.{kind}", (cfg.embed_dim, cfg.head_dim))
                for h in range(cfg.num_heads)]

    w_q, w_k, w_v = heads("w_q"), heads("w_k"), heads("w_v")
    vit = ViTParams(
        w_e=xavier("vit.w_e", (cfg.patch_dim, cfg.embed_dim)),
        e_pos=param("vit.e_pos", (cfg.num_patches, cfg.embed_dim), 0.02),
        heads=tuple(zip(w_q, w_k, w_v)))

    gcn = []
    d_in = cfg.embed_dim
    for i, d_out in enumerate(cfg.gcn_dims):
        gcn.append(xavier(f"gcn.{i}.w", (d_in, d_out)))
        d_in = d_out

    c = cfg.concat_dim
    hidden = c // cfg.attention_reduction
    attention = ChannelAttentionParams(
        w1=xavier("attention.w1", (c, hidden)),
        w2=xavier("attention.w2", (hidden, c)))

    fuse_in = c + cfg.gcn_dims[-1]
    fusion = FusionParams(w=he("fusion.w", (fuse_in, cfg.fusion_dim), fuse_in),
                          b=param("fusion.b", (cfg.fusion_dim,), "zeros"))
    return BackboneParams(cnn=tuple(cnn), vit=vit, gcn=tuple(gcn),
                          attention=attention, fusion=fusion, config=cfg)


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> BackboneParams:
    """Fresh random parameters drawn from rng (He conv/fusion, Xavier projections)."""
    return build_backbone(cfg, lambda name, shape, init: T.init_param(shape, init, rng))


def cnn_forward(x: T.Tensor, params: BackboneParams) -> tuple:
    """Conv stack (3x3, pad 1, ReLU, 2x2 mean-pool per block) -> (vector, map)."""
    cfg = params.config
    if x.shape[1:] != (cfg.in_channels,) + tuple(cfg.image_size):
        raise DimensionError(
            f"input {x.shape} is not an (N, C, H, W) batch of configured images "
            f"{(cfg.in_channels,) + tuple(cfg.image_size)}")
    h = x
    for kernel, bias in params.cnn:
        h = T.conv_relu_pool2d(h, kernel, bias)
    return T.gap(h), h


def patch_embed(x: T.Tensor, vit: ViTParams, cfg: BackboneConfig) -> T.Tensor:
    """E_i = W_E . Flatten(P_i) + E_pos_i over the row-major patch grid."""
    if x.ndim != 4:
        raise DimensionError(f"expected an (N,C,H,W) batch, got {x.shape}")
    n, c, h, w = x.shape
    p = cfg.patch_size
    if (c, h, w) != (cfg.in_channels,) + tuple(cfg.image_size):
        raise ContractError(
            f"input {x.shape[1:]} does not match configured image "
            f"{(cfg.in_channels,) + tuple(cfg.image_size)}")
    gh, gw = cfg.grid
    # (N,C,H,W) -> (N, gh, gw, C, p, p) -> (N, patches, C*p*p)
    t = T.reshape(x, (n, c, gh, p, gw, p))
    t = T.transpose(t, (0, 2, 4, 1, 3, 5))
    flat = T.reshape(t, (n, gh * gw, c * p * p))
    return T.add_bcast(T.matmul(flat, vit.w_e), vit.e_pos)


def vit_forward(x: T.Tensor, vit: ViTParams, cfg: BackboneConfig) -> tuple:
    """Patch-embed and apply the one attention stage -> (tokens, pooled vector)."""
    tokens = T.attention(patch_embed(x, vit, cfg), vit.heads)
    return tokens, T.mean(tokens, axis=-2)


def _grid_neighbors(rows: int, cols: int) -> tuple:
    out = []
    for r in range(rows):
        for c in range(cols):
            adj = []
            if r > 0:
                adj.append((r - 1) * cols + c)
            if r < rows - 1:
                adj.append((r + 1) * cols + c)
            if c > 0:
                adj.append(r * cols + c - 1)
            if c < cols - 1:
                adj.append(r * cols + c + 1)
            out.append(tuple(adj))
    return tuple(out)


def normalized_adjacency(neighbors) -> np.ndarray:
    """Row-normalized A+I over the given neighbor lists: D^-1 (A + I)."""
    n = len(neighbors)
    a = np.eye(n)
    for i, adj in enumerate(neighbors):
        for j in adj:
            a[i, j] = 1.0
    return a / a.sum(axis=1, keepdims=True)


@functools.cache
def _grid_graph(rows: int, cols: int, dtype) -> tuple:
    """(neighbors, normalized adjacency in dtype) of a (rows, cols) patch
    grid; built once per process and dtype, the adjacency read-only."""
    neighbors = _grid_neighbors(rows, cols)
    adj = normalized_adjacency(neighbors).astype(dtype)
    adj.setflags(write=False)
    return neighbors, adj


def build_plant_graph(f_vit: T.Tensor, grid: tuple) -> PlantGraph:
    """Nodes = patch features; edges = 4-neighborhood over the patch grid."""
    rows, cols = grid
    n = f_vit.shape[-2]
    if rows * cols != n:
        raise ContractError(f"grid {grid} has {rows * cols} cells but features "
                            f"carry {n} nodes")
    # in the features' dtype, so the Tensor wraps it without a copy
    neighbors, adj = _grid_graph(rows, cols, f_vit.data.dtype)
    return PlantGraph(node_features=f_vit, adjacency=T.Tensor(adj), neighbors=neighbors,
                      grid=(rows, cols))


def gcn_layer(g: PlantGraph, h: T.Tensor, w: T.Tensor) -> T.Tensor:
    """h' = ReLU(A_hat . H . W) over the graph's normalized adjacency."""
    if h.shape[-1] != w.shape[0]:
        raise DimensionError(f"feature dim {h.shape[-1]} vs weight rows {w.shape[0]}")
    return T.relu(T.matmul(T.matmul(g.adjacency, h), w))


def gnn_forward(g: PlantGraph, weights) -> T.Tensor:
    """Chain gcn_layer over the layer `weights`, then mean-pool nodes to one vector."""
    h = g.node_features
    for w in weights:
        h = gcn_layer(g, h, w)
    return T.mean(h, axis=-2)


def channel_attention(f: T.Tensor, params: ChannelAttentionParams) -> T.Tensor:
    """F' = sigmoid(W2 . ReLU(W1 . F)) (.) F over (N, C) features; each
    weight in (0, 1)."""
    if f.ndim != 2:
        raise DimensionError(f"expected (N,C) features, got {f.shape}")
    if f.shape[-1] != params.w1.shape[0]:
        raise DimensionError(
            f"channel count {f.shape[-1]} vs W1 rows {params.w1.shape[0]}")
    w = T.sigmoid(T.matmul(T.relu(T.matmul(f, params.w1)), params.w2))
    return T.mul(w, f)


def fuse_final(f_prime: T.Tensor, f_gnn: T.Tensor, params: FusionParams) -> T.Tensor:
    """F_final = phi([F' || F_GNN]); phi is a linear map plus ReLU."""
    if f_prime.ndim != 2 or f_gnn.ndim != 2:
        raise DimensionError(f"expected (N,d) features, got {f_prime.shape} "
                             f"and {f_gnn.shape}")
    cat = T.concat([f_prime, f_gnn], axis=-1)
    if cat.shape[-1] != params.w.shape[0]:
        raise DimensionError(
            f"fused input dim {cat.shape[-1]} vs phi rows {params.w.shape[0]}")
    return T.relu(T.add_bcast(T.matmul(cat, params.w), params.b))


@dataclass
class BackboneFeatures:
    """Every intermediate the heads need, one row per input image."""

    f_cnn: T.Tensor          # (N, C_cnn)
    spatial: T.Tensor        # (N, C_cnn, h, w) conv map for segmentation
    tokens: T.Tensor         # (N, P, embed)
    f_vit: T.Tensor          # (N, embed)
    f_gnn: T.Tensor          # (N, gcn_out)
    f_attended: T.Tensor     # (N, C_cnn + embed) after channel attention
    f_final: T.Tensor        # (N, fusion_dim)


def backbone_forward(x: T.Tensor, params: BackboneParams) -> BackboneFeatures:
    """Full three-branch forward pass of an (N,C,H,W) batch to the fused feature."""
    cfg = params.config
    f_cnn, spatial = cnn_forward(x, params)
    tokens, f_vit = vit_forward(x, params.vit, cfg)
    graph = build_plant_graph(tokens, cfg.grid)
    f_gnn = gnn_forward(graph, params.gcn)
    f_cat = T.concat([f_cnn, f_vit], axis=-1)
    f_att = channel_attention(f_cat, params.attention)
    f_final = fuse_final(f_att, f_gnn, params.fusion)
    return BackboneFeatures(f_cnn, spatial, tokens, f_vit, f_gnn, f_att, f_final)
