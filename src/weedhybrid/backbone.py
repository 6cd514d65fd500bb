"""Hybrid CNN-ViT-GNN feature extractor with channel attention fusion.

Three branches share one input image: a convolutional stack for local
texture, a patch-embedding transformer stage for global context, and a
graph network over the patch grid for region relationships.  The CNN and
ViT branch vectors are concatenated, reweighted by squeeze-excite channel
attention, joined with the pooled graph embedding, and projected to the
final fused feature.

Forward functions are batch-only: images are (N, C, H, W), token sets
(N, P, d) and feature vectors (N, d); an input without the leading batch
axis raises DimensionError.  A caller with one sample adds the axis itself.
The graph functions work on node features of any leading shape.  Every
function is differentiable through :mod:`weedhybrid.tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError

__all__ = [
    "BackboneConfig",
    "MsaBlockParams",
    "ViTParams",
    "PlantGraph",
    "GcnLayerParams",
    "ChannelAttentionParams",
    "FusionParams",
    "BackboneParams",
    "BackboneFeatures",
    "desk_config",
    "paper_config",
    "build_backbone",
    "init_backbone",
    "named_parameters",
    "cnn_forward",
    "patch_embed",
    "multi_head_self_attention",
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
    vit_depth: int = 1
    attention_reduction: int = 4
    in_channels: int = 3

    def __post_init__(self):
        h, w = self.image_size
        if h < 1 or w < 1:
            raise DimensionError(f"image size must be positive, got {self.image_size}")
        if self.patch_size < 1 or h % self.patch_size or w % self.patch_size:
            raise ContractError(
                f"patch size {self.patch_size} must divide image size {self.image_size}")
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
        if self.vit_depth < 1:
            raise ContractError(f"vit_depth must be >= 1, got {self.vit_depth}")
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


def desk_config(**overrides) -> BackboneConfig:
    """Small preset sized for CPU experiments: 32x32 input, 4x4 patch grid."""
    return BackboneConfig(**overrides)


def paper_config(**overrides) -> BackboneConfig:
    """Full-size preset: 224x224 input, 16x16 patches, 12 heads, GCN 64/128."""
    base = dict(image_size=(224, 224), patch_size=16, embed_dim=768,
                num_heads=12, cnn_channels=(32, 64, 128), gcn_dims=(64, 128),
                fusion_dim=256)
    base.update(overrides)
    return BackboneConfig(**base)


@dataclass
class MsaBlockParams:
    """One self-attention stage: per-head projections plus pre-norm scale/shift."""

    w_q: tuple
    w_k: tuple
    w_v: tuple
    ln_gain: T.Tensor
    ln_bias: T.Tensor


@dataclass
class ViTParams:
    w_e: T.Tensor              # (patch_dim, embed_dim)
    e_pos: T.Tensor            # (num_patches, embed_dim)
    blocks: tuple              # MsaBlockParams per stage
    d_k: int


@dataclass(frozen=True)
class PlantGraph:
    """Patch-region graph: nodes are row-major grid cells, edges 4-neighbor."""

    node_features: T.Tensor    # (..., N, d)
    adjacency: T.Tensor        # (N, N) normalized: D^-1 (A + I)
    neighbors: tuple           # neighbor index lists, excluding self
    grid: tuple


@dataclass
class GcnLayerParams:
    w: T.Tensor                # (d_in, d_out)
    activation: str = "relu"   # "relu" or "identity"


@dataclass
class ChannelAttentionParams:
    w1: T.Tensor               # (C, C // r)
    w2: T.Tensor               # (C // r, C)
    reduction: int


@dataclass
class FusionParams:
    w: T.Tensor                # (concat + gcn_out, fusion_dim)
    b: T.Tensor                # (fusion_dim,)


@dataclass
class BackboneParams:
    cnn: tuple                 # ((kernel, bias), ...) per block
    vit: ViTParams
    gcn: tuple                 # GcnLayerParams per layer
    attention: ChannelAttentionParams
    fusion: FusionParams
    config: BackboneConfig = field(repr=False, default=None)


def build_backbone(cfg: BackboneConfig, param) -> BackboneParams:
    """Walk the parameter layout of cfg; param(name, shape, init) makes each tensor.

    Tensors are requested in a fixed order (the order init_backbone draws
    them). `name` is the checkpoint entry name, or None for a tensor that is
    not stored: depth 1 has no pre-norm layers. `init` is "zeros", "ones" or
    the standard deviation of a normal draw (see tensor.init_param): He for
    conv/fusion weights, Xavier for projections.
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

    def heads(b, kind):
        return tuple(xavier(f"vit.{b}.{h}.{kind}", (cfg.embed_dim, cfg.head_dim))
                     for h in range(cfg.num_heads))

    deep = cfg.vit_depth > 1
    blocks = []
    for b in range(cfg.vit_depth):
        blocks.append(MsaBlockParams(
            w_q=heads(b, "w_q"), w_k=heads(b, "w_k"), w_v=heads(b, "w_v"),
            ln_gain=param(f"vit.{b}.ln_gain" if deep else None,
                          (cfg.embed_dim,), "ones"),
            ln_bias=param(f"vit.{b}.ln_bias" if deep else None,
                          (cfg.embed_dim,), "zeros")))
    vit = ViTParams(
        w_e=xavier("vit.w_e", (cfg.patch_dim, cfg.embed_dim)),
        e_pos=param("vit.e_pos", (cfg.num_patches, cfg.embed_dim), 0.02),
        blocks=tuple(blocks), d_k=cfg.head_dim)

    gcn = []
    d_in = cfg.embed_dim
    for i, d_out in enumerate(cfg.gcn_dims):
        gcn.append(GcnLayerParams(w=xavier(f"gcn.{i}.w", (d_in, d_out))))
        d_in = d_out

    c = cfg.concat_dim
    hidden = c // cfg.attention_reduction
    attention = ChannelAttentionParams(
        w1=xavier("attention.w1", (c, hidden)),
        w2=xavier("attention.w2", (hidden, c)),
        reduction=cfg.attention_reduction)

    fuse_in = c + cfg.gcn_dims[-1]
    fusion = FusionParams(w=he("fusion.w", (fuse_in, cfg.fusion_dim), fuse_in),
                          b=param("fusion.b", (cfg.fusion_dim,), "zeros"))
    return BackboneParams(cnn=tuple(cnn), vit=vit, gcn=tuple(gcn),
                          attention=attention, fusion=fusion, config=cfg)


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> BackboneParams:
    """Fresh random parameters drawn from rng (He conv/fusion, Xavier projections)."""
    return build_backbone(cfg, lambda name, shape, init: T.init_param(shape, init, rng))


def named_parameters(params: BackboneParams) -> list:
    """Stable (name, tensor) list covering every learnable backbone tensor."""
    out = []
    for i, (kernel, bias) in enumerate(params.cnn):
        out.append((f"cnn.{i}.kernel", kernel))
        out.append((f"cnn.{i}.bias", bias))
    out.append(("vit.w_e", params.vit.w_e))
    out.append(("vit.e_pos", params.vit.e_pos))
    deep = len(params.vit.blocks) > 1  # depth 1 skips the pre-norm layers
    for b, blk in enumerate(params.vit.blocks):
        for h in range(len(blk.w_q)):
            out.append((f"vit.{b}.{h}.w_q", blk.w_q[h]))
            out.append((f"vit.{b}.{h}.w_k", blk.w_k[h]))
            out.append((f"vit.{b}.{h}.w_v", blk.w_v[h]))
        if deep:
            out.append((f"vit.{b}.ln_gain", blk.ln_gain))
            out.append((f"vit.{b}.ln_bias", blk.ln_bias))
    for i, layer in enumerate(params.gcn):
        out.append((f"gcn.{i}.w", layer.w))
    out.append(("attention.w1", params.attention.w1))
    out.append(("attention.w2", params.attention.w2))
    out.append(("fusion.w", params.fusion.w))
    out.append(("fusion.b", params.fusion.b))
    return out


def cnn_forward(x: T.Tensor, params: BackboneParams) -> tuple:
    """Conv stack (3x3, pad 1, ReLU, 2x2 mean-pool per block) -> (vector, map)."""
    cfg = params.config
    if x.shape[1:] != (cfg.in_channels,) + tuple(cfg.image_size):
        raise DimensionError(
            f"input {x.shape} is not an (N, C, H, W) batch of configured images "
            f"{(cfg.in_channels,) + tuple(cfg.image_size)}")
    h = x
    for kernel, bias in params.cnn:
        h = T.avg_pool2d(T.relu(T.conv2d(h, kernel, stride=1, padding=1,
                                         bias=bias)), 2, 2)
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


def multi_head_self_attention(e: T.Tensor, vit: ViTParams,
                              block: MsaBlockParams = None) -> T.Tensor:
    """Concat over heads of Softmax(Q K^T / sqrt(d_k)) V."""
    blk = block if block is not None else vit.blocks[0]
    if e.ndim != 3:
        raise DimensionError(f"expected (N,P,d) tokens, got {e.shape}")
    d = e.shape[-1]
    if d != len(blk.w_q) * vit.d_k:
        raise ContractError(
            f"token dim {d} != {len(blk.w_q)} heads x d_k {vit.d_k}")
    scale = 1.0 / math.sqrt(vit.d_k)
    heads = []
    for wq, wk, wv in zip(blk.w_q, blk.w_k, blk.w_v):
        q = T.matmul(e, wq)
        k = T.matmul(e, wk)
        v = T.matmul(e, wv)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), scale)
        heads.append(T.matmul(T.softmax(scores, axis=-1), v))
    return T.concat(heads, axis=-1)


def vit_forward(x: T.Tensor, vit: ViTParams, cfg: BackboneConfig) -> tuple:
    """Patch-embed and run the attention stage(s) -> (tokens, pooled vector).

    Depth 1 applies the attention equation literally.  Deeper stacks use
    pre-norm residual blocks: X <- X + MSA(LayerNorm(X)).
    """
    tokens = patch_embed(x, vit, cfg)
    if len(vit.blocks) == 1:
        tokens = multi_head_self_attention(tokens, vit)
    else:
        for blk in vit.blocks:
            normed = T.layer_norm(tokens, blk.ln_gain, blk.ln_bias)
            tokens = T.add(tokens, multi_head_self_attention(normed, vit, blk))
    pooled = T.mean(tokens, axis=-2)
    return tokens, pooled


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


def build_plant_graph(f_vit: T.Tensor, grid: tuple) -> PlantGraph:
    """Nodes = patch features; edges = 4-neighborhood over the patch grid."""
    rows, cols = grid
    n = f_vit.shape[-2]
    if rows * cols != n:
        raise ContractError(f"grid {grid} has {rows * cols} cells but features "
                            f"carry {n} nodes")
    neighbors = _grid_neighbors(rows, cols)
    adj = T.Tensor(normalized_adjacency(neighbors))
    return PlantGraph(node_features=f_vit, adjacency=adj, neighbors=neighbors,
                      grid=(rows, cols))


def gcn_layer(g: PlantGraph, params: GcnLayerParams,
              features: T.Tensor = None) -> T.Tensor:
    """h' = sigma(A_hat . H . W) over the graph's normalized adjacency."""
    h = g.node_features if features is None else features
    if h.shape[-1] != params.w.shape[0]:
        raise DimensionError(
            f"feature dim {h.shape[-1]} vs weight rows {params.w.shape[0]}")
    z = T.matmul(T.matmul(g.adjacency, h), params.w)
    if params.activation == "relu":
        return T.relu(z)
    if params.activation == "identity":
        return z
    raise ContractError(f"unknown activation {params.activation!r}")


def gnn_forward(g: PlantGraph, layers) -> T.Tensor:
    """Chain gcn_layer over `layers`, then mean-pool nodes to one vector."""
    h = g.node_features
    for layer in layers:
        h = gcn_layer(g, layer, features=h)
    return T.mean(h, axis=-2)


def channel_attention(f: T.Tensor, params: ChannelAttentionParams) -> T.Tensor:
    """F' = sigmoid(W2 . ReLU(W1 . GAP(F))) (.) F; each weight in (0, 1)."""
    if f.ndim == 2:
        squeeze = f
    elif f.ndim == 4:
        squeeze = T.gap(f)
    else:
        raise DimensionError(f"expected (N,C) or (N,C,H,W), got {f.shape}")
    if squeeze.shape[-1] != params.w1.shape[0]:
        raise DimensionError(
            f"channel count {squeeze.shape[-1]} vs W1 rows {params.w1.shape[0]}")
    w = T.sigmoid(T.matmul(T.relu(T.matmul(squeeze, params.w1)), params.w2))
    return T.mul(w, f) if f.ndim == 2 else T.scale_channels(f, w)


def fuse_final(f_prime: T.Tensor, f_gnn: T.Tensor, params: FusionParams) -> T.Tensor:
    """F_final = phi([F' || F_GNN]); phi is a linear map plus ReLU."""
    if f_prime.ndim != 2 or f_gnn.ndim != 2:
        raise DimensionError(f"expected (N,d) features, got {f_prime.shape} "
                             f"and {f_gnn.shape}")
    cat = T.concat([f_prime, f_gnn], axis=-1)
    if cat.shape[-1] != params.w.shape[0]:
        raise DimensionError(
            f"fused input dim {cat.shape[-1]} vs phi rows {params.w.shape[0]}")
    return T.relu(T.add_rowvec(T.matmul(cat, params.w), params.b))


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
