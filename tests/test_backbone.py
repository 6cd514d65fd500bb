import math

import numpy as np
import pytest

import oracles
from helpers import gradcheck
from weedhybrid import backbone as bb
from weedhybrid import tensor as T
from weedhybrid.errors import ContractError, DimensionError


def tiny_config():
    return bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                             num_heads=1, cnn_channels=(2,), gcn_dims=(4,),
                             fusion_dim=8)


# ---------------------------------------------------------------------------
# config


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_grid_graph_is_built_once_and_read_only(dtype):
    neighbors, adj = bb._grid_graph(3, 5, np.dtype(dtype))
    assert bb._grid_graph(3, 5, np.dtype(dtype))[1] is adj
    assert neighbors == bb._grid_neighbors(3, 5)
    want = bb.normalized_adjacency(neighbors).astype(dtype)
    assert adj.dtype == dtype and adj.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        adj[0, 0] = 0.0
    with T.default_dtype(dtype):
        graph = bb.build_plant_graph(T.Tensor(np.zeros((1, 15, 4))), (3, 5))
    assert graph.neighbors is neighbors
    assert graph.adjacency.data is adj



def test_config_validation():
    with pytest.raises(ContractError):
        bb.BackboneConfig(image_size=(30, 32))  # patch 8 does not divide 30
    with pytest.raises(ContractError):
        bb.BackboneConfig(embed_dim=30, num_heads=4)
    with pytest.raises(ContractError):
        bb.BackboneConfig(gcn_dims=())
    with pytest.raises(ContractError):
        bb.BackboneConfig(cnn_channels=(8, 16, 8, 8, 8, 8))  # pools past 32
    for heads in (0, -1):   # rejected before embed_dim % num_heads
        with pytest.raises(ContractError, match="num_heads must be >= 1"):
            bb.BackboneConfig(num_heads=heads)


def test_paper_preset_patch_arithmetic():
    cfg = bb.paper_config()
    assert cfg.num_patches == 196
    assert cfg.patch_dim == 768
    assert cfg.grid == (14, 14)
    assert cfg.gcn_dims == (64, 128)
    assert cfg.num_heads == 12


def test_desk_preset_shapes():
    cfg = bb.desk_config()
    assert cfg.grid == (4, 4)
    assert cfg.num_patches == 16
    assert cfg.patch_dim == 3 * 8 * 8
    assert cfg.spatial_hw == (8, 8)
    assert cfg.concat_dim == 16 + 32


def test_build_walk_names_every_leaf_in_checkpoint_order():
    cfg = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                            num_heads=2, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8)
    names = T.leaves(bb.build_backbone(cfg, lambda name, shape, init: name))
    assert names == ["cnn.0.kernel", "cnn.0.bias", "vit.w_e", "vit.e_pos",
                     "vit.0.0.w_q", "vit.0.0.w_k", "vit.0.0.w_v",
                     "vit.0.1.w_q", "vit.0.1.w_k", "vit.0.1.w_v",
                     "gcn.0.w", "attention.w1", "attention.w2",
                     "fusion.w", "fusion.b"]
    zeros = T.leaves(bb.build_backbone(cfg, lambda name, shape, init: T.zeros(shape)))
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    assert [t.shape for t in T.leaves(params)] == [t.shape for t in zeros]


# ---------------------------------------------------------------------------
# CNN branch


def test_cnn_desk_output_shapes():
    cfg = bb.desk_config()
    params = bb.init_backbone(cfg, np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(1).standard_normal((1, 3, 32, 32)))
    vec, spatial = bb.cnn_forward(x, params)
    assert vec.shape == (1, 16)
    assert spatial.shape == (1, 16, 8, 8)
    batch = T.Tensor(np.random.default_rng(2).standard_normal((5, 3, 32, 32)))
    vec, spatial = bb.cnn_forward(batch, params)
    assert vec.shape == (5, 16)
    assert spatial.shape == (5, 16, 8, 8)


def test_cnn_zero_input_zero_bias_gives_zeros():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(3))
    vec, spatial = bb.cnn_forward(T.zeros((1, 3, 8, 8)), params)
    np.testing.assert_array_equal(vec.data[0], np.zeros(2, dtype=np.float32))
    np.testing.assert_array_equal(spatial.data[0],
                                  np.zeros((2, 4, 4), dtype=np.float32))


def test_cnn_single_block_matches_loop_oracle():
    cfg = bb.BackboneConfig(image_size=(4, 4), patch_size=2, embed_dim=4,
                            num_heads=1, cnn_channels=(3,), gcn_dims=(4,),
                            fusion_dim=8)
    params = bb.init_backbone(cfg, np.random.default_rng(4))
    x = np.random.default_rng(5).standard_normal((3, 4, 4)).astype(np.float32)
    kernel, bias = params.cnn[0]
    conv = oracles.conv2d_loops(x, kernel.data, stride=1, padding=1,
                                bias=bias.data)
    act = np.maximum(conv, 0.0)
    pooled = np.zeros((3, 2, 2))
    for c in range(3):
        for y in range(2):
            for xx in range(2):
                pooled[c, y, xx] = act[c, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2].mean()
    vec_want = pooled.reshape(3, -1).mean(axis=1)
    vec, spatial = bb.cnn_forward(T.Tensor(x[None]), params)
    np.testing.assert_allclose(spatial.data[0], pooled, atol=1e-5)
    np.testing.assert_allclose(vec.data[0], vec_want, atol=1e-5)


def test_cnn_shape_mismatch_rejected():
    params = bb.init_backbone(bb.desk_config(), np.random.default_rng(6))
    with pytest.raises(DimensionError):
        bb.cnn_forward(T.zeros((1, 3, 16, 16)), params)


# ---------------------------------------------------------------------------
# ViT branch


def test_patch_embed_zero_image_zero_pos():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(7))
    params.vit.e_pos = T.zeros((cfg.num_patches, cfg.embed_dim), requires_grad=True)
    emb = bb.patch_embed(T.zeros((1, 3, 8, 8)), params.vit, cfg)
    np.testing.assert_array_equal(emb.data[0], np.zeros((4, 4), dtype=np.float32))


def test_patch_embed_identity_projection():
    cfg = bb.BackboneConfig(image_size=(2, 2), patch_size=2, embed_dim=12,
                            num_heads=1, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8, attention_reduction=2)
    rng = np.random.default_rng(8)
    params = bb.init_backbone(cfg, rng)
    params.vit.w_e = T.Tensor(np.eye(12), requires_grad=True)
    x = rng.standard_normal((3, 2, 2)).astype(np.float32)
    emb = bb.patch_embed(T.Tensor(x[None]), params.vit, cfg)
    # channel-major flatten of the only patch, plus the positional row
    want = x.reshape(-1) + params.vit.e_pos.data[0]
    np.testing.assert_allclose(emb.data[0, 0], want, atol=1e-6)


def test_patch_embed_row_major_patch_order():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(9))
    params.vit.w_e = T.Tensor(np.eye(cfg.patch_dim)[:, :cfg.embed_dim],
                              requires_grad=True)
    params.vit.e_pos = T.zeros((4, cfg.embed_dim), requires_grad=True)
    x = np.zeros((3, 8, 8), dtype=np.float32)
    x[0, 0, 4] = 5.0   # top-right patch = grid index 1 in row-major order
    emb = bb.patch_embed(T.Tensor(x[None]), params.vit, cfg)
    assert emb.data[0, 1, 0] == pytest.approx(5.0)
    assert np.all(emb.data[0, [0, 2, 3]] == 0)


def test_patch_embed_size_mismatch():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(10))
    with pytest.raises(ContractError):
        bb.patch_embed(T.zeros((1, 3, 4, 4)), params.vit, cfg)


def test_msa_single_token_returns_value_row():
    cfg = bb.BackboneConfig(image_size=(4, 4), patch_size=4, embed_dim=6,
                            num_heads=2, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8, attention_reduction=2)
    params = bb.init_backbone(cfg, np.random.default_rng(11))
    e = T.Tensor(np.random.default_rng(12).standard_normal((1, 1, 6)))
    out = T.attention(e, params.vit.heads)
    want = np.concatenate([e.data[0] @ wv.data for _, _, wv in params.vit.heads],
                          axis=-1)
    np.testing.assert_allclose(out.data[0], want, atol=1e-5)


def test_msa_zero_queries_give_uniform_attention():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(13))
    params.vit.heads = tuple((T.zeros(wq.shape, requires_grad=True),
                              T.zeros(wk.shape, requires_grad=True), wv)
                             for wq, wk, wv in params.vit.heads)
    e = T.Tensor(np.random.default_rng(14).standard_normal((1, 4, 4)))
    out = T.attention(e, params.vit.heads)
    v = np.concatenate([e.data[0] @ wv.data for _, _, wv in params.vit.heads],
                       axis=-1)
    want = np.tile(v.mean(axis=0), (4, 1))
    np.testing.assert_allclose(out.data[0], want, atol=1e-5)


def test_msa_two_tokens_scalar_recompute():
    cfg = bb.BackboneConfig(image_size=(4, 4), patch_size=4, embed_dim=2,
                            num_heads=1, cnn_channels=(2,), gcn_dims=(2,),
                            fusion_dim=4)
    params = bb.init_backbone(cfg, np.random.default_rng(15))
    params.vit.heads = ((T.Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True),
                         T.Tensor([[0.0, 1.0], [1.0, 0.0]], requires_grad=True),
                         T.Tensor([[1.0, 1.0], [0.0, 2.0]], requires_grad=True)),)
    e = np.array([[1.0, 2.0], [3.0, -1.0]])
    out = T.attention(T.Tensor(e[None]), params.vit.heads)

    q = e  # identity W_Q
    k = e[:, ::-1]  # swapped columns
    v = e @ np.array([[1.0, 1.0], [0.0, 2.0]])
    want = np.zeros((2, 2))
    for i in range(2):
        logits = [sum(q[i, t] * k[j, t] for t in range(2)) / math.sqrt(2)
                  for j in range(2)]
        mx = max(logits)
        weights = [math.exp(l - mx) for l in logits]
        z = sum(weights)
        weights = [wt / z for wt in weights]
        for d in range(2):
            want[i, d] = sum(weights[j] * v[j, d] for j in range(2))
    np.testing.assert_allclose(out.data[0], want, atol=1e-5)


def test_msa_head_dim_mismatch():
    cfg = tiny_config()
    params = bb.init_backbone(cfg, np.random.default_rng(16))
    with pytest.raises(ContractError):
        T.attention(T.zeros((1, 4, 6)), params.vit.heads)


def test_msa_rejects_zero_heads():
    # heads[0] raised IndexError
    with pytest.raises(ContractError, match="no heads"):
        T.attention(T.zeros((1, 4, 8)), ())


@pytest.mark.parametrize("head", [0, 1])
@pytest.mark.parametrize("which", [0, 1, 2])
@pytest.mark.parametrize("bad_shape", [(8, 5), (7, 4), (8, 4, 1)])
def test_msa_rejects_any_malformed_weight(head, which, bad_shape):
    # d = 8 over two heads of d_k = 4; only heads[0][0] was checked, so a
    # (8, 5) w_v returned (1, 4, 9) tokens
    rng = np.random.default_rng(25)
    heads = [[T.Tensor(rng.standard_normal((8, 4))) for _ in range(3)] for _ in range(2)]
    heads[head][which] = T.Tensor(rng.standard_normal(bad_shape))
    if (head, which, bad_shape) == (0, 0, (8, 5)):
        # heads[0][0] declares d_k, so 8 tokens no longer split into 2 heads of 5
        expected, match = ContractError, "token dim 8 != 2 heads x d_k 5"
    else:
        expected, match = DimensionError, f"head {head} {('w_q', 'w_k', 'w_v')[which]}"
    with pytest.raises(expected, match=match):
        T.attention(T.Tensor(rng.standard_normal((1, 4, 8))),
                                     tuple(map(tuple, heads)))


def test_msa_permutation_equivariant():
    cfg = bb.desk_config()
    params = bb.init_backbone(cfg, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    e = rng.standard_normal((16, 32)).astype(np.float32)
    perm = rng.permutation(16)
    out = T.attention(T.Tensor(e[None]), params.vit.heads)
    out_p = T.attention(T.Tensor(e[perm][None]), params.vit.heads)
    np.testing.assert_allclose(out_p.data[0], out.data[0][perm], atol=1e-6)


def test_vit_forward_attends_once_and_pools():
    cfg = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                            num_heads=2, cnn_channels=(2,), gcn_dims=(4,),
                            fusion_dim=8)
    params = bb.init_backbone(cfg, np.random.default_rng(19))
    x = T.Tensor(np.random.default_rng(20).standard_normal((1, 3, 8, 8)))
    tokens, pooled = bb.vit_forward(x, params.vit, cfg)
    assert tokens.shape == (1, 4, 4)
    assert pooled.shape == (1, 4)
    want = T.attention(bb.patch_embed(x, params.vit, cfg),
                                        params.vit.heads)
    assert tokens.data.tobytes() == want.data.tobytes()
    np.testing.assert_allclose(pooled.data[0], tokens.data[0].mean(axis=0),
                               atol=1e-6)


# ---------------------------------------------------------------------------
# graph branch


def test_graph_2x2_grid():
    g = bb.build_plant_graph(T.zeros((4, 3)), (2, 2))
    assert all(len(n) == 2 for n in g.neighbors)
    edges = {(i, j) for i, adj in enumerate(g.neighbors) for j in adj if i < j}
    assert len(edges) == 4
    np.testing.assert_allclose(g.adjacency.data.sum(axis=1), np.ones(4), atol=1e-6)


def test_graph_1x1_grid():
    g = bb.build_plant_graph(T.zeros((1, 3)), (1, 1))
    assert g.neighbors == ((),)
    np.testing.assert_array_equal(g.adjacency.data, np.ones((1, 1), dtype=np.float32))


def test_graph_3x3_degrees():
    g = bb.build_plant_graph(T.zeros((9, 2)), (3, 3))
    degrees = [len(n) for n in g.neighbors]
    assert degrees == [2, 3, 2, 3, 4, 3, 2, 3, 2]
    # raw edge set is symmetric
    for i, adj in enumerate(g.neighbors):
        for j in adj:
            assert i in g.neighbors[j]


def test_graph_mismatch_rejected():
    with pytest.raises(ContractError):
        bb.build_plant_graph(T.zeros((5, 3)), (2, 2))


def test_gcn_identity_adjacency_isolated_nodes():
    feats = T.Tensor(np.random.default_rng(21).standard_normal((3, 4)))
    g = bb.PlantGraph(node_features=feats,
                      adjacency=T.Tensor(np.eye(3)),
                      neighbors=((), (), ()), grid=(1, 3))
    w = T.Tensor(np.random.default_rng(22).standard_normal((4, 5)),
                 requires_grad=True)
    out = bb.gcn_layer(g, feats, w)
    np.testing.assert_allclose(out.data, np.maximum(feats.data @ w.data, 0.0),
                               atol=1e-5)


def test_gcn_zero_features():
    g = bb.build_plant_graph(T.zeros((4, 3)), (2, 2))
    out = bb.gcn_layer(g, g.node_features, T.Tensor(np.ones((3, 2)), requires_grad=True))
    np.testing.assert_array_equal(out.data, np.zeros((4, 2), dtype=np.float32))


def test_gcn_path_graph_hand_computed():
    # 1x3 grid is the 3-node path; A_hat = D^-1 (A + I)
    h = np.array([[2.0], [-1.0], [4.0]])
    g = bb.build_plant_graph(T.Tensor(h), (1, 3))
    a_hat = np.array([[0.5, 0.5, 0.0],
                      [1 / 3, 1 / 3, 1 / 3],
                      [0.0, 0.5, 0.5]])
    np.testing.assert_allclose(g.adjacency.data, a_hat, atol=1e-6)
    out = bb.gcn_layer(g, g.node_features, T.Tensor([[1.0]], requires_grad=True))
    want = np.maximum(a_hat @ h, 0.0)
    np.testing.assert_allclose(out.data, want, atol=1e-5)


def test_gcn_dim_mismatch():
    g = bb.build_plant_graph(T.zeros((4, 3)), (2, 2))
    with pytest.raises(DimensionError):
        bb.gcn_layer(g, g.node_features, T.Tensor(np.ones((5, 2)), requires_grad=True))


def test_gnn_paper_dims():
    rng = np.random.default_rng(23)
    feats = T.Tensor(rng.standard_normal((196, 768)).astype(np.float32) * 0.1)
    g = bb.build_plant_graph(feats, (14, 14))
    layers = [T.Tensor(rng.standard_normal((768, 64)) * 0.05, requires_grad=True),
              T.Tensor(rng.standard_normal((64, 128)) * 0.1, requires_grad=True)]
    out = bb.gnn_forward(g, layers)
    assert out.shape == (128,)


def test_gnn_single_node_is_dense_net():
    rng = np.random.default_rng(24)
    feats = T.Tensor(rng.standard_normal((1, 6)))
    g = bb.build_plant_graph(feats, (1, 1))
    w1 = T.Tensor(rng.standard_normal((6, 5)), requires_grad=True)
    w2 = T.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    out = bb.gnn_forward(g, [w1, w2])
    want = np.maximum(np.maximum(feats.data @ w1.data, 0) @ w2.data, 0)[0]
    np.testing.assert_allclose(out.data, want, atol=1e-5)


def test_gnn_permutation_invariant():
    rng = np.random.default_rng(25)
    feats = rng.standard_normal((16, 8)).astype(np.float32)
    g = bb.build_plant_graph(T.Tensor(feats), (4, 4))
    layers = [T.Tensor(rng.standard_normal((8, 6)), requires_grad=True),
              T.Tensor(rng.standard_normal((6, 4)), requires_grad=True)]
    pooled = bb.gnn_forward(g, layers)

    perm = rng.permutation(16)
    adj_p = g.adjacency.data[np.ix_(perm, perm)]
    inv = np.argsort(perm)
    neighbors_p = tuple(tuple(int(inv[j]) for j in g.neighbors[p]) for p in perm)
    g_p = bb.PlantGraph(node_features=T.Tensor(feats[perm]),
                        adjacency=T.Tensor(adj_p),
                        neighbors=neighbors_p, grid=(4, 4))
    pooled_p = bb.gnn_forward(g_p, layers)
    np.testing.assert_allclose(pooled_p.data, pooled.data, atol=1e-6)


# ---------------------------------------------------------------------------
# channel attention and fusion


def test_channel_attention_zero_weights_halve():
    params = bb.ChannelAttentionParams(w1=T.zeros((6, 2), requires_grad=True),
                                       w2=T.zeros((2, 6), requires_grad=True))
    f = T.Tensor(np.random.default_rng(26).standard_normal((1, 6)))
    out = bb.channel_attention(f, params)
    np.testing.assert_allclose(out.data[0], f.data[0] / 2.0, atol=1e-6)


def test_channel_attention_zero_features():
    rng = np.random.default_rng(27)
    params = bb.ChannelAttentionParams(
        w1=T.Tensor(rng.standard_normal((6, 2)), requires_grad=True),
        w2=T.Tensor(rng.standard_normal((2, 6)), requires_grad=True))
    out = bb.channel_attention(T.zeros((1, 6)), params)
    np.testing.assert_array_equal(out.data[0], np.zeros(6, dtype=np.float32))


def test_channel_attention_scalar_recompute():
    rng = np.random.default_rng(28)
    for _ in range(10):
        c, r = 8, 4
        w1 = rng.standard_normal((c, c // r))
        w2 = rng.standard_normal((c // r, c))
        f = rng.standard_normal(c)
        params = bb.ChannelAttentionParams(w1=T.Tensor(w1, requires_grad=True),
                                           w2=T.Tensor(w2, requires_grad=True))
        out = bb.channel_attention(T.Tensor(f[None]), params)
        hidden = [max(0.0, sum(f[i] * w1[i, j] for i in range(c)))
                  for j in range(c // r)]
        gate = [1.0 / (1.0 + math.exp(-sum(hidden[j] * w2[j, k]
                                           for j in range(c // r))))
                for k in range(c)]
        want = [gate[k] * f[k] for k in range(c)]
        np.testing.assert_allclose(out.data[0], want, atol=1e-5)


def test_channel_attention_never_grows_magnitude():
    rng = np.random.default_rng(29)
    params = bb.ChannelAttentionParams(
        w1=T.Tensor(rng.standard_normal((8, 2)), requires_grad=True),
        w2=T.Tensor(rng.standard_normal((2, 8)), requires_grad=True))
    for _ in range(20):
        f = rng.standard_normal(8).astype(np.float32) * 3
        out = bb.channel_attention(T.Tensor(f[None]), params)
        assert np.all(np.abs(out.data[0]) <= np.abs(f))
        assert np.all(np.sign(out.data[0]) == np.sign(f))


def test_channel_attention_dim_mismatch():
    params = bb.ChannelAttentionParams(w1=T.zeros((6, 2), requires_grad=True),
                                       w2=T.zeros((2, 6), requires_grad=True))
    with pytest.raises(DimensionError):
        bb.channel_attention(T.zeros((1, 5)), params)


def test_fuse_identity_returns_concatenation():
    f1 = T.Tensor(np.abs(np.random.default_rng(31).standard_normal((1, 4))))
    f2 = T.Tensor(np.abs(np.random.default_rng(32).standard_normal((1, 3))))
    params = bb.FusionParams(w=T.Tensor(np.eye(7), requires_grad=True),
                             b=T.zeros(7, requires_grad=True))
    out = bb.fuse_final(f1, f2, params)
    np.testing.assert_allclose(out.data[0],
                               np.concatenate([f1.data[0], f2.data[0]]), atol=1e-6)


def test_fuse_zero_inputs():
    params = bb.FusionParams(
        w=T.Tensor(np.random.default_rng(33).standard_normal((7, 5)),
                   requires_grad=True),
        b=T.zeros(5, requires_grad=True))
    out = bb.fuse_final(T.zeros((1, 4)), T.zeros((1, 3)), params)
    np.testing.assert_array_equal(out.data[0], np.zeros(5, dtype=np.float32))


def test_fuse_output_length_is_fusion_dim():
    cfg = bb.desk_config()
    params = bb.init_backbone(cfg, np.random.default_rng(34))
    f1 = T.Tensor(np.random.default_rng(35).standard_normal((1, cfg.concat_dim)))
    f2 = T.Tensor(np.random.default_rng(36).standard_normal((1, cfg.gcn_dims[-1])))
    assert bb.fuse_final(f1, f2, params.fusion).shape == (1, cfg.fusion_dim)
    with pytest.raises(DimensionError):
        bb.fuse_final(T.zeros((1, 3)), f2, params.fusion)


# ---------------------------------------------------------------------------
# full backbone


def test_backbone_forward_shapes():
    cfg = bb.desk_config()
    params = bb.init_backbone(cfg, np.random.default_rng(37))
    x = T.Tensor(np.random.default_rng(38).standard_normal((2, 3, 32, 32)) * 0.5)
    feats = bb.backbone_forward(x, params)
    assert feats.f_cnn.shape == (2, 16)
    assert feats.spatial.shape == (2, 16, 8, 8)
    assert feats.tokens.shape == (2, 16, 32)
    assert feats.f_vit.shape == (2, 32)
    assert feats.f_gnn.shape == (2, 32)
    assert feats.f_attended.shape == (2, 48)
    assert feats.f_final.shape == (2, 64)
    first = bb.backbone_forward(T.Tensor(x.data[:1]), params)
    assert first.f_final.shape == (1, 64)
    np.testing.assert_allclose(first.f_final.data[0], feats.f_final.data[0],
                               atol=1e-5)


def test_backbone_attention_shrinks_concat_features():
    cfg = bb.desk_config()
    params = bb.init_backbone(cfg, np.random.default_rng(39))
    x = T.Tensor(np.random.default_rng(40).standard_normal((3, 3, 32, 32)) * 0.5)
    feats = bb.backbone_forward(x, params)
    cat = np.concatenate([feats.f_cnn.data, feats.f_vit.data], axis=1)
    assert np.all(np.abs(feats.f_attended.data) <= np.abs(cat) + 1e-7)


def test_backbone_end_to_end_gradcheck():
    cfg = tiny_config()
    with T.default_dtype(np.float64):
        params = bb.init_backbone(cfg, np.random.default_rng(41))
        x = T.Tensor(np.random.default_rng(42).standard_normal((2, 3, 8, 8)) * 0.5,
                     requires_grad=True)
        tensors = [x] + T.leaves(params)

        def build():
            feats = bb.backbone_forward(x, params)
            return T.sum_(T.tanh(feats.f_final))

        worst = gradcheck(build, tensors)
    assert worst <= 1e-3
