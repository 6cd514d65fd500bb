"""Contrastive pretraining: views, NT-Xent loss, and the update loop."""

import hashlib
import math

import numpy as np
import pytest

import weedhybrid.backbone as bb
import weedhybrid.deploy as dp
import weedhybrid.imaging as im
import weedhybrid.pretrain as pt
import weedhybrid.tensor as T
from weedhybrid.errors import ContractError, DivergenceError

from helpers import checkpoint_bytes, gradcheck, named_leaves
from oracles import ntxent_scalar, views_per_image


def random_image(rng, size=(8, 8)):
    arr = rng.integers(0, 256, size + (3,), dtype=np.uint8)
    return im.ImageU8.from_array(arr)


def tiny_backbone():
    return bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                             num_heads=1, cnn_channels=(2,), gcn_dims=(4,),
                             fusion_dim=8)


# ---------------------------------------------------------------- config


def test_config_defaults_and_validation():
    cfg = pt.ContrastiveConfig()
    assert cfg.temperature == 0.5
    assert cfg.projection_dim == 32
    with pytest.raises(ContractError):
        pt.ContrastiveConfig(temperature=0.0)
    with pytest.raises(ContractError):
        pt.ContrastiveConfig(gamma_range=(1.5, 0.5))
    with pytest.raises(ContractError):
        pt.ContrastiveConfig(ops=("sharpen",))


# ---------------------------------------------------------------- views


def test_identity_policy_returns_original():
    cfg = pt.ContrastiveConfig(ops=("identity",), gamma_range=(1.0, 1.0))
    rng = np.random.default_rng(0)
    images = [random_image(rng) for _ in range(3)]
    views = pt.make_views(images, np.random.default_rng(1), cfg)
    assert views.shape == (6, 8, 8, 3) and views.dtype == np.uint8
    for i, img in enumerate(images):
        assert views[2 * i].tobytes() == img.pixels
        assert views[2 * i + 1].tobytes() == img.pixels


def test_views_reproducible_from_seed():
    cfg = pt.ContrastiveConfig()
    images = [random_image(np.random.default_rng(2))]
    a = pt.make_views(images, np.random.default_rng(77), cfg)
    b = pt.make_views(images, np.random.default_rng(77), cfg)
    assert a.tobytes() == b.tobytes()


def test_views_match_recorded_ops():
    """Each view equals its op and gamma drawn and applied one at a time."""
    rng = np.random.default_rng(3)
    images = [random_image(rng) for _ in range(5)]
    for cfg in (pt.ContrastiveConfig(),
                pt.ContrastiveConfig(ops=("identity",)),
                pt.ContrastiveConfig(gamma_range=(1.0, 1.0)),
                pt.ContrastiveConfig(gamma_range=(0.5, 2.0))):
        for seed in range(40):
            got = pt.make_views(images, np.random.default_rng(seed), cfg)
            want = views_per_image(images, np.random.default_rng(seed), cfg)
            assert got.shape == (10, 8, 8, 3)
            assert [v.tobytes() for v in got] == [v.pixels for v in want], (cfg, seed)


def test_quarter_turns_refuse_non_square_images():
    rng = np.random.default_rng(5)
    images = [random_image(rng, (8, 16)) for _ in range(4)]
    # decided from the configured ops, not the draws: seed 3 draws no
    # quarter turn for one image's two views
    for seed in range(5):
        with pytest.raises(ContractError, match="rot90, rot270 need square images, got 8x16"):
            pt.make_views(images[:1], np.random.default_rng(seed), pt.ContrastiveConfig())
    cfg = pt.ContrastiveConfig(ops=("identity", "rot270"), epochs=1, batch_pairs=2)
    backbone = bb.BackboneConfig(image_size=(8, 16), patch_size=4, embed_dim=4,
                                 num_heads=1, cnn_channels=(2,), gcn_dims=(4,),
                                 fusion_dim=8)
    with pytest.raises(ContractError, match="rot270 need square images, got 8x16"):
        pt.pretrain(images, cfg, backbone_cfg=backbone)
    flips = pt.ContrastiveConfig(ops=("identity", "hflip", "vflip", "rot180"))
    assert pt.make_views(images, np.random.default_rng(0), flips).shape == (8, 8, 16, 3)


# ---------------------------------------------------------------- normalize


def test_l2_normalize_rows_unit_norm():
    rng = np.random.default_rng(4)
    z = pt.l2_normalize_rows(T.const(rng.standard_normal((6, 5)) * 3))
    norms = np.linalg.norm(z.data, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-5)


def test_l2_normalize_rows_direction_preserved():
    z = pt.l2_normalize_rows(T.const(np.array([[3.0, 4.0]])))
    np.testing.assert_allclose(z.data, [[0.6, 0.8]], atol=1e-6)


# ---------------------------------------------------------------- nt-xent


def test_single_pair_loss_is_zero():
    z = pt.l2_normalize_rows(T.const(np.random.default_rng(5).standard_normal((2, 4))))
    loss = pt.nt_xent_loss(z, 0.5)
    assert float(loss.data) == 0.0


def test_two_pair_orthogonal_case():
    """Identical positives, orthogonal cross pairs, tau=1: -log(e/(e+2))."""
    z = T.const(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    loss = pt.nt_xent_loss(z, 1.0)
    expected = -math.log(math.e / (math.e + 2.0))
    assert abs(float(loss.data) - expected) < 1e-6
    assert abs(expected - 0.5514) < 5e-4


def test_matches_scalar_oracle():
    rng = np.random.default_rng(6)
    for trial in range(20):
        b = int(rng.integers(1, 5))
        raw = rng.standard_normal((2 * b, int(rng.integers(2, 7))))
        z = pt.l2_normalize_rows(T.const(raw))
        got = float(pt.nt_xent_loss(z, 0.5).data)
        want = ntxent_scalar(raw, 0.5)
        assert abs(got - want) < 1e-5, trial


def test_invariant_under_pair_permutation():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((8, 5))
    z = pt.l2_normalize_rows(T.const(raw))
    base = float(pt.nt_xent_loss(z, 0.5).data)
    perm = np.array([4, 5, 0, 1, 6, 7, 2, 3])  # move whole pairs around
    zp = pt.l2_normalize_rows(T.const(raw[perm]))
    assert abs(float(pt.nt_xent_loss(zp, 0.5).data) - base) < 1e-6


def test_positive_with_any_negative():
    rng = np.random.default_rng(8)
    for trial in range(10):
        raw = rng.standard_normal((6, 4))
        z = pt.l2_normalize_rows(T.const(raw))
        assert float(pt.nt_xent_loss(z, 0.5).data) > 0.0, trial


def test_rejects_bad_shapes_and_temperature():
    with pytest.raises(ContractError):
        pt.nt_xent_loss(T.const(np.zeros((0, 4))), 0.5)
    with pytest.raises(ContractError):
        pt.nt_xent_loss(T.const(np.zeros((3, 4))), 0.5)
    with pytest.raises(ContractError):
        pt.nt_xent_loss(T.const(np.zeros((4, 4))), 0.0)


def test_nt_xent_gradcheck():
    rng = np.random.default_rng(9)
    with T.default_dtype(np.float64):
        raw = T.Tensor(rng.standard_normal((6, 4)), requires_grad=True)

        def loss_fn():
            return pt.nt_xent_loss(pt.l2_normalize_rows(raw), 0.5)

        gradcheck(loss_fn, [raw], rtol=1e-3)


# ---------------------------------------------------------------- pretrain


def test_pretrain_requires_two_images():
    with pytest.raises(ContractError):
        pt.pretrain([random_image(np.random.default_rng(0))],
                    pt.ContrastiveConfig(epochs=1), tiny_backbone())


def test_pretrain_rejects_wrong_image_size():
    imgs = [random_image(np.random.default_rng(i), size=(16, 16))
            for i in range(4)]
    with pytest.raises(ContractError):
        pt.pretrain(imgs, pt.ContrastiveConfig(epochs=1),
                    backbone_cfg=tiny_backbone())


def test_pretrain_zero_lr_leaves_params():
    rng = np.random.default_rng(10)
    imgs = [random_image(rng) for _ in range(4)]
    # pretrain's own starting point for seed 3
    start = bb.init_backbone(tiny_backbone(), np.random.default_rng([3, 0xB0]))
    out, history = pt.pretrain(imgs, pt.ContrastiveConfig(epochs=2, lr=0.0,
                                                          batch_pairs=4,
                                                          projection_dim=6),
                               tiny_backbone(), seed=3)
    assert len(history) == 2
    for (name, t), s in zip(named_leaves(bb.build_backbone, out.config, out),
                            T.leaves(start), strict=True):
        assert t.data.tobytes() == s.data.tobytes(), name


def test_pretrain_divergence_names_the_contrastive_step():
    # 1 / temperature overflows float32 in the scaled similarities
    rng = np.random.default_rng(25)
    imgs = [random_image(rng) for _ in range(4)]
    cfg = pt.ContrastiveConfig(temperature=1e-300, epochs=1, batch_pairs=4,
                               projection_dim=6)
    with pytest.raises(DivergenceError) as exc_info:
        pt.pretrain(imgs, cfg, backbone_cfg=tiny_backbone())
    assert exc_info.value.component == "contrastive"


def test_pretrain_updates_only_cnn_and_vit():
    rng = np.random.default_rng(12)
    imgs = [random_image(rng) for _ in range(4)]
    # pretrain's own starting point for seed 4
    start = bb.init_backbone(tiny_backbone(), np.random.default_rng([4, 0xB0]))
    params, _ = pt.pretrain(imgs, pt.ContrastiveConfig(epochs=2, lr=1e-3,
                                                       batch_pairs=4,
                                                       projection_dim=6),
                            tiny_backbone(), seed=4)
    named = named_leaves(bb.build_backbone, params.config, params)
    before = {n: s.data for (n, _), s in zip(named, T.leaves(start), strict=True)}
    moved = {n for n, t in named if t.data.tobytes() != before[n].tobytes()}
    assert moved, "pretraining moved nothing"
    assert all(n.startswith(("cnn.", "vit.")) for n in moved), moved
    frozen = {n for n, _ in named if not n.startswith(("cnn.", "vit."))}
    assert frozen.isdisjoint(moved)


def test_pretrain_smoke_loss_improves():
    rng = np.random.default_rng(14)
    imgs = [random_image(rng) for _ in range(16)]
    params, history = pt.pretrain(
        imgs, pt.ContrastiveConfig(epochs=20, lr=2e-3, batch_pairs=8,
                                   projection_dim=8),
        backbone_cfg=tiny_backbone(), seed=5)
    assert len(history) == 20
    assert all(math.isfinite(v) for v in history)
    assert history[-1] < history[0], history


def test_pretrain_reproducible():
    rng = np.random.default_rng(15)
    imgs = [random_image(rng) for _ in range(6)]
    cfg = pt.ContrastiveConfig(epochs=3, lr=1e-3, batch_pairs=3,
                               projection_dim=6)
    pa, ha = pt.pretrain(imgs, cfg, backbone_cfg=tiny_backbone(), seed=9)
    pb, hb = pt.pretrain(imgs, cfg, backbone_cfg=tiny_backbone(), seed=9)
    assert ha == hb
    for (name, ta), tb in zip(named_leaves(bb.build_backbone, pa.config, pa),
                              T.leaves(pb), strict=True):
        assert ta.data.tobytes() == tb.data.tobytes(), name


def test_pretrain_bytes_are_pinned():
    # SHA-256 of a tiny seeded run's backbone and its exact loss history:
    # view draws, their scaling and every update are part of the artifact
    rng = np.random.default_rng(19)
    imgs = [random_image(rng) for _ in range(5)]
    params, history = pt.pretrain(
        imgs, pt.ContrastiveConfig(epochs=2, batch_pairs=2, projection_dim=6),
        backbone_cfg=tiny_backbone(), seed=3)
    blob = checkpoint_bytes(dp.model_entries(params))
    assert hashlib.sha256(blob).hexdigest() == (
        "b74407180b9413cffe604610e8e1d1708fc3cbc6a8cc15c75a2bd1502f0beede")
    assert history == [0.8076615730921427, 0.7620058059692383]


def test_embeddings_unit_norm_through_pipeline():
    rng = np.random.default_rng(16)
    imgs = [random_image(rng) for _ in range(3)]
    params = bb.init_backbone(tiny_backbone(), np.random.default_rng(17))
    proj = pt.init_projection(
        params.config.cnn_channels[-1] + params.config.embed_dim, 6,
        np.random.default_rng(18))
    batch = T.const(im.to_model_tensor(np.stack([i.as_array() for i in imgs])))
    z = pt.forward_embeddings(batch, params, proj)
    assert z.shape == (3, 6)
    np.testing.assert_allclose(np.linalg.norm(z.data, axis=1), 1.0, atol=1e-5)


def test_desk_pretrain_step_tape_records():
    # the per-head attention chain made 33 of the step's 62 records
    cfg = bb.desk_config()
    rng = np.random.default_rng(27)
    params = bb.init_backbone(cfg, rng)
    proj = pt.init_projection(cfg.cnn_channels[-1] + cfg.embed_dim, 32, rng)
    batch = T.const(rng.standard_normal((4, 3) + cfg.image_size).astype(np.float32))
    with T.Tape() as tape:
        pt.nt_xent_loss(pt.forward_embeddings(batch, params, proj), 0.5)
    assert len(tape) == 30
