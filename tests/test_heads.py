import math

import numpy as np
import pytest

from helpers import gradcheck, rand_tensor
from weedhybrid import backbone as bb
from weedhybrid import heads as hd
from weedhybrid import tensor as T
from weedhybrid.errors import ContractError, DimensionError


def small_setup(seed=0):
    cfg = bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                            num_heads=1, cnn_channels=(4,), gcn_dims=(4,),
                            fusion_dim=8)
    rng = np.random.default_rng(seed)
    return cfg, bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng)


def one_hot_mask(rng, k, h, w):
    labels = rng.integers(0, k, size=(h, w))
    return np.transpose(np.eye(k)[labels], (2, 0, 1))


# ---------------------------------------------------------------------------
# classification head and cross-entropy


def test_classify_zero_weights_uniform():
    cfg, _, heads = small_setup()
    heads.cls_w = T.zeros((cfg.fusion_dim, 4), requires_grad=True)
    probs = hd.classify_head(
        T.Tensor(np.random.default_rng(1).standard_normal((1, 8))), heads)
    np.testing.assert_allclose(probs.data[0], [0.25] * 4, atol=1e-7)


def test_classify_argmax_shift_invariant():
    cfg, _, heads = small_setup(2)
    f = T.Tensor(np.random.default_rng(3).standard_normal((1, 8)))
    base = hd.classify_head(f, heads)
    shifted_bias = T.Tensor(heads.cls_b.data + 7.25, requires_grad=True)
    heads.cls_b = shifted_bias
    moved = hd.classify_head(f, heads)
    assert int(np.argmax(base.data[0])) == int(np.argmax(moved.data[0]))
    np.testing.assert_allclose(base.data[0], moved.data[0], atol=1e-5)


def test_classify_matches_softmax_oracle():
    cfg, _, heads = small_setup(4)
    f = np.random.default_rng(5).standard_normal(8)
    logits = f @ heads.cls_w.data + heads.cls_b.data
    denom = sum(math.exp(v - max(logits)) for v in logits)
    want = [math.exp(v - max(logits)) / denom for v in logits]
    probs = hd.classify_head(T.Tensor(f[None]), heads)
    np.testing.assert_allclose(probs.data[0], want, atol=1e-6)
    assert probs.data[0].sum() == pytest.approx(1.0, abs=1e-6)


def test_classify_dim_mismatch():
    _, _, heads = small_setup(6)
    with pytest.raises(DimensionError):
        hd.classify_head(T.zeros((1, 5)), heads)


def test_cross_entropy_certain_prediction_is_zero():
    probs = T.Tensor([[0.0, 1.0, 0.0, 0.0]])
    assert float(hd.cross_entropy(probs, [1]).data) == pytest.approx(0.0, abs=1e-7)


def test_cross_entropy_uniform_is_ln4():
    probs = T.Tensor([[0.25] * 4])
    assert float(hd.cross_entropy(probs, [2]).data) == pytest.approx(
        math.log(4.0), abs=1e-6)
    assert float(hd.cross_entropy(probs, [2]).data) == pytest.approx(1.3863, abs=1e-4)


def test_cross_entropy_half_is_ln2():
    probs = T.Tensor([[0.5, 0.3, 0.1, 0.1]])
    assert float(hd.cross_entropy(probs, [0]).data) == pytest.approx(
        math.log(2.0), abs=1e-6)
    assert float(hd.cross_entropy(probs, [0]).data) == pytest.approx(0.6931, abs=1e-4)


def test_cross_entropy_floor_keeps_finite():
    probs = T.Tensor([[1.0, 0.0, 0.0, 0.0]])
    val = float(hd.cross_entropy(probs, [3]).data)
    assert math.isfinite(val)
    assert val == pytest.approx(-math.log(1e-12), rel=1e-5)


def test_cross_entropy_label_range():
    probs = T.Tensor([[0.25] * 4])
    for bad in (-1, 4, 7):
        with pytest.raises(ContractError):
            hd.cross_entropy(probs, [bad])


def test_cross_entropy_batch_averages():
    rng = np.random.default_rng(7)
    raw = rng.random((6, 4)) + 0.05
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, size=6)
    got = float(hd.cross_entropy(T.Tensor(probs), labels).data)
    want = sum(-math.log(probs[i, labels[i]]) for i in range(6)) / 6
    assert got == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# segmentation head and Dice


def test_segment_zero_weights_uniform():
    cfg, params, heads = small_setup(8)
    heads.seg_kernel = T.zeros((4, 4, 1, 1), requires_grad=True)
    spatial = T.Tensor(np.random.default_rng(9).standard_normal((1, 4, 4, 4)))
    mask = hd.segment_head(spatial, heads)
    np.testing.assert_allclose(mask.data[0], np.full((4, 8, 8), 0.25), atol=1e-6)


def test_segment_output_matches_image_size():
    cfg, params, heads = small_setup(10)
    x = T.Tensor(np.random.default_rng(11).standard_normal((2, 3, 8, 8)))
    feats = bb.backbone_forward(x, params)
    mask = hd.segment_head(feats.spatial, heads)
    assert mask.shape == (2, 4, 8, 8)
    sums = mask.data.sum(axis=1)
    np.testing.assert_allclose(sums, np.ones((2, 8, 8)), atol=1e-6)


def test_segment_dim_mismatch():
    _, _, heads = small_setup(12)
    with pytest.raises(DimensionError):
        hd.segment_head(T.zeros((1, 7, 4, 4)), heads)


def test_dice_perfect_prediction_near_zero():
    rng = np.random.default_rng(13)
    truth = one_hot_mask(rng, 4, 32, 32)[None]  # 1024 pixels
    loss = float(hd.dice_loss(T.Tensor(truth), T.const(truth)).data)
    assert 0.0 <= loss <= 1e-3


def test_dice_disjoint_near_one():
    h = w = 64
    pred = np.zeros((1, 2, h, w))
    truth = np.zeros((1, 2, h, w))
    pred[0, 0] = 1.0   # predicts class 0 everywhere
    truth[0, 1] = 1.0  # truth is class 1 everywhere
    loss = float(hd.dice_loss(T.Tensor(pred), T.const(truth)).data)
    assert loss == pytest.approx(1.0, abs=1e-3)


def test_dice_partial_overlap_exact():
    # foreground truth 4 px, hard prediction covers exactly 2 of them:
    # Dice = 2*2/(2+4) = 2/3 so loss = 1/3 (up to the eps=1 smoothing)
    h = w = 100
    truth = np.zeros((2, h, w))
    pred = np.zeros((2, h, w))
    truth[1, 0, :4] = 1.0
    truth[0] = 1.0 - truth[1]
    pred[1, 0, :2] = 1.0
    pred[0] = 1.0 - pred[1]
    inter = [float((pred[k] * truth[k]).sum()) for k in range(2)]
    sums = [float(pred[k].sum() + truth[k].sum()) for k in range(2)]
    want = np.mean([1 - (2 * inter[k] + 1) / (sums[k] + 1) for k in range(2)])
    got = float(hd.dice_loss(T.Tensor(pred[None]), T.const(truth[None])).data)
    assert got == pytest.approx(want, rel=1e-5)
    # class-1 term alone approaches 1/3 as eps vanishes relative to counts
    assert 1 - (2 * inter[1]) / sums[1] == pytest.approx(1 / 3, abs=1e-9)


def test_dice_bounds_and_monotonicity():
    rng = np.random.default_rng(14)
    for _ in range(10):
        pred = rng.random((3, 6, 6))
        pred /= pred.sum(axis=0, keepdims=True)
        truth = np.transpose(np.eye(3)[rng.integers(0, 3, size=(6, 6))], (2, 0, 1))
        loss = float(hd.dice_loss(T.Tensor(pred[None]), T.const(truth[None])).data)
        assert 0.0 <= loss <= 1.0
    # moving prediction mass onto the true class lowers the loss
    truth = np.zeros((2, 4, 4))
    truth[1] = 1.0
    weak = np.stack([np.full((4, 4), 0.7), np.full((4, 4), 0.3)])
    strong = np.stack([np.full((4, 4), 0.2), np.full((4, 4), 0.8)])
    l_weak = float(hd.dice_loss(T.Tensor(weak[None]), T.const(truth[None])).data)
    l_strong = float(hd.dice_loss(T.Tensor(strong[None]), T.const(truth[None])).data)
    assert l_strong < l_weak


def test_dice_shape_mismatch():
    with pytest.raises(DimensionError):
        hd.dice_loss(T.zeros((1, 2, 4, 4)), T.zeros((1, 2, 5, 4)))


# ---------------------------------------------------------------------------
# growth head and MSE


def test_mse_exact_values():
    assert float(hd.mse_loss(T.Tensor(0.7), 0.7).data) == pytest.approx(0.0)
    assert float(hd.mse_loss(T.Tensor(1.2), 0.7).data) == pytest.approx(0.25,
                                                                        abs=1e-6)


def test_mse_batch_average():
    pred = T.Tensor([1.0, 2.0, 3.0])
    truth = np.array([1.0, 1.0, 1.0])
    assert float(hd.mse_loss(pred, truth).data) == pytest.approx((0 + 1 + 4) / 3,
                                                                 rel=1e-6)


def test_growth_head_shapes():
    cfg, _, heads = small_setup(15)
    one = hd.growth_head(
        T.Tensor(np.random.default_rng(16).standard_normal((1, 8))), heads)
    assert one.shape == (1,)
    batch = hd.growth_head(
        T.Tensor(np.random.default_rng(17).standard_normal((5, 8))), heads)
    assert batch.shape == (5,)


def test_mse_gradient_matches_2dy():
    with T.default_dtype(np.float64):
        pred = T.Tensor(np.array(1.7), requires_grad=True)
        with T.Tape() as tape:
            loss = hd.mse_loss(pred, 0.9)
            tape.backward(loss)
        assert float(pred.grad) == pytest.approx(2 * (1.7 - 0.9), rel=1e-6)
        worst = gradcheck(lambda: hd.mse_loss(pred, 0.9), [pred])
        assert worst <= 1e-3


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_paper_ratio():
    one = T.Tensor(np.array(1.0))
    total = hd.total_loss(one, one, one, hd.LossWeights(0.5, 0.3, 0.2))
    assert float(total.data) == pytest.approx(1.0, abs=1e-6)


def test_total_loss_single_task_reduction():
    a = T.Tensor(np.array(0.8))
    b = T.Tensor(np.array(123.0))
    c = T.Tensor(np.array(-5.0))
    total = hd.total_loss(a, b, c, hd.LossWeights(1.0, 0.0, 0.0))
    assert float(total.data) == pytest.approx(0.8, abs=1e-6)


def test_total_loss_zero_components():
    z = T.Tensor(np.array(0.0))
    assert float(hd.total_loss(z, z, z).data) == 0.0


def test_total_loss_linearity():
    rng = np.random.default_rng(18)
    w = hd.LossWeights(0.5, 0.3, 0.2)
    for _ in range(10):
        a, b, c = rng.random(3)
        got = float(hd.total_loss(T.Tensor(np.array(a)), T.Tensor(np.array(b)),
                                  T.Tensor(np.array(c)), w).data)
        assert got == pytest.approx(0.5 * a + 0.3 * b + 0.2 * c, rel=1e-5)


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        hd.LossWeights(0.0, 0.0, 0.0)
    with pytest.raises(ContractError):
        hd.LossWeights(-0.1, 0.5, 0.5)


# ---------------------------------------------------------------------------
# gradient checks through each loss


def test_losses_gradcheck():
    rng = np.random.default_rng(19)
    with T.default_dtype(np.float64):
        logits = rand_tensor(rng, (3, 4))
        labels = np.array([0, 2, 3])

        def ce_loss():
            return hd.cross_entropy(T.softmax(logits, axis=-1), labels)

        assert gradcheck(ce_loss, [logits]) <= 1e-3

        raw = rand_tensor(rng, (2, 3, 4, 4))
        truth = T.const(np.transpose(
            np.eye(3)[rng.integers(0, 3, size=(2, 4, 4))], (0, 3, 1, 2)))

        def dice():
            return hd.dice_loss(T.softmax(raw, axis=1), truth)

        assert gradcheck(dice, [raw]) <= 1e-3

        growth = rand_tensor(rng, (4,))
        target = rng.random(4)

        def mse():
            return hd.mse_loss(growth, target)

        assert gradcheck(mse, [growth]) <= 1e-3


# ---------------------------------------------------------------------------
# end-to-end prediction plumbing


def test_predict_and_compute_losses():
    cfg, params, heads = small_setup(20)
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal((1, 3, 8, 8)) * 0.5)
    pred = hd.predict(params, heads, x)
    assert pred.class_probs.shape == (1, 4)
    assert pred.class_probs.data[0].sum() == pytest.approx(1.0, abs=1e-6)
    assert pred.seg_mask.shape == (1, 4, 8, 8)
    np.testing.assert_allclose(pred.seg_mask.data[0].sum(axis=0),
                               np.ones((8, 8)), atol=1e-6)
    assert pred.growth.shape == (1,)
    assert 0 <= pred.labels[0] < 4

    xb = T.Tensor(rng.standard_normal((2, 3, 8, 8)) * 0.5)
    truth = T.const(np.transpose(
        np.eye(4)[rng.integers(0, 4, size=(2, 8, 8))], (0, 3, 1, 2)))
    with T.Tape() as tape:
        predb = hd.predict(params, heads, xb)
        loss, report = hd.compute_losses(predb, np.array([1, 3]),
                                         truth, rng.random(2))
        tape.backward(loss)
    assert report.l_total == pytest.approx(
        0.5 * report.l_cls + 0.3 * report.l_seg + 0.2 * report.l_growth,
        rel=1e-5)
    assert heads.cls_w.grad is not None
    assert params.vit.w_e.grad is not None
