import csv
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from helpers import checkpoint_bytes, named_leaves, peak_traced_bytes
from weedhybrid import backbone as bb
from weedhybrid import deploy as dp
from weedhybrid import heads as hd
from weedhybrid import tensor as T
from weedhybrid import training as tr
from weedhybrid.errors import ContractError, DivergenceError, NumericError


def tiny_cfg(**kw):
    base = dict(
        epochs=2, lr=1e-3, batch=4, seed=0,
        backbone=bb.BackboneConfig(image_size=(8, 8), patch_size=4, embed_dim=4,
                                   num_heads=1, cnn_channels=(4,), gcn_dims=(4,),
                                   fusion_dim=8))
    base.update(kw)
    return tr.TrainConfig(**base)


def tiny_data(seed=0, n=24, size=8):
    rng = np.random.default_rng(seed)
    labels = np.tile(np.arange(4), n // 4)
    images = rng.standard_normal((n, 3, size, size)).astype(np.float32) * 0.3
    # give each class a distinct mean so the problem is learnable
    images += labels[:, None, None, None] * 0.5
    masks = np.zeros((n, size, size), dtype=np.int64)
    masks[np.arange(n) % 2 == 0, :4] = labels[np.arange(n) % 2 == 0, None, None]
    growth = rng.random(n)
    return tr.TrainData(images=images, labels=labels, masks=masks,
                        growth=growth)


def fold0(data, cfg):
    """(train, validation) indices: fold 0 of 5 stratified folds."""
    return tr.stratified_folds(data.labels, seed=cfg.seed).split(0)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_grad_is_identity():
    p = T.Tensor(np.array([1.5, -2.0, 3.25]), requires_grad=True)
    p.grad = np.zeros(3, dtype=np.float32)
    before = p.data.tobytes()
    state = tr.init_optimizer([p], lr=0.1)
    tr.adam_step([p], state)
    assert p.data.tobytes() == before


def test_adam_first_step_is_lr():
    p = T.Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.ones(1, dtype=np.float32)
    state = tr.init_optimizer([p], lr=0.05)
    tr.adam_step([p], state)
    # bias correction makes m_hat = v_hat = 1, so the step is lr/(1+eps)
    assert p.data[0] == pytest.approx(2.0 - 0.05, abs=1e-6)


def test_adam_descends_quadratic():
    p = T.Tensor(np.array([1.0]), requires_grad=True)
    state = tr.init_optimizer([p], lr=0.1)
    for _ in range(20):
        with T.Tape() as tape:
            loss = T.mul(T.mul(p, p), 1.0)
            tape.backward(T.sum_(loss))
        tr.adam_step([p], state)
        T.zero_grads([p])
    assert abs(float(p.data[0])) < 1.0


ADAM_SIZES = [1, tr._ADAM_BLOCK - 1, tr._ADAM_BLOCK, tr._ADAM_BLOCK + 1,
              3 * tr._ADAM_BLOCK + 5]


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.sampled_from(ADAM_SIZES), min_size=1, max_size=3),
       dtype=st.sampled_from([np.float32, np.float64]),
       lr=st.sampled_from([0.0, 1e-3, 0.5]),
       seed=st.integers(0, 2**32 - 1))
def test_adam_step_matches_whole_array_oracle(sizes, dtype, lr, seed):
    # blocks of one parameter, and parameters of different sizes sharing the
    # step's buffers, give the whole-array update's bytes
    rng = np.random.default_rng(seed)
    start = [rng.standard_normal(n).astype(dtype) for n in sizes]
    ours = [T.Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in start]
    want = [T.Tensor(a.copy(), requires_grad=True, dtype=dtype) for a in start]
    state, want_state = tr.init_optimizer(ours, lr), tr.init_optimizer(want, lr)
    for _ in range(3):
        grads = [(rng.standard_normal(n) * 10.0 ** rng.integers(-4, 3)).astype(dtype)
                 for n in sizes]
        for p, q, g in zip(ours, want, grads):
            p.grad, q.grad = g.copy(), g.copy()
        tr.adam_step(ours, state)
        oracles.adam_step_whole(want, want_state)
        for i, (p, q, g) in enumerate(zip(ours, want, grads)):
            assert p.data.dtype == dtype
            assert p.data.tobytes() == q.data.tobytes(), i
            assert state.m[i].tobytes() == want_state.m[i].tobytes(), i
            assert state.v[i].tobytes() == want_state.v[i].tobytes(), i
            # in float64 storage a float64 view of the gradient is the
            # gradient itself; the step must not use it as scratch
            assert p.grad.tobytes() == g.tobytes(), i


def test_adam_missing_grad_rejected():
    p = T.Tensor(np.ones(2), requires_grad=True)
    state = tr.init_optimizer([p], lr=0.1)
    with pytest.raises(ContractError):
        tr.adam_step([p], state)


@pytest.mark.parametrize("lr,grad", [(1e39, 1.0), (1e-3, np.inf)],
                         ids=["overflowing-update", "infinite-gradient"])
def test_adam_non_finite_update_raises_numeric_error(lr, grad):
    # lr = 1e39 is a finite rate, but the update overflows float32: the step
    # wrote inf weights, and pretrain saved a checkpoint nothing could read
    p = T.Tensor(np.array([2.0, -1.0]), requires_grad=True)
    p.grad = np.array([grad, 1.0], dtype=np.float32)
    with pytest.raises(NumericError, match="^adam_step produced non-finite values$"):
        tr.adam_step([p], tr.init_optimizer([p], lr))


def test_optimizer_step_skips_the_update_when_its_block_diverges():
    p = T.Tensor(np.array([1.0]), requires_grad=True)
    state = tr.init_optimizer([p], 0.1)
    with pytest.raises(DivergenceError, match=r"^total diverged: non-finite values "
                                              r"\(mul produced non-finite values\)$"):
        with tr.optimizer_step([p], state, "total") as tape:
            tape.backward(T.sum_(T.mul(p, 1e39)))
    assert p.data.tolist() == [1.0] and p.grad is None and state.step == 0
    with tr.optimizer_step([p], state, "total") as tape:
        tape.backward(T.sum_(T.mul(p, 2.0)))
    assert p.data[0] < 1.0 and p.grad is None and state.step == 1


# ---------------------------------------------------------------------------
# stratified folds


def test_folds_table_supports():
    labels = np.concatenate([np.full(164, 0), np.full(163, 1),
                             np.full(140, 2), np.full(133, 3)])
    plan = tr.stratified_folds(labels, k=5, seed=7)
    sizes = [plan.fold_indices(f).size for f in range(5)]
    assert sizes == [120] * 5
    expected = {0: 164 / 5, 1: 163 / 5, 2: 140 / 5, 3: 133 / 5}
    for f in range(5):
        fold_labels = labels[plan.fold_indices(f)]
        for cls, target in expected.items():
            count = int(np.sum(fold_labels == cls))
            assert abs(count - target) <= 1.0


def test_folds_even_class():
    labels = np.zeros(10, dtype=int)
    plan = tr.stratified_folds(labels, k=5, seed=0)
    assert [plan.fold_indices(f).size for f in range(5)] == [2] * 5


def test_folds_partition_property():
    rng = np.random.default_rng(1)
    for seed in range(5):
        labels = rng.integers(0, 3, size=57)
        while np.min(np.bincount(labels, minlength=3)) < 5:
            labels = rng.integers(0, 3, size=57)
        plan = tr.stratified_folds(labels, k=5, seed=seed)
        parts = [plan.fold_indices(f) for f in range(5)]
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(57))
        # stratification bound: per class per fold within +-1 of n_c/k
        for cls in range(3):
            n_c = int(np.sum(labels == cls))
            for f in range(5):
                c = int(np.sum(labels[parts[f]] == cls))
                assert abs(c - n_c / 5) <= 1.0


def test_folds_small_class_rejected():
    labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    with pytest.raises(ContractError):
        tr.stratified_folds(labels, k=5, seed=0)


def test_folds_split_covers_everything():
    labels = np.tile(np.arange(4), 10)
    plan = tr.stratified_folds(labels, k=5, seed=3)
    train_idx, val_idx = plan.split(2)
    assert np.intersect1d(train_idx, val_idx).size == 0
    assert train_idx.size + val_idx.size == 40


# ---------------------------------------------------------------------------
# metrics


def test_metrics_diagonal_confusion_all_ones():
    labels = np.repeat(np.arange(4), 5)
    report = tr.classification_metrics(labels, labels, 4)
    assert report.accuracy == 1.0
    np.testing.assert_allclose(report.precision, np.ones(4))
    np.testing.assert_allclose(report.recall, np.ones(4))
    np.testing.assert_allclose(report.f1, np.ones(4))
    assert report.macro == (1.0, 1.0, 1.0)
    assert report.weighted == (1.0, 1.0, 1.0)
    assert not report.zero_division


def test_metrics_two_class_hand_case():
    # confusion [[50, 10], [10, 30]]
    labels = np.concatenate([np.zeros(60, int), np.ones(40, int)])
    preds = np.concatenate([np.zeros(50, int), np.ones(10, int),
                            np.zeros(10, int), np.ones(30, int)])
    report = tr.classification_metrics(labels, preds, 2)
    np.testing.assert_array_equal(report.confusion, [[50, 10], [10, 30]])
    assert report.precision[0] == pytest.approx(50 / 60, abs=1e-4)
    assert report.precision[1] == pytest.approx(30 / 40, abs=1e-4)
    assert report.recall[0] == pytest.approx(50 / 60, abs=1e-4)
    assert report.recall[1] == pytest.approx(30 / 40, abs=1e-4)
    assert report.accuracy == pytest.approx(0.8)
    assert report.precision[0] == pytest.approx(0.8333, abs=1e-4)
    assert report.precision[1] == pytest.approx(0.75, abs=1e-4)


def test_metrics_headline_accuracy():
    labels = np.zeros(600, dtype=int)
    preds = np.zeros(600, dtype=int)
    preds[:4] = 1       # exactly 596 correct of 600
    labels[4:6] = 2     # keep other classes in play, predicted correctly
    preds[4:6] = 2
    report = tr.classification_metrics(labels, preds, 4)
    assert report.confusion.sum() == 600
    assert int(np.trace(report.confusion)) == 596
    assert report.accuracy == pytest.approx(0.9933, abs=1e-4)


def test_metrics_match_recount_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(10, 200))
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=n)
        preds = np.where(rng.random(n) < 0.6, labels, rng.integers(0, k, size=n))
        report = tr.classification_metrics(labels, preds, k)
        want = oracles.metrics_recount(labels.tolist(), preds.tolist(), k)
        np.testing.assert_array_equal(report.confusion, want["confusion"])
        np.testing.assert_allclose(report.precision, want["precision"], atol=1e-12)
        np.testing.assert_allclose(report.recall, want["recall"], atol=1e-12)
        np.testing.assert_allclose(report.f1, want["f1"], atol=1e-12)
        np.testing.assert_array_equal(report.support, want["support"])
        assert report.accuracy == pytest.approx(want["accuracy"], abs=1e-12)
        np.testing.assert_allclose(report.macro, want["macro"], atol=1e-12)
        np.testing.assert_allclose(report.weighted, want["weighted"], atol=1e-12)
        f1s = report.f1
        assert min(f1s) - 1e-12 <= report.weighted[2] <= max(f1s) + 1e-12


def test_metrics_zero_division_flagged():
    labels = np.zeros(10, dtype=int)
    preds = np.zeros(10, dtype=int)
    report = tr.classification_metrics(labels, preds, 3)
    assert report.zero_division
    assert report.precision[1] == 0.0 and report.recall[2] == 0.0


def test_mean_iou_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        pairs = int(rng.integers(1, 4))
        pred = [rng.integers(0, k, size=(6, 6)) for _ in range(pairs)]
        true = [rng.integers(0, k, size=(6, 6)) for _ in range(pairs)]
        got, got_per, _ = tr.mean_iou(pred, true, k)
        want, want_per = oracles.miou_loops(pred, true, k)
        assert got == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(got_per, want_per, atol=1e-12)


def test_mean_iou_perfect_and_empty_class():
    masks = [np.array([[0, 1], [1, 0]])]
    miou, per_class, flagged = tr.mean_iou(masks, masks, 3)
    assert per_class[0] == 1.0 and per_class[1] == 1.0
    assert per_class[2] == 0.0 and flagged
    assert miou == pytest.approx(2 / 3)


@pytest.mark.parametrize("bad", [-1, 3])
def test_metrics_reject_class_outside_range(bad):
    # a value outside [0, k) would count in another class's cell
    good = np.array([0, 1, 2, 1])
    wrong = np.array([0, 1, bad, 1])
    for truth, pred in ((good, wrong), (wrong, good)):
        with pytest.raises(ContractError, match="outside"):
            tr.classification_metrics(truth, pred, 3)
        with pytest.raises(ContractError, match="outside"):
            tr.mean_iou([pred.reshape(2, 2)], [truth.reshape(2, 2)], 3)


def test_metrics_reject_mismatched_shapes():
    with pytest.raises(ContractError, match="shapes differ"):
        tr.classification_metrics(np.zeros(4, int), np.zeros(3, int), 2)
    with pytest.raises(ContractError, match="shapes differ"):
        tr.mean_iou([np.zeros((2, 2), int)], [np.zeros((2, 3), int)], 2)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_lr_keeps_params_and_flat_history():
    data = tiny_data()
    cfg = tiny_cfg(lr=0.0, epochs=3)
    # train's own starting point: backbone, then heads, from one seeded rng
    rng = np.random.default_rng(cfg.seed)
    params = bb.init_backbone(cfg.backbone, rng)
    heads = hd.init_heads(cfg.backbone, rng)
    before = (named_leaves(bb.build_backbone, params.config, params)
              + named_leaves(hd.build_heads, params.config, heads))
    result = tr.train(data, cfg, *fold0(data, cfg))
    after = T.leaves((result.params, result.heads))
    for (name, t), moved in zip(before, after, strict=True):
        np.testing.assert_array_equal(moved.data, t.data, err_msg=name)
    # params never move, so accuracies are constant; the mean loss only
    # wobbles through partial-batch regrouping under the per-epoch shuffle
    assert len({h.train_acc for h in result.history}) == 1
    assert len({h.val_acc for h in result.history}) == 1
    totals = [h.l_total for h in result.history]
    assert max(totals) - min(totals) <= 1e-2


def test_train_reproducible_history():
    def run():
        data = tiny_data()
        cfg = tiny_cfg(epochs=2)
        result = tr.train(data, cfg, *fold0(data, cfg))
        return [(h.train_acc, h.val_acc, h.l_total) for h in result.history]

    assert run() == run()


def test_train_bytes_are_pinned():
    # SHA-256 of a tiny seeded run's model and its exact history: the epoch
    # order, every update and the float64 epoch means are part of the artifact
    data, cfg = tiny_data(), tiny_cfg(epochs=2)
    result = tr.train(data, cfg, *fold0(data, cfg))
    rows = np.array([dataclasses.astuple(h) for h in result.history], dtype=np.float64)
    blob = checkpoint_bytes(dp.model_entries(result.params, result.heads))
    assert hashlib.sha256(blob + rows.tobytes()).hexdigest() == (
        "1836de6021ad644b598ff0a010254a67cd38c9e10b3c4c6659efa8a4d88f576b")


@pytest.mark.parametrize("empty", ["train", "validation"])
def test_train_rejects_an_empty_index_set(empty):
    # with no validation samples the best loss read 0.0 and the epoch-0
    # weights were quietly restored
    data, cfg = tiny_data(), tiny_cfg(epochs=1)
    split = list(fold0(data, cfg))
    split[empty == "validation"] = np.array([], dtype=np.int64)
    with pytest.raises(ContractError, match="non-empty train and validation"):
        tr.train(data, cfg, *split)


@pytest.mark.parametrize("which", ["train", "validation"])
@pytest.mark.parametrize("bad", [24, 99, -1])
def test_train_rejects_an_index_outside_the_data(which, bad):
    # index 99 ended in "index 99 is out of bounds for axis 0 with size 24"
    # from the first batch; -1 silently read the last row
    data, cfg = tiny_data(), tiny_cfg(epochs=1)
    split = list(fold0(data, cfg))
    split[which == "validation"] = np.append(split[which == "validation"], bad)
    with pytest.raises(ContractError, match=f"{which} index {bad} lies outside "
                                            f"the 24 samples"):
        tr.train(data, cfg, *split)


def test_train_reduces_loss_on_learnable_data():
    data = tiny_data()
    cfg = tiny_cfg(epochs=8, lr=3e-3)
    result = tr.train(data, cfg, *fold0(data, cfg))
    assert result.history[-1].l_total < result.history[0].l_total
    assert 0 <= result.best_epoch < 8


def test_train_divergence_names_component():
    data, cfg = tiny_data(), tiny_cfg(epochs=4, lr=1e12)
    with pytest.raises(DivergenceError) as exc_info:
        tr.train(data, cfg, *fold0(data, cfg))
    assert exc_info.value.component in {"backbone", "classification",
                                        "segmentation", "growth"}


def test_weighted_loss_overflow_diverges_as_total():
    # each weight is finite and each component loss finite, but their
    # weighted sum overflowed outside every divergence wrapper
    weights = hd.LossWeights(alpha=1e300, beta=1e308)
    data, cfg = tiny_data(), tiny_cfg(epochs=1, weights=weights)
    with pytest.raises(DivergenceError) as exc_info:
        tr.train(data, cfg, *fold0(data, cfg))
    assert exc_info.value.component == "total"


def test_desk_training_step_tape_records():
    # the per-head attention chain made 33 of the step's 90 records
    cfg = bb.desk_config()
    rng = np.random.default_rng(26)
    params = bb.init_backbone(cfg, rng)
    heads = hd.init_heads(cfg, rng)
    x = T.const(rng.standard_normal((2, 3) + cfg.image_size).astype(np.float32))
    masks = np.eye(4, dtype=np.float32)[rng.integers(0, 4, (2,) + cfg.image_size)]
    with T.Tape() as tape:
        pred = hd.predict(params, heads, x)
        hd.compute_losses(pred, np.array([0, 3]), T.const(masks.transpose(0, 3, 1, 2)),
                          np.array([0.2, 0.7]))
    assert len(tape) == 58


def test_backward_drops_records_and_intermediate_grads():
    cfg = bb.desk_config()
    rng = np.random.default_rng(27)
    params = bb.init_backbone(cfg, rng)
    heads = hd.init_heads(cfg, rng)
    data = tiny_data(seed=27, n=4, size=cfg.image_size[0])
    with T.Tape() as tape:
        total, _ = tr._score(params, heads, data, np.arange(4), hd.LossWeights())
        outs = [out for out, _ in tape._records]
        tape.backward(total)
    assert len(tape) == len(outs) and tape._records == []
    assert total.grad is not None
    assert all(out.grad is None for out in outs if out is not total)
    assert all(p.grad is not None for p in T.leaves((params, heads)))


def test_taped_paper_step_with_adam_memory_is_bounded():
    # train's own step: the tape is alive through adam_step; with the records
    # held until the tape died and whole-array Adam temporaries, this step
    # peaked at 172.4 MiB
    cfg = bb.paper_config()
    rng = np.random.default_rng(29)
    params = bb.init_backbone(cfg, rng)
    heads = hd.init_heads(cfg, rng)
    tensors = T.leaves((params, heads))
    state = tr.init_optimizer(tensors, 1e-3)
    data = tiny_data(seed=29, n=4, size=cfg.image_size[0])

    def step():
        with tr.optimizer_step(tensors, state, "total") as tape:
            total, _ = tr._score(params, heads, data, np.arange(4), hd.LossWeights())
            tape.backward(total)

    assert peak_traced_bytes(step) <= 100 << 20


def test_evaluate_report_and_empty_rejection():
    data = tiny_data()
    cfg = tiny_cfg(epochs=1)
    result = tr.train(data, cfg, *fold0(data, cfg))
    report = tr.evaluate(result.params, result.heads, data)
    assert report.confusion.sum() == len(data)
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.mean_iou <= 1.0
    with pytest.raises(ContractError):
        tr.evaluate(result.params, result.heads, data, indices=np.array([], int))


def random_eval_set(cfg, n, seed):
    """A random-init model and n random samples at cfg's image size."""
    rng = np.random.default_rng(seed)
    params = bb.init_backbone(cfg, rng)
    heads = hd.init_heads(cfg, rng)
    h, w = cfg.image_size
    data = tr.TrainData(images=rng.standard_normal((n, 3, h, w)).astype(np.float32),
                        labels=np.arange(n) % 4, masks=rng.integers(0, 4, (n, h, w)),
                        growth=np.zeros(n))
    return params, heads, data


@pytest.mark.parametrize("preset,n,chunks", [
    ("desk", 40, [32, 8]),         # 32x32 images: 32 fit the pixel budget
    ("paper", 4, [1, 1, 1, 1])],   # 224x224 images: one at a time
    ids=["desk", "paper"])
def test_evaluate_equals_per_image_oracle(monkeypatch, preset, n, chunks):
    cfg = bb.desk_config() if preset == "desk" else bb.paper_config()
    params, heads, data = random_eval_set(cfg, n, seed=31)
    want = oracles.evaluate_per_image(params, heads, data)
    seen = []
    predict = hd.predict

    def counting(params, heads, x):
        seen.append(x.shape[0])
        return predict(params, heads, x)

    monkeypatch.setattr(hd, "predict", counting)
    got = tr.evaluate(params, heads, data)
    assert seen == chunks
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))


def test_paper_evaluate_memory_is_one_image():
    params, heads, data = random_eval_set(bb.paper_config(), 4, seed=32)
    peak = peak_traced_bytes(lambda: tr.evaluate(params, heads, data))
    # one 224x224 image at a time peaks near 9.7 MiB; the four as one batch
    # took 15.9 MiB, and every predicted mask was kept as int64 to the end
    assert peak < 13 << 20


# ---------------------------------------------------------------------------
# CSV emission


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_emit_single_epoch(tmp_path):
    history = [tr.EpochStats(0, 0.5, 0.4, 1.0, 0.5, 0.1, 0.67)]
    labels = np.repeat(np.arange(4), 3)
    report = tr.classification_metrics(labels, labels, 4)
    report.mean_iou = 0.5
    paths = tr.emit_plot_data(history, report, tmp_path)
    rows = _read_csv(paths["history"])
    assert len(rows) == 2  # header + one epoch
    assert rows[0][0] == "epoch"


def test_emit_roundtrip_values(tmp_path):
    history = [tr.EpochStats(e, 0.1 * e, 0.2 * e, 1.0 / (e + 1), 0.5, 0.25, 0.75)
               for e in range(5)]
    labels = np.repeat(np.arange(4), 5)
    preds = labels.copy()
    preds[0] = 2
    report = tr.classification_metrics(labels, preds, 4)
    paths = tr.emit_plot_data(history, report, tmp_path)

    rows = _read_csv(paths["history"])[1:]
    for e, row in enumerate(rows):
        assert int(row[0]) == e
        assert float(row[1]) == pytest.approx(0.1 * e, abs=1e-6)
        assert float(row[6]) == pytest.approx(0.75, abs=1e-6)

    conf_rows = _read_csv(paths["confusion"])[1:]
    cells = [int(v) for row in conf_rows for v in row[1:]]
    assert sum(cells) == 20

    report_rows = _read_csv(paths["report"])
    assert report_rows[0] == ["class", "precision", "recall", "f1", "support"]
    for i in range(4):
        assert float(report_rows[1 + i][1]) == pytest.approx(report.precision[i],
                                                             abs=1e-6)


@pytest.mark.parametrize("field", ["confusion", "mean_iou"])
def test_emit_leaves_old_files_when_the_report_cannot_be_written(tmp_path, field):
    # the texts are built before any file is touched: a report field that
    # cannot be formatted, read first or last, writes nothing
    labels = np.repeat(np.arange(4), 3)
    report = dataclasses.replace(tr.classification_metrics(labels, labels, 4), **{field: None})
    (tmp_path / "history.csv").write_bytes(b"older run\r\n")
    with pytest.raises((AttributeError, TypeError)):
        tr.emit_plot_data([tr.EpochStats(0, 0.5, 0.4, 1.0, 0.5, 0.1, 0.67)], report, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["history.csv"]
    assert (tmp_path / "history.csv").read_bytes() == b"older run\r\n"
