"""Sign-off gate: eight pipeline-level checks, one verdict line apiece.

Each test prints exactly one line of the form

    [PASS] criterion N: <summary>
    [FAIL] criterion N: <summary> -- <detail>

before asserting, so ``pytest tests/test_acceptance.py -s`` doubles as a
sign-off report (without ``-s`` pytest captures the lines and shows them
only for failing tests).  The expensive artifacts -- the 400-sample
synthetic dataset and the full training run -- are module-scoped fixtures
shared by the criteria that need them.
"""

import io
import os
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import weedhybrid.backbone as bb
import weedhybrid.cli as cli
import weedhybrid.dataio as dio
import weedhybrid.deploy as dp
import weedhybrid.gan as gn
import weedhybrid.heads as hd
import weedhybrid.imaging as ig
import weedhybrid.pretrain as pn
import weedhybrid.synthdata as sd
import weedhybrid.tensor as T
import weedhybrid.training as tr

import oracles
from helpers import gradcheck, rand_tensor


def _verdict(n: int, summary: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {summary}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _cli(argv) -> tuple:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _dir_bytes(root) -> dict:
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# shared artifacts


@pytest.fixture(scope="module")
def dataset400(tmp_path_factory):
    """Balanced synthetic set: 100 samples per class at 32x32, seed 0."""
    root = tmp_path_factory.mktemp("accept_data")
    manifest = sd.generate_dataset(str(root), 100, size=(32, 32), seed=0)
    data, samples = dio.load_dataset(manifest,
                                     ig.PreprocessConfig(target_size=(32, 32)))
    return {"root": root, "manifest": manifest, "data": data,
            "samples": samples}


@pytest.fixture(scope="module")
def trained400(dataset400):
    """Full training run at default settings, timed; all 400 samples train,
    one stratified tenth (40 samples) steers best-epoch selection."""
    data = dataset400["data"]
    cfg = tr.TrainConfig()  # 60 epochs, lr 2e-3, batch 32, seed 0
    _, val_idx = tr.stratified_folds(data.labels, k=10, seed=0).split(0)
    start = time.monotonic()
    result = tr.train(data, cfg, train_idx=np.arange(len(data)),
                      val_idx=val_idx)
    seconds = time.monotonic() - start
    return {"result": result, "seconds": seconds}


# ---------------------------------------------------------------------------
# criterion 1: finite-difference gradient checks across every op family


def _check_conv(rng):
    worst = 0.0
    for _ in range(20):
        c_in, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h, w = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x = rand_tensor(rng, (1, c_in, h, w), 0.7)
        k = rand_tensor(rng, (c_out, c_in, kh, kw), 0.7)
        b = rand_tensor(rng, (c_out,), 0.5)
        def loss():
            return T.sum_(T.tanh(
                T.conv2d(x, k, stride=stride, padding=pad, bias=b)))
        worst = max(worst, gradcheck(loss, [x, k, b], eps=1e-5))
    return worst


def _check_matmul(rng):
    worst = 0.0
    for i in range(20):
        if i % 2 == 0:
            a = rand_tensor(rng, (3, 4), 0.7)
            b = rand_tensor(rng, (4, 2), 0.7)
        else:
            a = rand_tensor(rng, (2, 3, 4), 0.7)
            b = rand_tensor(rng, (2, 4, 2), 0.7)
        def loss():
            return T.sum_(T.tanh(T.matmul(a, b)))
        worst = max(worst, gradcheck(loss, [a, b], eps=1e-5))
    return worst


def _tiny_msa(rng, n_heads=2, d_k=2, n_tokens=3):
    embed = n_heads * d_k
    proj = lambda: tuple(rand_tensor(rng, (embed, d_k), 0.7)
                         for _ in range(n_heads))
    w_q, w_k, w_v = proj(), proj(), proj()
    e = rand_tensor(rng, (1, n_tokens, embed), 0.7)
    return e, tuple(zip(w_q, w_k, w_v))


def _check_attention(rng):
    worst = 0.0
    for _ in range(20):
        e, heads = _tiny_msa(rng)
        w_q, w_k, w_v = zip(*heads)
        params = [e] + list(w_q) + list(w_k) + list(w_v)
        def loss():
            return T.sum_(T.tanh(T.attention(e, heads)))
        worst = max(worst, gradcheck(loss, params, eps=1e-5))
    return worst


def _check_gcn(rng):
    worst = 0.0
    for _ in range(20):
        feats = rand_tensor(rng, (4, 3), 0.7)
        g = bb.build_plant_graph(feats, (2, 2))
        w = rand_tensor(rng, (3, 2), 0.7)
        def loss():
            return T.sum_(T.tanh(bb.gcn_layer(g, feats, w)))
        worst = max(worst, gradcheck(loss, [feats, w], eps=1e-5))
    return worst


def _check_channel_attention(rng):
    worst = 0.0
    for _ in range(20):
        c = 6
        p = bb.ChannelAttentionParams(w1=rand_tensor(rng, (c, 2), 0.7),
                                      w2=rand_tensor(rng, (2, c), 0.7))
        f = rand_tensor(rng, (2, c), 0.7)
        def loss():
            return T.sum_(T.tanh(bb.channel_attention(f, p)))
        worst = max(worst, gradcheck(loss, [f, p.w1, p.w2], eps=1e-5))
    return worst


def _check_losses(rng):
    worst = 0.0
    for _ in range(20):
        logits = rand_tensor(rng, (3, 4), 0.7)
        labels = rng.integers(0, 4, 3)
        def ce():
            return hd.cross_entropy(T.softmax(logits, axis=-1), labels)
        worst = max(worst, gradcheck(ce, [logits], eps=1e-5))

        seg_logits = rand_tensor(rng, (2, 3, 4, 4), 0.7)
        truth = np.eye(3, dtype=np.float64)[
            rng.integers(0, 3, (2, 4, 4))].transpose(0, 3, 1, 2)
        def dice():
            return hd.dice_loss(T.softmax(seg_logits, axis=1), T.const(truth))
        worst = max(worst, gradcheck(dice, [seg_logits], eps=1e-5))

        pred = rand_tensor(rng, (5,), 0.7)
        target = rng.uniform(0, 1, 5)
        def mse():
            return hd.mse_loss(pred, T.const(target))
        worst = max(worst, gradcheck(mse, [pred], eps=1e-5))
    return worst


def _tiny_gan(rng):
    """GAN instance with O(1) weights: the DCGAN init (std 0.02) leaves
    pre-activations and gradients clustered near zero, where finite
    differences lose the relu kinks in the noise floor; the gradcheck
    targets the operators, so redraw every tensor at unit scale."""
    cfg = gn.GanConfig(latent_dim=3, class_count=2, image_size=(4, 4),
                       base_channels=2, label_dim=3)
    params = gn.init_gan(cfg, rng)
    for t in T.leaves(params):
        t.data = rng.standard_normal(t.shape) * 0.5
    return params, cfg


def _check_gan_generator(rng):
    worst = 0.0
    for i in range(20):
        params, cfg = _tiny_gan(rng)
        z = T.const(rng.standard_normal((1, cfg.latent_dim)))
        labels = np.asarray([i % cfg.class_count])
        tensors = T.leaves(params.g)
        def loss():
            out = gn.generate(z, labels, params)
            return T.sum_(T.mul(out, out))
        # eps small enough that no relu pre-activation crosses its kink
        worst = max(worst, gradcheck(loss, tensors, eps=1e-5))
    return worst


def _check_gan_discriminator(rng):
    worst = 0.0
    for i in range(20):
        params, cfg = _tiny_gan(rng)
        x = T.const(rng.uniform(-0.9, 0.9, (1, 3) + cfg.image_size))
        labels = np.asarray([i % cfg.class_count])
        tensors = T.leaves(params.d)
        def loss():
            return T.sum_(T.softplus(gn.discriminate(x, labels, params)))
        worst = max(worst, gradcheck(loss, tensors, eps=1e-5))
    return worst


def _check_nt_xent(rng):
    worst = 0.0
    for _ in range(20):
        raw = rand_tensor(rng, (4, 3), 1.0)
        tau = float(rng.uniform(0.3, 1.5))
        def loss():
            return pn.nt_xent_loss(pn.l2_normalize_rows(raw), tau)
        worst = max(worst, gradcheck(loss, [raw], eps=1e-5))
    return worst


def test_criterion_1_gradients():
    families = {
        "conv2d": _check_conv,
        "matmul": _check_matmul,
        "attention": _check_attention,
        "gcn": _check_gcn,
        "channel-attention": _check_channel_attention,
        "losses": _check_losses,
        "gan-generator": _check_gan_generator,
        "gan-discriminator": _check_gan_discriminator,
        "nt-xent": _check_nt_xent,
    }
    start = time.monotonic()
    worst, ok, detail = 0.0, True, ""
    try:
        with T.default_dtype(np.float64):
            for i, check in enumerate(families.values()):
                worst = max(worst, check(np.random.default_rng([1, i])))
    except Exception as exc:  # report any failure on the verdict line
        ok, detail = False, _first_line(exc)
    seconds = time.monotonic() - start
    if ok and seconds >= 60.0:
        ok, detail = False, f"took {seconds:.1f}s (budget 60s)"
    _verdict(1, f"finite-difference gradcheck, {len(families)} op families x 20 "
                f"instances, worst rel err {worst:.2e}, {seconds:.1f}s", ok, detail)


# ---------------------------------------------------------------------------
# criterion 2: structural invariants


def test_criterion_2_invariants():
    rng = np.random.default_rng(2)
    ok, detail = True, ""
    try:
        for _ in range(20):
            # softmax rows (plain and attention-shaped scores) sum to one
            logits = rng.standard_normal((5, 7)) * 5.0
            rows = T.softmax(T.const(logits), axis=-1).data.sum(axis=-1)
            assert np.all(np.abs(rows - 1.0) <= 1e-6), "softmax rows"
            tokens = rng.standard_normal((6, 8)).astype(np.float32)
            w_q = rng.standard_normal((8, 4)).astype(np.float32)
            w_k = rng.standard_normal((8, 4)).astype(np.float32)
            scores = (tokens @ w_q) @ (tokens @ w_k).T / 2.0
            rows = T.softmax(T.const(scores), axis=-1).data.sum(axis=-1)
            assert np.all(np.abs(rows - 1.0) <= 1e-6), "attention rows"

            # Dice loss stays within [0, 1]
            probs = T.softmax(T.const(rng.standard_normal((2, 3, 4, 4)) * 3),
                              axis=1)
            truth = np.eye(3, dtype=np.float32)[
                rng.integers(0, 3, (2, 4, 4))].transpose(0, 3, 1, 2)
            val = hd.dice_loss(probs, T.const(truth)).item()
            assert 0.0 <= val <= 1.0, f"dice loss {val} outside [0, 1]"

            # channel attention never grows a feature's magnitude
            p = bb.ChannelAttentionParams(
                w1=T.const(rng.standard_normal((6, 2))),
                w2=T.const(rng.standard_normal((2, 6))))
            f = rng.standard_normal((3, 6)).astype(np.float32)
            out = bb.channel_attention(T.const(f), p).data
            assert np.all(np.abs(out) <= np.abs(f) + 1e-12), \
                "channel attention grew a feature"

            # pooled GNN output is invariant to node relabeling
            feats = rng.standard_normal((6, 5)).astype(np.float32)
            g = bb.build_plant_graph(T.const(feats), (2, 3))
            layers = [T.const(rng.standard_normal((5, 4))),
                      T.const(rng.standard_normal((4, 3)))]
            pooled = bb.gnn_forward(g, layers).data
            perm = rng.permutation(6)
            inv = np.argsort(perm)
            adj_p = g.adjacency.data[np.ix_(perm, perm)]
            neigh_p = tuple(tuple(int(inv[j]) for j in g.neighbors[p_])
                            for p_ in perm)
            g_p = bb.PlantGraph(node_features=T.const(feats[perm]),
                                adjacency=T.const(adj_p), neighbors=neigh_p,
                                grid=(2, 3))
            pooled_p = bb.gnn_forward(g_p, layers).data
            np.testing.assert_allclose(pooled_p, pooled, atol=1e-6,
                                       err_msg="GNN permutation invariance")

            # self-attention is equivariant to token permutation
            e, blk = _tiny_msa(rng, n_heads=2, d_k=2, n_tokens=5)
            out = T.attention(e, blk).data
            tperm = rng.permutation(5)
            out_p = T.attention(
                T.const(e.data[:, tperm]), blk).data
            np.testing.assert_allclose(out_p, out[:, tperm], atol=1e-6,
                                       err_msg="MSA permutation equivariance")
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(2, "invariants (softmax rows, dice range, channel-attention "
                "contraction, GNN invariance, MSA equivariance), 20 trials each",
             ok, detail)


# ---------------------------------------------------------------------------
# criterion 3: dual-route agreement against independent oracles


def _oracle_conv(rng):
    for _ in range(50):
        c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        kh = int(rng.integers(1, min(h, 3) + 1))
        kw = int(rng.integers(1, min(w, 3) + 1))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        x = rng.standard_normal((1, c_in, h, w)).astype(np.float32)
        k = rng.standard_normal((c_out, c_in, kh, kw)).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        fast = T.conv2d(T.const(x), T.const(k), stride=stride, padding=pad,
                        bias=T.const(b)).data[0]
        slow = oracles.conv2d_loops(x[0], k, stride=stride, padding=pad, bias=b)
        assert np.max(np.abs(fast - slow)) <= 1e-5, "conv2d vs loops"


def _oracle_median(rng):
    for _ in range(50):
        h, w = int(rng.integers(4, 13)), int(rng.integers(4, 13))
        window = 3 if rng.integers(0, 2) == 0 else 5
        arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        fast = ig.median_filter(arr, window)
        slow = oracles.median_filter_loops(arr, window)
        assert np.array_equal(fast, slow), "median filter vs loops"


def _oracle_clahe(rng):
    for _ in range(50):
        h, w = int(rng.integers(8, 21)), int(rng.integers(8, 21))
        tile = int(rng.integers(2, 5))
        clip = float(rng.uniform(1.5, 4.0))
        arr = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        fast = ig.adaptive_hist_eq(arr, tile=tile, clip=clip)
        slow = oracles.clahe_loops(arr, grid=tile, clip=clip)
        assert np.array_equal(fast, slow), "CLAHE vs loops"


def _oracle_metrics(rng):
    for _ in range(50):
        n, k = int(rng.integers(20, 80)), 4
        labels = rng.integers(0, k, n)
        preds = np.where(rng.uniform(size=n) < 0.7, labels,
                         rng.integers(0, k, n))
        rep = tr.classification_metrics(labels, preds, k)
        ref = oracles.metrics_recount(labels, preds, k)
        assert np.array_equal(rep.confusion, ref["confusion"])
        for field in ("precision", "recall", "f1"):
            np.testing.assert_allclose(getattr(rep, field), ref[field],
                                       atol=1e-12)
        assert np.array_equal(rep.support, ref["support"])
        assert abs(rep.accuracy - ref["accuracy"]) <= 1e-12

        pred_masks = rng.integers(0, k, (2, 6, 6))
        true_masks = rng.integers(0, k, (2, 6, 6))
        miou, per_class, _ = tr.mean_iou(pred_masks, true_masks, k)
        ref_miou, ref_ious = oracles.miou_loops(pred_masks, true_masks, k)
        assert abs(miou - ref_miou) <= 1e-12
        np.testing.assert_allclose(per_class, ref_ious, atol=1e-12)


def _oracle_ntxent(rng):
    for _ in range(50):
        b = 2 * int(rng.integers(1, 4))
        raw = rng.standard_normal((b, 3))
        tau = float(rng.uniform(0.3, 2.0))
        fast = pn.nt_xent_loss(
            pn.l2_normalize_rows(T.const(raw.astype(np.float32))), tau).item()
        slow = oracles.ntxent_scalar(raw, tau)
        assert abs(fast - slow) <= 1e-5, f"nt-xent {fast} vs {slow}"


def _oracle_quantize(rng):
    for i in range(50):
        size = int(rng.integers(1, 40))
        values = rng.standard_normal(size) * 10.0 ** float(rng.integers(-3, 4))
        if i % 7 == 0:
            values[rng.integers(0, size)] = 0.0
        q = dp.quantize(values.astype(np.float32))
        codes, scale = oracles.quantize_scalar(values.astype(np.float32))
        assert np.array_equal(q.codes, codes), "int8 codes vs scalar oracle"
        assert abs(q.scale - scale) <= 1e-15 * max(1.0, abs(scale))
        err = np.abs(dp.dequantize(q).astype(np.float64)
                     - values.astype(np.float32).astype(np.float64))
        assert np.max(err) <= q.scale / 2 + 1e-12, "roundtrip error bound"


def test_criterion_3_oracles():
    routes = {
        "conv2d": _oracle_conv,
        "median": _oracle_median,
        "clahe": _oracle_clahe,
        "metrics+miou": _oracle_metrics,
        "nt-xent": _oracle_ntxent,
        "quantize": _oracle_quantize,
    }
    ok, detail = True, ""
    try:
        for i, check in enumerate(routes.values()):
            check(np.random.default_rng([3, i]))
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(3, f"dual-route agreement vs independent oracles, "
                f"{len(routes)} routes x 50 instances "
                "(exact for integer paths, 1e-5 float)", ok, detail)


# ---------------------------------------------------------------------------
# criterion 4: metrics spot values and stratified fold arithmetic


def test_criterion_4_metrics_and_folds():
    ok, detail = True, ""
    acc = 0.0
    try:
        labels = np.repeat(np.arange(4), 150)
        preds = labels.copy()
        preds[[10, 310, 470, 599]] = (preds[[10, 310, 470, 599]] + 1) % 4
        acc = tr.classification_metrics(labels, preds, 4).accuracy
        assert abs(acc - 0.9933) <= 1e-4, f"596/600 accuracy {acc:.6f}"

        supports = (164, 163, 140, 133)
        labels = np.concatenate(
            [np.full(s, c, dtype=np.int64) for c, s in enumerate(supports)])
        labels = labels[np.random.default_rng(4).permutation(labels.size)]
        plan = tr.stratified_folds(labels, k=5, seed=4)
        seen = []
        for fold in range(5):
            idx = plan.fold_indices(fold)
            assert idx.size == 120, f"fold {fold} holds {idx.size}, wanted 120"
            seen.append(idx)
            counts = np.bincount(labels[idx], minlength=4)
            for c, s in enumerate(supports):
                assert abs(counts[c] - s / 5.0) <= 1.0, \
                    f"fold {fold} class {c}: {counts[c]} vs {s}/5"
        assert np.array_equal(np.sort(np.concatenate(seen)),
                              np.arange(labels.size)), "folds must partition"
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(4, f"596/600 accuracy {acc:.6f} (within 1e-4 of 0.9933); "
                "supports (164,163,140,133) -> five folds of exactly 120, "
                "per-class deviation <= 1", ok, detail)


# ---------------------------------------------------------------------------
# criterion 5: end-to-end training on the synthetic field set


def test_criterion_5_training(dataset400, trained400):
    result, seconds = trained400["result"], trained400["seconds"]
    ok, detail = True, ""
    acc = miou = 0.0
    violations = -1
    try:
        report = tr.evaluate(result.params, result.heads, dataset400["data"])
        acc, miou = report.accuracy, report.mean_iou
        epochs = len(result.history)
        losses = np.asarray([s.l_total for s in result.history])
        ma = np.convolve(losses, np.ones(10) / 10.0, mode="valid")
        violations = int(np.sum(np.diff(ma) > 1e-9))
        assert acc >= 0.95, f"train accuracy {acc:.4f} < 0.95"
        assert miou >= 0.60, f"mean IoU {miou:.4f} < 0.60"
        assert epochs <= 200, f"{epochs} epochs > 200"
        assert seconds < 900.0, f"training took {seconds:.0f}s (budget 900s)"
        assert violations == 0, \
            f"10-epoch loss moving average rose {violations} time(s)"
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(5, f"400-sample training: accuracy {acc:.4f} (>=0.95), "
                f"mIoU {miou:.4f} (>=0.60), {len(result.history)} epochs, "
                f"{seconds:.0f}s, {violations} moving-average violations",
             ok, detail)


# ---------------------------------------------------------------------------
# criterion 6: GAN smoke training and class rebalancing


def _gan_smoke_inputs():
    images, labels = [], []
    for i in range(32):
        label = i % len(sd.CLASS_NAMES)
        img, _, _ = sd.generate_sample(label, (8, 8),
                                       np.random.default_rng([1, label, i]))
        images.append(img)
        labels.append(label)
    return gn.to_unit_range(np.stack(images)), np.asarray(labels)


def test_criterion_6_gan(tmp_path):
    ok, detail = True, ""
    seconds = 0.0
    history = []
    counts = np.zeros(4, dtype=int)
    try:
        cfg = gn.GanConfig(latent_dim=32, image_size=(8, 8), epochs=50,
                           batch=16, base_channels=16, lr=2e-4)
        stack, labels = _gan_smoke_inputs()
        start = time.monotonic()
        params, history = gn.train_gan(stack, labels, cfg, seed=1)
        seconds = time.monotonic() - start
        assert seconds < 60.0, f"smoke run took {seconds:.1f}s (budget 60s)"
        assert np.isfinite(np.asarray(history)).all(), "losses went non-finite"
        params2, history2 = gn.train_gan(stack, labels, cfg, seed=1)
        assert history == history2, "loss history not seed-reproducible"
        for a, b in zip(T.leaves(params), T.leaves(params2), strict=True):
            assert np.array_equal(a.data, b.data), "weights not reproducible"

        # rebalance the historical 48/138/126/288 split through the CLI
        data_dir = tmp_path / "imbalanced"
        rc, _ = _cli(["gen-data", "--out", str(data_dir), "--imbalance",
                      "--size", "16", "--seed", "2"])
        assert rc == 0, "gen-data failed"
        gan_path = str(tmp_path / "gan.hwdm")
        dp.save_gan(gan_path, params)
        out_dir = tmp_path / "balanced"
        rc, _ = _cli(["augment", "--manifest", str(data_dir / "manifest.tsv"),
                      "--gan", gan_path, "--out", str(out_dir), "--seed", "3"])
        assert rc == 0, "augment failed"

        balanced = dio.read_manifest(str(out_dir / "manifest.tsv"))
        counts = np.bincount([s.label for s in balanced], minlength=4)
        assert np.all(counts == 288), f"class counts {counts.tolist()}"
        originals = [s for s in balanced if not s.synthetic]
        assert len(originals) == 600 and sum(s.synthetic for s in balanced) == 552
        source = dio.read_manifest(str(data_dir / "manifest.tsv"))
        assert [s.image for s in originals] == [s.image for s in source], \
            "original order disturbed"
        for s in originals:
            for rel in (s.image, s.mask):
                with open(out_dir / rel, "rb") as fh_out, \
                        open(data_dir / rel, "rb") as fh_in:
                    assert fh_out.read() == fh_in.read(), f"{rel} was altered"
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    d0, g0 = (history[0] if history else (0.0, 0.0))
    d1, g1 = (history[-1] if history else (0.0, 0.0))
    _verdict(6, f"GAN smoke {seconds:.1f}s (d {d0:.3f}->{d1:.3f}, "
                f"g {g0:.3f}->{g1:.3f}), reproducible; rebalance 600 -> "
                f"counts {counts.tolist()} with originals untouched", ok, detail)


# ---------------------------------------------------------------------------
# criterion 7: checkpoint roundtrip, quantization bounds, agreement


def test_criterion_7_deployment(dataset400, trained400, tmp_path):
    result = trained400["result"]
    data = dataset400["data"]
    ok, detail = True, ""
    agree, drift = 0.0, 0.0
    try:
        path_a = str(tmp_path / "model.hwdm")
        dp.save_model(path_a, result.params, result.heads)
        params2, heads2, flags = dp.load_model(path_a)
        assert flags == dp.FLAG_FULL
        before = T.leaves((result.params, result.heads))
        after = T.leaves((params2, heads2))
        for i, (t_a, t_b) in enumerate(zip(before, after, strict=True)):
            assert t_a.data.dtype == t_b.data.dtype
            assert np.array_equal(t_a.data, t_b.data), f"tensor {i} not bit-exact"
        path_b = str(tmp_path / "model2.hwdm")
        dp.save_model(path_b, params2, heads2)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read(), "re-serialization not byte-identical"

        # per-tensor int8 error bound: |x - dq(q(x))| <= scale / 2
        entries = dp.model_entries(result.params, result.heads)
        quantized = dp.quantize_entries(entries)
        for name, value in quantized.items():
            if name.startswith("meta."):
                continue
            err = np.abs(entries[name].astype(np.float64)
                         - dp.dequantize(value).astype(np.float64))
            assert np.max(err) <= value.scale / 2 + 1e-12, \
                f"{name} exceeds the int8 error bound"

        # top-1 agreement on the held-out stratified fifth
        _, eval_idx = tr.stratified_folds(data.labels, k=5, seed=0).split(0)
        qsource = (quantized, dp.FLAG_FULL | dp.FLAG_QUANTIZED)
        matches, drifts = 0, []
        for i in eval_idx:
            float_pred = hd.predict(result.params, result.heads,
                                    T.const(data.images[i:i + 1]))
            q_pred = dp.quantized_forward(qsource, data.images[i:i + 1])
            matches += int(float_pred.labels[0] == q_pred.labels[0])
            drifts.append(np.max(np.abs(float_pred.class_probs.data[0]
                                        - q_pred.class_probs.data[0])))
        agree = matches / eval_idx.size
        drift = float(np.max(drifts))
        assert agree >= 0.95, f"agreement {agree:.3f} < 0.95"
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(7, f"checkpoint bit-exact roundtrip; int8 error within scale/2 "
                f"everywhere; quantized top-1 agreement {agree:.3f} (>=0.95), "
                f"max prob drift {drift:.1e}", ok, detail)


# ---------------------------------------------------------------------------
# criterion 8: CLI determinism, byte-for-byte


TINY_CONF = """\
seed = 5
folds.k = 2
optimizer.epochs = 3
optimizer.lr = 0.002
optimizer.batch = 8
gan.epochs = 2
gan.image_size = 16
gan.latent_dim = 12
gan.base_channels = 6
gan.batch = 8
ssl.epochs = 2
ssl.batch_pairs = 4
ssl.projection_dim = 8
"""


def test_criterion_8_determinism(tmp_path):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    ok, detail = True, ""
    commands = 0
    try:
        def twice(argv, outs):
            """Run argv once per output slot; compare artifact bytes+stdout."""
            snapshots = []
            for out in outs:
                os.makedirs(out, exist_ok=True)
                patched = [a.replace("{out}", str(out)) for a in argv]
                rc, text = _cli(patched)
                assert rc == 0, f"{patched[0]} exited {rc}"
                snapshots.append((_dir_bytes(out), text.replace(str(out), "")))
            assert snapshots[0] == snapshots[1], f"{argv[0]} not deterministic"

        data = [tmp_path / f"data{i}" for i in (1, 2)]
        twice(["gen-data", "--out", "{out}", "--per-class", "4",
               "--size", "16", "--seed", "5"], data)
        manifest = str(data[0] / "manifest.tsv")
        commands += 1

        twice(["preprocess", "--manifest", manifest, "--out", "{out}",
               "--config", str(conf)],
              [tmp_path / f"prep{i}" for i in (1, 2)])
        commands += 1

        gans = [tmp_path / f"gan{i}" for i in (1, 2)]
        twice(["gan-train", "--manifest", manifest,
               "--out", "{out}/gan.hwdm", "--config", str(conf)], gans)
        commands += 1

        twice(["augment", "--manifest", manifest,
               "--gan", str(gans[0] / "gan.hwdm"), "--out", "{out}",
               "--config", str(conf)],
              [tmp_path / f"aug{i}" for i in (1, 2)])
        commands += 1

        twice(["pretrain", "--manifest", manifest, "--out", "{out}/ssl.hwdm",
               "--config", str(conf)],
              [tmp_path / f"ssl{i}" for i in (1, 2)])
        commands += 1

        trains = [tmp_path / f"train{i}" for i in (1, 2)]
        twice(["train", "--manifest", manifest, "--out", "{out}",
               "--config", str(conf)], trains)
        model = str(trains[0] / "model.hwdm")
        commands += 1

        twice(["eval", "--manifest", manifest, "--model", model,
               "--out", "{out}", "--config", str(conf)],
              [tmp_path / f"eval{i}" for i in (1, 2)])
        commands += 1

        twice(["quantize", "--model", model, "--out", "{out}/q.hwdm",
               "--prune-fraction", "0.25", "--config", str(conf)],
              [tmp_path / f"quant{i}" for i in (1, 2)])
        commands += 1

        sample = dio.read_manifest(manifest)[0]
        image = str(data[0] / sample.image)
        outs = []
        for _ in range(2):
            rc, text = _cli(["infer", "--model",
                             str(tmp_path / "quant1" / "q.hwdm"),
                             "--image", image])
            assert rc == 0, "infer failed"
            outs.append(text)
        assert outs[0] == outs[1], "infer output not deterministic"
        commands += 1
    except Exception as exc:
        ok, detail = False, _first_line(exc)
    _verdict(8, f"{commands}/9 CLI commands re-run byte-identical "
                "(artifacts and stdout) under a fixed seed", ok, detail)
