"""Conditional GAN: generation, discrimination, training dynamics, rebalance."""

import hashlib

import numpy as np
import pytest

import weedhybrid.deploy as dp
import weedhybrid.gan as G
import weedhybrid.tensor as T
from weedhybrid.errors import ContractError, DimensionError, DivergenceError
from weedhybrid.training import init_optimizer

from helpers import checkpoint_bytes, gradcheck, named_leaves, peak_traced_bytes
from oracles import rebalance_per_sample


def tiny_config(**kw):
    """Smallest legal geometry so gradient checks stay fast."""
    base = dict(latent_dim=6, class_count=3, image_size=(8, 8),
                base_channels=4, label_dim=5, batch=4, epochs=2)
    base.update(kw)
    return G.GanConfig(**base)


def tiny_gan(seed=0, **kw):
    cfg = tiny_config(**kw)
    return cfg, G.init_gan(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------- config


def test_config_rejects_bad_geometry():
    with pytest.raises(ContractError):
        G.GanConfig(image_size=(30, 32))
    with pytest.raises(ContractError):
        G.GanConfig(latent_dim=0)
    with pytest.raises(ContractError):
        G.GanConfig(class_count=0)


def test_default_config_matches_pipeline_shape():
    cfg = G.GanConfig()
    assert cfg.latent_dim == 128
    assert cfg.class_count == 4
    assert cfg.image_size == (32, 32)
    assert cfg.epochs == 50
    assert cfg.seed_hw == (8, 8)


# ---------------------------------------------------------------- generator


def test_generate_shape_and_range():
    cfg, params = tiny_gan()
    z = T.const(np.random.default_rng(1).standard_normal((5, cfg.latent_dim)))
    out = G.generate(z, np.array([0, 1, 2, 0, 1]), params)
    assert out.shape == (5, 3, 8, 8)
    assert np.all(out.data > -1.0) and np.all(out.data < 1.0)


def test_generate_single_sample_matches_batch():
    cfg, params = tiny_gan()
    z = np.random.default_rng(2).standard_normal((3, cfg.latent_dim))
    batch = G.generate(T.const(z), np.array([2, 0, 1]), params)
    for i, cls in enumerate([2, 0, 1]):
        one = G.generate(T.const(z[i:i + 1]), [cls], params)
        assert one.shape == (1, 3, 8, 8)
        np.testing.assert_array_equal(one.data[0], batch.data[i])


def test_generate_is_deterministic():
    cfg, params = tiny_gan()
    z = T.const(np.random.default_rng(3).standard_normal((1, cfg.latent_dim)))
    a = G.generate(z, [1], params).data
    b = G.generate(z, [1], params).data
    np.testing.assert_array_equal(a, b)


def test_generate_depends_on_label():
    cfg, params = tiny_gan()
    z = T.const(np.random.default_rng(4).standard_normal((1, cfg.latent_dim)))
    a = G.generate(z, [0], params).data
    b = G.generate(z, [2], params).data
    assert not np.array_equal(a, b)


def test_generate_rejects_bad_label_and_dim():
    cfg, params = tiny_gan()
    z = T.const(np.zeros((1, cfg.latent_dim)))
    with pytest.raises(ContractError):
        G.generate(z, [cfg.class_count], params)
    with pytest.raises(ContractError):
        G.generate(z, [-1], params)
    with pytest.raises(DimensionError):
        G.generate(T.const(np.zeros((1, cfg.latent_dim + 1))), [0], params)


def test_generator_gradcheck():
    cfg, params = tiny_gan(seed=7)
    rng = np.random.default_rng(8)
    z64 = rng.standard_normal((2, cfg.latent_dim))
    labels = np.array([0, 2])
    with T.default_dtype(np.float64):
        params64 = G.init_gan(cfg, np.random.default_rng(7))
        plist = T.leaves(params64.g)

        def loss_fn():
            out = G.generate(T.const(z64), labels, params64)
            return T.sum_(T.mul(out, out))

        # eps small enough that no relu pre-activation crosses its kink
        gradcheck(loss_fn, plist, eps=1e-5, rtol=1e-3)


# ---------------------------------------------------------------- discriminator


def test_discriminate_outputs_probability():
    cfg, params = tiny_gan()
    x = T.const(np.random.default_rng(5).uniform(-1, 1, (4, 3, 8, 8)))
    p = G.discriminate(x, np.array([0, 1, 2, 0]), params)
    assert p.shape == (4,)
    assert np.all(p.data > 0.0) and np.all(p.data < 1.0)


def test_discriminate_zero_weights_give_half():
    cfg, params = tiny_gan()
    for t in T.leaves(params.d):
        t.data = np.zeros_like(t.data)
    x = T.const(np.random.default_rng(6).uniform(-1, 1, (3, 3, 8, 8)))
    p = G.discriminate(x, np.array([0, 1, 2]), params)
    np.testing.assert_allclose(p.data, 0.5, atol=1e-12)


def test_discriminate_rejects_wrong_size():
    cfg, params = tiny_gan()
    with pytest.raises(DimensionError):
        G.discriminate(T.const(np.zeros((1, 3, 8, 10))), [0], params)


def test_discriminator_gradcheck():
    cfg, params = tiny_gan(seed=9)
    rng = np.random.default_rng(10)
    x64 = rng.uniform(-1, 1, (2, 3, 8, 8))
    labels = np.array([1, 2])
    with T.default_dtype(np.float64):
        params64 = G.init_gan(cfg, np.random.default_rng(9))
        plist = T.leaves(params64.d)

        def loss_fn():
            logit = G._disc_logit(T.const(x64), labels, params64)
            return T.sum_(T.softplus(logit))

        gradcheck(loss_fn, plist, eps=1e-5, rtol=1e-3)


def test_discriminator_input_gradient_matches_fd():
    """d loss / d image agrees with central differences."""
    cfg, _ = tiny_gan(seed=11)
    rng = np.random.default_rng(12)
    with T.default_dtype(np.float64):
        params = G.init_gan(cfg, np.random.default_rng(11))
        x = T.Tensor(rng.uniform(-0.5, 0.5, (1, 3, 8, 8)), requires_grad=True)

        def loss_fn():
            return T.sum_(T.softplus(G._disc_logit(x, [0], params)))

        gradcheck(loss_fn, [x], rtol=1e-3)


# ---------------------------------------------------------------- training


def test_train_step_with_zero_lr_keeps_parameters():
    cfg, params = tiny_gan(seed=13)
    before = {n: t.data.copy() for n, t in named_leaves(G.build_gan, cfg, params)}
    d_state = init_optimizer(T.leaves(params.d), 0.0)
    g_state = init_optimizer(T.leaves(params.g), 0.0)
    real = T.const(np.random.default_rng(14).uniform(-1, 1, (4, 3, 8, 8)))
    d_loss, g_loss = G.gan_train_step(real, np.array([0, 1, 2, 0]), params,
                                      d_state, g_state,
                                      np.random.default_rng(15))
    assert np.isfinite(d_loss) and np.isfinite(g_loss)
    assert params.trained_steps == 1
    for name, t in named_leaves(G.build_gan, cfg, params):
        assert t.data.tobytes() == before[name].tobytes(), name


def test_train_step_memory_is_bounded():
    # each tape drops its records as its backward walks them, and Adam runs
    # over cache-sized blocks; with whole-array Adam temporaries and the
    # records held until the step returned, this step peaked at 39.1 MiB
    cfg = G.GanConfig()
    rng = np.random.default_rng(16)
    params = G.init_gan(cfg, rng)
    d_state = init_optimizer(T.leaves(params.d), cfg.lr)
    g_state = init_optimizer(T.leaves(params.g), cfg.lr)
    real = T.const(rng.uniform(-1, 1, (cfg.batch, 3) + cfg.image_size))
    labels = np.arange(cfg.batch) % cfg.class_count
    peak = peak_traced_bytes(lambda: G.gan_train_step(real, labels, params, d_state,
                                                      g_state, rng))
    assert peak <= 30 << 20


def test_train_step_divergence_names_the_adversarial_step():
    cfg, params = tiny_gan(seed=21)
    params.d.conv1.data[...] = 3e38
    d_state = init_optimizer(T.leaves(params.d), 1e-3)
    g_state = init_optimizer(T.leaves(params.g), 1e-3)
    real = T.const(np.random.default_rng(22).uniform(-1, 1, (4, 3, 8, 8)))
    with pytest.raises(DivergenceError) as exc_info:
        G.gan_train_step(real, np.array([0, 1, 2, 0]), params, d_state, g_state,
                         np.random.default_rng(23))
    assert exc_info.value.component == "adversarial"
    assert params.trained_steps == 0


def test_train_step_names_the_backward_that_overflows():
    # the forward stays finite, but the discriminator's backward overflows
    # float32: its cast warned, and Adam was named for the inf it then read
    cfg, params = tiny_gan(seed=21)
    params.d.fc_w.data[...] = 3e38
    d_state = init_optimizer(T.leaves(params.d), 1e-3)
    g_state = init_optimizer(T.leaves(params.g), 1e-3)
    real = T.const(np.random.default_rng(22).uniform(-1, 1, (4, 3, 8, 8)))
    with pytest.raises(DivergenceError, match=r"^adversarial diverged: non-finite "
                       r"values \(backward produced non-finite values\)$"):
        G.gan_train_step(real, np.array([0, 1, 2, 0]), params, d_state, g_state,
                         np.random.default_rng(23))
    assert params.trained_steps == 0


def test_train_step_runs_the_generator_once(monkeypatch):
    # the discriminator step nests inside the generator step, so one taped
    # generator output serves both losses
    calls = []
    generate = G.generate

    def counted(*args):
        calls.append(args[0].shape[0])
        return generate(*args)

    monkeypatch.setattr(G, "generate", counted)
    cfg = tiny_config(epochs=2, batch=4)
    rng = np.random.default_rng(24)
    params, _ = G.train_gan(rng.uniform(-1, 1, (6, 3, 8, 8)), rng.integers(0, 3, 6),
                            cfg, seed=5)
    assert params.trained_steps == 4
    assert calls == [4, 2, 4, 2]


def test_train_step_rejects_empty_batch():
    cfg, params = tiny_gan()
    d_state = init_optimizer(T.leaves(params.d), 1e-3)
    g_state = init_optimizer(T.leaves(params.g), 1e-3)
    with pytest.raises(ContractError):
        G.gan_train_step(T.const(np.zeros((0, 3, 8, 8))), np.array([], dtype=int),
                         params, d_state, g_state, np.random.default_rng(0))


def test_discriminator_only_steps_reduce_d_loss():
    """With the generator frozen, repeated D updates must fit the toy set."""
    cfg, params = tiny_gan(seed=16)
    rng = np.random.default_rng(17)
    real = T.const(rng.uniform(-1, 1, (2, 3, 8, 8)))
    labels = np.array([0, 1])
    d_state = init_optimizer(T.leaves(params.d), 5e-3)
    g_state = init_optimizer(T.leaves(params.g), 0.0)
    first = last = None
    for step in range(200):
        d_loss, _ = G.gan_train_step(real, labels, params, d_state, g_state,
                                     np.random.default_rng([18, step]))
        if first is None:
            first = d_loss
        last = d_loss
    assert last < 0.5 * first, (first, last)


def test_train_gan_smoke_finite_and_reproducible():
    cfg = tiny_config(epochs=5, batch=4)
    rng = np.random.default_rng(19)
    images = rng.uniform(-1, 1, (8, 3, 8, 8))
    labels = rng.integers(0, cfg.class_count, 8)
    params_a, hist_a = G.train_gan(images, labels, cfg, seed=3)
    params_b, hist_b = G.train_gan(images, labels, cfg, seed=3)
    assert len(hist_a) == cfg.epochs
    assert all(np.isfinite(d) and np.isfinite(g) for d, g in hist_a)
    assert hist_a == hist_b
    for (name, ta), tb in zip(named_leaves(G.build_gan, cfg, params_a),
                              T.leaves(params_b), strict=True):
        assert ta.data.tobytes() == tb.data.tobytes(), name
    assert params_a.trained_steps == cfg.epochs * 2


def test_train_gan_rejects_a_label_count_unlike_the_image_count():
    # three labels for eight images ended in "index 3 is out of bounds for
    # axis 0 with size 3" from the first batch
    cfg = tiny_config(epochs=1, batch=4)
    images = np.zeros((8, 3, 8, 8))
    with pytest.raises(ContractError, match="3 labels for 8 images"):
        G.train_gan(images, np.zeros(3, dtype=np.int64), cfg)


def test_train_gan_different_seeds_differ():
    cfg = tiny_config(epochs=2, batch=4)
    rng = np.random.default_rng(20)
    images = rng.uniform(-1, 1, (4, 3, 8, 8))
    labels = rng.integers(0, cfg.class_count, 4)
    _, hist_a = G.train_gan(images, labels, cfg, seed=0)
    _, hist_b = G.train_gan(images, labels, cfg, seed=1)
    assert hist_a != hist_b


def test_train_gan_and_rebalance_bytes_are_pinned():
    # SHA-256 over a short seeded run: the trained checkpoint, the loss
    # history and the images rebalance draws from the trained generator
    cfg = G.GanConfig(latent_dim=8, class_count=2, image_size=(16, 16),
                      epochs=3, batch=4, base_channels=4, label_dim=4)
    rng = np.random.default_rng(31)
    images = rng.uniform(-1, 1, (10, 3, 16, 16)).astype(np.float32)
    labels = np.arange(10) % 2
    params, history = G.train_gan(images, labels, cfg, seed=3)
    # three originals, then the synthetic images that top them up to 4 a class
    originals = G.to_uint8(images[:3])
    synthetic, synthetic_labels = collected(G.rebalance(np.bincount(labels[:3]), 4,
                                                        params, seed=4))
    digest = hashlib.sha256(checkpoint_bytes(dp.gan_entries(params),
                                             flags=dp.FLAG_GAN))
    digest.update(np.asarray(history, dtype=np.float64).tobytes())
    for pixels, label in zip(originals, labels[:3]):
        digest.update(pixels.tobytes() + bytes([label, False]))
    for pixels, label in zip(synthetic, synthetic_labels):
        digest.update(pixels.tobytes() + bytes([label, True]))
    assert len(originals) + len(synthetic) == 8
    assert digest.hexdigest() == (
        "778880420593eca65340faff93b784b4caed110f85e5852942bf61baf751c8a6")


# ---------------------------------------------------------------- image scale


def test_unit_range_roundtrip():
    rng = np.random.default_rng(21)
    stack = rng.integers(0, 256, (2, 8, 8, 3), dtype=np.uint8)
    unit = G.to_unit_range(stack)
    assert unit.shape == (2, 3, 8, 8) and unit.dtype == np.float32
    assert unit.min() >= -1.0 and unit.max() <= 1.0
    np.testing.assert_array_equal(G.to_uint8(unit), stack)


def test_to_uint8_clips_out_of_range():
    x = np.zeros((1, 3, 2, 2), dtype=np.float32)
    x[0, 0] = -1.5
    x[0, 1] = 1.5
    out = G.to_uint8(x)
    assert out.shape == (1, 2, 2, 3) and out.dtype == np.uint8
    assert out[..., 0].max() == 0
    assert out[..., 1].min() == 255


# ---------------------------------------------------------------- rebalance


def collected(chunks):
    """rebalance's (label, images) chunks as one list of images and one of
    labels, in order."""
    images, labels = [], []
    for label, stack in chunks:
        images += list(stack)
        labels += [label] * len(stack)
    return images, labels


def trained_stub(seed=0):
    """A params object with the trained flag set but no real training."""
    cfg, params = tiny_gan(seed=seed)
    params.trained_steps = 1
    return cfg, params


def test_rebalance_requires_training():
    cfg, params = tiny_gan()
    with pytest.raises(ContractError, match="requires a trained generator"):
        G.rebalance([1, 1, 1], 2, params)


def test_rebalance_needs_one_count_per_class():
    cfg, params = trained_stub()
    with pytest.raises(ContractError, match="2 class counts for a generator of 3 classes"):
        G.rebalance([1, 1], 2, params)


def test_rebalance_tops_up_minority_classes():
    cfg, params = trained_stub()
    chunks = list(G.rebalance([6, 2, 4], 6, params, seed=5))
    assert [(label, images.shape, images.dtype) for label, images in chunks] == [
        (1, (4,) + cfg.image_size + (3,), np.uint8),
        (2, (2,) + cfg.image_size + (3,), np.uint8)]


def test_rebalance_balanced_input_makes_no_synthetics():
    cfg, params = trained_stub(seed=4)
    assert list(G.rebalance([2, 2, 2], 2, params, seed=8)) == []


def test_rebalance_respects_per_class_targets_and_out_size():
    cfg, params = trained_stub(seed=5)
    images, labels = collected(G.rebalance([1, 0, 3], 3, params, seed=10,
                                           out_size=(16, 16)))
    assert labels == [0, 0, 1, 1, 1]
    assert np.shape(images) == (5, 16, 16, 3)


def test_rebalance_is_deterministic():
    cfg, params = trained_stub(seed=6)
    a, labels_a = collected(G.rebalance([2, 0, 1], 2, params, seed=12))
    b, labels_b = collected(G.rebalance([2, 0, 1], 2, params, seed=12))
    assert labels_a == labels_b == [1, 1, 2]
    assert np.array(a).tobytes() == np.array(b).tobytes()


@pytest.fixture(scope="module")
def six_class_gan():
    """A briefly trained six-class generator, one class per need below."""
    cfg = tiny_config(class_count=6, epochs=2)
    rng = np.random.default_rng(23)
    images = rng.uniform(-1, 1, (12, 3, 8, 8))
    params, _ = G.train_gan(images, np.arange(12) % 6, cfg, seed=7)
    return cfg, params


@pytest.mark.parametrize("chunk", [1, 5, 16, 64])
@pytest.mark.parametrize("out_size", [None, (12, 12)])
def test_rebalance_matches_per_sample_oracle(six_class_gan, monkeypatch, chunk,
                                             out_size):
    # needs 0, 1, 15, 16, 17 and 40 at target 40: empty, single-row,
    # partial, exact and multi-chunk classes
    cfg, params = six_class_gan
    counts = [40, 39, 25, 24, 23, 0]
    want = rebalance_per_sample(counts, 40, params, seed=9, out_size=out_size)
    calls = []
    generate = G.generate

    def counted(z, label, p):
        calls.append(sorted(set(label)))
        return generate(z, label, p)

    monkeypatch.setattr(G, "_SAMPLE_CHUNK", chunk)
    monkeypatch.setattr(G, "generate", counted)
    images, labels = collected(G.rebalance(counts, 40, params, seed=9,
                                           out_size=out_size))
    assert len(images) == len(labels) == len(want) == 89
    for pixels, label, (img, cls) in zip(images, labels, want):
        assert label == cls
        assert pixels.tobytes() == img.tobytes()
    needs = [0, 1, 15, 16, 17, 40]
    assert len(calls) == sum(-(-need // chunk) for need in needs)
    assert all(len(labels) == 1 for labels in calls)


def test_rebalance_generates_each_chunk_when_it_is_asked_for(six_class_gan,
                                                             monkeypatch):
    # augment writes each chunk before the next one is generated, so it
    # holds one chunk however many images it makes
    cfg, params = six_class_gan
    calls = []
    generate = G.generate

    def counted(z, label, p):
        calls.append(z.shape[0])
        return generate(z, label, p)

    monkeypatch.setattr(G, "generate", counted)
    chunks = G.rebalance([40, 39, 25, 24, 23, 0], 40, params, seed=9)
    assert calls == []
    label, images = next(chunks)
    assert (label, len(images), calls) == (1, 1, [1])
    label, images = next(chunks)
    assert (label, len(images), calls) == (2, 15, [1, 15])
