import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from helpers import peak_traced_bytes
from weedhybrid import imaging as im
from weedhybrid.errors import ContractError, DimensionError, FormatError


def _rand_img(rng, h, w, c):
    return im.ImageU8.from_array(rng.integers(0, 256, size=(h, w, c), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Container and file I/O


def test_image_invariants():
    with pytest.raises(ContractError):
        im.ImageU8(2, 2, 1, b"\x00" * 3)
    with pytest.raises(ContractError):
        im.ImageU8(2, 2, 2, b"\x00" * 8)
    with pytest.raises(DimensionError):
        im.ImageU8(0, 2, 1, b"")


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for c, ext in ((1, "pgm"), (3, "ppm")):
        img = _rand_img(rng, 7, 5, c)
        path = tmp_path / f"img.{ext}"
        im.write_image(path, img)
        back = im.read_image(path)
        assert back == img


def test_ppm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 2\n255\n\x01\x02\x03\x04")
    img = im.read_image(path)
    assert (img.height, img.width, img.channels) == (2, 2, 1)
    assert img.pixels == b"\x01\x02\x03\x04"


def test_ppm_reader_errors(tmp_path):
    cases = [
        b"P4\n2 2\n255\n\x00\x00\x00\x00",     # wrong magic
        b"P5\n2 2\n65535\n\x00\x00\x00\x00",   # unsupported maxval
        b"P5\n2 2\n255\n\x00\x00",             # short payload
        b"P5\nx 2\n255\n\x00\x00\x00\x00",     # non-numeric field
        b"P5\n0 2\n255\n",                     # zero extent
    ]
    for i, payload in enumerate(cases):
        path = tmp_path / f"bad{i}.pgm"
        path.write_bytes(payload)
        with pytest.raises(FormatError):
            im.read_image(path)


# ---------------------------------------------------------------------------
# resize


def test_resize_identity_same_size():
    rng = np.random.default_rng(1)
    img = _rand_img(rng, 6, 9, 3)
    assert im.resize_bilinear(img, (6, 9)) == img


def test_resize_constant_stays_constant():
    img = im.ImageU8.from_array(np.full((5, 4, 3), 77, dtype=np.uint8))
    for target in ((3, 3), (10, 7), (1, 1)):
        out = im.resize_bilinear(img, target)
        assert set(out.pixels) == {77}
        assert (out.height, out.width) == target


def test_resize_checkerboard_center_sample():
    img = im.ImageU8.from_array(np.array([[0, 255], [255, 0]], dtype=np.uint8))
    out = im.resize_bilinear(img, (1, 1))
    assert out.pixels == bytes([128])


def test_resize_zero_extent_rejected():
    img = im.ImageU8.from_array(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DimensionError):
        im.resize_bilinear(img, (0, 3))


def test_resize_matches_pointwise_interpolation():
    rng = np.random.default_rng(2)
    img = _rand_img(rng, 4, 5, 1)
    arr = img.as_array()[:, :, 0].astype(float)
    out = im.resize_bilinear(img, (7, 9)).as_array()[:, :, 0]
    for oy in range(7):
        for ox in range(9):
            sy = min(max((oy + 0.5) * 4 / 7 - 0.5, 0.0), 3.0)
            sx = min(max((ox + 0.5) * 5 / 9 - 0.5, 0.0), 4.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, 3), min(x0 + 1, 4)
            fy, fx = sy - y0, sx - x0
            top = arr[y0, x0] * (1 - fx) + arr[y0, x1] * fx
            bot = arr[y1, x0] * (1 - fx) + arr[y1, x1] * fx
            want = int(math.floor(top * (1 - fy) + bot * fy + 0.5))
            assert out[oy, ox] == min(255, max(0, want))


# ---------------------------------------------------------------------------
# median filter


def test_median_constant_unchanged():
    img = im.ImageU8.from_array(np.full((6, 6, 3), 42, dtype=np.uint8))
    assert im.median_filter(img, 3) == img


def test_median_rejects_interior_impulse():
    arr = np.zeros((7, 7), dtype=np.uint8)
    arr[3, 3] = 255
    out = im.median_filter(im.ImageU8.from_array(arr), 3)
    assert set(out.pixels) == {0}


def test_median_even_window_rejected():
    img = im.ImageU8.from_array(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ContractError):
        im.median_filter(img, 4)


def test_median_matches_sort_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = int(rng.integers(3, 9))
        w = int(rng.integers(3, 9))
        c = int(rng.choice([1, 3]))
        window = int(rng.choice([3, 5]))
        img = _rand_img(rng, h, w, c)
        got = im.median_filter(img, window).as_array()
        want = oracles.median_filter_loops(img.as_array(), window)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# CLAHE


def test_clahe_constant_image_single_value():
    for val in (0, 9, 128, 255):
        img = im.ImageU8.from_array(np.full((16, 16), val, dtype=np.uint8))
        out = im.adaptive_hist_eq(img, tile=4, clip=2.0)
        assert len(set(out.pixels)) == 1


def test_clahe_tile_mappings_monotone():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lum = rng.integers(0, 256, size=(1, 24, 24), dtype=np.uint8)
        by, bx = im._tile_bounds(24, 24, 4)
        luts = im._clahe_luts(lum, by, bx, clip=2.0)
        diffs = np.diff(luts, axis=-1)
        assert np.all(diffs >= 0)


def test_clahe_single_tile_preserves_order():
    rng = np.random.default_rng(5)
    img = _rand_img(rng, 12, 12, 1)
    out = im.adaptive_hist_eq(img, tile=1, clip=2.0).as_array()[:, :, 0]
    src = img.as_array()[:, :, 0]
    flat_in = src.ravel()
    flat_out = out.ravel()
    order = np.argsort(flat_in, kind="stable")
    assert np.all(np.diff(flat_out[order].astype(int)) >= 0)


def test_clahe_two_tone_matches_reference():
    arr = np.zeros((16, 16), dtype=np.uint8)
    arr[:, 8:] = 200
    img = im.ImageU8.from_array(arr)
    got = im.adaptive_hist_eq(img, tile=2, clip=2.0).as_array()
    want = oracles.clahe_loops(img.as_array(), grid=2, clip=2.0)
    np.testing.assert_array_equal(got, want)


def test_clahe_matches_reference_randomized():
    rng = np.random.default_rng(6)
    for _ in range(25):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        c = int(rng.choice([1, 3]))
        tile = int(rng.choice([1, 2, 4, 8]))
        clip = float(rng.choice([1.0, 2.0, 3.0, 40.0]))
        img = _rand_img(rng, h, w, c)
        got = im.adaptive_hist_eq(img, tile=tile, clip=clip).as_array()
        want = oracles.clahe_loops(img.as_array(), grid=tile, clip=clip)
        np.testing.assert_array_equal(got, want)


def test_clahe_color_with_black_pixels():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    arr[:4, :4] = 0  # exercise the zero-luminance branch
    img = im.ImageU8.from_array(arr)
    got = im.adaptive_hist_eq(img, tile=4, clip=2.0).as_array()
    want = oracles.clahe_loops(arr, grid=4, clip=2.0)
    np.testing.assert_array_equal(got, want)


def test_clahe_bad_tile_rejected():
    img = im.ImageU8.from_array(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ContractError):
        im.adaptive_hist_eq(img, tile=0)


# ---------------------------------------------------------------------------
# gamma / brightness


def test_gamma_identity():
    rng = np.random.default_rng(8)
    img = _rand_img(rng, 5, 5, 3)
    assert im.gamma_correct(img, 1.0) == img


def test_gamma_fixed_points():
    arr = np.array([[0, 255]], dtype=np.uint8)
    img = im.ImageU8.from_array(arr)
    for gamma in (0.3, 1.0, 2.0, 4.5):
        out = im.gamma_correct(img, gamma).as_array()[0, :, 0]
        assert out[0] == 0 and out[1] == 255


def test_gamma_exact_value():
    img = im.ImageU8.from_array(np.array([[64]], dtype=np.uint8))
    out = im.gamma_correct(img, 2.0)
    assert out.pixels == bytes([16])
    want = int(math.floor(255.0 * (64.0 / 255.0) ** 2 + 0.5))
    assert out.pixels[0] == want


def test_gamma_rejects_nonpositive():
    img = im.ImageU8.from_array(np.zeros((2, 2), dtype=np.uint8))
    for g in (0.0, -1.0):
        with pytest.raises(ContractError):
            im.gamma_correct(img, g)


def test_gamma_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        gamma = float(rng.uniform(0.2, 4.0))
        img = _rand_img(rng, 4, 6, 1)
        got = im.gamma_correct(img, gamma).as_array()
        for y in range(4):
            for x in range(6):
                v = img.as_array()[y, x, 0]
                want = min(255, max(0, int(math.floor(
                    255.0 * (float(v) / 255.0) ** gamma + 0.5))))
                assert got[y, x, 0] == want


def test_gamma_tables_match_scalar_power():
    # one np.power call builds every row; NumPy takes sqrt or square for a
    # scalar exponent of 0.5 or 2.0, so those rows are the ones that could
    # round differently from a table built with a scalar exponent
    gammas = [0.5, 2.0, 1.0] + list(np.random.default_rng(10).uniform(0.2, 4.0, 20))
    levels = np.arange(256, dtype=np.float64) / 255.0
    for gamma, row in zip(gammas, im._gamma_luts(gammas), strict=True):
        want = np.clip(np.floor(255.0 * np.power(levels, gamma) + 0.5), 0, 255)
        assert row.tobytes() == want.astype(np.uint8).tobytes(), gamma


def test_brightness_offset():
    arr = np.array([[[0], [100], [250]]], dtype=np.uint8)[None]
    assert im._brighten(arr, 10.0).ravel().tolist() == [10, 110, 255]
    assert im._brighten(arr, 0.0) is arr
    assert im._brighten(arr, -20.0).ravel().tolist() == [0, 80, 230]


# ---------------------------------------------------------------------------
# model tensor


def test_model_tensor_constant_is_zero():
    t = im.to_model_tensor(np.full((2, 5, 5, 3), 99, dtype=np.uint8))
    assert t.shape == (2, 3, 5, 5) and t.dtype == np.float64
    np.testing.assert_array_equal(t, np.zeros((2, 3, 5, 5)))


def test_model_tensor_standardized():
    rng = np.random.default_rng(10)
    arr = rng.integers(0, 256, size=(2, 12, 9, 3), dtype=np.uint8)
    t = im.to_model_tensor(arr)
    np.testing.assert_allclose(t.mean(axis=(2, 3)), 0.0, atol=1e-4)
    np.testing.assert_allclose(t.std(axis=(2, 3)), 1.0, atol=1e-3)


def test_model_tensor_two_value_channel():
    arr = np.zeros((2, 2), dtype=np.uint8)
    arr[0, 0] = 255
    arr[1, 1] = 255
    t = im.to_model_tensor(arr[None, :, :, None])[0]
    # mean 0.5, std 0.5 -> values +-1 up to the epsilon guard
    np.testing.assert_allclose(np.abs(t), np.ones((1, 2, 2)), atol=1e-5)
    assert t[0, 0, 0] > 0 and t[0, 0, 1] < 0


# ---------------------------------------------------------------------------
# geometric augmentation


def _augment(img, op):
    """One image through the stack kernel pretrain.make_views applies."""
    return im.ImageU8.from_array(im._geometric_stack(img.as_array()[None], op)[0])


def test_hflip_involution():
    rng = np.random.default_rng(11)
    img = _rand_img(rng, 6, 8, 3)
    assert _augment(_augment(img, "hflip"), "hflip") == img
    assert _augment(_augment(img, "vflip"), "vflip") == img


def test_rot90_four_times_identity():
    rng = np.random.default_rng(12)
    img = _rand_img(rng, 5, 7, 1)
    out = img
    for _ in range(4):
        out = _augment(out, "rot90")
    assert out == img


def test_rot180_equals_hflip_vflip():
    rng = np.random.default_rng(13)
    img = _rand_img(rng, 6, 6, 3)
    a = _augment(img, "rot180")
    b = _augment(_augment(img, "hflip"), "vflip")
    assert a == b


def test_rot270_is_inverse_of_rot90():
    rng = np.random.default_rng(14)
    img = _rand_img(rng, 4, 9, 3)
    assert _augment(_augment(img, "rot90"), "rot270") == img


def test_augment_is_permutation_of_values():
    rng = np.random.default_rng(15)
    img = _rand_img(rng, 5, 6, 3)
    for op in im.GEOMETRIC_OPS:
        out = _augment(img, op)
        assert sorted(out.pixels) == sorted(img.pixels)


def test_unknown_augment_rejected():
    img = im.ImageU8.from_array(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ContractError):
        _augment(img, "shear")


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_deterministic_bytes():
    rng = np.random.default_rng(16)
    img = _rand_img(rng, 20, 20, 3)
    cfg = im.PreprocessConfig(target_size=(16, 16), gamma=0.8)
    a = im.preprocess(img, cfg).data.tobytes()
    b = im.preprocess(img, cfg).data.tobytes()
    assert a == b


def test_pipeline_shapes_and_normalization_switch():
    rng = np.random.default_rng(17)
    img = _rand_img(rng, 20, 24, 3)
    cfg = im.PreprocessConfig(target_size=(32, 32))
    t = im.preprocess(img, cfg)
    assert t.shape == (3, 32, 32)
    raw = im.preprocess(img, im.PreprocessConfig(target_size=(32, 32), normalize=False))
    assert raw.data.min() >= 0.0 and raw.data.max() <= 1.0


def test_preprocess_config_validation():
    with pytest.raises(ContractError):
        im.PreprocessConfig(median_window=2)
    with pytest.raises(ContractError):
        im.PreprocessConfig(gamma=0.0)
    with pytest.raises(ContractError):
        im.PreprocessConfig(clahe_tile=0)
    with pytest.raises(DimensionError):
        im.PreprocessConfig(target_size=(0, 5))
    im.PreprocessConfig(target_size=(5, 9), median_window=5)
    for size in ((4, 9), (9, 4)):
        with pytest.raises(ContractError, match="exceeds the target size"):
            im.PreprocessConfig(target_size=size, median_window=5)


# ---------------------------------------------------------------------------
# stack kernels against the per-image references in oracles.py

SHAPES = st.one_of(st.sampled_from([(1, 9), (9, 1), (5, 3), (7, 13), (1, 1)]),
                   st.tuples(st.integers(1, 16), st.integers(1, 16)))
CLIPS = st.sampled_from([0.05, 0.5, 1.0, 2.0, 3.7, 40.0])
TEXTURES = ("noise", "dark", "two-tone", "flat")


def _pixels(seed, shape, texture):
    rng = np.random.default_rng(seed)
    if texture == "noise":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if texture == "dark":  # many zero-luma pixels in colour
        return rng.integers(0, 6, shape, dtype=np.uint8)
    if texture == "two-tone":
        return np.where(rng.random(shape) < 0.5, 0, 200).astype(np.uint8)
    return np.full(shape, rng.integers(0, 256), dtype=np.uint8)


@st.composite
def image_arrays(draw, max_count=7):
    """A list of (H,W,C) uint8 arrays of one shape."""
    count = draw(st.integers(1, max_count))
    shape = draw(SHAPES) + (draw(st.sampled_from([1, 3])),)
    texture = draw(st.sampled_from(TEXTURES))
    seed = draw(st.integers(0, 2**32 - 1))
    return [_pixels([seed, i], shape, texture) for i in range(count)]


@st.composite
def preprocess_configs(draw):
    th, tw = draw(SHAPES)
    window = draw(st.sampled_from([w for w in (1, 3, 5, 7) if w <= min(th, tw)]))
    return im.PreprocessConfig(
        target_size=(th, tw), median_window=window,
        clahe_tile=draw(st.integers(1, 8)), clahe_clip=draw(CLIPS),
        gamma=draw(st.sampled_from([1.0, 0.6, 2.2])),
        beta=draw(st.sampled_from([0.0, -7.5, 20.0])),
        normalize=draw(st.booleans()))


def _named_case(shape, channels, target, window, count, per_chunk):
    arrs = [_pixels([7, i], shape + (channels,), "noise") for i in range(count)]
    cfg = im.PreprocessConfig(target_size=target, median_window=window,
                              clahe_tile=4, clahe_clip=2.0, gamma=0.6)
    return {"arrs": arrs, "cfg": cfg, "per_chunk": per_chunk, "slack": 1}


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(), cfg=preprocess_configs(),
       per_chunk=st.integers(1, 4), slack=st.integers(0, 1))
@example(**_named_case((1, 9), 3, (1, 9), 1, 5, 2))
@example(**_named_case((5, 3), 1, (5, 3), 3, 3, 2))
@example(**_named_case((7, 13), 3, (7, 13), 7, 7, 3))
@example(**_named_case((20, 24), 3, (16, 16), 5, 9, 4))
def test_preprocess_batch_matches_per_image_pipeline(arrs, cfg, per_chunk, slack):
    th, tw = cfg.target_size
    imgs = [im.ImageU8.from_array(a) for a in arrs]
    # chunks of per_chunk images, so most batches straddle a chunk boundary
    with mock.patch.object(im, "_CHUNK_PIXELS", per_chunk * th * tw + slack):
        got = im.preprocess_batch(imgs, cfg)
        staged = im.preprocess_batch(imgs, cfg, as_images=True)
    want = np.stack([oracles.preprocess_per_image(a, cfg) for a in arrs])
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for img, arr in zip(staged, arrs):
        assert img.as_array().tobytes() == oracles.stage_per_image(arr, cfg).tobytes()
    assert im.preprocess(imgs[0], cfg).data.tobytes() == want[0].tobytes()


SATURATED = np.where(np.indices((6, 5, 3)).sum(axis=0) % 3 == 0, 255, 0).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(max_count=1), window=st.sampled_from([1, 3, 5, 7]))
@example(arrs=[SATURATED], window=3)
@example(arrs=[np.full((4, 7, 1), 255, np.uint8)], window=3)
def test_median_filter_matches_window_median(arrs, window):
    # windows wider than the image clamp to its edge like any other
    got = im.median_filter(im.ImageU8.from_array(arrs[0]), window).as_array()
    assert got.tobytes() == oracles.median_per_image(arrs[0], window).tobytes()


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(max_count=1), tile=st.integers(1, 8), clip=CLIPS)
def test_equalization_matches_tile_loop(arrs, tile, clip):
    img = im.ImageU8.from_array(arrs[0])
    h, w, c = arrs[0].shape
    by, bx = im._tile_bounds(h, w, tile)
    lum = im._luminance(arrs[0]) if c == 3 else arrs[0][..., 0]
    luts = im._clahe_luts(lum[None], by, bx, clip)[0]
    want_by, want_bx, want_luts = oracles.clahe_luts_per_tile(arrs[0], tile, clip)
    np.testing.assert_array_equal(by, want_by)
    np.testing.assert_array_equal(bx, want_bx)
    assert luts.tobytes() == want_luts.tobytes()
    got = im.adaptive_hist_eq(img, tile, clip).as_array()
    assert got.tobytes() == oracles.clahe_per_image(arrs[0], tile, clip).tobytes()


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(), normalize=st.booleans())
def test_model_tensor_matches_per_image_standardization(arrs, normalize):
    # float64 output: no float32 rounding hides the order of the sums
    got = im.to_model_tensor(np.stack(arrs), normalize)
    want = np.stack([oracles.standardize_per_image(a, normalize) for a in arrs])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_preprocess_batch_channel_counts():
    rng = np.random.default_rng(18)
    imgs = [_rand_img(rng, 6, 6, 3), _rand_img(rng, 6, 6, 1), _rand_img(rng, 6, 6, 3)]
    cfg = im.PreprocessConfig(target_size=(6, 6))
    staged = im.preprocess_batch(imgs, cfg, as_images=True)
    assert [img.channels for img in staged] == [3, 1, 3]
    assert staged == [im.preprocess_batch([img], cfg, as_images=True)[0]
                      for img in imgs]
    with pytest.raises(ContractError, match="mix channel counts"):
        im.preprocess_batch(imgs, cfg)
    assert im.preprocess_batch([], cfg).shape == (0, 3, 6, 6)


def test_preprocess_batch_memory_stays_within_a_chunk(monkeypatch):
    monkeypatch.setattr(im, "_CHUNK_PIXELS", 4 * 16 * 16)  # four images a chunk
    rng = np.random.default_rng(19)
    imgs = [_rand_img(rng, 16, 16, 3) for _ in range(64)]
    cfg = im.PreprocessConfig(target_size=(16, 16))

    def peak_beyond_output(batch):
        outs = []
        peak = peak_traced_bytes(lambda: outs.append(im.preprocess_batch(batch, cfg)))
        return peak - outs[0].nbytes

    one_chunk = peak_beyond_output(imgs[:4])
    # sixteen chunks cost what one does: 64 images at once would need
    # sixteen times the tile histograms and pixel buffers
    assert peak_beyond_output(imgs) < 2 * one_chunk


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(), tile=st.integers(1, 8), clip=CLIPS,
       per_sub=st.integers(1, 3), band_rows=st.integers(1, 4))
def test_clahe_sub_stacks_and_bands_are_invisible(arrs, tile, clip, per_sub, band_rows):
    # sub-stacks of per_sub images and bands of band_rows rows, so most
    # stacks straddle both kinds of boundary
    h, w, _ = arrs[0].shape
    gy, gx = min(tile, h), min(tile, w)
    with mock.patch.object(im, "_BLOCK_BYTES", per_sub * gy * gx * 256 * 8 + 7), \
            mock.patch.object(im, "_BAND_PIXELS", band_rows * min(per_sub, len(arrs)) * w):
        got = im._clahe_stack(np.stack(arrs), tile, clip)
    want = np.stack([oracles.clahe_per_image(a, tile, clip) for a in arrs])
    assert got.tobytes() == want.tobytes()


def test_preprocess_chunk_memory_holds_no_whole_chunk_tile_map():
    rng = np.random.default_rng(21)

    def peak_beyond_output(batch, size):
        cfg = im.PreprocessConfig(target_size=(size, size))
        outs = []
        peak = peak_traced_bytes(lambda: outs.append(im.preprocess_batch(batch, cfg)))
        return peak - outs[0].nbytes

    # one desk chunk: the float64 tile maps of all 32 images would be 4 MiB
    chunk = [_rand_img(rng, 32, 32, 3) for _ in range(32)]
    assert len(list(im._chunks(chunk, 32 * 32))) == 1
    assert peak_beyond_output(chunk, 32) < 32 * 8 * 8 * 256 * 8
    # one 224-px image: scaling holds two float64 copies of it, and nothing
    # else may come near that
    image_f64 = 224 * 224 * 3 * 8
    assert peak_beyond_output([_rand_img(rng, 224, 224, 3)], 224) < 2.5 * image_f64


@settings(max_examples=40, deadline=None)
@given(arrs=image_arrays(), per_group=st.integers(1, 3), slack=st.integers(0, 1))
def test_preprocess_batch_scaling_groups_are_invisible(arrs, per_group, slack):
    # groups of per_group images (CLAHE sub-stacks shrink with them)
    h, w, c = arrs[0].shape
    cfg = im.PreprocessConfig(target_size=(h, w), median_window=1)
    with mock.patch.object(im, "_BLOCK_BYTES", per_group * h * w * c * 8 + slack):
        got = im.preprocess_batch([im.ImageU8.from_array(a) for a in arrs], cfg)
    want = np.stack([oracles.preprocess_per_image(a, cfg) for a in arrs])
    assert got.tobytes() == want.tobytes()
