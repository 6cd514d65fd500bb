import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from helpers import peak_traced_bytes
from weedhybrid import imaging as im
from weedhybrid.errors import ContractError, DimensionError, FormatError


def _rand_img(rng, h, w, c):
    return rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)


# ---------------------------------------------------------------------------
# File I/O


def test_write_image_refuses_bad_arrays(tmp_path):
    bad = [
        np.zeros((2, 2), dtype=np.int16),        # not uint8
        np.zeros((2, 2, 3), dtype=np.float64),
        np.zeros((2, 2, 2), dtype=np.uint8),     # 2 channels
        np.zeros((2, 2, 4), dtype=np.uint8),
        np.zeros((1, 2, 2, 3), dtype=np.uint8),  # 4-D
        np.zeros(4, dtype=np.uint8),             # 1-D
        np.zeros((0, 2, 3), dtype=np.uint8),     # zero extents
        np.zeros((2, 0), dtype=np.uint8),
    ]
    for i, arr in enumerate(bad):
        with pytest.raises(ContractError):
            im.write_image(tmp_path / f"bad{i}.ppm", arr)
    assert list(tmp_path.iterdir()) == []   # no image and no temp file


def test_ppm_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for c, ext in ((1, "pgm"), (3, "ppm")):
        img = _rand_img(rng, 7, 5, c)
        path = tmp_path / f"img.{ext}"
        im.write_image(path, img)
        back = im.read_image(path)
        assert np.array_equal(back, img)


def test_ppm_reader_handles_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n2 2\n255\n\x01\x02\x03\x04")
    img = im.read_image(path)
    assert img.shape == (2, 2, 1)
    assert img.tobytes() == b"\x01\x02\x03\x04"


def test_ppm_reader_errors(tmp_path):
    cases = [
        (b"P4\n2 2\n255\n\x00\x00\x00\x00", "magic"),      # wrong magic
        (b"P5\n2 2\n65535\n\x00\x00\x00\x00", "maxval"),   # unsupported maxval
        (b"P5\n2 2\n255\n\x00\x00", "holds 2 bytes"),       # short payload
        (b"P5\nx 2\n255\n\x00\x00\x00\x00", "non-numeric"),  # non-numeric field
        (b"P5\n0 2\n255\n", "extents"),                     # zero extent
        # int() reads "1_2" as 12 and "+2" as 2; a field is ASCII digits only
        (b"P5\n1_2 1\n255\n" + bytes(12), "non-numeric width"),
        (b"P5\n+2 1\n255\n\x00\x00", "non-numeric width"),
        (b"P5\n2 1\n255\n\x01\x02EXTRA", "5 trailing bytes at offset 13"),
    ]
    for i, (payload, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.pgm"
        path.write_bytes(payload)
        with pytest.raises(FormatError, match=message):
            im.read_image(path)


# (H, W), (H, W, 1) and (H, W, 3) uint8 arrays
IMAGES = st.tuples(st.integers(1, 12), st.integers(1, 12),
                   st.sampled_from([(), (1,), (3,)])).flatmap(
    lambda t: hnp.arrays(np.uint8, t[:2] + t[2]))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=IMAGES, flip=st.booleans())
def test_image_files_round_trip_byte_exact(tmp_path, arr, flip):
    if flip:  # a strided view is written in row-major order too
        arr = arr[:, ::-1]
    path = tmp_path / "img.pnm"
    im.write_image(path, arr)
    back = im.read_image(path)
    assert back.shape == arr.shape[:2] + (arr.shape[2] if arr.ndim == 3 else 1,)
    assert back.dtype == np.uint8 and not back.flags.writeable
    assert back.tobytes() == arr.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arr=IMAGES, data=st.data())
def test_damaged_image_files_raise_only_format_error(tmp_path, arr, data):
    path = tmp_path / "img.pnm"
    im.write_image(path, arr)
    buf = bytearray(path.read_bytes())
    # edits land in the header about half the time
    places = st.one_of(st.integers(0, 15), st.integers(0, len(buf)))
    values = st.one_of(st.sampled_from(b" \n\t#P0123456789_+-\x00\xff"),
                       st.integers(0, 255))
    for _ in range(data.draw(st.integers(1, 3))):
        at = min(data.draw(places), len(buf))
        kind = data.draw(st.sampled_from(["set", "insert", "delete"]))
        if kind == "insert":
            buf.insert(at, data.draw(values))
        elif at < len(buf):
            if kind == "set":
                buf[at] = data.draw(values)
            else:
                del buf[at]
    if data.draw(st.booleans()):
        buf = buf[:data.draw(st.integers(0, len(buf)))]
    path.write_bytes(bytes(buf))
    try:
        out = im.read_image(path)
    except FormatError:
        return
    assert out.dtype == np.uint8 and out.ndim == 3 and out.shape[2] in (1, 3)
    assert out.tobytes() == bytes(buf[len(buf) - out.size:])   # the file's tail


# ---------------------------------------------------------------------------
# resize


def test_resize_identity_same_size():
    rng = np.random.default_rng(1)
    img = _rand_img(rng, 6, 9, 3)
    assert np.array_equal(im.resize_bilinear(img, (6, 9)), img)


def test_resize_constant_stays_constant():
    img = np.full((5, 4, 3), 77, dtype=np.uint8)
    for target in ((3, 3), (10, 7), (1, 1)):
        out = im.resize_bilinear(img, target)
        assert set(out.tobytes()) == {77}
        assert out.shape[:2] == target


def test_resize_checkerboard_center_sample():
    img = np.array([[0, 255], [255, 0]], dtype=np.uint8)[:, :, None]
    out = im.resize_bilinear(img, (1, 1))
    assert out.tobytes() == bytes([128])


def test_resize_zero_extent_rejected():
    img = np.zeros((2, 2, 1), dtype=np.uint8)
    with pytest.raises(DimensionError):
        im.resize_bilinear(img, (0, 3))


def test_resize_matches_pointwise_interpolation():
    rng = np.random.default_rng(2)
    img = _rand_img(rng, 4, 5, 1)
    arr = img[:, :, 0].astype(float)
    out = im.resize_bilinear(img, (7, 9))[:, :, 0]
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
    img = np.full((6, 6, 3), 42, dtype=np.uint8)
    assert np.array_equal(im.median_filter(img, 3), img)


def test_median_rejects_interior_impulse():
    arr = np.zeros((7, 7), dtype=np.uint8)
    arr[3, 3] = 255
    out = im.median_filter(arr[:, :, None], 3)
    assert set(out.tobytes()) == {0}


def test_median_even_window_rejected():
    img = np.zeros((4, 4, 1), dtype=np.uint8)
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
        got = im.median_filter(img, window)
        want = oracles.median_filter_loops(img, window)
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# CLAHE


def test_clahe_constant_image_single_value():
    for val in (0, 9, 128, 255):
        img = np.full((16, 16, 1), val, dtype=np.uint8)
        out = im.adaptive_hist_eq(img, tile=4, clip=2.0)
        assert len(set(out.tobytes())) == 1


@pytest.mark.parametrize("h,w,tile", [(24, 24, 4), (31, 17, 3), (5, 9, 8)])
def test_clahe_geometry_is_built_once_and_read_only(h, w, tile):
    got = im._clahe_geometry(h, w, tile)
    assert im._clahe_geometry(h, w, tile) is got
    fresh = im._clahe_geometry.__wrapped__(h, w, tile)
    flat = lambda g: [*g[:4], *g[4][0], *g[4][1], *g[5][0], *g[5][1]]
    for a, b in zip(flat(got), flat(fresh), strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def _tile_maps(luts, bx):
    """_clahe_luts' paired-lane maps as (N, gy, gx, 256) float64, one tile
    after another along each tile row."""
    lanes = luts.view(np.float64).reshape(luts.shape + (2,))
    tiles = np.moveaxis(lanes, -1, -2).reshape(luts.shape[:2] + (-1, 256))
    return np.ascontiguousarray(tiles[:, :, :len(bx) - 1])


def test_clahe_tile_mappings_monotone():
    rng = np.random.default_rng(4)
    for _ in range(10):
        lum = rng.integers(0, 256, size=(1, 24, 24), dtype=np.uint8)
        by, bx = im._tile_bounds(24, 24, 4)
        luts = _tile_maps(im._clahe_luts(lum, by, bx, clip=2.0), bx)
        diffs = np.diff(luts, axis=-1)
        assert np.all(diffs >= 0)


def test_clahe_single_tile_preserves_order():
    rng = np.random.default_rng(5)
    img = _rand_img(rng, 12, 12, 1)
    out = im.adaptive_hist_eq(img, tile=1, clip=2.0)[:, :, 0]
    src = img[:, :, 0]
    flat_in = src.ravel()
    flat_out = out.ravel()
    order = np.argsort(flat_in, kind="stable")
    assert np.all(np.diff(flat_out[order].astype(int)) >= 0)


def test_clahe_two_tone_matches_reference():
    arr = np.zeros((16, 16), dtype=np.uint8)
    arr[:, 8:] = 200
    img = arr[:, :, None]
    got = im.adaptive_hist_eq(img, tile=2, clip=2.0)
    want = oracles.clahe_loops(img, grid=2, clip=2.0)
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
        got = im.adaptive_hist_eq(img, tile=tile, clip=clip)
        want = oracles.clahe_loops(img, grid=tile, clip=clip)
        np.testing.assert_array_equal(got, want)


def test_clahe_color_with_black_pixels():
    rng = np.random.default_rng(7)
    arr = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
    arr[:4, :4] = 0  # exercise the zero-luminance branch
    got = im.adaptive_hist_eq(arr, tile=4, clip=2.0)
    want = oracles.clahe_loops(arr, grid=4, clip=2.0)
    np.testing.assert_array_equal(got, want)


def test_clahe_bad_tile_rejected():
    img = np.zeros((4, 4, 1), dtype=np.uint8)
    with pytest.raises(ContractError):
        im.adaptive_hist_eq(img, tile=0)


# ---------------------------------------------------------------------------
# gamma / brightness


def test_gamma_identity():
    rng = np.random.default_rng(8)
    img = _rand_img(rng, 5, 5, 3)
    assert np.array_equal(im.gamma_correct(img, 1.0), img)


def test_gamma_fixed_points():
    img = np.array([[0, 255]], dtype=np.uint8)[:, :, None]
    for gamma in (0.3, 1.0, 2.0, 4.5):
        out = im.gamma_correct(img, gamma)[0, :, 0]
        assert out[0] == 0 and out[1] == 255


def test_gamma_exact_value():
    img = np.array([[64]], dtype=np.uint8)[:, :, None]
    out = im.gamma_correct(img, 2.0)
    assert out.tobytes() == bytes([16])
    want = int(math.floor(255.0 * (64.0 / 255.0) ** 2 + 0.5))
    assert out.tobytes()[0] == want


def test_gamma_rejects_nonpositive():
    img = np.zeros((2, 2, 1), dtype=np.uint8)
    for g in (0.0, -1.0):
        with pytest.raises(ContractError):
            im.gamma_correct(img, g)


def test_gamma_matches_scalar_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        gamma = float(rng.uniform(0.2, 4.0))
        img = _rand_img(rng, 4, 6, 1)
        got = im.gamma_correct(img, gamma)
        for y in range(4):
            for x in range(6):
                v = img[y, x, 0]
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
    return im._geometric_stack(img[None], op)[0]


def test_hflip_involution():
    rng = np.random.default_rng(11)
    img = _rand_img(rng, 6, 8, 3)
    assert np.array_equal(_augment(_augment(img, "hflip"), "hflip"), img)
    assert np.array_equal(_augment(_augment(img, "vflip"), "vflip"), img)


def test_rot90_four_times_identity():
    rng = np.random.default_rng(12)
    img = _rand_img(rng, 5, 7, 1)
    out = img
    for _ in range(4):
        out = _augment(out, "rot90")
    assert np.array_equal(out, img)


def test_rot180_equals_hflip_vflip():
    rng = np.random.default_rng(13)
    img = _rand_img(rng, 6, 6, 3)
    a = _augment(img, "rot180")
    b = _augment(_augment(img, "hflip"), "vflip")
    assert np.array_equal(a, b)


def test_rot270_is_inverse_of_rot90():
    rng = np.random.default_rng(14)
    img = _rand_img(rng, 4, 9, 3)
    assert np.array_equal(_augment(_augment(img, "rot90"), "rot270"), img)


def test_augment_is_permutation_of_values():
    rng = np.random.default_rng(15)
    img = _rand_img(rng, 5, 6, 3)
    for op in im.GEOMETRIC_OPS:
        out = _augment(img, op)
        assert sorted(out.tobytes()) == sorted(img.tobytes())


def test_unknown_augment_rejected():
    img = np.zeros((2, 2, 1), dtype=np.uint8)
    with pytest.raises(ContractError):
        _augment(img, "shear")


# ---------------------------------------------------------------------------
# pipeline


def test_pipeline_deterministic_bytes():
    rng = np.random.default_rng(16)
    img = _rand_img(rng, 20, 20, 3)
    cfg = im.PreprocessConfig(target_size=(16, 16), gamma=0.8)
    a = im.preprocess(img, cfg).tobytes()
    b = im.preprocess(img, cfg).tobytes()
    assert a == b


def test_pipeline_shapes_and_normalization_switch():
    rng = np.random.default_rng(17)
    img = _rand_img(rng, 20, 24, 3)
    cfg = im.PreprocessConfig(target_size=(32, 32))
    t = im.preprocess(img, cfg)
    assert t.shape == (3, 32, 32)
    raw = im.preprocess(img, im.PreprocessConfig(target_size=(32, 32), normalize=False))
    assert raw.min() >= 0.0 and raw.max() <= 1.0


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
    # chunks of per_chunk images, so most batches straddle a chunk boundary
    with mock.patch.object(im, "_CHUNK_PIXELS", per_chunk * th * tw + slack):
        staged = im.preprocess_batch(_resized(arrs, cfg), cfg)
    got = im.StagedImages(staged, cfg.normalize)[:]
    want = np.stack([oracles.preprocess_per_image(a, cfg) for a in arrs])
    assert got.dtype == np.float32 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for pixels, arr in zip(staged, arrs):
        assert pixels.tobytes() == oracles.stage_per_image(arr, cfg).tobytes()
    assert im.preprocess(arrs[0], cfg).tobytes() == want[0].tobytes()


SATURATED = np.where(np.indices((6, 5, 3)).sum(axis=0) % 3 == 0, 255, 0).astype(np.uint8)


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(max_count=1), window=st.sampled_from([1, 3, 5, 7]))
@example(arrs=[SATURATED], window=3)
@example(arrs=[np.full((4, 7, 1), 255, np.uint8)], window=3)
def test_median_filter_matches_window_median(arrs, window):
    # windows wider than the image clamp to its edge like any other
    got = im.median_filter(arrs[0], window)
    assert got.tobytes() == oracles.median_per_image(arrs[0], window).tobytes()


@settings(max_examples=60, deadline=None)
@given(arrs=image_arrays(max_count=1), tile=st.integers(1, 8), clip=CLIPS)
def test_equalization_matches_tile_loop(arrs, tile, clip):
    h, w, c = arrs[0].shape
    by, bx = im._tile_bounds(h, w, tile)
    lum = im._luminance(arrs[0]) if c == 3 else arrs[0][..., 0]
    luts = _tile_maps(im._clahe_luts(lum[None], by, bx, clip), bx)[0]
    want_by, want_bx, want_luts = oracles.clahe_luts_per_tile(arrs[0], tile, clip)
    np.testing.assert_array_equal(by, want_by)
    np.testing.assert_array_equal(bx, want_bx)
    assert luts.tobytes() == want_luts.tobytes()
    got = im.adaptive_hist_eq(arrs[0], tile, clip)
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
    # a stack holds one channel count; grey and colour stacks both run
    rng = np.random.default_rng(18)
    cfg = im.PreprocessConfig(target_size=(6, 6))
    for c in (1, 3):
        stack = rng.integers(0, 256, (3, 6, 6, c), dtype=np.uint8)
        staged = im.preprocess_batch(stack, cfg)
        assert staged.shape == stack.shape and staged.dtype == np.uint8
        for pixels, arr in zip(staged, stack):
            assert pixels.tobytes() == oracles.stage_per_image(arr, cfg).tobytes()
    assert im.preprocess_batch(np.zeros((0, 6, 6, 3), np.uint8), cfg).shape == (0, 6, 6, 3)


def _resized(images, cfg):
    """(H,W,C) images as one uint8 stack at the target size, as dataio reads rows."""
    return np.stack([im.resize_bilinear(img, cfg.target_size) for img in images])


def _model_inputs(images, cfg):
    """The float32 model batch of images, staged and scaled."""
    return im.StagedImages(im.preprocess_batch(_resized(images, cfg), cfg),
                           cfg.normalize)[:]


def test_preprocess_batch_memory_stays_within_a_chunk(monkeypatch):
    monkeypatch.setattr(im, "_CHUNK_PIXELS", 4 * 16 * 16)  # four images a chunk
    rng = np.random.default_rng(19)
    imgs = [_rand_img(rng, 16, 16, 3) for _ in range(64)]
    cfg = im.PreprocessConfig(target_size=(16, 16))

    def peak_beyond_output(batch):
        outs = []
        peak = peak_traced_bytes(lambda: outs.append(_model_inputs(batch, cfg)))
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
        peak = peak_traced_bytes(lambda: outs.append(_model_inputs(batch, cfg)))
        return peak - outs[0].nbytes

    # one desk chunk: the float64 tile maps of all 32 images would be 4 MiB
    chunk = [_rand_img(rng, 32, 32, 3) for _ in range(32)]
    assert im._CHUNK_PIXELS // (32 * 32) >= len(chunk)
    assert peak_beyond_output(chunk, 32) < 32 * 8 * 8 * 256 * 8
    # one 224-px image: scaling holds two float64 copies of it, and nothing
    # else may come near that
    image_f64 = 224 * 224 * 3 * 8
    assert peak_beyond_output([_rand_img(rng, 224, 224, 3)], 224) < 2.5 * image_f64



@pytest.mark.parametrize("shape", [(400, 32, 32, 3), (3, 224, 224, 3), (20, 9, 7, 1)],
                         ids=["desk-400", "paper-224", "one-channel"])
@pytest.mark.parametrize("normalize", [True, False], ids=["normalize", "raw"])
def test_staged_view_is_to_model_tensor_bytes(shape, normalize):
    # the means and divisors the view computes once per image give the
    # bytes of scaling the selected images from scratch, for any selection
    rng = np.random.default_rng(32)
    stack = rng.integers(0, 256, shape, dtype=np.uint8)
    stack[0] = 9   # a constant image scales to exact zeros
    view = im.StagedImages(stack, normalize)
    for sel in (np.arange(shape[0]), rng.permutation(shape[0])[:max(1, shape[0] // 3)],
                np.array([1, 0, 1]) % shape[0]):
        want = im.to_model_tensor(stack[sel], normalize).astype(np.float32)
        assert view[sel].tobytes() == want.tobytes()
    assert view[1].tobytes() == im.to_model_tensor(stack[1:2], normalize)[0].astype(
        np.float32).tobytes()

@settings(max_examples=40, deadline=None)
@given(arrs=image_arrays(), per_group=st.integers(1, 3), slack=st.integers(0, 1))
def test_preprocess_batch_scaling_groups_are_invisible(arrs, per_group, slack):
    # groups of per_group images (CLAHE sub-stacks shrink with them)
    h, w, c = arrs[0].shape
    cfg = im.PreprocessConfig(target_size=(h, w), median_window=1)
    with mock.patch.object(im, "_BLOCK_BYTES", per_group * h * w * c * 8 + slack):
        view = im.StagedImages(im.preprocess_batch(np.stack(arrs), cfg),
                               cfg.normalize)
        got, backwards = view[:], view[::-1]
    want = np.stack([oracles.preprocess_per_image(a, cfg) for a in arrs])
    assert got.tobytes() == want.tobytes()
    # an image's values do not depend on the selection it is scaled in
    assert backwards.tobytes() == want[::-1].tobytes()
