import hashlib
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from helpers import gradcheck, rand_tensor
import weedhybrid.backbone as bb
import weedhybrid.heads as hd
from weedhybrid import tensor as T
from weedhybrid.errors import ContractError, DimensionError, NumericError


def test_matmul_identity():
    rng = np.random.default_rng(0)
    m = T.Tensor(rng.standard_normal((2, 2)))
    eye = T.Tensor(np.eye(2))
    out = T.matmul(eye, m)
    np.testing.assert_array_equal(out.data, m.data)


def test_matmul_zeros():
    z = T.zeros((2, 3))
    b = T.Tensor(np.random.default_rng(1).standard_normal((3, 4)))
    out = T.matmul(z, b)
    assert out.shape == (2, 4)
    np.testing.assert_array_equal(out.data, np.zeros((2, 4), dtype=np.float32))


def test_matmul_exact():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0], [6.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, np.array([[17.0], [39.0]], dtype=np.float32))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionError):
        T.matmul(T.zeros((2, 3)), T.zeros((4, 2)))


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(2)
    a = T.Tensor(rng.standard_normal((3, 2, 4)))
    b = T.Tensor(rng.standard_normal((3, 4, 5)))
    out = T.matmul(a, b)
    for i in range(3):
        np.testing.assert_allclose(out.data[i], (a.data[i] @ b.data[i]), rtol=1e-6)
    w = T.Tensor(rng.standard_normal((4, 5)))
    out2 = T.matmul(a, w)
    for i in range(3):
        np.testing.assert_allclose(out2.data[i], a.data[i] @ w.data, rtol=1e-6)


def test_conv2d_identity_kernel_bit_exact():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.standard_normal((1, 1, 3, 3)).astype(np.float32))
    k = T.Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
    out = T.conv2d(x, k)
    assert out.data.tobytes() == x.data.tobytes()


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(4)
    x = T.Tensor(rng.standard_normal((1, 2, 4, 4)))
    k = T.zeros((3, 2, 2, 2))
    out = T.conv2d(x, k)
    np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_conv2d_box_kernel():
    x = T.ones((1, 1, 4, 4))
    k = T.ones((1, 1, 2, 2))
    out = T.conv2d(x, k, stride=2)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0, dtype=np.float32))


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        kh = int(rng.integers(1, min(4, h + 1)))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        x = rng.standard_normal((1, c, h, w)).astype(np.float32)
        kern = rng.standard_normal((k, c, kh, kh)).astype(np.float32)
        bias = rng.standard_normal(k).astype(np.float32)
        got = T.conv2d(T.Tensor(x), T.Tensor(kern), stride=stride, padding=pad,
                       bias=T.Tensor(bias))
        want = oracles.conv2d_loops(x[0], kern, stride=stride, padding=pad, bias=bias)
        np.testing.assert_allclose(got.data[0], want, atol=1e-5)


def test_conv2d_nonpositive_output_raises():
    with pytest.raises(DimensionError):
        T.conv2d(T.zeros((1, 1, 2, 2)), T.zeros((1, 1, 5, 5)))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_transpose2d_is_adjoint_of_conv2d(stride, padding):
    # <conv2d(x, K), y> == <x, conv_transpose2d(y, K)>; 7x5 inputs leave no
    # rows that a stride-2 window skips, so both maps cover all of x
    rng = np.random.default_rng(19)
    x = rng.standard_normal((2, 3, 7, 5))
    kern = T.Tensor(rng.standard_normal((4, 3, 3, 3)), dtype=np.float64)
    fwd = T.conv2d(T.Tensor(x, dtype=np.float64), kern, stride, padding).data
    y = rng.standard_normal(fwd.shape)
    adj = T.conv_transpose2d(T.Tensor(y, dtype=np.float64), kern, stride, padding).data
    assert fwd.dtype == adj.dtype == np.float64
    assert adj.shape == x.shape
    np.testing.assert_allclose(np.vdot(fwd, y), np.vdot(x, adj), rtol=1e-12)


@pytest.mark.parametrize("stride,with_bias,dtype", [
    (1, True, np.float32), (1, False, np.float32), (2, True, np.float32),
    (1, True, np.float64)], ids=["bias", "no-bias", "stride-2", "float64"])
def test_conv2d_row_blocks_match_one_block(monkeypatch, stride, with_bias, dtype):
    rng = np.random.default_rng(12)
    with T.default_dtype(dtype):
        x = T.Tensor(rng.standard_normal((2, 3, 11, 11)))
        k = T.Tensor(rng.standard_normal((4, 3, 3, 3)))
        b = T.Tensor(rng.standard_normal(4)) if with_bias else None
        whole = T.conv2d(x, k, stride=stride, padding=1, bias=b).data
        # a pixel costs 8 * (3*3*3 + 4) = 248 bytes, an output row of 11
        # (stride 1) or 6 (stride 2) pixels more than the budget: every block
        # is one output row
        monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", 5 * 248 + 7)
        blocked = T.conv2d(x, k, stride=stride, padding=1, bias=b).data
    assert blocked.dtype == whole.dtype == dtype
    if dtype == np.float32:
        assert blocked.tobytes() == whole.tobytes()
    else:
        # BLAS picks its kernel by matrix size, so a 64-bit sum may differ in
        # the last bit with the number of rows in its block
        np.testing.assert_allclose(blocked, whole, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("window", [2, 3])
def test_avg_pool2d_matches_window_mean_bytes(window):
    x = np.random.default_rng(13).standard_normal((2, 3, 12, 13)).astype(np.float32)
    win = np.lib.stride_tricks.sliding_window_view(x, (window, window), axis=(2, 3))
    want = win[:, :, ::window, ::window].astype(np.float64).mean(axis=(-2, -1))
    got = T.avg_pool2d(T.Tensor(x), window).data
    assert got.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("in_shape,out_hw", [
    ((2, 3, 4), (7, 9)), ((2, 9, 6), (4, 5)), ((3, 1, 1), (4, 6)),
    ((2, 5, 7), (1, 1)), ((2, 28, 28), (224, 224))],
    ids=["up", "down", "1x1-input", "1x1-output", "paper-28-to-224"])
def test_upsample_matches_loop_oracle(in_shape, out_hw):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((1,) + in_shape)
    g = rng.standard_normal((1, in_shape[0]) + out_hw)
    with T.default_dtype(np.float64):
        xt = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            out = T.upsample_bilinear2d(xt, out_hw)
            tape.backward(T.sum_(T.mul(out, T.const(g))))
    np.testing.assert_allclose(out.data[0], oracles.upsample_bilinear_loops(x[0], out_hw),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        xt.grad[0], oracles.upsample_bilinear_adjoint_loops(g[0], in_shape[1:]),
        rtol=0, atol=1e-12)


def _peak_traced_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_segment_head_paper_shape_memory():
    rng = np.random.default_rng(15)
    params = hd.init_heads(bb.paper_config(), rng)
    spatial = T.Tensor(rng.standard_normal((1, 128, 28, 28)))
    peak = _peak_traced_bytes(lambda: hd.segment_head(spatial, params))
    # a dense 28->224 interpolation matrix alone is 50176 x 784 float64, 315 MB
    assert peak < 16 << 20


def test_conv2d_memory_is_cols_plus_one_block():
    rng = np.random.default_rng(16)
    x = T.Tensor(rng.standard_normal((1, 32, 112, 112)))
    k = T.Tensor(rng.standard_normal((32, 32, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(32), requires_grad=True)
    cols_bytes = 112 * 112 * 32 * 9 * 4
    out_bytes = 32 * 112 * 112 * 4

    def taped():
        with T.Tape():
            T.conv2d(x, k, padding=1, bias=b)

    peak = _peak_traced_bytes(taped)
    # the bound leaves room for the float32 im2col matrix, one float64 row
    # block, a padded input and the output; a float64 copy of the whole
    # im2col matrix (2 * cols_bytes on top of it) does not fit
    assert peak < cols_bytes + T._GEMM_BLOCK_BYTES + 4 * out_bytes


@pytest.mark.parametrize("op", ["conv_relu_pool2d", "conv2d"])
def test_taped_conv_holds_output_and_mask_only(op):
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal((2, 32, 56, 56)))
    k = T.Tensor(rng.standard_normal((64, 32, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(64), requires_grad=True)
    mask_bytes = 64 * 2 * 56 * 56 if op == "conv_relu_pool2d" else 0
    tracemalloc.start()
    try:
        with T.Tape() as tape:
            if op == "conv2d":
                out = T.conv2d(x, k, padding=1, bias=b)
            else:
                out = T.conv_relu_pool2d(x, k, b)
            held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tape) == 1
    # the tape keeps the input (allocated before tracing) and the ReLU mask,
    # not the 7.2 MB im2col matrix, which backward rebuilds
    assert held <= out.data.nbytes + mask_bytes + (64 << 10)


def test_conv2d_tape_free_memory_has_no_im2col_matrix():
    rng = np.random.default_rng(17)
    x = T.Tensor(rng.standard_normal((8, 32, 112, 112)))
    k = T.Tensor(rng.standard_normal((64, 32, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(64), requires_grad=True)
    cols_bytes = 8 * 112 * 112 * 32 * 9 * 4      # 116 MB
    out_bytes = 8 * 64 * 112 * 112 * 4           # 26 MB
    pad_bytes = 8 * 32 * 114 * 114 * 4           # 13 MB
    peak = _peak_traced_bytes(lambda: T.conv2d(x, k, padding=1, bias=b))
    # the output and one block (64-bit im2col block and product); building
    # the whole im2col matrix peaked at 166 MB
    assert peak < pad_bytes + out_bytes + 2 * T._GEMM_BLOCK_BYTES < cols_bytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("block_bytes", [None, 5 * 248 + 7], ids=["one-block", "5-row-blocks"])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_tape_free_matches_taped(monkeypatch, dtype, block_bytes, stride):
    rng = np.random.default_rng(18)
    if block_bytes is not None:
        # a pixel costs 8 * (3*3*3 + 4) = 248 bytes; the budget of 5 pixels
        # is less than an output row, so every block is one row of one image
        monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", block_bytes)
    with T.default_dtype(dtype):
        x = T.Tensor(rng.standard_normal((3, 3, 11, 11)))
        k = T.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), requires_grad=True)
        free = T.conv2d(x, k, stride=stride, padding=1, bias=b).data
        with T.Tape() as tape:
            taped = T.conv2d(x, k, stride=stride, padding=1, bias=b)
        assert len(tape) == 1
    assert free.dtype == taped.data.dtype == dtype
    if dtype == np.float32:
        assert free.tobytes() == taped.data.tobytes()
    else:
        np.testing.assert_allclose(free, taped.data, rtol=1e-13, atol=1e-13)


def test_conv2d_constant_input_skips_input_gradient(monkeypatch):
    def conv_grads():
        rng = np.random.default_rng(19)
        x = T.Tensor(rng.standard_normal((2, 3, 9, 9)), requires_grad=needs_dx)
        k = T.Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), requires_grad=True)
        with T.Tape() as tape:
            y = T.conv2d(x, k, stride=2, padding=1, bias=b)
            tape.backward(T.sum_(T.mul(y, y)))
        return x.grad, k.grad.tobytes() + b.grad.tobytes()

    needs_dx = True
    dx, with_dx = conv_grads()
    assert dx is not None

    def no_scatter(*args):
        raise AssertionError("conv2d built an input gradient nobody needs")

    monkeypatch.setattr(T, "_col2im", no_scatter)
    needs_dx = False
    dx, without_dx = conv_grads()
    assert dx is None
    assert without_dx == with_dx
    # the kernel and bias gradients as they were when conv2d always built dx
    assert hashlib.sha256(without_dx).hexdigest() == (
        "7adf204a727daaf05f1b7d6613fb9033cae88b98375c50f3b62a7c6a75104fd8")


def _chain(x, k, b):
    return T.avg_pool2d(T.relu(T.conv2d(x, k, padding=1, bias=b)), 2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("block_bytes", [None, 60 * 248 + 7],
                         ids=["one-block", "5-row-pair-blocks"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["dx", "no-dx"])
def test_conv_relu_pool2d_matches_three_op_chain(monkeypatch, dtype, block_bytes,
                                                 x_grad):
    if block_bytes is not None:
        # a pixel costs 8 * (3*3*3 + 4) = 248 bytes and an output row 6
        # pixels: the budget of 60 pixels holds 10 rows, more than an
        # 8-row image, so each block is one whole image
        monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(20)
    x_data = rng.standard_normal((3, 3, 8, 6))
    k_data = rng.standard_normal((4, 3, 3, 3))
    b_data = rng.standard_normal(4)
    g = rng.standard_normal((3, 4, 4, 3))
    results = []
    with T.default_dtype(dtype):
        for op in (_chain, T.conv_relu_pool2d):
            x = T.Tensor(x_data, requires_grad=x_grad)
            k = T.Tensor(k_data, requires_grad=True)
            b = T.Tensor(b_data, requires_grad=True)
            free = op(x, k, b).data
            with T.Tape() as tape:
                taped = op(x, k, b)
                tape.backward(T.sum_(T.mul(taped, T.const(g))))
            results.append([free, taped.data, k.grad, b.grad]
                           + ([x.grad] if x_grad else []))
            assert x_grad or x.grad is None
    for want, got in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        if dtype == np.float32:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_conv_relu_pool2d_records_one_op():
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((5, 3, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(5), requires_grad=True)
    with T.Tape() as tape:
        out = T.conv_relu_pool2d(x, k, b)
    assert len(tape) == 1
    assert out.shape == (2, 5, 2, 2) and out.requires_grad


@pytest.mark.parametrize("x_shape,k_shape,b_shape", [
    ((1, 3, 5, 4), (2, 3, 3, 3), (2,)), ((1, 3, 4, 4), (2, 3, 5, 5), (2,)),
    ((1, 3, 4, 4), (2, 4, 3, 3), (2,)), ((1, 3, 4, 4), (2, 3, 3, 3), (3,))],
    ids=["odd-height", "5x5-kernel", "channel-mismatch", "bias-length"])
def test_conv_relu_pool2d_rejects_bad_shapes(x_shape, k_shape, b_shape):
    with pytest.raises(DimensionError):
        T.conv_relu_pool2d(T.zeros(x_shape), T.zeros(k_shape), T.zeros(b_shape))


def test_conv_relu_pool2d_overflow_raises_before_relu():
    # every conv output is -2e39, beyond float32: it rounds to -inf, which
    # the ReLU would turn into 0 and the pool into a finite map
    x = T.Tensor(np.full((1, 1, 2, 2), 1e38, dtype=np.float32))
    k = T.Tensor(np.full((1, 1, 3, 3), -20.0, dtype=np.float32))
    b = T.zeros(1)
    with pytest.raises(NumericError, match="conv_relu_pool2d"):
        T.conv_relu_pool2d(x, k, b)


def test_cnn_forward_holds_no_full_resolution_map(monkeypatch):
    # 2 MB blocks, so the inputs and pooled outputs decide the peak; the
    # three-op chain held the (8,32,224,224) conv
    # output and its ReLU copy at once, two of the maps this bound is one of
    monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", 2 << 20)
    params = bb.init_backbone(bb.paper_config(), np.random.default_rng(22))
    x = T.Tensor(np.random.default_rng(23).standard_normal((8, 3, 224, 224)))
    full_map_bytes = 8 * 32 * 224 * 224 * 4    # 51 MB
    peak = _peak_traced_bytes(lambda: bb.cnn_forward(x, params))
    assert peak < full_map_bytes


def test_conv_relu_pool2d_tape_free_has_no_padded_input(monkeypatch):
    # the second paper-preset block; 2 MB blocks leave the pooled output as
    # the one big allocation, and a zero-padded copy of x would double it
    monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", 2 << 20)
    rng = np.random.default_rng(24)
    x = T.Tensor(rng.standard_normal((8, 32, 112, 112)))
    k = T.Tensor(rng.standard_normal((64, 32, 3, 3)) * 0.1, requires_grad=True)
    b = T.Tensor(rng.standard_normal(64), requires_grad=True)
    pad_bytes = 8 * 32 * 114 * 114 * 4           # 13 MB
    out_bytes = 8 * 64 * 56 * 56 * 4             # 6.4 MB
    peak = _peak_traced_bytes(lambda: T.conv_relu_pool2d(x, k, b))
    assert peak < out_bytes + 2 * T._GEMM_BLOCK_BYTES < out_bytes + pad_bytes


def _row_major(op, x, k, b, stride, padding, g):
    if op == "conv_relu_pool2d":
        return oracles.conv_relu_pool2d_rows(x, k, b, g)
    rows = oracles.conv2d_rows if op == "conv2d" else oracles.conv_transpose2d_rows
    return rows(x, k, b, stride, padding, g)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=st.sampled_from(["conv2d", "conv_relu_pool2d", "conv_transpose2d"]),
       n=st.integers(1, 3), c=st.integers(1, 4), k=st.integers(1, 4),
       h=st.integers(1, 9), w=st.integers(1, 9), kh=st.integers(1, 4),
       kw=st.integers(1, 4), stride=st.integers(1, 2), padding=st.integers(0, 1),
       with_bias=st.booleans(), block_rows=st.one_of(st.none(), st.integers(1, 5)),
       seed=st.integers(0, 2**16))
def test_conv_ops_match_row_major_engine_bytes(op, n, c, k, h, w, kh, kw, stride,
                                               padding, with_bias, block_rows, seed):
    if op == "conv_relu_pool2d":
        h, w, kh, kw, stride, padding, with_bias = 2 * h, 2 * w, 3, 3, 1, 1, True
    if op == "conv_transpose2d":
        oh = (h - 1) * stride + kh - 2 * padding
        ow = (w - 1) * stride + kw - 2 * padding
        k_shape = (c, k, kh, kw)
    else:
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        k_shape = (k, c, kh, kw)
    assume(oh > 0 and ow > 0)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    kern = rng.standard_normal(k_shape).astype(np.float32)
    bias = rng.standard_normal(k).astype(np.float32) if with_bias else None
    out_hw = (oh // 2, ow // 2) if op == "conv_relu_pool2d" else (oh, ow)
    g = rng.standard_normal((n, k) + out_hw).astype(np.float32)
    fn = getattr(T, op)
    args = () if op == "conv_relu_pool2d" else (stride, padding)
    # 64-bit bytes of one output row of the GEMM the op blocks (for
    # conv_transpose2d, its backward's conv2d over g)
    row_bytes = {"conv2d": 8 * (c * kh * kw + k) * ow,
                 "conv_relu_pool2d": 8 * (c * 9 + k) * w,
                 "conv_transpose2d": 8 * (k * kh * kw + c) * w}[op]
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            # blocks of a few output rows cut images; one-image blocks too
            mp.setattr(T, "_GEMM_BLOCK_BYTES", block_rows * row_bytes)
        xt = T.Tensor(x, requires_grad=True)
        kt = T.Tensor(kern, requires_grad=True)
        bt = T.Tensor(bias, requires_grad=True) if with_bias else None
        free = fn(xt, kt, *args, bias=bt).data
        with T.Tape() as tape:
            y = fn(xt, kt, *args, bias=bt)
            tape.backward(T.sum_(T.mul(y, T.const(g))))
    want = _row_major(op, x, kern, bias, stride, padding, g)
    got = [free, y.data, xt.grad, kt.grad] + ([bt.grad] if with_bias else [])
    for name, have, expect in zip(["tape-free", "forward", "dx", "dk", "db"], got,
                                  (want[0],) + tuple(want)):
        assert have.dtype == expect.dtype == np.float32, name
        assert have.shape == expect.shape, name
        assert have.tobytes() == np.ascontiguousarray(expect).tobytes(), name


@pytest.mark.parametrize("shape", [(1, 5, 70, 70), (3, 5, 40, 50), (2, 1, 9, 9),
                                   (4, 3, 1, 1), (1, 1, 1, 1)])
def test_bias_gradient_adds_pixel_rows_in_row_major_order(shape):
    # 64-bit, where a different summation order shows: the (N*OH*OW, K)
    # pixel rows summed the way the row-major engine did (pairwise for one
    # image, whose rows are a strided view; row after row for a batch)
    g = np.random.default_rng(25).standard_normal(shape) * 1e3
    want = oracles._pixel_rows(g).sum(axis=0)
    assert T._bias_grad(T._chan_rows(g), shape[0]).tobytes() == want.tobytes()


@pytest.mark.parametrize("kh,kw,stride,pad", [(3, 3, 1, 1), (4, 4, 2, 1), (2, 3, 2, 0),
                                              (1, 1, 1, 0)])
def test_col2im_adds_taps_in_row_major_order(kh, kw, stride, pad):
    rng = np.random.default_rng(26)
    n, c, h, w = 2, 3, 7, 6
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    shape = (c, kh, kw, n, oh, ow)
    cols = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    old = oracles._col2im(cols.transpose(3, 0, 4, 5, 1, 2), (h + 2 * pad, w + 2 * pad),
                          stride)[:, :, pad:pad + h, pad:pad + w]
    got = T._col2im(cols, (h, w), stride, pad)
    assert got.tobytes() == np.ascontiguousarray(old).tobytes()


def test_softmax_symmetry_cases():
    out = T.softmax(T.Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)
    out = T.softmax(T.Tensor([7.3, 7.3, 7.3, 7.3]))
    np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-7)


def test_softmax_scalar_oracle():
    x = [1.0, 2.0, 3.0]
    denom = sum(math.exp(v) for v in x)
    want = [math.exp(v) / denom for v in x]
    out = T.softmax(T.Tensor(x))
    np.testing.assert_allclose(out.data, want, atol=1e-6)
    np.testing.assert_allclose(out.data, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(6)
    # large magnitudes: stable shift keeps sums exact even when tails underflow
    x = T.Tensor(rng.standard_normal((5, 8)) * 30)
    out = T.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)
    # moderate magnitudes: every entry strictly inside (0, 1)
    x = T.Tensor(rng.standard_normal((5, 8)) * 3)
    out = T.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)
    assert np.all(out.data > 0) and np.all(out.data < 1)


def test_elementwise_examples():
    np.testing.assert_array_equal(T.relu(T.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert T.sigmoid(T.Tensor([0.0])).data[0] == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.standard_normal(6))
    np.testing.assert_array_equal(T.mul(x, T.ones(6)).data, x.data)
    with pytest.raises(DimensionError):
        T.add(T.zeros(3), T.zeros(4))


def test_gap_examples():
    x = T.Tensor(np.full((3, 4, 5), 2.5))
    np.testing.assert_allclose(T.gap(x).data, [2.5, 2.5, 2.5], atol=1e-7)
    x = T.Tensor([[[7.0]]])
    np.testing.assert_allclose(T.gap(x).data, [7.0])
    x = T.Tensor([[[1.0, 2.0], [3.0, 4.0]]])
    np.testing.assert_allclose(T.gap(x).data, [2.5])


def test_concat_identity_and_shapes():
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.standard_normal((2, 3)))
    np.testing.assert_array_equal(T.concat([x], axis=1).data, x.data)
    y = T.Tensor(rng.standard_normal((2, 5)))
    out = T.concat([x, y], axis=1)
    assert out.shape == (2, 8)
    # complementary slicing recovers each part bit-exactly
    np.testing.assert_array_equal(out.data[:, :3], x.data)
    np.testing.assert_array_equal(out.data[:, 3:], y.data)
    with pytest.raises(DimensionError):
        T.concat([x, T.zeros((3, 5))], axis=1)


def test_backward_sum_gives_ones():
    x = T.Tensor(np.random.default_rng(9).standard_normal((3, 4)), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=np.float32))
    assert loss.grad == pytest.approx(1.0)


def test_backward_half_norm_squared():
    x = T.Tensor(np.random.default_rng(10).standard_normal(5), requires_grad=True)
    with T.Tape() as tape:
        loss = T.mul(T.sum_(T.mul(x, x)), 0.5)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, x.data, rtol=1e-6)


def test_backward_rejects_nonscalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, 2.0)
        with pytest.raises(ContractError):
            tape.backward(y)


def test_reused_tensor_accumulates_grad():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> d/dx = 2x + 1
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(7.0)


def test_nan_propagation_is_error():
    with pytest.raises(NumericError):
        T.div(T.ones(3), T.zeros(3))
    with pytest.raises(NumericError):
        T.log(T.Tensor([-1.0]))
    # clamp keeps the same case finite
    out = T.log(T.clamp_min(T.Tensor([-1.0]), 1e-12))
    assert np.isfinite(out.data).all()


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        a = T.Tensor(rng.standard_normal((8, 8)))
        b = T.Tensor(rng.standard_normal((8, 8)))
        return T.softmax(T.matmul(a, b)).data.tobytes()

    assert run() == run()


FD_CASES = {}


def _fd_case(name):
    def deco(fn):
        FD_CASES[name] = fn
        return fn
    return deco


@_fd_case("matmul")
def _case_matmul(rng):
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    return lambda: T.sum_(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b]


@_fd_case("conv2d")
def _case_conv(rng):
    x = rand_tensor(rng, (1, 2, 5, 5))
    k = rand_tensor(rng, (3, 2, 3, 3))
    b = rand_tensor(rng, (3,))
    s = int(rng.integers(1, 3))
    p = int(rng.integers(0, 2))
    return lambda: T.sum_(T.tanh(T.conv2d(x, k, stride=s, padding=p, bias=b))), [x, k, b]


@_fd_case("conv_transpose2d")
def _case_convt(rng):
    x = rand_tensor(rng, (1, 2, 3, 3))
    k = rand_tensor(rng, (2, 3, 2, 2))
    return lambda: T.sum_(T.tanh(T.conv_transpose2d(x, k, stride=2, padding=1))), [x, k]


@_fd_case("avg_pool2d")
def _case_pool(rng):
    x = rand_tensor(rng, (1, 2, 4, 4))
    return lambda: T.sum_(T.mul(T.avg_pool2d(x, 2), T.avg_pool2d(x, 2))), [x]


@_fd_case("conv_relu_pool2d")
def _case_conv_relu_pool(rng):
    x = rand_tensor(rng, (2, 2, 4, 6))
    k = rand_tensor(rng, (3, 2, 3, 3))
    b = rand_tensor(rng, (3,))
    return lambda: T.sum_(T.tanh(T.conv_relu_pool2d(x, k, b))), [x, k, b]


@_fd_case("upsample")
def _case_upsample(rng):
    x = rand_tensor(rng, (1, 2, 3, 3))
    return lambda: T.sum_(T.tanh(T.upsample_bilinear2d(x, (5, 7)))), [x]


@_fd_case("softmax")
def _case_softmax(rng):
    x = rand_tensor(rng, (3, 5))
    w = rand_tensor(rng, (3, 5), requires_grad=False)
    return lambda: T.sum_(T.mul(T.softmax(x, axis=-1), w)), [x]


@_fd_case("elementwise")
def _case_elementwise(rng):
    x = rand_tensor(rng, (6,))
    y = rand_tensor(rng, (6,))
    return (lambda: T.sum_(T.add(T.mul(T.sigmoid(x), T.tanh(y)),
                                 T.mul(T.relu(x), y))), [x, y])


@_fd_case("div_sqrt_pow")
def _case_div(rng):
    x = rand_tensor(rng, (5,), scale=0.5)
    y = T.Tensor(np.abs(rng.standard_normal(5)) + 1.0, requires_grad=True)
    return (lambda: T.sum_(T.add(T.div(x, y),
                                 T.pow_const(T.sqrt(y), 3.0))), [x, y])


@_fd_case("softplus_log_exp")
def _case_softplus(rng):
    x = rand_tensor(rng, (5,))
    return (lambda: T.sum_(T.add(T.softplus(x),
                                 T.log(T.add(T.mul(x, x), 1.5)))), [x])


@_fd_case("layer_norm")
def _case_layernorm(rng):
    x = rand_tensor(rng, (3, 6))
    g = T.Tensor(1.0 + 0.1 * rng.standard_normal(6), requires_grad=True)
    b = rand_tensor(rng, (6,), scale=0.1)
    return lambda: T.sum_(T.tanh(T.layer_norm(x, g, b))), [x, g, b]


@_fd_case("structural")
def _case_structural(rng):
    x = rand_tensor(rng, (2, 6))
    y = rand_tensor(rng, (2, 4))
    v = rand_tensor(rng, (10,))
    s = T.Tensor(np.abs(rng.standard_normal(2)) + 0.5, requires_grad=True)

    def build():
        cat = T.concat([x, y], axis=1)
        scaled = T.scale_rows(T.add_bcast(cat, v), s)
        part = T.matmul(T.const(np.eye(10)[2:7]), T.transpose(scaled, (1, 0)))
        return T.sum_(T.mul(part, part))

    return build, [x, y, v, s]


@pytest.mark.parametrize("name", sorted(FD_CASES))
def test_gradcheck_primitive(name):
    # a fixed seed per case (str hashes change per process); eps=1e-5 keeps
    # the central-difference truncation error well below rtol where tanh
    # saturates and the gradient is small
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    with T.default_dtype(np.float64):
        for _ in range(3):
            build, params = FD_CASES[name](rng)
            gradcheck(build, params, eps=1e-5)
