import dataclasses
import hashlib
import math
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from helpers import gradcheck, peak_traced_bytes, rand_tensor
import weedhybrid.backbone as bb
import weedhybrid.gan as G
import weedhybrid.heads as hd
from weedhybrid import tensor as T
from weedhybrid.errors import ContractError, DimensionError, NumericError
from weedhybrid.training import init_optimizer


def test_leaves_follow_field_order_and_skip_static_fields():
    @dataclasses.dataclass
    class Inner:
        b: object
        a: object

    @dataclasses.dataclass
    class Outer:
        first: object
        inner: Inner
        pairs: tuple
        config: object = dataclasses.field(default=None, metadata=T.STATIC)

    tree = Outer(first="x", inner=Inner(b="b", a="a"),
                 pairs=(("p0", "q0"), ("p1", "q1")), config=("not", "a", "leaf"))
    assert T.leaves(tree) == ["x", "b", "a", "p0", "q0", "p1", "q1"]
    assert T.leaves((tree.inner, "z")) == ["b", "a", "z"]


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
    x = T.Tensor(np.ones((1, 1, 4, 4)))
    k = T.Tensor(np.ones((1, 1, 2, 2)))
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


@pytest.mark.parametrize("window", [2, 3])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("hw", [(7, 5), (5, 11), (13, 7)])
def test_avg_pool2d_input_gradient_matches_scatter_bytes(window, stride, hw):
    # windows and strides whose pooled grid is not the map's phase grid, on
    # sides that are not multiples of the window: the float32 input gradient
    # is g / window**2 added tap by tap onto a 64-bit zero map
    rng = np.random.default_rng(29)
    x = T.Tensor(rng.standard_normal((2, 3) + hw), requires_grad=True, dtype=np.float32)
    with T.Tape() as tape:
        y = T.avg_pool2d(x, window, stride)
        g = rng.standard_normal(y.shape).astype(np.float32)
        tape.backward(T.sum_(T.mul(y, T.const(g))))
    gd = g / (window * window)
    want = oracles._col2im(np.broadcast_to(gd[..., None, None], gd.shape + (window, window)),
                           hw, stride)
    assert x.grad.tobytes() == want.astype(np.float32).tobytes()


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


def test_segment_head_paper_shape_memory():
    rng = np.random.default_rng(15)
    params = hd.init_heads(bb.paper_config(), rng)
    spatial = T.Tensor(rng.standard_normal((1, 128, 28, 28)))
    peak = peak_traced_bytes(lambda: hd.segment_head(spatial, params))
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

    peak = peak_traced_bytes(taped)
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
    tape, outs = T.Tape(), []

    def forward():
        with tape:
            outs.append(T.conv2d(x, k, padding=1, bias=b) if op == "conv2d"
                        else T.conv_relu_pool2d(x, k, b))

    held = peak_traced_bytes(forward, held=True)
    assert len(tape) == 1
    # the tape keeps the input (allocated before tracing) and the ReLU mask,
    # not the 7.2 MB im2col matrix, which backward rebuilds
    assert held <= outs[0].data.nbytes + mask_bytes + (64 << 10)


def test_taped_paper_attention_is_one_record_in_bounded_memory():
    cfg = bb.paper_config()
    rng = np.random.default_rng(24)
    params = bb.init_backbone(cfg, rng)
    e = T.Tensor(rng.standard_normal((2, cfg.num_patches, cfg.embed_dim)), requires_grad=True)
    g = T.const(rng.standard_normal(e.shape))
    tape = T.Tape()

    def step():
        with tape:
            out = T.attention(e, params.vit.heads)
            tape.backward(T.sum_(T.mul(out, g)))

    peak = peak_traced_bytes(step)
    # the tape keeps q, k^T, v and the softmax of each head in float32
    # (8 MiB) and the float32 weight gradients take 7 MiB; the per-head
    # chain peaked at 50.5 MiB
    assert peak <= 40 << 20
    # attention, mul and sum; the chain was 8 records per head plus a
    # concat, 97 at 12 heads
    assert len(tape) == 3


def test_conv2d_tape_free_memory_has_no_im2col_matrix():
    rng = np.random.default_rng(17)
    x = T.Tensor(rng.standard_normal((8, 32, 112, 112)))
    k = T.Tensor(rng.standard_normal((64, 32, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(64), requires_grad=True)
    cols_bytes = 8 * 112 * 112 * 32 * 9 * 4      # 116 MB
    out_bytes = 8 * 64 * 112 * 112 * 4           # 26 MB
    pad_bytes = 8 * 32 * 114 * 114 * 4           # 13 MB
    peak = peak_traced_bytes(lambda: T.conv2d(x, k, padding=1, bias=b))
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


@pytest.mark.parametrize("pixel", [(6, 1), (1, 6)], ids=["skipped-row", "skipped-column"])
def test_conv2d_gradients_ignore_pixels_the_conv_skips(pixel):
    # a 2x2 kernel at stride 3 never reads row or column 6 of a 7x7 map, so
    # an infinity there changes neither the output nor any gradient
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 3, 7, 7))
    k = rng.standard_normal((4, 3, 2, 2))
    got = []
    for value in (0.0, np.inf):
        x[:, :, pixel[0], pixel[1]] = value
        xt, kt = T.Tensor(x, requires_grad=True), T.Tensor(k, requires_grad=True)
        with T.Tape() as tape:
            y = T.conv2d(xt, kt, stride=3)
            tape.backward(T.sum_(T.mul(y, y)))
        got.append((y.data.tobytes(), kt.grad.tobytes(), xt.grad.tobytes()))
    assert got[0] == got[1]


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
    peak = peak_traced_bytes(lambda: bb.cnn_forward(x, params))
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
    peak = peak_traced_bytes(lambda: T.conv_relu_pool2d(x, k, b))
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
                                   (4, 3, 1, 1), (1, 1, 1, 1), (1, 64, 112, 112)])
def test_bias_gradient_adds_pixel_rows_in_row_major_order(monkeypatch, shape):
    # the bias gradient is a 64-bit sum of per-block sums, whether conv2d's
    # backward runs in one block, one block per image or one per output row:
    # in float32 byte-equal to the (N*OH*OW, K) pixel rows summed whole, in
    # float64 within the summation bound of that sum
    n, k, oh, ow = shape
    g = np.random.default_rng(25).standard_normal(shape) * 1e3
    rows = oracles._pixel_rows(g)
    want, bound = rows.sum(axis=0), 1e-14 * np.abs(rows).sum(axis=0)
    want32 = oracles._pixel_rows(g.astype(np.float32)).sum(axis=0).astype(np.float32)
    row_bytes = 8 * (1 + k) * ow    # a 1x1 conv from one channel
    for budget in (None, oh * row_bytes, 3 * row_bytes, row_bytes):
        if budget is not None:
            monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", budget)
        for dtype in (np.float32, np.float64):
            with T.default_dtype(dtype):
                x = T.zeros((n, 1, oh, ow))
                b = T.zeros(k, requires_grad=True)
                with T.Tape() as tape:
                    y = T.conv2d(x, T.zeros((k, 1, 1, 1)), bias=b)
                    tape.backward(T.sum_(T.mul(y, T.const(g))))
            if dtype is np.float32:
                assert b.grad.tobytes() == want32.tobytes(), budget
            else:
                assert b.grad.dtype == np.float64
                assert np.all(np.abs(b.grad - want) <= bound), budget


def _scatter_oracle(cols, hw, stride, pad, r0=0, y0=0):
    """oracles._col2im of tap-major cols (C,kh,kw,N,R,OW), output rows
    r0:r0+R, onto the zero-padded map extended below and to the right, read
    back at input rows y0:y0+H (y0 >= r0*stride) and columns 0:W."""
    c, kh, kw, n, nr, ow = cols.shape
    h, w = hw
    top = y0 - r0 * stride + pad   # the scatter row of input row y0
    full = oracles._col2im(cols.transpose(3, 0, 4, 5, 1, 2),
                           (top + h + nr * stride + kh, pad + w + ow * stride + kw), stride)
    return full[:, :, top:top + h, pad:pad + w]


@pytest.mark.parametrize("kh,kw,stride,pad", [(3, 3, 1, 1), (4, 4, 2, 1), (2, 3, 2, 0),
                                              (1, 1, 1, 0)])
def test_col2im_adds_taps_in_row_major_order(kh, kw, stride, pad):
    # whole images on the phase grid, (H, W) / stride
    rng = np.random.default_rng(26)
    n, c, h, w = 2, 3, 8, 6
    shape = (c, kh, kw, n, h // stride, w // stride)
    cols = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    got = T._col2im(cols, (h, w), stride, pad)
    assert got.tobytes() == np.ascontiguousarray(
        _scatter_oracle(cols, (h, w), stride, pad)).tobytes()


def _signed_values(rng, shape):
    """Values of either sign with magnitudes from 1e-8 to 1e8, a fifth of
    them signed zeros."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)
    zeros = rng.random(shape)
    v[zeros < 0.1] = 0.0
    v[(zeros >= 0.1) & (zeros < 0.2)] = -0.0
    return v


@st.composite
def _phase_geometries(draw):
    """(stride, pad, kh, kw, h, w) of a map the engine runs on: H and W
    multiples of the stride, any kernel that fits the padded map."""
    stride, pad = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = (stride * draw(st.integers(1, 5)) for _ in range(2))
    assume(min(T._conv_grid((h, w), kh, kw, stride, pad)) > 0)
    return stride, pad, kh, kw, h, w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(geometry=_phase_geometries(), n=st.integers(1, 3), c=st.integers(1, 3),
       dtype=st.sampled_from([np.float32, np.float64]), data=st.data(),
       seed=st.integers(0, 2**16))
def test_im2col_matches_window_oracle_bytes(geometry, n, c, dtype, data, seed):
    # a block as _conv_blocks makes them, whole images n0:n1 or output rows
    # r0:r1 of one image, against the rows of the sliding-window view of the
    # zero-padded input extended below and to the right, signed zeros
    # included
    stride, pad, kh, kw, h, w = geometry
    oh, ow = h // stride, w // stride
    n0 = data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        n1, r0, r1 = data.draw(st.integers(n0 + 1, n)), 0, oh
    else:
        n1, r0 = n0 + 1, data.draw(st.integers(0, oh - 1))
        r1 = data.draw(st.integers(r0 + 1, oh))
    x = _signed_values(np.random.default_rng(seed), (n, c, h, w)).astype(dtype)
    xe = np.pad(x, ((0, 0), (0, 0), (0, kh), (0, kw)))
    win = oracles._windows(oracles._pad_hw(xe, pad), kh, kw, stride)[n0:n1, :, r0:r1, :ow]
    want = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, -1).astype(np.float64)
    dest = np.full(want.shape, np.nan)
    T._im2col(x, dest, kh, kw, stride, pad, n0, n1, r0, r1)
    assert dest.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(geometry=_phase_geometries(), c=st.integers(1, 3),
       block=st.sampled_from(["images", "halo rows"]),
       cols_kind=st.sampled_from(["scratch", "read-only", "broadcast"]),
       with_bias=st.booleans(), out_dtype=st.sampled_from([None, np.float32]),
       data=st.data(), seed=st.integers(0, 2**16))
def test_col2im_matches_scatter_oracle_bytes(geometry, c, block, cols_kind, with_bias,
                                             out_dtype, data, seed):
    # _col2im's blocks as _conv_adjoints makes them (whole images, or the
    # rows of one image a row block completes with its halo) against the
    # row-major scatter; the entries it zeroes in a scratch cols add +0.0 to
    # a sum that is never -0.0, so no byte moves
    stride, pad, kh, kw, h, w = geometry
    oh, ow = h // stride, w // stride
    rng = np.random.default_rng(seed)
    if block == "images":
        n, r0, nr, y0, hb = data.draw(st.integers(1, 3)), 0, oh, 0, h
    else:
        a = data.draw(st.integers(0, oh - 1))
        b = data.draw(st.integers(a + 1, oh))
        r0, e1 = T._adjoint_rows(a, b, oh, kh, stride, pad)
        n, nr, y0, hb = 1, e1 - r0, a * stride, (b - a) * stride
    shape = (c, kh, kw, n, nr, ow)
    if cols_kind == "broadcast":
        # every tap the same array, read-only, as _pool_adjoint passes it
        cols = np.broadcast_to(_signed_values(rng, (c, 1, 1, n, nr, ow)), shape)
    else:
        cols = _signed_values(rng, shape)
        cols.flags.writeable = cols_kind == "scratch"
    bias = _signed_values(rng, (c,)) if with_bias else None
    want = _scatter_oracle(cols, (hb, w), stride, pad, r0, y0)
    if with_bias:
        want += bias[:, None, None]
    out = None if out_dtype is None else np.empty((n, c, hb, w), dtype=out_dtype)
    got = T._col2im(cols, (hb, w), stride, pad, r0, y0, bias=bias, out=out)
    assert out is None or got is out
    assert got.tobytes() == want.astype(got.dtype).tobytes()


def _taped_conv(op, x, kern, bias, stride, padding, g, x_grad):
    """op's output and (dx, dk, db) for the loss sum(op(...) * g); dx is None
    without x_grad, db without a bias."""
    xt = T.Tensor(x, requires_grad=x_grad, dtype=x.dtype)
    kt = T.Tensor(kern, requires_grad=True, dtype=x.dtype)
    bt = None if bias is None else T.Tensor(bias, requires_grad=True, dtype=x.dtype)
    args = () if op == "conv_relu_pool2d" else (stride, padding)
    with T.Tape() as tape:
        y = getattr(T, op)(xt, kt, *args, bias=bt)
        tape.backward(T.sum_(T.mul(y, T.Tensor(g, dtype=g.dtype))))
    return y.data, xt.grad, kt.grad, None if bt is None else bt.grad


def _assert_same(got, want, dtype, name):
    assert got.dtype == want.dtype == dtype, name
    assert got.shape == want.shape, name
    if dtype == np.float32:
        assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13, err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(op=st.sampled_from(["conv2d", "conv_relu_pool2d", "conv_transpose2d"]),
       n=st.integers(1, 3), c=st.integers(1, 3), k=st.integers(1, 3),
       h=st.integers(1, 9), w=st.integers(1, 9), kh=st.integers(2, 4), kw=st.integers(2, 4),
       stride=st.integers(1, 2), padding=st.integers(0, 1), with_bias=st.booleans(),
       blocks=st.sampled_from(["whole-image", "one-row", "row-pair"]),
       x_grad=st.booleans(), seed=st.integers(0, 2**16))
def test_blocked_conv_adjoints_match_whole_matrix(dtype, op, n, c, k, h, w, kh, kw, stride,
                                                  padding, with_bias, blocks, x_grad, seed):
    # the backward passes and conv_transpose2d's forward, run over blocks,
    # against the whole-matrix adjoints they replaced; float32 results are
    # byte-equal, float64 ones may differ in the last bit where a 64-bit sum
    # is split over blocks
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
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    kern = rng.standard_normal(k_shape).astype(dtype)
    bias = rng.standard_normal(k).astype(dtype) if with_bias else None
    out_hw = (oh // 2, ow // 2) if op == "conv_relu_pool2d" else (oh, ow)
    g = rng.standard_normal((n, k) + out_hw).astype(dtype)
    # the grid and 64-bit bytes per output pixel of the conv whose blocks the
    # op runs over: for conv_transpose2d, the conv its forward is the adjoint
    # of, whose output grid is x's
    if op == "conv_transpose2d":
        grid, pixel_bytes = (h, w), 8 * (k * kh * kw + c)
    else:
        grid, pixel_bytes = (oh, ow), 8 * (c * kh * kw + k)
    rows = {"whole-image": grid[0], "one-row": 1, "row-pair": 2}[blocks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_GEMM_BLOCK_BYTES", rows * grid[1] * pixel_bytes)
        y, dx, dk, db = _taped_conv(op, x, kern, bias, stride, padding, g, x_grad)
    assert x_grad == (dx is not None)
    if op == "conv_transpose2d":
        want = dict(zip(["forward", "dk"],
                        oracles.conv_transpose2d_whole(x, kern, bias, stride, padding, g)))
        got = {"forward": y, "dk": dk}
    else:
        if op == "conv2d":
            wdx, wdk, wdb = oracles.conv2d_backward_whole(x, kern, with_bias, stride,
                                                          padding, g)
        else:
            wdx, wdk, wdb = oracles.conv_relu_pool2d_backward_whole(x, kern, bias, g)
        want = {"dk": wdk, "db": wdb, "dx": wdx}
        got = {"dk": dk, "db": db, "dx": dx}
    if not x_grad:
        want.pop("dx", None)
    if not with_bias:
        want.pop("db", None)
    for name, expect in want.items():
        _assert_same(got[name], expect, dtype, name)


@pytest.mark.parametrize("preset,batch", [("desk", 32), ("paper", 2), ("paper", 1)])
def test_cnn_block_gradients_match_whole_matrix_at_preset_shapes(preset, batch):
    # every CNN block of the preset at the default budget (several images per
    # block at desk, row blocks of one image at paper): float32 dx, dk and db
    # byte-equal to the whole-matrix backward
    cfg = bb.desk_config() if preset == "desk" else bb.paper_config()
    rng = np.random.default_rng(27)
    c, (h, w) = cfg.in_channels, cfg.image_size
    for k in cfg.cnn_channels:
        x = rng.standard_normal((batch, c, h, w)).astype(np.float32)
        kern = (rng.standard_normal((k, c, 3, 3)) / np.sqrt(9 * c)).astype(np.float32)
        bias = (rng.standard_normal(k) * 0.1).astype(np.float32)
        g = rng.standard_normal((batch, k, h // 2, w // 2)).astype(np.float32)
        _, dx, dk, db = _taped_conv("conv_relu_pool2d", x, kern, bias, 1, 1, g, True)
        for name, got, want in zip(["dx", "dk", "db"], (dx, dk, db),
                                   oracles.conv_relu_pool2d_backward_whole(x, kern, bias, g)):
            _assert_same(got, want, np.float32, f"{preset} {c}->{k} {name}")
        c, h, w = k, h // 2, w // 2


def test_model_convs_run_without_zero_extension(monkeypatch):
    # every conv the models run is on its input's phase grid, so none pays
    # for a zero-extended copy of its input or gradient
    extend = T._extend

    def no_copy(a, rows, cols):
        if a.shape[2:] != (rows, cols):
            raise AssertionError(f"a model conv zero-extended {a.shape} to {(rows, cols)}")
        return extend(a, rows, cols)

    monkeypatch.setattr(T, "_extend", no_copy)
    rng = np.random.default_rng(31)
    for cfg, batch in ((bb.desk_config(), 4), (bb.paper_config(), 1)):
        params, heads = bb.init_backbone(cfg, rng), hd.init_heads(cfg, rng)
        x = T.Tensor(rng.standard_normal((batch, cfg.in_channels) + tuple(cfg.image_size)),
                     requires_grad=True)
        with T.Tape() as tape:
            _, spatial = bb.cnn_forward(x, params)
            tape.backward(T.sum_(hd.segment_head(spatial, heads)))
        assert x.grad is not None and params.cnn[0][0].grad is not None
    gan_cfg = G.GanConfig()
    gan = G.init_gan(gan_cfg, rng)
    real = T.const(rng.uniform(-1, 1, (2, 3) + tuple(gan_cfg.image_size)))
    G.gan_train_step(real, [0, 1], gan, init_optimizer(T.leaves(gan.d), gan_cfg.lr),
                     init_optimizer(T.leaves(gan.g), gan_cfg.lr), rng)
    chunks = G.rebalance([0] * gan_cfg.class_count, 1, gan)
    assert sum(len(images) for _, images in chunks) == gan_cfg.class_count


@pytest.mark.parametrize("batch", [2, 4])
def test_taped_paper_block_backward_memory_is_bounded(batch):
    # the second paper CNN block; the whole-matrix backward held a 64-bit
    # im2col matrix and input gradient of the batch (75.3 MiB at batch 2,
    # 150.3 MiB at batch 4)
    rng = np.random.default_rng(28)
    x = T.Tensor(rng.standard_normal((batch, 32, 112, 112)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((64, 32, 3, 3)) * 0.06, requires_grad=True)
    b = T.Tensor(rng.standard_normal(64) * 0.1, requires_grad=True)
    g = T.const(rng.standard_normal((batch, 64, 56, 56)))
    tape = T.Tape()
    with tape:
        loss = T.sum_(T.mul(T.conv_relu_pool2d(x, k, b), g))
    peak = peak_traced_bytes(lambda: tape.backward(loss))
    in_bytes, out_bytes = x.data.nbytes, g.data.nbytes
    # held: dx and x.grad, the pooled output's gradient and g / 4; then the
    # reused block buffers and one block's input-gradient rows
    assert peak < 2 * in_bytes + 2 * out_bytes + 2 * T._GEMM_BLOCK_BYTES


def test_conv_transpose2d_forward_memory_is_bounded():
    # a GAN-shaped upsampling layer at 4x the GAN's size; the whole-matrix
    # forward held W.T @ x (51 MB) and a 64-bit output map (13 MB)
    rng = np.random.default_rng(29)
    x = T.Tensor(rng.standard_normal((4, 64, 56, 56)))
    k = T.Tensor(rng.standard_normal((64, 32, 4, 4)) * 0.03, requires_grad=True)
    b = T.Tensor(rng.standard_normal(32), requires_grad=True)
    out_bytes = 4 * 32 * 112 * 112 * 4
    peak = peak_traced_bytes(lambda: T.conv_transpose2d(x, k, stride=2, padding=1, bias=b))
    assert peak < out_bytes + 2 * T._GEMM_BLOCK_BYTES


def test_stride2_conv2d_tape_free_memory_is_bounded():
    # a GAN-shaped stride-2 discriminator layer at 4x the GAN's size: the
    # output and one block; no phase plane of the whole batch exists
    rng = np.random.default_rng(30)
    x = T.Tensor(rng.standard_normal((8, 32, 112, 112)))
    k = T.Tensor(rng.standard_normal((64, 32, 4, 4)) * 0.05, requires_grad=True)
    b = T.Tensor(rng.standard_normal(64), requires_grad=True)
    out_bytes = 8 * 64 * 56 * 56 * 4
    peak = peak_traced_bytes(lambda: T.conv2d(x, k, stride=2, padding=1, bias=b))
    assert peak < out_bytes + 2 * T._GEMM_BLOCK_BYTES


def test_stride2_conv_transpose2d_tape_free_memory_is_bounded():
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.standard_normal((8, 64, 56, 56)))
    k = T.Tensor(rng.standard_normal((64, 32, 4, 4)) * 0.03, requires_grad=True)
    b = T.Tensor(rng.standard_normal(32), requires_grad=True)
    out_bytes = 8 * 32 * 112 * 112 * 4
    peak = peak_traced_bytes(lambda: T.conv_transpose2d(x, k, stride=2, padding=1, bias=b))
    assert peak < out_bytes + 2 * T._GEMM_BLOCK_BYTES


@pytest.mark.parametrize("op", ["conv2d", "conv_transpose2d"])
@pytest.mark.parametrize("stride,padding", [(0, 0), (-1, 1), (1, -1), (2, -2)],
                         ids=["stride-0", "stride-negative", "padding-negative",
                              "stride-2-padding-negative"])
def test_conv_rejects_bad_stride_or_padding(op, stride, padding):
    # stride 0 ended in ZeroDivisionError; a negative padding cropped
    # conv2d's output and grew conv_transpose2d's
    x = T.zeros((1, 2, 5, 5))
    k = T.zeros((2, 2, 3, 3))
    with pytest.raises(ContractError, match=op):
        getattr(T, op)(x, k, stride=stride, padding=padding)


_INF = float("inf")
_NON_FINITE_CASES = {
    "add": lambda: T.add(T.Tensor([_INF]), T.Tensor([-_INF])),
    "sub": lambda: T.sub(T.Tensor([_INF]), T.Tensor([_INF])),
    "mul": lambda: T.mul(T.Tensor([_INF]), T.Tensor([0.0])),
    "sqrt": lambda: T.sqrt(T.Tensor([-1.0])),
    "sum": lambda: T.sum_(T.Tensor([_INF, -_INF])),
    "mean": lambda: T.mean(T.Tensor([_INF, -_INF])),
    "matmul": lambda: T.matmul(T.Tensor([[_INF, _INF]]), T.Tensor([[1.0], [-1.0]])),
    "softmax": lambda: T.softmax(T.Tensor([[_INF, 1.0]])),
    "layer_norm": lambda: T.layer_norm(T.Tensor([[_INF, 1.0]]), T.Tensor([1.0, 1.0]),
                                       T.zeros(2)),
    "upsample_bilinear2d": lambda: T.upsample_bilinear2d(
        T.Tensor(np.full((1, 1, 2, 2), _INF)), (3, 3)),
    "conv2d": lambda: T.conv2d(T.Tensor(np.full((1, 1, 3, 3), _INF)),
                               T.Tensor([[[[1.0, -1.0]]]])),
    "conv_relu_pool2d": lambda: T.conv_relu_pool2d(
        T.Tensor(np.full((1, 1, 2, 2), _INF)), T.Tensor(np.ones((1, 1, 3, 3)) * [1, -1, 1]),
        T.zeros(1)),
    "conv_transpose2d": lambda: T.conv_transpose2d(T.Tensor(np.full((1, 1, 2, 2), _INF)),
                                                   T.Tensor([[[[1.0, -1.0]]]])),
    "pow_const": lambda: T.pow_const(T.Tensor([-1.0]), 0.5),
    "add_bcast": lambda: T.add_bcast(T.Tensor([[_INF]]), T.Tensor([-_INF])),
    "scale_rows": lambda: T.scale_rows(T.Tensor([[_INF]]), T.Tensor([0.0])),
    "avg_pool2d": lambda: T.avg_pool2d(
        T.Tensor(np.array([_INF, -_INF, 1, 1]).reshape(1, 1, 2, 2))),
    "div": lambda: T.div(T.Tensor([_INF]), T.Tensor([_INF])),
    "neg": lambda: T.neg(T.Tensor([_INF])),
    "relu": lambda: T.relu(T.Tensor([_INF])),
    "leaky_relu": lambda: T.leaky_relu(T.Tensor([-_INF])),
    "sigmoid": lambda: T.sigmoid(T.Tensor([np.nan])),
    "tanh": lambda: T.tanh(T.Tensor([np.nan])),
    "log": lambda: T.log(T.Tensor([_INF])),
    "softplus": lambda: T.softplus(T.Tensor([_INF])),
    "clamp_min": lambda: T.clamp_min(T.Tensor([np.nan]), 0.0),
    "concat": lambda: T.concat([T.Tensor([1.0]), T.Tensor([_INF])]),
}


@pytest.mark.parametrize("op", sorted(_NON_FINITE_CASES))
def test_non_finite_result_raises_numeric_error_without_warning(op):
    # NumPy's "invalid value" warnings are errors under the test config, so
    # an op that let one through would raise RuntimeWarning here instead
    with pytest.raises(NumericError, match=f"^{op} produced non-finite values"):
        _NON_FINITE_CASES[op]()


# Two-operand ops with the shape of their second operand beside a (2, 3) first one.
_TWO_OPERAND_OPS = {
    "add": (T.add, (2, 3)), "sub": (T.sub, (2, 3)), "mul": (T.mul, (2, 3)),
    "div": (T.div, (2, 3)), "concat": (lambda a, b: T.concat([a, b]), (2, 3)),
    "add_bcast": (T.add_bcast, (3,)), "scale_rows": (T.scale_rows, (2,)),
    "matmul": (T.matmul, (3, 4)),
}
# (op, constant operand) pairs whose rule hands g, or a view of it, straight on
_PASSED_ON = {("add", 0), ("add", 1), ("sub", 0), ("concat", 0), ("concat", 1),
              ("add_bcast", 0)}


def _binary_operands(op, dtypes=(np.float32, np.float32), grads=(False, False)):
    rng = np.random.default_rng(41)
    return (T.Tensor(rng.uniform(1, 2, (2, 3)), grads[0], dtypes[0]),
            T.Tensor(rng.uniform(1, 2, _TWO_OPERAND_OPS[op][1]), grads[1], dtypes[1]))


@pytest.mark.parametrize("op", sorted(_TWO_OPERAND_OPS))
@pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float32, np.float64),
                                    (np.float64, np.float32), (np.float64, np.float64)],
                         ids=["f32-f32", "f32-f64", "f64-f32", "f64-f64"])
def test_binary_op_output_dtype_is_numpy_promotion(op, dtypes):
    out = _TWO_OPERAND_OPS[op][0](*_binary_operands(op, dtypes))
    assert type(out.data) is np.ndarray
    assert out.data.dtype == np.result_type(*dtypes)


def test_op_over_0d_tensors_holds_a_0d_array():
    # a ufunc over 0-d arrays returns a NumPy scalar, which _result wraps
    for out in (T.add(T.Tensor(1.0), T.Tensor(2.0)), T.neg(T.Tensor(1.0)),
                T.mul(T.Tensor(2.0), 3.0), T.sum_(T.Tensor([1.0, 2.0]))):
        assert type(out.data) is np.ndarray and out.shape == ()
        assert out.data.dtype == np.float32


@pytest.mark.parametrize("op", sorted(_TWO_OPERAND_OPS))
def test_op_records_only_when_an_input_requires_grad(op):
    for grads in ((False, False), (True, False), (False, True), (True, True)):
        with T.Tape() as tape:
            out = _TWO_OPERAND_OPS[op][0](*_binary_operands(op, grads=grads))
        assert (len(tape) > 0) == any(grads)
        assert out.requires_grad == any(grads)


@pytest.mark.parametrize("op", sorted(_TWO_OPERAND_OPS))
@pytest.mark.parametrize("const", [0, 1], ids=["const-a", "const-b"])
def test_backward_builds_no_gradient_for_a_constant_input(monkeypatch, op, const):
    fn = _TWO_OPERAND_OPS[op][0]

    def backward(grads):
        ts = _binary_operands(op, grads=grads)
        with T.Tape() as tape:
            out = fn(*ts)
            weights = np.random.default_rng(42).standard_normal(out.shape)
            tape.backward(T.sum_(T.mul(out, T.const(weights))))
        return ts

    both = backward((True, True))
    handed = []
    accum = T._accum
    monkeypatch.setattr(T, "_accum", lambda t, g: (handed.append(t), accum(t, g)))
    ts = backward(tuple(i != const for i in range(2)))
    assert ts[const].grad is None
    assert ts[1 - const].grad.tobytes() == both[1 - const].grad.tobytes()
    if (op, const) not in _PASSED_ON:
        assert not any(t is ts[const] for t in handed)


def test_backward_does_not_overflow_on_a_gradient_no_input_needs():
    # d(a*c)/dc = g * a overflows float32; c is a constant, so it is not formed
    a = T.Tensor([3e38], requires_grad=True)
    with T.Tape() as tape:
        tape.backward(T.sum_(T.mul(T.mul(a, T.const([1e-3])), 10.0)))
    np.testing.assert_array_equal(a.grad, np.float32(10.0) * np.float32(1e-3))


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


def _attention_results(fn, e, heads, g, dtype, tokens_grad=True):
    """fn's output, then the gradients of e and of every head's w_q, w_k,
    w_v under the loss sum(out * g), in storage dtype `dtype`."""
    with T.default_dtype(dtype):
        et = T.Tensor(e, requires_grad=tokens_grad)
        ht = tuple(tuple(T.Tensor(w, requires_grad=True) for w in head) for head in heads)
        with T.Tape() as tape:
            out = fn(et, ht)
            tape.backward(T.sum_(T.mul(out, T.const(g))))
    return [out.data, et.grad] + [w.grad for head in ht for w in head]


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for i, (have, expect) in enumerate(zip(got, want)):
        if expect is None:
            assert have is None, i
            continue
        assert have.dtype == expect.dtype and have.shape == expect.shape, i
        assert have.tobytes() == expect.tobytes(), i


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 3), p=st.integers(1, 9), h=st.integers(1, 4), d_k=st.integers(1, 6),
       dtype=st.sampled_from([np.float32, np.float64]), tokens_grad=st.booleans(),
       chunk=st.one_of(st.none(), st.integers(1, 2)), seed=st.integers(0, 2**16))
def test_attention_matches_per_head_chain_bytes(n, p, h, d_k, dtype, tokens_grad, chunk,
                                                seed):
    rng = np.random.default_rng(seed)
    d = h * d_k
    e = rng.standard_normal((n, p, d))
    heads = [[rng.standard_normal((d, d_k)) * 0.7 for _ in range(3)] for _ in range(h)]
    g = rng.standard_normal((n, p, d))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            # attention's 64-bit tokens and scores of `chunk` images at a time
            mp.setattr(T, "_GEMM_BLOCK_BYTES", chunk * 8 * p * (d + p))
        got = _attention_results(T.attention, e, heads, g, dtype, tokens_grad)
    _assert_same_bytes(
        got, _attention_results(oracles.attention_chain, e, heads, g, dtype, tokens_grad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("a_shape,b_shape", [((5, 3, 4), (4, 6)), ((3, 4), (5, 4, 6)),
                                             ((5, 3, 4), (5, 4, 6))],
                         ids=["3d-2d", "2d-3d", "3d-3d"])
def test_stacked_matmul_runs_in_chunks_with_whole_bytes(monkeypatch, dtype, a_shape,
                                                        b_shape):
    # a budget below one image's 64-bit operands and product: one image per
    # chunk, each its own GEMM, as NumPy runs a stacked product
    monkeypatch.setattr(T, "_GEMM_BLOCK_BYTES", 8)
    rng = np.random.default_rng(32)
    a, b = rng.standard_normal(a_shape) * 1e3, rng.standard_normal(b_shape) * 1e-3
    with T.default_dtype(dtype):
        at, bt = T.Tensor(a), T.Tensor(b)
        got = T.matmul(at, bt).data
    want = (at.data.astype(np.float64) @ bt.data.astype(np.float64)).astype(dtype)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_paper_vit_forward_memory_is_bounded():
    # paper eval runs its 12 images as one batch; matmul and attention make
    # 64-bit copies of a few images' tokens at a time, where they held 64-bit
    # copies of the whole batch, two token maps each (44.0 MiB peak before).
    # The float32 maps of the patch embedding and one chunk fit in five
    cfg = bb.paper_config()
    params = bb.init_backbone(cfg, np.random.default_rng(30))
    x = T.Tensor(np.random.default_rng(31).standard_normal((12, 3, 224, 224)))
    tokens_bytes = 12 * cfg.num_patches * cfg.embed_dim * 4      # 6.9 MiB
    peak = peak_traced_bytes(lambda: bb.vit_forward(x, params.vit, cfg))
    assert peak < 5 * tokens_bytes


@pytest.mark.parametrize("preset", ["desk", "paper"])
def test_attention_matches_per_head_chain_at_preset_shapes(preset):
    cfg = bb.desk_config() if preset == "desk" else bb.paper_config()
    n = 32 if preset == "desk" else 1
    rng = np.random.default_rng(22)
    params = bb.init_backbone(cfg, rng)
    heads = [[w.data for w in head] for head in params.vit.heads]
    e = rng.standard_normal((n, cfg.num_patches, cfg.embed_dim))
    g = rng.standard_normal(e.shape)
    _assert_same_bytes(_attention_results(T.attention, e, heads, g, np.float32),
                       _attention_results(oracles.attention_chain, e, heads, g, np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e30])
def test_attention_non_finite_raises_numeric_error(bad):
    rng = np.random.default_rng(23)
    e = rng.standard_normal((2, 3, 4)).astype(np.float32)
    e[1, 2, 0] = bad   # 1e30 is finite but overflows float32 in the projections
    heads = tuple(tuple(T.Tensor(rng.standard_normal((4, 2)) * 1e10) for _ in range(3))
                  for _ in range(2))
    with pytest.raises(NumericError, match="attention"):
        T.attention(T.Tensor(e), heads)


def test_elementwise_examples():
    np.testing.assert_array_equal(T.relu(T.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert T.sigmoid(T.Tensor([0.0])).data[0] == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.standard_normal(6))
    np.testing.assert_array_equal(T.mul(x, T.Tensor(np.ones(6))).data, x.data)
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


def test_backward_walks_a_tape_once():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.mul(x, x))
        tape.backward(loss)
    # the records are gone, so a second walk would return no gradients
    with pytest.raises(ContractError):
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    assert len(tape) == 2


def test_reused_tensor_accumulates_grad():
    x = T.Tensor([3.0], requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> d/dx = 2x + 1
        tape.backward(loss)
    assert x.grad[0] == pytest.approx(7.0)


def test_nan_propagation_is_error():
    with pytest.raises(NumericError):
        T.div(T.Tensor(np.ones(3)), T.zeros(3))
    with pytest.raises(NumericError):
        T.log(T.Tensor([-1.0]))
    # clamp keeps the same case finite
    out = T.log(T.clamp_min(T.Tensor([-1.0]), 1e-12))
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("zero", [0.0, -0.0, 0, np.float32(0.0)])
def test_div_by_scalar_zero_raises_numeric_error(zero):
    # as a zero tensor divisor does, not Python's ZeroDivisionError
    with pytest.raises(NumericError, match="^div produced non-finite values"):
        T.div(T.Tensor([1.0, 0.0]), zero)


def test_div_by_scalar_is_mul_by_reciprocal():
    x = T.Tensor(np.random.default_rng(29).standard_normal(64))
    for s in (3.0, -0.7, 1e-30, 7):
        assert T.div(x, s).data.tobytes() == T.mul(x, 1.0 / s).data.tobytes()


_ROWS, _COLS = 1024, 2048   # 8 MiB float32 operands
_BINARY_OPS = {
    "add": T.add,
    "mul": T.mul,
    "div": T.div,
    "add_bcast": lambda a, b: T.add_bcast(a, T.Tensor(b.data[0])),
    "scale_rows": lambda a, b: T.scale_rows(a, T.Tensor(b.data[:, 0])),
    "concat": lambda a, b: T.concat([T.Tensor(a.data[:_ROWS // 2]),
                                     T.Tensor(b.data[_ROWS // 2:])]),
}


@pytest.mark.parametrize("op", sorted(_BINARY_OPS))
def test_binary_op_output_is_not_copied(op):
    # the output plus the finite check's bool map (a quarter of it); a
    # second output-sized copy in astype would reach 2.25x
    rng = np.random.default_rng(30)
    a = T.Tensor(rng.standard_normal((_ROWS, _COLS)))
    b = T.Tensor(rng.uniform(1.0, 2.0, (_ROWS, _COLS)))
    want = _ROWS * _COLS * 4
    assert _BINARY_OPS[op](a, b).data.nbytes == want
    assert peak_traced_bytes(lambda: _BINARY_OPS[op](a, b)) < 1.5 * want


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_leaky_relu_backward_matches_the_factor_formula_bytes(dtype):
    # the backward multiplied g by np.where(a > 0, 1.0, alpha) cast to a's
    # dtype; it now selects g or g * alpha, and g * 1.0 is g, signed zeros
    # included
    rng = np.random.default_rng(43)
    x = rng.standard_normal(64).astype(dtype)
    x[:4] = [0.0, -0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
    g = rng.standard_normal(64).astype(dtype)
    g[:8] = [0.0, -0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0]
    x[4:8] = [1.0, -1.0, 2.0, -2.0]
    a = T.Tensor(x, requires_grad=True, dtype=dtype)
    with T.Tape() as tape:
        tape.backward(T.sum_(T.mul(T.leaky_relu(a, 0.2), T.Tensor(g, dtype=dtype))))
    want = g * np.where(x > 0, 1.0, 0.2).astype(dtype)
    assert a.grad.dtype == dtype
    assert a.grad.tobytes() == want.tobytes()
