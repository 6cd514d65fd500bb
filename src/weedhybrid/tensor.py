"""Dense tensors with reverse-mode automatic differentiation.

Values are stored as row-major 32-bit float arrays (a 64-bit mode exists for
verification); reductions accumulate in 64-bit before rounding back to the
storage type. The graph is define-by-run: primitives applied while a Tape is
active append (output, backward-rule) records in execution order, and
Tape.backward walks the records once in reverse. Tensors are treated as
immutable once produced; there is no implicit broadcasting between tensors
except the scalar-tensor case.

The spatial primitives take only batched (N, C, H, W) maps and accumulate
in 64-bit. The convolutions share one engine on a tap-major im2col layout:
_im2col builds the (C*kh*kw, pixels) matrix whose row c*kh*kw + i*kw + j is
input channel c shifted by kernel tap (i, j), one strided copy per tap with
a contiguous run of OW; where a tap reads the zero border it writes zeros, so
no conv path makes a padded copy of its input. Rows are in the order of
kernels.reshape(K, C*kh*kw), so the GEMM is W @ cols with the weights as
stored, its (K, pixels) product gets the bias per row, and the kernel
gradient is g @ cols.T (_kernel_grad) with g the (K, pixels) output
gradient. _col2im, the adjoint, adds W.T @ g back onto the unpadded input
one tap at a time in (i, j) order (_conv_adjoint). conv_transpose2d runs on
the same code: its forward is conv2d's input gradient, its backward conv2d's
forward and kernel gradient.
- Every conv forward runs over blocks (_conv_blocks): whole images, or whole
  rows (row pairs for conv_relu_pool2d) of one image, each at most
  _GEMM_BLOCK_BYTES of 64-bit im2col block plus 64-bit product, built in
  64-bit into one reused buffer. A taped conv keeps its input, not the
  im2col matrix; backward rebuilds that (Chen et al. 2016, recompute).
- Outputs keep the memory order of the row-major engine they replaced:
  conv2d's map and conv_relu_pool2d's pooled map are channels-last, because
  NumPy's pairwise reductions downstream (gap, Dice) add in stride order,
  and the bias gradient adds pixel rows in that engine's order (_bias_grad).
  Float32 results are byte-equal to it (tests/oracles.py). A 64-bit sum can
  differ in the last bit where BLAS runs the transposed product with another
  kernel (small matrices); rounding to float32 hides that.
- conv_relu_pool2d is the CNN block avg_pool2d(relu(conv2d(x, K, padding=1,
  bias=b)), 2) as one op: each block's product is rounded to the storage
  dtype, checked finite, rectified in place and pooled (4 taps, 64-bit)
  straight into the (N,K,H/2,W/2) output, so the full-resolution conv and
  ReLU maps never exist. It holds one block beyond its input and pooled
  output; taped, also a bool ReLU mask (1 byte per conv output element). Its
  backward is avg_pool2d's adjoint, the mask and conv2d's backward.
- upsample_bilinear2d is separable: Ry @ X @ Rx^T, no dense (OH*OW, H*W) matrix.
Backward passes and conv_transpose2d's forward hold whole 64-bit (C*kh*kw,
pixels) matrices: the rebuilt im2col matrix, input gradient or GEMM product.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_DEFAULT_DTYPE = np.float32
_GEMM_BLOCK_BYTES = 16 << 20   # float64 working set of one conv2d GEMM row block


@contextlib.contextmanager
def default_dtype(dtype):
    """Temporarily switch the storage dtype of new tensors to float32 or
    float64 (the gradient checks run in float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported tensor dtype {dt}")
    old, _DEFAULT_DTYPE = _DEFAULT_DTYPE, dt.type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = old


class Tensor:
    """A dense n-dimensional float array, optionally participating in autodiff."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def const(data) -> Tensor:
    """A tensor that never receives gradients (labels, masks, adjacency...)."""
    return Tensor(data, requires_grad=False)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=_DEFAULT_DTYPE), requires_grad=requires_grad)


def init_param(shape, init, rng: np.random.Generator = None) -> Tensor:
    """A trainable tensor: init is "zeros", "ones", or the standard deviation
    of a standard-normal draw from rng."""
    if init == "zeros":
        return zeros(shape, requires_grad=True)
    if init == "ones":
        return ones(shape, requires_grad=True)
    return Tensor(rng.standard_normal(shape) * init, requires_grad=True)


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Records are appended in execution order, so every node's inputs precede it;
    backward() visits each record exactly once in reverse.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward_fn))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad tensor reachable from loss."""
        if loss.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            backward_fn(out.grad)


_TAPE_STACK: list[Tape] = []


def _active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive plumbing


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=t.data.dtype)
    if g.shape != t.data.shape:
        raise AssertionError(f"gradient shape {g.shape} != value shape {t.data.shape}")
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


def _recorded(inputs: Sequence[Tensor]) -> bool:
    """Whether _result will put an op over these inputs on the active tape."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def _result(data: np.ndarray, op: str, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    _finite_or_raise(data, op)
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs),
                 dtype=data.dtype)
    if _recorded(inputs):
        _active_tape()._record(out, backward_fn)
    return out


def _out_dtype(*tensors: Tensor):
    dt = np.result_type(*(t.data.dtype for t in tensors))
    return np.float64 if dt == np.float64 else np.float32


def _as_scalar(x) -> float | None:
    """Return x as a python float if it is a plain number, else None."""
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x)
    return None


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        data = a.data + np.asarray(s, dtype=a.data.dtype)

        def back(g):
            _accum(a, g)

        return _result(data, "add", (a,), back)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    data = a.data + b.data

    def back(g):
        _accum(a, g.astype(a.data.dtype, copy=False))
        _accum(b, g.astype(b.data.dtype, copy=False))

    return _result(data.astype(_out_dtype(a, b)), "add", (a, b), back)


def sub(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        return add(a, -s)
    return add(a, neg(b))


def neg(a: Tensor) -> Tensor:
    data = -a.data

    def back(g):
        _accum(a, -g)

    return _result(data, "neg", (a,), back)


def mul(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        data = a.data * np.asarray(s, dtype=a.data.dtype)

        def back(g):
            _accum(a, g * s)

        return _result(data, "mul", (a,), back)
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {a.shape} and {b.shape} differ")
    data = a.data * b.data

    def back(g):
        _accum(a, (g * b.data).astype(a.data.dtype, copy=False))
        _accum(b, (g * a.data).astype(b.data.dtype, copy=False))

    return _result(data.astype(_out_dtype(a, b)), "mul", (a, b), back)


def div(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        return mul(a, 1.0 / s)
    if a.shape != b.shape:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} differ")
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def back(g):
        _accum(a, (g / b.data).astype(a.data.dtype, copy=False))
        _accum(b, (-g * a.data / (b.data * b.data)).astype(b.data.dtype, copy=False))

    return _result(data.astype(_out_dtype(a, b)), "div", (a, b), back)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def back(g):
        _accum(a, g * (a.data > 0))

    return _result(data, "relu", (a,), back)


def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    data = np.where(a.data > 0, a.data, a.data * a.data.dtype.type(alpha))

    def back(g):
        _accum(a, g * np.where(a.data > 0, 1.0, alpha).astype(a.data.dtype))

    return _result(data, "leaky_relu", (a,), back)


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) form never overflows
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(a.data.dtype)

    def back(g):
        _accum(a, g * data * (1.0 - data))

    return _result(data, "sigmoid", (a,), back)


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def back(g):
        _accum(a, g * (1.0 - data * data))

    return _result(data, "tanh", (a,), back)


def log(a: Tensor) -> Tensor:
    """Natural log; inputs must be positive (clamp first if they may not be)."""
    with np.errstate(divide="raise", invalid="raise"):
        try:
            data = np.log(a.data)
        except FloatingPointError:
            raise NumericError("log of non-positive value")

    def back(g):
        _accum(a, g / a.data)

    return _result(data, "log", (a,), back)


def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def back(g):
        _accum(a, g / (2.0 * data))

    return _result(data, "sqrt", (a,), back)


def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** a.data.dtype.type(p)

    def back(g):
        _accum(a, g * p * a.data ** a.data.dtype.type(p - 1.0))

    return _result(data, "pow_const", (a,), back)


def softplus(a: Tensor) -> Tensor:
    # max(x,0) + log1p(exp(-|x|)) is overflow-free
    data = (np.maximum(a.data, 0) + np.log1p(np.exp(-np.abs(a.data)))).astype(a.data.dtype)

    def back(g):
        e = np.exp(-np.abs(a.data))
        sig = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        _accum(a, (g * sig).astype(a.data.dtype, copy=False))

    return _result(data, "softplus", (a,), back)


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """max(a, lo) elementwise; gradient passes only where a > lo."""
    data = np.maximum(a.data, a.data.dtype.type(lo))

    def back(g):
        _accum(a, g * (a.data > lo))

    return _result(data, "clamp_min", (a,), back)


# ---------------------------------------------------------------------------
# reductions (64-bit accumulation)


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def sum_(a: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    data = _f64(a.data).sum(axis=axes).astype(a.data.dtype)

    def back(g):
        ge = np.expand_dims(g, axes) if axes else g
        _accum(a, np.broadcast_to(ge, a.shape).astype(a.data.dtype, copy=False))

    return _result(np.asarray(data), "sum", (a,), back)


def mean(a: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    n = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    data = (_f64(a.data).sum(axis=axes) / n).astype(a.data.dtype)

    def back(g):
        ge = np.expand_dims(g, axes) if axes else g
        _accum(a, (np.broadcast_to(ge, a.shape) / n).astype(a.data.dtype, copy=False))

    return _result(np.asarray(data), "mean", (a,), back)


def gap(a: Tensor) -> Tensor:
    """Global average pooling: mean over the two trailing spatial axes."""
    if a.ndim < 3:
        raise DimensionError(f"gap expects (..., C, H, W), got shape {a.shape}")
    return mean(a, axis=(-2, -1))


# ---------------------------------------------------------------------------
# structural primitives


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def back(g):
        _accum(a, g.reshape(a.shape))

    return _result(data, "reshape", (a,), back)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = np.ascontiguousarray(a.data.transpose(axes))

    def back(g):
        _accum(a, np.ascontiguousarray(g.transpose(inv)))

    return _result(data, "transpose", (a,), back)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ContractError("concat of zero tensors")
    nd = parts[0].ndim
    axis = axis % nd
    for p in parts[1:]:
        if p.ndim != nd:
            raise DimensionError("concat: rank mismatch")
        for ax in range(nd):
            if ax != axis and p.shape[ax] != parts[0].shape[ax]:
                raise DimensionError(
                    f"concat: off-axis extent mismatch on axis {ax}: "
                    f"{p.shape} vs {parts[0].shape}")
    data = np.concatenate([p.data for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def back(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * nd
            sl[axis] = slice(lo, hi)
            _accum(p, np.ascontiguousarray(g[tuple(sl)]).astype(p.data.dtype, copy=False))

    return _result(data.astype(_out_dtype(*parts)), "concat", tuple(parts), back)


def add_bcast(a: Tensor, b: Tensor) -> Tensor:
    """Add b to a, where b's shape equals a trailing slice of a's shape
    (a bias row, a positional table)."""
    if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise DimensionError(f"add_bcast: {b.shape} is not a suffix of {a.shape}")
    data = a.data + b.data

    def back(g):
        _accum(a, g.astype(a.data.dtype, copy=False))
        lead = tuple(range(g.ndim - b.ndim))
        db = _f64(g).sum(axis=lead) if lead else _f64(g)
        _accum(b, db.astype(b.data.dtype))

    return _result(data.astype(_out_dtype(a, b)), "add_bcast", (a, b), back)


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of a (N, d) matrix by scalar s[i]."""
    if a.ndim != 2 or s.ndim != 1 or s.shape[0] != a.shape[0]:
        raise DimensionError(f"scale_rows: {a.shape} with {s.shape}")
    data = a.data * s.data[:, None]

    def back(g):
        _accum(a, (g * s.data[:, None]).astype(a.data.dtype, copy=False))
        _accum(s, _f64(g * a.data).sum(axis=1).astype(s.data.dtype))

    return _result(data.astype(_out_dtype(a, s)), "scale_rows", (a, s), back)


# ---------------------------------------------------------------------------
# matmul and softmax


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D operands and stacked 3-D batches; a 2-D
    operand paired with a 3-D one is shared across the batch."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise DimensionError(f"matmul: ranks {a.ndim} and {b.ndim} unsupported")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents {a.shape} x {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"matmul: batch extents {a.shape[0]} != {b.shape[0]}")
    with np.errstate(over="ignore"):
        data = (_f64(a.data) @ _f64(b.data)).astype(_out_dtype(a, b))

    def back(g):
        g64 = _f64(g)
        da = g64 @ np.swapaxes(_f64(b.data), -1, -2)
        db = np.swapaxes(_f64(a.data), -1, -2) @ g64
        _accum(a, _reduce_to(da, a.shape).astype(a.data.dtype))
        _accum(b, _reduce_to(db, b.shape).astype(b.data.dtype))

    return _result(data, "matmul", (a, b), back)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis; rows sum to 1."""
    ax = axis % a.ndim
    x = _f64(a.data)
    m = x.max(axis=ax, keepdims=True)
    e = np.exp(x - m)
    data = (e / e.sum(axis=ax, keepdims=True)).astype(a.data.dtype)

    def back(g):
        gy = _f64(g) * _f64(data)
        dot = gy.sum(axis=ax, keepdims=True)
        _accum(a, (gy - _f64(data) * dot).astype(a.data.dtype))

    return _result(data, "softmax", (a,), back)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"layer_norm: params {gain.shape}/{bias.shape} vs rows of {a.shape}")
    x = _f64(a.data)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    data = (xhat * _f64(gain.data) + _f64(bias.data)).astype(_out_dtype(a, gain, bias))

    def back(g):
        g64 = _f64(g)
        lead = tuple(range(g64.ndim - 1))
        _accum(bias, g64.sum(axis=lead).astype(bias.data.dtype))
        _accum(gain, (g64 * xhat).sum(axis=lead).astype(gain.data.dtype))
        gh = g64 * _f64(gain.data)
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        _accum(a, ((gh - m1 - xhat * m2) * inv).astype(a.data.dtype))

    return _result(data, "layer_norm", (a, gain, bias), back)


# ---------------------------------------------------------------------------
# spatial primitives (batch-only: every map is (N, C, H, W))


def _shape4(t: Tensor, what: str) -> tuple[int, int, int, int]:
    if t.ndim != 4:
        raise DimensionError(f"{what} must be 4-D, got shape {t.shape}")
    return t.shape


def _tap_span(tap: int, pad: int, stride: int, hi: int, n_in: int,
              lo: int = 0) -> tuple[int, int]:
    """The output positions [a, b) within [lo, hi) at which kernel tap `tap`
    reads input position o*stride + tap - pad inside [0, n_in); a <= b."""
    a = max(lo, -((tap - pad) // stride))
    return a, max(a, min(hi, (n_in - 1 + pad - tap) // stride + 1))


def _tap_slice(a: int, b: int, tap: int, pad: int, stride: int) -> slice:
    """The input positions tap `tap` reads for output positions [a, b), a < b."""
    start = a * stride + tap - pad
    return slice(start, start + (b - a - 1) * stride + 1, stride)


def _im2col(x: np.ndarray, dest: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            n0: int, n1: int, r0: int, r1: int) -> None:
    """Fill dest, the tap-major im2col block of images n0:n1, output rows
    r0:r1 of x (N,C,H,W) zero-padded by pad, with one strided copy per tap.

    dest is C-ordered (C*kh*kw, (n1-n0)*(r1-r0)*OW): row c*kh*kw + i*kw + j is
    channel c shifted by tap (i, j), column (n, r, col) output pixel
    (n0 + n, r0 + r, col). Where a tap reads the zero border, dest gets
    zeros, so x itself is never padded.
    """
    c, h, w = x.shape[1:]
    nr = r1 - r0
    ow = dest.shape[1] // ((n1 - n0) * nr)
    taps = dest.reshape(c, kh, kw, n1 - n0, nr, ow)
    src = x[n0:n1].transpose(1, 0, 2, 3)
    for i in range(kh):
        ra, rb = _tap_span(i, pad, stride, r1, h, r0)
        for j in range(kw):
            ca, cb = _tap_span(j, pad, stride, ow, w)
            tap = taps[:, i, j]
            if ra == rb or ca == cb:
                tap[...] = 0
                continue
            if ra > r0:
                tap[:, :, :ra - r0] = 0
            if rb < r1:
                tap[:, :, rb - r0:] = 0
            if ca > 0:
                tap[..., :ca] = 0
            if cb < ow:
                tap[..., cb:] = 0
            tap[:, :, ra - r0:rb - r0, ca:cb] = src[:, :, _tap_slice(ra, rb, i, pad, stride),
                                                    _tap_slice(ca, cb, j, pad, stride)]


def _col2im(cols: np.ndarray, hw: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """Adjoint of _im2col: add tap-major cols (C,kh,kw,N,OH,OW) onto a 64-bit
    (N,C,H,W) zero map one tap at a time in (i, j) order, dropping what
    lands in the zero border."""
    c, kh, kw, n, oh, ow = cols.shape
    h, w = hw
    out = np.zeros((n, c, h, w), dtype=np.float64)
    dest = out.transpose(1, 0, 2, 3)
    for i in range(kh):
        ra, rb = _tap_span(i, pad, stride, oh, h)
        for j in range(kw):
            ca, cb = _tap_span(j, pad, stride, ow, w)
            if ra < rb and ca < cb:
                dest[:, :, _tap_slice(ra, rb, i, pad, stride),
                     _tap_slice(ca, cb, j, pad, stride)] += cols[:, i, j, :, ra:rb, ca:cb]
    return out


def _chan_rows(a: np.ndarray) -> np.ndarray:
    """(N,C,H,W) -> the 64-bit (C, N*H*W) matrix with one row per channel."""
    return a.transpose(1, 0, 2, 3).astype(np.float64, order="C").reshape(a.shape[1], -1)


def _bias_grad(g: np.ndarray, n: int) -> np.ndarray:
    """Sum g (K, N*P), the channel rows of a conv output gradient over N
    images, in conv2d's order: NumPy sums the (N*P, K) pixel rows of one
    image, a view with the pixel axis innermost, pairwise; those of more
    images, a C-ordered copy, one row after another. Slabs of that copy,
    each led by the running sum, continue the row-by-row sum."""
    if n == 1 or g.shape[0] == 1:
        return g.sum(axis=1)
    step = 4096
    slab = np.empty((step + 1, g.shape[0]), dtype=np.float64)
    acc = g[:, 0].copy()
    for m0 in range(1, g.shape[1], step):
        m1 = min(m0 + step, g.shape[1])
        slab[0] = acc
        slab[1:1 + m1 - m0] = g[:, m0:m1].T
        acc = slab[:1 + m1 - m0].sum(axis=0)
    return acc


def _conv_blocks(n: int, oh: int, ow: int, pixel_bytes: int, align: int) -> list:
    """(n0, n1, r0, r1) blocks of images n0:n1 and output rows r0:r1, each at
    most _GEMM_BLOCK_BYTES at pixel_bytes per output pixel: whole images, or
    multiples of align rows of one image (at least align) if one is larger."""
    rows = _GEMM_BLOCK_BYTES // (pixel_bytes * ow)
    if rows >= oh:
        step = rows // oh
        return [(n0, min(n0 + step, n), 0, oh) for n0 in range(0, n, step)]
    rows = max(align, rows // align * align)
    return [(i, i + 1, r0, min(r0 + rows, oh)) for i in range(n) for r0 in range(0, oh, rows)]


def _conv_grid(hw: tuple, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    """The (OH, OW) output grid of a conv over an (H, W) map."""
    return (hw[0] + 2 * pad - kh) // stride + 1, (hw[1] + 2 * pad - kw) // stride + 1


def _conv_gemm(x: np.ndarray, wmat: np.ndarray, kh: int, kw: int, stride: int, pad: int,
               out_dtype, bias: np.ndarray | None = None,
               epilogue: Callable | None = None, align: int = 1) -> np.ndarray | None:
    """Cross-correlate x (N,C,H,W), zero-padded by pad, with wmat (K, C*kh*kw)
    as 64-bit GEMMs W @ cols over the _conv_blocks of the tap-major im2col
    matrix, each block built in one reused buffer. Column m of the matrix is
    output pixel m of the flattened (N, OH, OW) grid. Each block's (K, pixels)
    product, bias added per row, goes to epilogue(m0, m1, block) if one is
    given, else into the returned channels-last (N,K,OH,OW) map of out_dtype."""
    n = x.shape[0]
    oh, ow = _conv_grid(x.shape[2:], kh, kw, stride, pad)
    k, row_len = wmat.shape
    blocks = _conv_blocks(n, oh, ow, 8 * (row_len + k), align)
    n0, n1, r0, r1 = blocks[0]   # the largest block
    buf = np.empty(row_len * (n1 - n0) * (r1 - r0) * ow, dtype=np.float64)
    w64 = _f64(wmat)
    b64 = None if bias is None else _f64(bias)[:, None]
    out = None
    if epilogue is None:
        out = np.empty((n, oh, ow, k), dtype=out_dtype)
        pixels = out.reshape(-1, k)

        def epilogue(m0, m1, block):
            pixels[m0:m1] = block.T

    for n0, n1, r0, r1 in blocks:
        m0, m1 = (n0 * oh + r0) * ow, ((n1 - 1) * oh + r1) * ow
        dest = buf[:row_len * (m1 - m0)].reshape(row_len, m1 - m0)
        _im2col(x, dest, kh, kw, stride, pad, n0, n1, r0, r1)
        block = w64 @ dest
        if b64 is not None:
            block += b64
        epilogue(m0, m1, block)
    return None if out is None else out.transpose(0, 3, 1, 2)


def _kernel_grad(rows: np.ndarray, a: np.ndarray, kh: int, kw: int, stride: int,
                 pad: int) -> np.ndarray:
    """The (K,C,kh,kw) kernel gradient rows @ cols.T of a conv over a (N,C,H,W)
    from its 64-bit (K, N*OH*OW) output gradient rows; cols, a's whole
    im2col matrix, is rebuilt here in 64-bit (forward keeps only a)."""
    n, c, h, w = a.shape
    cols = np.empty((c * kh * kw, rows.shape[1]), dtype=np.float64)
    _im2col(a, cols, kh, kw, stride, pad, 0, n, 0, _conv_grid((h, w), kh, kw, stride, pad)[0])
    return (rows @ cols.T).reshape(len(rows), c, kh, kw)


def _conv_adjoint(wmat: np.ndarray, rows: np.ndarray, kh: int, kw: int, stride: int,
                  pad: int, hw: tuple) -> np.ndarray:
    """The adjoint of the conv of weights wmat (K, C*kh*kw) over an (H, W) map:
    _col2im of W.T @ rows, rows its 64-bit (K, N*OH*OW) output channel rows."""
    cols = (_f64(wmat).T @ rows).reshape(wmat.shape[1] // (kh * kw), kh, kw, -1,
                                         *_conv_grid(hw, kh, kw, stride, pad))
    return _col2im(cols, hw, stride, pad)


def _conv_backward(g: np.ndarray, x: Tensor, kernels: Tensor, bias: Tensor | None,
                   stride: int, pad: int) -> None:
    """conv2d's backward from its 64-bit output gradient as (K, N*OH*OW)
    channel rows and the input its forward kept."""
    k, _, kh, kw = kernels.shape
    _accum(kernels, _kernel_grad(g, x.data, kh, kw, stride, pad).astype(kernels.data.dtype))
    if bias is not None:
        _accum(bias, _bias_grad(g, x.shape[0]).astype(bias.data.dtype))
    if x.requires_grad:
        dx = _conv_adjoint(kernels.data.reshape(k, -1), g, kh, kw, stride, pad, x.shape[2:])
        _accum(x, dx.astype(x.data.dtype))


def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation with zero padding.

    x: (N,C,H,W); kernels: (K,C,kh,kw); optional bias (K,).
    Output spatial extents are floor((H + 2p - kh)/stride) + 1.
    """
    n, c, h, w = _shape4(x, "conv2d: input (N,C,H,W)")
    k, ck, kh, kw = _shape4(kernels, "conv2d: kernels (K,C,kh,kw)")
    if ck != c:
        raise DimensionError(f"conv2d: input channels {c} != kernel channels {ck}")
    if bias is not None and bias.shape != (k,):
        raise DimensionError(f"conv2d: bias shape {bias.shape} != ({k},)")
    if min(_conv_grid((h, w), kh, kw, stride, padding)) <= 0:
        raise DimensionError(
            f"conv2d: kernel {kh}x{kw} stride {stride} pad {padding} "
            f"gives non-positive output for input {h}x{w}")
    inputs = (x, kernels) if bias is None else (x, kernels, bias)
    out = _conv_gemm(x.data, kernels.data.reshape(k, c * kh * kw), kh, kw, stride, padding,
                     _out_dtype(x, kernels), None if bias is None else bias.data)

    def back(g):
        _conv_backward(_chan_rows(g), x, kernels, bias, stride, padding)

    return _result(out, "conv2d", inputs, back)


def conv_relu_pool2d(x: Tensor, kernels: Tensor, bias: Tensor) -> Tensor:
    """One CNN block, avg_pool2d(relu(conv2d(x, kernels, padding=1, bias=bias)), 2),
    without its full-resolution maps; same bytes, one tape record.

    x: (N,C,H,W) with H and W even; kernels: (K,C,3,3); bias (K,).
    Output (N,K,H/2,W/2). A non-finite convolution output raises
    NumericError before the ReLU could hide it.
    """
    n, c, h, w = _shape4(x, "conv_relu_pool2d: input (N,C,H,W)")
    k = _shape4(kernels, "conv_relu_pool2d: kernels (K,C,3,3)")[0]
    if kernels.shape[1:] != (c, 3, 3):
        raise DimensionError(f"conv_relu_pool2d: kernels {kernels.shape} are not "
                             f"({k},{c},3,3) for {c} input channels")
    if bias.shape != (k,):
        raise DimensionError(f"conv_relu_pool2d: bias shape {bias.shape} != ({k},)")
    if h % 2 or w % 2 or h < 2 or w < 2:
        raise DimensionError(f"conv_relu_pool2d: needs even H and W, got {h}x{w}")
    inputs = (x, kernels, bias)
    taped = _recorded(inputs)
    dtype = _out_dtype(x, kernels)
    # channels-last, like avg_pool2d's output over a conv2d map, so later
    # reductions (gap) add in the same order
    pooled = np.empty((n * h // 2, w // 2, k), dtype=dtype)
    mask = np.empty((k, n * h * w), dtype=bool) if taped else None

    def pool(m0, m1, block):
        with np.errstate(over="ignore"):   # an overflow is raised on the next line
            act = block.astype(dtype, copy=False)
        _finite_or_raise(act, "conv_relu_pool2d")
        np.maximum(act, 0, out=act)
        if taped:
            np.greater(act, 0, out=mask[:, m0:m1])
        quad = act.reshape(k, -1, 2, w // 2, 2)   # (K, row pair, i, pooled column, j)
        acc = _tap_sum([quad[:, :, i, :, j] for i in range(2) for j in range(2)])
        acc /= 4
        pooled[m0 // (2 * w):m1 // (2 * w)] = acc.transpose(1, 2, 0)

    _conv_gemm(x.data, kernels.data.reshape(k, c * 9), 3, 3, 1, 1, dtype, bias.data,
               epilogue=pool, align=2)
    out = pooled.reshape(n, h // 2, w // 2, k).transpose(0, 3, 1, 2)

    def back(g):
        dz = _chan_rows(_pool_adjoint(g, 2, 2, (h, w), dtype))
        dz *= mask
        _conv_backward(dz, x, kernels, bias, 1, 1)

    return _result(out, "conv_relu_pool2d", inputs, back)


def conv_transpose2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None) -> Tensor:
    """Transposed 2-D convolution, the adjoint of conv2d's input map.

    x: (N,C,H,W); kernels: (C,K,kh,kw); output spatial extent is
    (H-1)*stride - 2p + kh. The forward pass is conv2d's input gradient,
    dx is conv2d's forward pass over the gradient, and dk is conv2d's
    kernel gradient with x and the gradient in swapped roles.
    """
    c, h, w = _shape4(x, "conv_transpose2d: input (N,C,H,W)")[1:]
    ck, k, kh, kw = _shape4(kernels, "conv_transpose2d: kernels (C,K,kh,kw)")
    if ck != c:
        raise DimensionError(f"conv_transpose2d: channels {c} != kernel channels {ck}")
    if bias is not None and bias.shape != (k,):
        raise DimensionError(f"conv_transpose2d: bias shape {bias.shape} != ({k},)")
    oh = (h - 1) * stride + kh - 2 * padding
    ow = (w - 1) * stride + kw - 2 * padding
    if oh <= 0 or ow <= 0:
        raise DimensionError("conv_transpose2d: non-positive output extent")
    kmat = kernels.data.reshape(c, k * kh * kw)
    out = _conv_adjoint(kmat, _chan_rows(x.data), kh, kw, stride, padding, (oh, ow))
    if bias is not None:
        out += _f64(bias.data)[:, None, None]
    inputs = (x, kernels) if bias is None else (x, kernels, bias)

    def back(g):
        _accum(x, _conv_gemm(g, kmat, kh, kw, stride, padding, x.data.dtype))
        dk = _kernel_grad(_chan_rows(x.data), g, kh, kw, stride, padding)
        _accum(kernels, dk.astype(kernels.data.dtype))
        if bias is not None:
            _accum(bias, _f64(g).sum(axis=(0, 2, 3)).astype(bias.data.dtype))

    return _result(out.astype(_out_dtype(x, kernels)), "conv_transpose2d", inputs, back)


def _tap_sum(taps: list) -> np.ndarray:
    """The 64-bit sum of equally shaped tap arrays, added in list order."""
    acc = taps[0].astype(np.float64)   # in the tap's memory order
    for tap in taps[1:]:
        acc += tap
    return acc


def _pool_adjoint(g: np.ndarray, window: int, stride: int, hw: tuple, dtype) -> np.ndarray:
    """avg_pool2d's input gradient: g / window**2 scattered over each window."""
    gd = g / (window * window)
    n, c, oh, ow = gd.shape
    taps = np.broadcast_to(gd.transpose(1, 0, 2, 3)[:, None, None],
                           (c, window, window, n, oh, ow))
    return _col2im(taps, hw, stride, 0).astype(dtype)


def avg_pool2d(x: Tensor, window: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows of an (N,C,H,W) map."""
    stride = window if stride is None else stride
    h, w = _shape4(x, "avg_pool2d: input (N,C,H,W)")[2:]
    if window > h or window > w:
        raise DimensionError(f"avg_pool2d: window {window} too large for {h}x{w}")
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    acc = _tap_sum([x.data[:, :, _tap_slice(0, oh, i, 0, stride), _tap_slice(0, ow, j, 0, stride)]
                    for i in range(window) for j in range(window)])
    out = (acc / (window * window)).astype(x.data.dtype)

    def back(g):
        _accum(x, _pool_adjoint(g, window, stride, (h, w), x.data.dtype))

    return _result(out, "avg_pool2d", (x,), back)


def _interp_matrix(out_n: int, in_n: int) -> np.ndarray:
    """(out_n, in_n) linear interpolation weights along one axis, half-pixel centers."""
    src = np.clip((np.arange(out_n) + 0.5) * (in_n / out_n) - 0.5, 0.0, in_n - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, in_n - 1)
    frac = src - lo
    m = np.zeros((out_n, in_n), dtype=np.float64)
    rows = np.arange(out_n)
    np.add.at(m, (rows, lo), 1.0 - frac)
    np.add.at(m, (rows, hi), frac)
    return m


def upsample_bilinear2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Bilinear resize of an (N,C,H,W) map (half-pixel convention)."""
    h, w = _shape4(x, "upsample_bilinear2d: input (N,C,H,W)")[2:]
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise DimensionError(f"upsample_bilinear2d: bad target {out_hw}")
    ry = _interp_matrix(oh, h)
    rx = _interp_matrix(ow, w)
    out = (ry @ _f64(x.data) @ rx.T).astype(x.data.dtype)

    def back(g):
        _accum(x, (ry.T @ _f64(g) @ rx).astype(x.data.dtype))

    return _result(out, "upsample_bilinear2d", (x,), back)
