"""Dense tensors with reverse-mode automatic differentiation.

Values are stored as row-major 32-bit float arrays (a 64-bit mode exists for
verification); reductions accumulate in 64-bit before rounding back to the
storage type. The graph is define-by-run: primitives applied while a Tape is
active append (output, backward-rule) records in execution order, and
Tape.backward walks the records once in reverse. It pops each record and
clears its output's .grad as it passes, so a step's closures, saved arrays
and intermediate gradients go as soon as they are used and a tape is walked
once (PyTorch's retain_graph=False, Paszke et al. 2019). _accum is the one
place a gradient is rounded to its tensor's storage dtype: once, as it is
added to .grad (a rule rounds inside an expression only where its bytes
need it). Tensors are treated as immutable once produced; there is no
implicit broadcasting between tensors except the scalar-tensor case.

Every primitive ends in _result, which holds each op to one contract at
little cost beyond the op's arithmetic:
- a result that holds a NaN or an infinity raises NumericError naming the
  op (one np.isfinite(...).all()); the forward runs with NumPy's
  floating-point warnings off, so none is printed first;
- the output dtype is NumPy's promotion of the float32/float64 operands,
  float64 if any operand is float64, else float32, and _result wraps the
  op's array as it is: no copy, no second check of it;
- the output requires a gradient if an input does, and only then goes on
  the active tape, so an op over constants adds no record;
- a backward rule computes only the gradients of inputs that require one:
  a constant operand (a loss mask, the patch-grid adjacency, the patch
  embedding's input) gets no gradient formed, so it costs no arithmetic
  and no NumericError in backward.
Constants that depend only on a shape are built once per process and handed
out read-only (functools.cache; writing to one raises ValueError): the
normalized adjacency of a patch grid (backbone._grid_graph) and CLAHE's tile
bounds, blend offsets and weights (imaging._clahe_geometry).
upsample_bilinear2d builds its interpolation matrices per call, one when
both axes match: a cached 224x56 float64 matrix would be 100 KB held for the
life of the process.

attention is multi-head self-attention as one op and one tape record, with
the bytes of the per-head chain it replaced (matmul, transpose, mul,
softmax, matmul, then a concat; tests/oracles.py keeps it):
- One head at a time, in head order: Q, K and V are three 64-bit GEMMs of
  the 64-bit tokens with that head's weights, each rounded to the storage
  dtype; K^T is made C-contiguous, so every GEMM sees the chain's operand
  layouts. The scores Q K^T are a 64-bit GEMM rounded to storage, then
  scaled by 1/sqrt(d_k) in the storage dtype. The softmax runs in 64-bit
  and is rounded once; A V is a 64-bit GEMM rounded into the head's columns
  of the output. No array stacks weights or heads. One (d, 3*d_k) GEMM per
  head is not used: OpenBLAS 0.3.31 (Haswell kernels) rounds some columns
  of a wider float64 product differently, which changes float64-storage
  bytes.
- It runs over chunks of whole images (_batch_chunks), each at most
  _GEMM_BLOCK_BYTES of 64-bit tokens and scores, so no 64-bit copy of the
  whole batch exists; NumPy runs each image's products as a GEMM of its own
  either way, so chunks do not change bytes.
- NumericError naming attention is raised where the chain met a non-finite
  value: after Q, K, V, the scaled scores and the output.
- Taped, it keeps only q, k^T, v and the softmax of each head, in the
  storage dtype. Backward runs from the last head to the first with the
  chain's formulas and rounding points, and adds each head's v, k and q
  terms to the token gradient one at a time, in that order, each rounded,
  as the chain's records did; a 64-bit sum of the terms would change bytes.

The spatial primitives take only batched (N, C, H, W) maps and accumulate
in 64-bit. The convolutions share one engine on a tap-major im2col layout:
_im2col builds the (C*kh*kw, pixels) matrix whose row c*kh*kw + i*kw + j is
input channel c shifted by kernel tap (i, j). Rows are in the order of
kernels.reshape(K, C*kh*kw), so the GEMM is W @ cols with the weights as
stored, its (K, pixels) product gets the bias per row, and the kernel
gradient is g @ cols.T with g the (K, pixels) output gradient. _col2im, the
adjoint, adds W.T @ g back onto the unpadded input one tap at a time in
(i, j) order. conv_transpose2d runs on the same code: its forward is conv2d's
input gradient, its backward conv2d's forward and kernel gradient.
- Data moves in whole planes: every conv runs on the grid of its input's
  stride x stride phase planes (rows y % stride, columns x % stride; one
  plane at stride 1), (H, W) / stride. A conv whose output grid (OH, OW) is
  not that grid runs on a grid widened to cover both (_phase_grid): its
  input is zero-extended below and to the right to the grid times stride
  (_extend), and its output and input gradient are cropped back. Every conv
  the models run (3x3 with padding 1 at stride 1, 1x1, 4x4 with padding 1
  at stride 2 in both directions) is on its grid already, so none copies.
  Tap (i, j) reads one phase plane shifted by whole rows and columns, so
  over the flat (images * rows * OW) planes of one channel it is one
  shifted run:
  - _im2col casts the input rows a block reads to 64-bit phase planes once
    (its only copy of the input, and no padded one), copies each tap as one
    run per channel, then zeroes the entries that came from a neighbouring
    image, fell off the planes or wrapped round a row (the zero border);
  - _col2im zeroes, in the scratch W.T @ g, the entries that would land in a
    neighbouring image or wrap round a row, adds each tap as one run per
    channel into C-ordered 64-bit (C, N * H * W / stride**2) phase planes,
    skips what falls off them, and transposes back to (N, C, H, W) once, as
    it writes the input gradient. The zeroed entries add +0.0 to some
    pixel. Every plane starts at +0.0, and a round-to-nearest sum is -0.0
    only when both addends are, so no partial sum is ever -0.0, and adding
    +0.0 returns any other value (NaN and infinities included) unchanged:
    every pixel still gets its taps, and only its taps, in (i, j) order, so
    no byte changes. NumPy adds rows that are not one contiguous run at a
    third of the speed: 9 adds of 3 channels of 14 32x32 float64 images
    took 0.19 ms as flat runs and 0.53-0.75 ms with each image row shifted
    by one or more elements (the Xeon below), hence the flat runs.
  tests/test_tensor.py pins both to tests/oracles.py byte for byte over
  random geometry, and the public ops to it over any geometry.
- Every direction runs over one set of blocks (_conv_blocks): whole images,
  or whole rows (row pairs for conv_relu_pool2d) of one image, each at most
  _GEMM_BLOCK_BYTES of 64-bit im2col block plus 64-bit (K, pixels) product
  or output gradient (a block's phase planes add a (kh*kw/stride**2)-th of
  its im2col block, plus halo rows). The forward builds each im2col block
  into one reused buffer and multiplies. The backward (_conv_adjoints)
  fills a block's output gradient, rebuilds its im2col block into one
  reused buffer and adds dz @ cols.T to the 64-bit kernel gradient, then
  forms W.T @ dz in the same buffer and adds it onto the input rows the
  block completes; conv_transpose2d's forward is that last step. So no
  conv holds a whole (C*kh*kw, pixels) matrix: beyond its input, output
  and gradient maps, one block. A taped conv keeps its input, not the
  im2col matrix; backward rebuilds that block by block (Chen et al. 2016,
  recompute).
- The budget, 4 MiB, is the fastest of a sweep on a 2-vCPU Xeon with 2 MiB
  of L2 per core and one BLAS thread: the median of 15 interleaved untaped
  runs of the three paper CNN blocks at batch 1 took 64.7 ms at 16 MiB, 61.5
  at 8, 56.7 at 4, 59.0 at 3, 60.6 at 2 and 65.6 at 1 MiB. Larger blocks
  leave the cache before the GEMM and the epilogue read them back (Goto & van
  de Geijn 2008, "Anatomy of High-Performance Matrix Multiplication").
- Outputs keep the memory order of the row-major engine they replaced:
  conv2d's map and conv_relu_pool2d's pooled map are channels-last, because
  NumPy's pairwise reductions downstream (gap, Dice) add in stride order.
  Float32 results are byte-equal to it and to the whole-matrix backward
  (tests/oracles.py):
  - an input pixel gets its taps in (i, j) order: a block adds W.T @ dz only
    onto the input rows from r0*stride to r1*stride, recomputing it for the
    output rows of its neighbours that read them too (_adjoint_rows; one row
    either side for a 3x3 kernel at stride 1);
  - the kernel gradient is a 64-bit sum of per-block products dz @ cols.T,
    and the bias gradient, like it, a 64-bit sum of per-block row sums of dz
    (each summed pairwise by NumPy). Either may differ in the last 64-bit
    places from one whole sum, within the usual bound gamma_n * sum|g|
    (Higham 1993, "The accuracy of floating point summation"); rounding to
    float32 hid that in every case tested.
- conv_relu_pool2d is the CNN block avg_pool2d(relu(conv2d(x, K, padding=1,
  bias=b)), 2) as one op: each block's product is rounded to the storage
  dtype, checked for -inf (the one non-finite value the ReLU hides; NaN
  and +inf reach the output, which is checked like every op's), rectified
  in place and pooled (4 taps in (0,0), (0,1), (1,0), (1,1) order, 64-bit)
  straight into the (N,K,H/2,W/2) output, so the full-resolution conv and
  ReLU maps never exist. It holds one block beyond its input and pooled output; taped, also
  a bool ReLU mask (1 byte per conv output element). Its backward fills
  each block's conv gradient straight from the pooled one: g / 4 in the
  storage dtype (avg_pool2d's adjoint), copied onto the even and odd columns
  of the conv rows of each parity (four strided copies), times the mask.
- upsample_bilinear2d is separable: Ry @ X @ Rx^T, no dense (OH*OW, H*W) matrix.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_DEFAULT_DTYPE = np.float32
_GEMM_BLOCK_BYTES = 4 << 20   # 64-bit working set of one conv block (docstring)


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


def init_param(shape, init, rng: np.random.Generator = None) -> Tensor:
    """A trainable tensor: init is "zeros" or the standard deviation of a
    standard-normal draw from rng."""
    if init == "zeros":
        return zeros(shape, requires_grad=True)
    return Tensor(rng.standard_normal(shape) * init, requires_grad=True)


STATIC = {"static": True}   # dataclass field metadata: not a leaf (a config, a counter)


def leaves(tree) -> list:
    """The leaves of nested dataclasses and tuples, in field order; fields
    whose metadata is STATIC are skipped.  Field order is checkpoint order,
    so this is the one flattening behind optimizers, snapshots and names."""
    if dataclasses.is_dataclass(tree):
        return [leaf for f in dataclasses.fields(tree) if not f.metadata.get("static")
                for leaf in leaves(getattr(tree, f.name))]
    if isinstance(tree, tuple):
        return [leaf for item in tree for leaf in leaves(item)]
    return [tree]


# ---------------------------------------------------------------------------
# tape


class Tape:
    """Ordered record of primitive applications for one forward pass.

    Records are appended in execution order, so every node's inputs precede
    it. backward() walks them once in reverse and drops each record as it
    passes, so a tape is walked once; len() counts the records it was given.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._recorded = 0
        self._walked = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def _record(self, out: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward_fn))
        self._recorded += 1

    def __len__(self) -> int:
        return self._recorded

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad tensor reachable from loss.

        Each record is popped and its rule run; then its output's .grad is
        cleared, so the rule's closure, its saved arrays and that gradient
        are freed as the walk passes them. The loss keeps its .grad and
        leaves keep theirs. A second call raises ContractError. A rule whose
        arithmetic overflows or makes a NaN, the rounding of a gradient into
        its storage dtype included, raises NumericError.
        """
        if loss.size != 1:
            raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
        if self._walked:
            raise ContractError("backward() has already walked this tape")
        self._walked = True
        loss.grad = np.ones_like(loss.data)
        records = self._records
        with np.errstate(over="call", invalid="call", call=_backward_non_finite):
            while records:
                out, backward_fn = records.pop()
                if out.grad is not None:
                    backward_fn(out.grad)
                    if out is not loss:
                        out.grad = None


def _backward_non_finite(kind, flag):
    raise NumericError("backward produced non-finite values")


_TAPE_STACK: list[Tape] = []


def zero_grads(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# primitive plumbing


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add g to t.grad, rounded once to t's storage dtype; a new grad is a
    C-ordered copy."""
    if not t.requires_grad:
        return
    if np.shape(g) != t.data.shape:
        raise AssertionError(f"gradient shape {np.shape(g)} != value shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += np.asarray(g, dtype=t.data.dtype)


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


# A primitive's forward runs with NumPy's floating-point warnings off: every
# non-finite value they would flag reaches _result (or a check of its own),
# which raises NumericError naming the op. Tape.backward turns an overflow
# or NaN in a backward rule into NumericError instead.
_fp_warnings_off = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _recorded(inputs: Sequence[Tensor]) -> bool:
    """Whether _result will put an op over these inputs on the active tape."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _result(data: np.ndarray, op: str, inputs: Sequence[Tensor],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """The op's checked float32/float64 result as a Tensor, put on the
    active tape if an input requires a gradient (module docstring)."""
    _finite_or_raise(data, op)
    if type(data) is not np.ndarray:   # a ufunc over 0-d arrays gives a scalar
        data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            if _TAPE_STACK:
                _TAPE_STACK[-1]._record(out, backward_fn)
            break
    return out


def _out_dtype(*tensors: Tensor):
    """float64 if any operand is float64, else float32: NumPy's promotion of
    the two storage dtypes."""
    for t in tensors:
        if t.data.dtype == np.float64:
            return np.float64
    return np.float32


def _as_scalar(x) -> float | None:
    """Return x as a python float if it is a plain number, else None."""
    if isinstance(x, (int, float, np.integer, np.floating)):
        return float(x)
    return None


def _f64(a: np.ndarray) -> np.ndarray:
    return a.astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# elementwise primitives


@_fp_warnings_off
def _add(a: Tensor, b, op: str) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        data = a.data + np.asarray(s, dtype=a.data.dtype)

        def back(g):
            _accum(a, g)

        return _result(data, op, (a,), back)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    data = a.data + b.data

    def back(g):
        _accum(a, g)
        _accum(b, g)

    return _result(data, op, (a, b), back)


@_fp_warnings_off
def _neg(a: Tensor, op: str) -> Tensor:
    data = -a.data

    def back(g):
        _accum(a, -g)

    return _result(data, op, (a,), back)


def add(a: Tensor, b) -> Tensor:
    return _add(a, b, "add")


def sub(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    return _add(a, -s, "sub") if s is not None else _add(a, _neg(b, "sub"), "sub")


def neg(a: Tensor) -> Tensor:
    return _neg(a, "neg")


@_fp_warnings_off
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
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _result(data, "mul", (a, b), back)


@_fp_warnings_off
def div(a: Tensor, b) -> Tensor:
    s = _as_scalar(b)
    if s is not None:
        if s == 0:
            raise NumericError("div produced non-finite values")
        return mul(a, 1.0 / s)
    if a.shape != b.shape:
        raise DimensionError(f"div: shapes {a.shape} and {b.shape} differ")
    data = a.data / b.data

    def back(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * a.data / (b.data * b.data))

    return _result(data, "div", (a, b), back)


@_fp_warnings_off
def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0)

    def back(g):
        _accum(a, g * (a.data > 0))

    return _result(data, "relu", (a,), back)


@_fp_warnings_off
def leaky_relu(a: Tensor, alpha: float = 0.2) -> Tensor:
    data = np.where(a.data > 0, a.data, a.data * a.data.dtype.type(alpha))

    def back(g):
        _accum(a, np.where(a.data > 0, g, g * alpha))

    return _result(data, "leaky_relu", (a,), back)


@_fp_warnings_off
def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) form never overflows
    e = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(a.data.dtype)

    def back(g):
        _accum(a, g * data * (1.0 - data))

    return _result(data, "sigmoid", (a,), back)


@_fp_warnings_off
def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)

    def back(g):
        _accum(a, g * (1.0 - data * data))

    return _result(data, "tanh", (a,), back)


@_fp_warnings_off
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


@_fp_warnings_off
def sqrt(a: Tensor) -> Tensor:
    data = np.sqrt(a.data)

    def back(g):
        _accum(a, g / (2.0 * data))

    return _result(data, "sqrt", (a,), back)


@_fp_warnings_off
def pow_const(a: Tensor, p: float) -> Tensor:
    data = a.data ** a.data.dtype.type(p)

    def back(g):
        _accum(a, g * p * a.data ** a.data.dtype.type(p - 1.0))

    return _result(data, "pow_const", (a,), back)


@_fp_warnings_off
def softplus(a: Tensor) -> Tensor:
    # max(x,0) + log1p(exp(-|x|)) is overflow-free
    data = (np.maximum(a.data, 0) + np.log1p(np.exp(-np.abs(a.data)))).astype(a.data.dtype)

    def back(g):
        e = np.exp(-np.abs(a.data))
        sig = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        _accum(a, g * sig)

    return _result(data, "softplus", (a,), back)


@_fp_warnings_off
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


@_fp_warnings_off
def sum_(a: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    data = _f64(a.data).sum(axis=axes).astype(a.data.dtype)

    def back(g):
        ge = np.expand_dims(g, axes) if axes else g
        _accum(a, np.broadcast_to(ge, a.shape))

    return _result(data, "sum", (a,), back)


@_fp_warnings_off
def mean(a: Tensor, axis=None) -> Tensor:
    axes = _axis_tuple(axis, a.ndim)
    n = int(np.prod([a.shape[ax] for ax in axes])) if axes else 1
    data = (_f64(a.data).sum(axis=axes) / n).astype(a.data.dtype)

    def back(g):
        ge = np.expand_dims(g, axes) if axes else g
        _accum(a, np.broadcast_to(ge, a.shape) / n)

    return _result(data, "mean", (a,), back)


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
        _accum(a, g.transpose(inv))

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
            _accum(p, g[tuple(sl)])

    return _result(data, "concat", tuple(parts), back)


@_fp_warnings_off
def add_bcast(a: Tensor, b: Tensor) -> Tensor:
    """Add b to a, where b's shape equals a trailing slice of a's shape
    (a bias row, a positional table)."""
    if b.ndim > a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise DimensionError(f"add_bcast: {b.shape} is not a suffix of {a.shape}")
    data = a.data + b.data

    def back(g):
        _accum(a, g)
        if b.requires_grad:
            lead = tuple(range(g.ndim - b.ndim))
            _accum(b, _f64(g).sum(axis=lead) if lead else _f64(g))

    return _result(data, "add_bcast", (a, b), back)


@_fp_warnings_off
def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of a (N, d) matrix by scalar s[i]."""
    if a.ndim != 2 or s.ndim != 1 or s.shape[0] != a.shape[0]:
        raise DimensionError(f"scale_rows: {a.shape} with {s.shape}")
    data = a.data * s.data[:, None]

    def back(g):
        if a.requires_grad:
            _accum(a, g * s.data[:, None])
        if s.requires_grad:
            _accum(s, _f64(g * a.data).sum(axis=1))

    return _result(data, "scale_rows", (a, s), back)


# ---------------------------------------------------------------------------
# matmul and softmax


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


def _batch_chunks(n: int, item_bytes: int) -> list:
    """Slices of a batch of n items, each at most _GEMM_BLOCK_BYTES at
    item_bytes per item (at least one item). NumPy runs a stacked product as
    one GEMM per item, so a product over chunks has the whole one's bytes."""
    step = max(1, _GEMM_BLOCK_BYTES // item_bytes)
    return [slice(i, i + step) for i in range(0, n, step)]


@_fp_warnings_off
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Supports 2-D operands and stacked 3-D batches; a 2-D
    operand paired with a 3-D one is shared across the batch. A stacked
    product runs in 64-bit over chunks of whole batch items (_batch_chunks),
    so it holds no 64-bit copy of a whole stacked operand or product."""
    if a.ndim not in (2, 3) or b.ndim not in (2, 3):
        raise DimensionError(f"matmul: ranks {a.ndim} and {b.ndim} unsupported")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents {a.shape} x {b.shape}")
    if a.ndim == 3 and b.ndim == 3 and a.shape[0] != b.shape[0]:
        raise DimensionError(f"matmul: batch extents {a.shape[0]} != {b.shape[0]}")
    dtype = _out_dtype(a, b)
    if a.ndim == b.ndim == 2:
        data = (_f64(a.data) @ _f64(b.data)).astype(dtype)
    else:
        (m, k), l = a.shape[-2:], b.shape[-1]
        data = np.empty(((a if a.ndim == 3 else b).shape[0], m, l), dtype=dtype)
        a64 = _f64(a.data) if a.ndim == 2 else None
        b64 = _f64(b.data) if b.ndim == 2 else None
        for s in _batch_chunks(len(data), 8 * (m * k + k * l + m * l)):
            data[s] = ((_f64(a.data[s]) if a64 is None else a64)
                       @ (_f64(b.data[s]) if b64 is None else b64))

    def back(g):
        g64 = _f64(g)
        if a.requires_grad:
            _accum(a, _reduce_to(g64 @ np.swapaxes(_f64(b.data), -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(np.swapaxes(_f64(a.data), -1, -2) @ g64, b.shape))

    return _result(data, "matmul", (a, b), back)


def _softmax64(x: np.ndarray, ax: int) -> np.ndarray:
    """The 64-bit softmax of x along axis ax, max-shifted."""
    x = _f64(x)
    e = np.exp(x - x.max(axis=ax, keepdims=True))
    return e / e.sum(axis=ax, keepdims=True)


def _softmax_adjoint(g: np.ndarray, y: np.ndarray, ax: int) -> np.ndarray:
    """The 64-bit input gradient of a softmax along ax with output y."""
    gy = _f64(g) * _f64(y)
    return gy - _f64(y) * gy.sum(axis=ax, keepdims=True)


@_fp_warnings_off
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along one axis; rows sum to 1."""
    ax = axis % a.ndim
    data = _softmax64(a.data, ax).astype(a.data.dtype)

    def back(g):
        _accum(a, _softmax_adjoint(g, data, ax))

    return _result(data, "softmax", (a,), back)


@_fp_warnings_off
def attention(e: Tensor, heads: Sequence) -> Tensor:
    """Multi-head self-attention as one op: concat over heads of
    softmax(Q K^T / sqrt(d_k)) V, with Q, K, V = e W_Q, e W_K, e W_V.

    e: (N,P,d) tokens; heads: one (w_q, w_k, w_v) triple of (d, d_k)
    weights per head, d = len(heads) * d_k. Output (N,P,d), head h in
    columns h*d_k:(h+1)*d_k. Raises ContractError for no heads or a token
    dim that is not heads x d_k, DimensionError for a weight that is not
    (d, d_k), NumericError where the chain of matmul, transpose, mul,
    softmax, matmul and concat it replaces would have met a non-finite value.
    """
    if e.ndim != 3:
        raise DimensionError(f"attention: expected (N,P,d) tokens, got {e.shape}")
    if not heads:
        raise ContractError("attention: no heads")
    if any(len(head) != 3 for head in heads):
        raise ContractError("attention: each head must be one (w_q, w_k, w_v) triple")
    if heads[0][0].ndim != 2:
        raise DimensionError(f"attention: head 0 w_q is {heads[0][0].shape}, not 2-D")
    d, d_k = e.shape[-1], heads[0][0].shape[1]
    if d != len(heads) * d_k:
        raise ContractError(f"attention: token dim {d} != {len(heads)} heads x d_k {d_k}")
    for h, head in enumerate(heads):
        for name, w in zip(("w_q", "w_k", "w_v"), head):
            if w.shape != (d, d_k):
                raise DimensionError(
                    f"attention: head {h} {name} is {w.shape}, not ({d}, {d_k})")
    inputs = (e,) + tuple(w for head in heads for w in head)
    taped = _recorded(inputs)
    dtype = _out_dtype(*inputs)
    scale = 1.0 / math.sqrt(d_k)
    n, p = e.shape[:2]
    out = np.empty(e.shape, dtype=dtype)
    # (q, k^T, v, softmax) per head, in the storage dtype
    saved = [tuple(np.empty(shape, dtype=dtype) for shape in
                   ((n, p, d_k), (n, d_k, p), (n, p, d_k), (n, p, p))) for _ in heads
             ] if taped else None
    # chunks of whole images, each item one GEMM per product as in the chain
    for s in _batch_chunks(n, 8 * p * (d + p)):
        e64 = _f64(e.data[s])
        for h, head in enumerate(heads):
            q, k, v = ((e64 @ _f64(w.data)).astype(dtype) for w in head)
            for m in (q, k, v):
                _finite_or_raise(m, "attention")
            kt = np.ascontiguousarray(k.transpose(0, 2, 1))
            scores = (_f64(q) @ _f64(kt)).astype(dtype) * np.asarray(scale, dtype=dtype)
            _finite_or_raise(scores, "attention")
            a = _softmax64(scores, 2).astype(dtype)
            out[s, :, h * d_k:(h + 1) * d_k] = (_f64(a) @ _f64(v)).astype(dtype)
            if taped:
                for dest, part in zip(saved[h], (q, kt, v, a)):
                    dest[s] = part

    def back(g):
        e64 = _f64(e.data)
        e64t = np.swapaxes(e64, -1, -2)
        for h in reversed(range(len(heads))):
            q, kt, v, a = saved[h]
            go = _f64(np.ascontiguousarray(g[..., h * d_k:(h + 1) * d_k]))
            ga = (go @ np.swapaxes(_f64(v), -1, -2)).astype(dtype)
            gv = (np.swapaxes(_f64(a), -1, -2) @ go).astype(dtype)
            gs = _f64(_softmax_adjoint(ga, a, 2).astype(dtype) * scale)
            gq = (gs @ np.swapaxes(_f64(kt), -1, -2)).astype(dtype)
            gkt = (np.swapaxes(_f64(q), -1, -2) @ gs).astype(dtype)
            gk = np.ascontiguousarray(gkt.transpose(0, 2, 1))
            # each term reaches e.grad on its own, rounded, as the chain's did
            for w, gw in zip(reversed(heads[h]), (gv, gk, gq)):
                gw = _f64(gw)
                if e.requires_grad:
                    _accum(e, gw @ np.swapaxes(_f64(w.data), -1, -2))
                if w.requires_grad:
                    _accum(w, _reduce_to(e64t @ gw, w.shape))

    return _result(out, "attention", inputs, back)


@_fp_warnings_off
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
        _accum(bias, g64.sum(axis=lead))
        _accum(gain, (g64 * xhat).sum(axis=lead))
        gh = g64 * _f64(gain.data)
        m1 = gh.mean(axis=-1, keepdims=True)
        m2 = (gh * xhat).mean(axis=-1, keepdims=True)
        _accum(a, (gh - m1 - xhat * m2) * inv)

    return _result(data, "layer_norm", (a, gain, bias), back)


# ---------------------------------------------------------------------------
# spatial primitives (batch-only: every map is (N, C, H, W))


def _shape4(t: Tensor, what: str) -> tuple[int, int, int, int]:
    if t.ndim != 4:
        raise DimensionError(f"{what} must be 4-D, got shape {t.shape}")
    return t.shape


def _check_stride_padding(op: str, stride: int, padding: int) -> None:
    if stride < 1 or padding < 0:
        raise ContractError(f"{op}: stride must be >= 1 and padding >= 0, "
                            f"got stride {stride} padding {padding}")


def _tap_shifts(k: int, pad: int, stride: int) -> list:
    """(phase, shift) of each kernel tap t < k along one axis: output
    position o reads position o + shift of phase plane `phase`, which is
    input position (o + shift) * stride + phase."""
    return [((t - pad) % stride, (t - pad) // stride) for t in range(k)]


def _flat_run(off: int, run: int, size: int) -> tuple[int, int]:
    """The part [a, b) of a run of `run` entries that lands inside a plane
    of `size` entries when shifted by off; a <= b."""
    a = min(run, max(0, -off))
    return a, max(a, min(run, size - off))


def _wrapped(dx: int, ow: int) -> slice:
    """The columns of an OW-wide row that a flat shift by dx columns carries
    round onto the next row (dx > 0) or the previous one (dx < 0)."""
    return slice(max(0, ow - dx), ow) if dx > 0 else slice(0, min(ow, -dx))


def _im2col(x: np.ndarray, dest: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            n0: int, n1: int, r0: int, r1: int) -> None:
    """Fill dest, the tap-major im2col block of images n0:n1, output rows
    r0:r1 of x (N,C,H,W) zero-padded by pad, on the (H, W) / stride grid of
    x's phase planes (_phase_grid: H and W are multiples of stride). The
    block is whole images or rows of one image, as _conv_blocks makes them.

    dest is C-ordered (C*kh*kw, (n1-n0)*(r1-r0)*OW): row c*kh*kw + i*kw + j is
    channel c shifted by tap (i, j), column (n, r, col) output pixel
    (n0 + n, r0 + r, col). The input rows the block reads are cast once into
    flat 64-bit phase planes (C, images * rows * OW), and each tap is one
    copy of a shifted run of them; the entries that came from another image,
    fell off the planes (the zero border) or wrapped round a row are zeroed
    after, so x itself is never padded.
    """
    c, h, w = x.shape[1:]
    oh, ow = h // stride, w // stride
    ni, nr = n1 - n0, r1 - r0
    rows, cols = _tap_shifts(kh, pad, stride), _tap_shifts(kw, pad, stride)
    # the phase rows the block reads: all oh for whole images, so that the
    # images stay one flat run apart, and none for some row blocks
    q0 = max(0, r0 + rows[0][1])
    q1 = oh if nr == oh else max(q0, min(oh, r1 + rows[-1][1]))
    run, size = nr * ow, (q1 - q0) * ow
    planes = np.empty((stride, stride, c, ni * size))
    src = x[n0:n1, :, q0 * stride:q1 * stride].transpose(1, 0, 2, 3)
    for py in range(stride):
        for px in range(stride):
            planes[py, px].reshape(c, ni, q1 - q0, ow)[...] = src[:, :, py::stride, px::stride]
    taps = dest.reshape(c, kh, kw, ni * run)
    for i, (py, dy) in enumerate(rows):
        for j, (px, dx) in enumerate(cols):
            tap = taps[:, i, j]
            off = (r0 + dy - q0) * ow + dx
            a, b = _flat_run(off, run, size)
            if a == b:
                tap[...] = 0
                continue
            end = (ni - 1) * run + b
            tap[:, a:end] = planes[py, px, :, a + off:end + off]
            if a or b < run:
                per_image = tap.reshape(c, ni, run)
                per_image[..., :a] = 0
                per_image[..., b:] = 0
            if dx:   # while the tap is still in cache
                tap.reshape(c, ni, nr, ow)[..., _wrapped(dx, ow)] = 0


def _col2im(cols: np.ndarray, hw: tuple[int, int], stride: int, pad: int,
            r0: int = 0, y0: int = 0, bias: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of _im2col: add tap-major cols (C,kh,kw,N,R,OW) of output rows
    r0:r0+R onto 64-bit zero phase planes of input rows y0:y0+H, one tap at
    a time in (i, j) order, dropping what lands outside them (the zero
    border, or rows another block owns); then add the (C,) bias, if given,
    and write the (N,C,H,W) map into out (of any dtype; a new 64-bit map if
    None).

    The map's rows and columns are the phase planes' (W = stride * OW, y0
    and H multiples of stride) and, for more than one image, R output rows
    cover the H / stride phase rows, as _conv_adjoints makes its blocks.
    Each tap is one add of a shifted flat run into flat 64-bit
    (C, N * H * W / stride**2) phase planes. The entries of cols that would
    land in another image or wrap round a row are zeroed first (a read-only
    cols is copied for that); those that fall off the planes are not added.
    """
    c, kh, kw, n, nr, ow = cols.shape
    h, w = hw
    run, size = nr * ow, h // stride * ow
    if out is None:
        out = np.empty((n, c, h, w))
    rows, shifts = _tap_shifts(kh, pad, stride), _tap_shifts(kw, pad, stride)
    planes = np.zeros((stride, stride, c, n * size))
    taps = cols.reshape(c, kh, kw, n * run)
    if not taps.flags.writeable and any(d for _, d in rows + shifts):
        taps = taps.copy()
    for i, (py, dy) in enumerate(rows):
        for j, (px, dx) in enumerate(shifts):
            off = (r0 + dy - y0 // stride) * ow + dx
            a, b = _flat_run(off, run, size)
            if a == b:
                continue
            end = (n - 1) * run + b
            tap = taps[:, i, j]
            if n > 1 and (a or b < run):
                per_image = tap.reshape(c, n, run)
                per_image[..., :a] = 0
                per_image[..., b:] = 0
            if dx:
                tap.reshape(c, n, nr, ow)[..., _wrapped(dx, ow)] = 0
            planes[py, px, :, a + off:end + off] += tap[:, a:end]
    if bias is not None:
        planes += bias[:, None]
    for py in range(stride):
        for px in range(stride):
            out[:, :, py::stride, px::stride] = planes[py, px].reshape(
                c, n, h // stride, ow).transpose(1, 0, 2, 3)
    return out


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


def _phase_grid(hw: tuple, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    """The grid a conv over an (H, W) map runs on (module docstring): its
    output grid, widened below and to the right to cover the map's stride x
    stride phase planes."""
    oh, ow = _conv_grid(hw, kh, kw, stride, pad)
    return max(oh, -(-hw[0] // stride)), max(ow, -(-hw[1] // stride))


def _extend(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """a (N,C,H,W) zero-extended below and to the right to (rows, cols): a
    itself if it has that size, else a new map."""
    if a.shape[2:] == (rows, cols):
        return a
    out = np.zeros(a.shape[:2] + (rows, cols), dtype=a.dtype)
    out[:, :, :a.shape[2], :a.shape[3]] = a
    return out


def _conv_gemm(x: np.ndarray, wmat: np.ndarray, kh: int, kw: int, stride: int, pad: int,
               out_dtype, bias: np.ndarray | None = None,
               epilogue: Callable | None = None, align: int = 1) -> np.ndarray | None:
    """Cross-correlate x (N,C,H,W), zero-padded by pad, with wmat (K, C*kh*kw)
    as 64-bit GEMMs W @ cols over the _conv_blocks of the tap-major im2col
    matrix on x's _phase_grid (Q, QW), each block built in one reused buffer.
    Column m of the matrix is pixel m of the flattened (N, Q, QW) grid. Each
    block's (K, pixels) product, bias added per row, goes to
    epilogue(m0, m1, block) if one is given, else into the returned
    channels-last (N,K,OH,OW) map of out_dtype, cropped from the grid."""
    n = x.shape[0]
    oh, ow = _conv_grid(x.shape[2:], kh, kw, stride, pad)
    q, qw = _phase_grid(x.shape[2:], kh, kw, stride, pad)
    x = _extend(x, stride * q, stride * qw)
    k, row_len = wmat.shape
    blocks = _conv_blocks(n, q, qw, 8 * (row_len + k), align)
    n0, n1, r0, r1 = blocks[0]   # the largest block
    buf = np.empty(row_len * (n1 - n0) * (r1 - r0) * qw, dtype=np.float64)
    w64 = _f64(wmat)
    b64 = None if bias is None else _f64(bias)[:, None]
    out = None
    if epilogue is None:
        out = np.empty((n, q, qw, k), dtype=out_dtype)
        pixels = out.reshape(-1, k)

        def epilogue(m0, m1, block):
            pixels[m0:m1] = block.T

    for n0, n1, r0, r1 in blocks:
        m0, m1 = (n0 * q + r0) * qw, ((n1 - 1) * q + r1) * qw
        dest = buf[:row_len * (m1 - m0)].reshape(row_len, m1 - m0)
        _im2col(x, dest, kh, kw, stride, pad, n0, n1, r0, r1)
        block = w64 @ dest
        if b64 is not None:
            block += b64
        epilogue(m0, m1, block)
    return None if out is None else out[:, :oh, :ow].transpose(0, 3, 1, 2)


def _adjoint_rows(r0: int, r1: int, q: int, kh: int, stride: int,
                  pad: int) -> tuple[int, int]:
    """The output rows e0:e1, r0:r1 widened by a halo, that read the input
    rows r0*stride:r1*stride whose gradient the block of output rows r0:r1
    of a conv on a phase grid of Q rows completes."""
    e0 = min(r0, max(0, -((kh - 1 - pad - r0 * stride) // stride)))
    return e0, max(r1, min(q, (r1 * stride - 1 + pad) // stride + 1))


def _conv_adjoints(fill: Callable, n: int, hw: tuple, wmat: np.ndarray, kh: int, kw: int,
                   stride: int, pad: int, a: np.ndarray | None = None, db: bool = False,
                   dx_dtype=None, bias: np.ndarray | None = None, align: int = 1) -> tuple:
    """The adjoints of the conv of weights wmat (K, C*kh*kw) over N (H, W)
    maps, run over the forward's _conv_blocks of its _phase_grid (Q, QW) from
    its output gradient: fill(n0, n1, r0, r1, dest) writes the 64-bit
    channel rows of images n0:n1, output rows r0:r1 into dest, a
    (K, n1-n0, r1-r0, OW) view; the grid's other pixels are zero.

    Returns (dk, db, dx), each None unless asked for:
    - dk, the 64-bit (K, C*kh*kw) kernel gradient, the sum over blocks of
      dz @ cols.T with cols the block of a's im2col matrix;
    - db, the 64-bit (K,) bias gradient, the sum over blocks of dz's row
      sums;
    - dx, the (N,C,H,W) input gradient (plus bias per channel) in dx_dtype,
      cropped from the grid: each block adds W.T @ dz onto the input rows it
      completes (_adjoint_rows), so every input pixel gets its taps in
      (i, j) order.
    The im2col block and then W.T @ dz share one reused buffer.
    """
    k, row_len = wmat.shape
    h, w = hw
    oh, ow = _conv_grid(hw, kh, kw, stride, pad)
    q, qw = _phase_grid(hw, kh, kw, stride, pad)
    spans = [(n0, n1, r0, r1) + (_adjoint_rows(r0, r1, q, kh, stride, pad)
                                 if dx_dtype is not None else (r0, r1))
             for n0, n1, r0, r1 in _conv_blocks(n, q, qw, 8 * (row_len + k), align)]
    most = max((n1 - n0) * (e1 - e0) * qw for n0, n1, _, _, e0, e1 in spans)
    buf = np.empty(row_len * most, dtype=np.float64)
    dz_buf = np.empty(k * most, dtype=np.float64)
    w64t = _f64(wmat).T
    b64 = None if bias is None else _f64(bias)
    if a is not None:
        if (q, qw) != (oh, ow):
            # the grid's extra pixels (zero gradient) read zeros, not the
            # pixels the conv skips, which may be non-finite
            a = a[:, :, :max(0, (oh - 1) * stride + kh - pad),
                  :max(0, (ow - 1) * stride + kw - pad)]
        a = _extend(a, stride * q, stride * qw)
    dk = bsum = None
    dx = None if dx_dtype is None else np.empty(
        (n, row_len // (kh * kw), stride * q, stride * qw), dtype=dx_dtype)
    for n0, n1, r0, r1, e0, e1 in spans:
        ni = n1 - n0
        dz = dz_buf[:k * ni * (e1 - e0) * qw].reshape(k, ni, e1 - e0, qw)
        if (q, qw) != (oh, ow):
            dz[...] = 0
        e = max(e0, min(e1, oh))   # the block's rows of the output grid
        fill(n0, n1, e0, e, dz[:, :, :e - e0, :ow])
        own = dz[:, :, r0 - e0:r1 - e0].reshape(k, -1)
        if a is not None:
            cols = buf[:row_len * own.shape[1]].reshape(row_len, -1)
            _im2col(a, cols, kh, kw, stride, pad, n0, n1, r0, r1)
            part = own @ cols.T
            dk = part if dk is None else np.add(dk, part, out=dk)
        if dx is not None:
            dcols = np.matmul(w64t, dz.reshape(k, -1),
                              out=buf[:row_len * dz[0].size].reshape(row_len, -1))
            _col2im(dcols.reshape(-1, kh, kw, ni, e1 - e0, qw),
                    ((r1 - r0) * stride, stride * qw), stride, pad, e0, r0 * stride, bias=b64,
                    out=dx[n0:n1, :, r0 * stride:r1 * stride])
        if db:
            part = own.sum(axis=1)
            bsum = part if bsum is None else np.add(bsum, part, out=bsum)
    return dk, bsum, None if dx is None else dx[:, :, :h, :w]


def _rows_of(g: np.ndarray) -> Callable:
    """A fill for _conv_adjoints that reads the channel rows of an (N,K,OH,OW)
    map g."""
    def fill(n0, n1, r0, r1, dest):
        dest[...] = g[n0:n1, :, r0:r1].transpose(1, 0, 2, 3)
    return fill


def _conv_backward(fill: Callable, x: Tensor, kernels: Tensor, bias: Tensor | None,
                   stride: int, pad: int, align: int = 1) -> None:
    """conv2d's backward over the forward's blocks, from a fill of its output
    gradient (see _conv_adjoints) and the input its forward kept; a gradient
    no tensor needs is not built."""
    k, _, kh, kw = kernels.shape
    dk, db, dx = _conv_adjoints(
        fill, x.shape[0], x.shape[2:], kernels.data.reshape(k, -1), kh, kw, stride, pad,
        a=x.data if kernels.requires_grad else None,
        db=bias is not None and bias.requires_grad,
        dx_dtype=x.data.dtype if x.requires_grad else None, align=align)
    if dk is not None:
        _accum(kernels, dk.reshape(kernels.shape))
    if db is not None:
        _accum(bias, db)
    if dx is not None:
        _accum(x, dx)


@_fp_warnings_off
def conv2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
           bias: Tensor | None = None) -> Tensor:
    """2-D cross-correlation with zero padding.

    x: (N,C,H,W); kernels: (K,C,kh,kw); optional bias (K,).
    Output spatial extents are floor((H + 2p - kh)/stride) + 1. Raises
    ContractError for stride < 1 or padding < 0.
    """
    _check_stride_padding("conv2d", stride, padding)
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
        _conv_backward(_rows_of(g), x, kernels, bias, stride, padding)

    return _result(out, "conv2d", inputs, back)


@_fp_warnings_off
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
        act = block.astype(dtype, copy=False)
        # the ReLU hides only -inf: a NaN or +inf reaches the pooled map,
        # which _result checks, so one reduction checks the block
        if act.min() == -np.inf:
            raise NumericError("conv_relu_pool2d produced non-finite values")
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
        gd = g / 4   # avg_pool2d's adjoint, in the storage dtype

        def fill(n0, n1, r0, r1, dest):
            # each conv output pixel gets its pool window's share, times the
            # mask: the conv rows of each parity read consecutive pooled rows,
            # copied onto their even and then their odd columns
            src = gd[n0:n1].transpose(1, 0, 2, 3)
            for parity in range(2):
                rows = dest[:, :, parity::2]
                p0 = (r0 + parity) // 2
                rows[..., 0::2] = rows[..., 1::2] = src[:, :, p0:p0 + rows.shape[2]]
            dest *= mask[:, (n0 * h + r0) * w:((n1 - 1) * h + r1) * w].reshape(dest.shape)

        _conv_backward(fill, x, kernels, bias, 1, 1, align=2)

    return _result(out, "conv_relu_pool2d", inputs, back)


@_fp_warnings_off
def conv_transpose2d(x: Tensor, kernels: Tensor, stride: int = 1, padding: int = 0,
                     bias: Tensor | None = None) -> Tensor:
    """Transposed 2-D convolution, the adjoint of conv2d's input map.

    x: (N,C,H,W); kernels: (C,K,kh,kw); output spatial extent is
    (H-1)*stride - 2p + kh. The forward pass is conv2d's input gradient,
    dx is conv2d's forward pass over the gradient, and dk is conv2d's
    kernel gradient with x and the gradient in swapped roles. Raises
    ContractError for stride < 1 or padding < 0.
    """
    _check_stride_padding("conv_transpose2d", stride, padding)
    n, c, h, w = _shape4(x, "conv_transpose2d: input (N,C,H,W)")
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
    out = _conv_adjoints(_rows_of(x.data), n, (oh, ow), kmat, kh, kw, stride, padding,
                         dx_dtype=_out_dtype(x, kernels),
                         bias=None if bias is None else bias.data)[2]
    inputs = (x, kernels) if bias is None else (x, kernels, bias)

    def back(g):
        if x.requires_grad:
            _accum(x, _conv_gemm(g, kmat, kh, kw, stride, padding, x.data.dtype))
        if kernels.requires_grad:
            dk = _conv_adjoints(_rows_of(x.data), n, (oh, ow), kmat, kh, kw, stride, padding,
                                a=g)[0]
            _accum(kernels, dk.reshape(kernels.shape))
        if bias is not None:
            _accum(bias, _f64(g).sum(axis=(0, 2, 3)))

    return _result(out, "conv_transpose2d", inputs, back)


def _tap_sum(taps: list) -> np.ndarray:
    """The 64-bit sum of equally shaped tap arrays, added in list order."""
    acc = taps[0].astype(np.float64)   # in the tap's memory order
    for tap in taps[1:]:
        acc += tap
    return acc


def _pool_adjoint(g: np.ndarray, window: int, stride: int, hw: tuple) -> np.ndarray:
    """avg_pool2d's input gradient, in g's dtype: g / window**2 scattered
    over each window of the (H, W) map's _phase_grid, then cropped."""
    q, qw = _phase_grid(hw, window, window, stride, 0)
    gd = _extend(g / (window * window), q, qw)
    n, c = gd.shape[:2]
    # channel-major, so each channel's taps are one flat run for _col2im
    taps = np.broadcast_to(np.ascontiguousarray(gd.transpose(1, 0, 2, 3))[:, None, None],
                           (c, window, window, n, q, qw))
    out = np.empty((n, c, stride * q, stride * qw), dtype=gd.dtype)
    return _col2im(taps, out.shape[2:], stride, 0, out=out)[:, :, :hw[0], :hw[1]]


@_fp_warnings_off
def avg_pool2d(x: Tensor, window: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over square windows of an (N,C,H,W) map."""
    stride = window if stride is None else stride
    h, w = _shape4(x, "avg_pool2d: input (N,C,H,W)")[2:]
    if window > h or window > w:
        raise DimensionError(f"avg_pool2d: window {window} too large for {h}x{w}")
    win = np.lib.stride_tricks.sliding_window_view(x.data, (window, window), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    acc = _tap_sum([win[..., i, j] for i in range(window) for j in range(window)])
    out = (acc / (window * window)).astype(x.data.dtype)

    def back(g):
        _accum(x, _pool_adjoint(g, window, stride, (h, w)))

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


@_fp_warnings_off
def upsample_bilinear2d(x: Tensor, out_hw: tuple[int, int]) -> Tensor:
    """Bilinear resize of an (N,C,H,W) map (half-pixel convention)."""
    h, w = _shape4(x, "upsample_bilinear2d: input (N,C,H,W)")[2:]
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise DimensionError(f"upsample_bilinear2d: bad target {out_hw}")
    ry = _interp_matrix(oh, h)
    rx = ry if (ow, w) == (oh, h) else _interp_matrix(ow, w)
    out = (ry @ _f64(x.data) @ rx.T).astype(x.data.dtype)

    def back(g):
        _accum(x, ry.T @ _f64(g) @ rx)

    return _result(out, "upsample_bilinear2d", (x,), back)
