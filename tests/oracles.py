"""Independent brute-force scalar oracles.

Everything here is deliberately slow: plain Python loops and float64
arithmetic, written from the operation definitions and kept free of any code
shared with the package implementations. Eight sections at the end are the
exception. The row-major convolution engine is the im2col code conv2d,
conv_relu_pool2d and conv_transpose2d ran on before their tap-major layout,
the whole-matrix conv adjoints are the tap-major backward passes (and
conv_transpose2d's forward) before they ran in blocks, the per-image
preprocessing is the NumPy pipeline the package's stack
kernels replace, the per-sample class balancing and per-view augmentation
are the loops gan.rebalance and pretrain.make_views batch, the per-head
attention chain is the tensor-op sequence tensor.attention fuses, the
per-image evaluation is training.evaluate with one image a call, the
whole-array Adam step is training.adam_step before it ran in place over
blocks, and the rolled box filter is synthdata._smooth_noise before it read
one wrapped copy of the field: each must be matched byte for byte.
"""

import math

import numpy as np

import weedhybrid.gan as G
import weedhybrid.heads as H
import weedhybrid.imaging as im
import weedhybrid.tensor as T
import weedhybrid.training as TR


def conv2d_loops(x, kernels, stride=1, padding=0, bias=None):
    """Cross-correlation by quadruple loop. x: (C,H,W), kernels: (K,C,kh,kw)."""
    c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((k, oh, ow), dtype=np.float64)
    for ko in range(k):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(c):
                    for i in range(kh):
                        for j in range(kw):
                            y = oy * stride + i - padding
                            xx = ox * stride + j - padding
                            if 0 <= y < h and 0 <= xx < w:
                                acc += float(x[ci, y, xx]) * float(kernels[ko, ci, i, j])
                if bias is not None:
                    acc += float(bias[ko])
                out[ko, oy, ox] = acc
    return out


def bilinear_weights_loops(in_hw, out_hw):
    """Bilinear resize weights (half-pixel centers) as {(out_pixel, in_pixel): weight}.

    These are the nonzeros of the dense (OH*OW, H*W) interpolation matrix,
    built one output pixel at a time; pixels are flattened row-major.
    Source coordinates clamp to the border.
    """
    ih, iw = in_hw
    oh, ow = out_hw

    def taps(o, i):
        out = []
        for k in range(o):
            s = min(max((k + 0.5) * i / o - 0.5, 0.0), i - 1.0)
            lo = int(math.floor(s))
            out.append((lo, min(lo + 1, i - 1), s - lo))
        return out

    weights = {}
    for oy, (y0, y1, fy) in enumerate(taps(oh, ih)):
        for ox, (x0, x1, fx) in enumerate(taps(ow, iw)):
            for y, wy in ((y0, 1.0 - fy), (y1, fy)):
                for xx, wx in ((x0, 1.0 - fx), (x1, fx)):
                    key = (oy * ow + ox, y * iw + xx)
                    weights[key] = weights.get(key, 0.0) + wy * wx
    return weights


def upsample_bilinear_loops(x, out_hw):
    """Bilinear resize of x (C,H,W) to (C,OH,OW), one weight at a time."""
    c, h, w = x.shape
    src = np.asarray(x, dtype=np.float64).reshape(c, h * w)
    out = np.zeros((c, out_hw[0] * out_hw[1]), dtype=np.float64)
    for (row, col), weight in bilinear_weights_loops((h, w), out_hw).items():
        out[:, row] += weight * src[:, col]
    return out.reshape(c, *out_hw)


def upsample_bilinear_adjoint_loops(g, in_hw):
    """Transpose of upsample_bilinear_loops: g (C,OH,OW) -> input gradient (C,H,W)."""
    c, oh, ow = g.shape
    src = np.asarray(g, dtype=np.float64).reshape(c, oh * ow)
    out = np.zeros((c, in_hw[0] * in_hw[1]), dtype=np.float64)
    for (row, col), weight in bilinear_weights_loops(in_hw, (oh, ow)).items():
        out[:, col] += weight * src[:, row]
    return out.reshape(c, *in_hw)


def median_filter_loops(img, window):
    """Per-channel windowed median with clamp-to-border indexing. img: (H,W,C) uint8."""
    h, w, c = img.shape
    r = window // 2
    out = np.zeros_like(img)
    for ch in range(c):
        for y in range(h):
            for x in range(w):
                vals = []
                for dy in range(-r, r + 1):
                    for dx in range(-r, r + 1):
                        yy = min(max(y + dy, 0), h - 1)
                        xx = min(max(x + dx, 0), w - 1)
                        vals.append(int(img[yy, xx, ch]))
                vals.sort()
                out[y, x, ch] = vals[len(vals) // 2]
    return out


def clahe_loops(img, grid, clip):
    """Reference CLAHE written as plain loops; mirrors the documented algorithm.

    img: (H,W,C) uint8 with C in {1,3}. Returns uint8 array of the same shape.
    Same contract as weedhybrid.imaging.adaptive_hist_eq: tile grid of `grid`
    per axis (clamped to the extent), float clip limit clip*area/256 floored
    at 1, uniform excess redistribution, LUT(v) = 255*cdf(v)/area, bilinear
    blend between the four nearest tile mappings, round-half-up at the end.
    Color images equalize quantized ITU-R 601 luminance and rescale channels.
    """
    h, w, c = img.shape
    gy = min(grid, h)
    gx = min(grid, w)
    if c == 3:
        lum = np.zeros((h, w), dtype=np.uint8)
        for y in range(h):
            for x in range(w):
                yv = 0.299 * float(img[y, x, 0]) + 0.587 * float(img[y, x, 1]) \
                    + 0.114 * float(img[y, x, 2])
                lum[y, x] = int(math.floor(yv + 0.5))
    else:
        lum = img[:, :, 0]

    by = [int(math.floor(i * h / gy)) for i in range(gy + 1)]
    bx = [int(math.floor(i * w / gx)) for i in range(gx + 1)]

    luts = [[None] * gx for _ in range(gy)]
    for ty in range(gy):
        for tx in range(gx):
            hist = [0] * 256
            for y in range(by[ty], by[ty + 1]):
                for x in range(bx[tx], bx[tx + 1]):
                    hist[int(lum[y, x])] += 1
            area = (by[ty + 1] - by[ty]) * (bx[tx + 1] - bx[tx])
            climit = max(1.0, clip * area / 256.0)
            excess = 0.0
            for v in range(256):
                if hist[v] > climit:
                    excess += hist[v] - climit
            share = excess / 256.0
            lut = [0.0] * 256
            running = 0.0
            for v in range(256):
                running += min(hist[v], climit) + share
                lut[v] = 255.0 * running / area
            luts[ty][tx] = lut

    cy = [(by[t] + by[t + 1] - 1) / 2.0 for t in range(gy)]
    cx = [(bx[t] + bx[t + 1] - 1) / 2.0 for t in range(gx)]

    def locate(pos, centers):
        n = len(centers)
        if n == 1 or pos <= centers[0]:
            return 0, 0.0
        if pos >= centers[n - 1]:
            return n - 2, 1.0
        t = 0
        while not (centers[t] <= pos < centers[t + 1]):
            t += 1
        return t, (pos - centers[t]) / (centers[t + 1] - centers[t])

    out = np.zeros_like(img)
    for y in range(h):
        ty, uy = locate(y, cy)
        ty2 = min(ty + 1, gy - 1)
        for x in range(w):
            tx, ux = locate(x, cx)
            tx2 = min(tx + 1, gx - 1)
            v = int(lum[y, x])
            w00 = (1.0 - uy) * (1.0 - ux)
            w01 = (1.0 - uy) * ux
            w10 = uy * (1.0 - ux)
            w11 = uy * ux
            m = w00 * luts[ty][tx][v] + w01 * luts[ty][tx2][v] \
                + w10 * luts[ty2][tx][v] + w11 * luts[ty2][tx2][v]
            if c == 1:
                out[y, x, 0] = min(255, max(0, int(math.floor(m + 0.5))))
            else:
                if v == 0:
                    val = min(255, max(0, int(math.floor(m + 0.5))))
                    for ch in range(3):
                        out[y, x, ch] = val
                else:
                    ratio = m / v
                    for ch in range(3):
                        val = int(math.floor(float(img[y, x, ch]) * ratio + 0.5))
                        out[y, x, ch] = min(255, max(0, val))
    return out


def metrics_recount(labels, preds, num_classes):
    """Recompute the classification report from raw (label, prediction) pairs."""
    n = len(labels)
    confusion = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(labels, preds):
        confusion[t][p] += 1
    result = {"confusion": confusion}
    precision, recall, f1, support = [], [], [], []
    correct = 0
    for k in range(num_classes):
        tp = confusion[k][k]
        correct += tp
        col = sum(confusion[i][k] for i in range(num_classes))
        row = sum(confusion[k])
        p = tp / col if col > 0 else 0.0
        r = tp / row if row > 0 else 0.0
        f = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(row)
    result["precision"] = precision
    result["recall"] = recall
    result["f1"] = f1
    result["support"] = support
    result["accuracy"] = correct / n
    result["macro"] = (sum(precision) / num_classes, sum(recall) / num_classes,
                       sum(f1) / num_classes)
    result["weighted"] = (
        sum(p * s for p, s in zip(precision, support)) / n,
        sum(r * s for r, s in zip(recall, support)) / n,
        sum(f * s for f, s in zip(f1, support)) / n,
    )
    return result


def miou_loops(pred_masks, true_masks, num_classes):
    """Mean IoU over classes, pooled over all pixels of all mask pairs."""
    inter = [0] * num_classes
    union = [0] * num_classes
    for pm, tm in zip(pred_masks, true_masks):
        h, w = pm.shape
        for y in range(h):
            for x in range(w):
                p = int(pm[y, x])
                t = int(tm[y, x])
                if p == t:
                    inter[p] += 1
                    union[p] += 1
                else:
                    union[p] += 1
                    union[t] += 1
    ious = [(inter[k] / union[k]) if union[k] > 0 else 0.0 for k in range(num_classes)]
    return sum(ious) / num_classes, ious


def ntxent_scalar(z, tau):
    """NT-Xent loss by scalar arithmetic. z: (2B, d) rows; 2i and 2i+1 pair."""
    n, d = z.shape
    zn = []
    for i in range(n):
        norm = math.sqrt(sum(float(z[i, j]) ** 2 for j in range(d)))
        zn.append([float(z[i, j]) / norm for j in range(d)])

    def sim(i, j):
        return sum(zn[i][k] * zn[j][k] for k in range(d))

    total = 0.0
    for i in range(n):
        partner = i + 1 if i % 2 == 0 else i - 1
        denom = 0.0
        for k in range(n):
            if k != i:
                denom += math.exp(sim(i, k) / tau)
        total += -math.log(math.exp(sim(i, partner) / tau) / denom)
    return total / n


def dequantize_whole(qt):
    """float32(code * scale) through a whole-tensor float64 copy."""
    values = qt.codes.astype(np.float64)
    values *= qt.scale
    return values.astype(np.float32)


def quantize_scalar(values):
    """Symmetric int8 quantization: scale = max|x|/127, round half away from zero."""
    amax = max(abs(float(v)) for v in values) if len(values) else 0.0
    scale = amax / 127.0 if amax > 0 else 1.0
    codes = []
    for v in values:
        q = float(v) / scale
        code = int(math.floor(abs(q) + 0.5)) * (1 if q >= 0 else -1)
        codes.append(max(-127, min(127, code)))
    return codes, scale


# ---------------------------------------------------------------------------
# Row-major convolution engine: one im2col row per output pixel, gathered
# from a sliding-window view of the zero-padded input, and the 64-bit GEMM
# as cols @ W.T; backward scatters (N,C,OH,OW,kh,kw) columns tap by tap.
# Each function takes NumPy arrays in one storage dtype and returns what the
# tape-based ops produce in it: the forward map and the x, kernel and bias
# gradients for an upstream gradient g.


def _pad_hw(x, p):
    return x if p == 0 else np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))


def _windows(xp, kh, kw, stride):
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _col2im(cols, hw, stride):
    n, c, oh, ow, kh, kw = cols.shape
    out = np.zeros((n, c) + tuple(hw), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i:i + stride * (oh - 1) + 1:stride,
                j:j + stride * (ow - 1) + 1:stride] += cols[:, :, :, :, i, j]
    return out


def _pixel_rows(a):
    return a.transpose(0, 2, 3, 1).reshape(-1, a.shape[1]).astype(np.float64, copy=False)


def _im2col_rows(win, r0, r1, dest):
    """Copy rows r0:r1 of the im2col matrix of win (N,OH,OW,C,kh,kw) into
    dest; runs of whole output rows within one image take one copy each."""
    _, oh, ow = win.shape[:3]
    r = r0
    while r < r1:
        img, pix = divmod(r, oh * ow)
        i, j = divmod(pix, ow)
        if j or r1 - r < ow:
            take = min(ow - j, r1 - r)
            src = win[img, i, j:j + take]
        else:
            lines = min(oh - i, (r1 - r) // ow)
            take = lines * ow
            src = win[img, i:i + lines]
        np.copyto(dest[r - r0:r - r0 + take].reshape(src.shape), src)
        r += take


def _conv_rows(x, wmat, kh, kw, stride, padding, bias):
    """(64-bit (N*OH*OW, K) product plus bias, im2col matrix, (N, OH, OW))."""
    win = _windows(_pad_hw(x, padding), kh, kw, stride).transpose(0, 2, 3, 1, 4, 5)
    n, oh, ow = win.shape[:3]
    cols = np.empty((n * oh * ow, wmat.shape[1]), dtype=x.dtype)
    _im2col_rows(win, 0, cols.shape[0], cols)
    out = cols.astype(np.float64) @ wmat.astype(np.float64).T
    if bias is not None:
        out += bias.astype(np.float64)
    return out, cols, (n, oh, ow)


def _conv_rows_backward(gmat, cols, x, kernels, stride, padding):
    """(dx, dk, db) from the 64-bit (N*OH*OW, K) output gradient."""
    n, c, h, w = x.shape
    k, _, kh, kw = kernels.shape
    dk = (gmat.T @ cols.astype(np.float64)).reshape(k, c, kh, kw).astype(kernels.dtype)
    db = gmat.sum(axis=0).astype(kernels.dtype)
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    dcols = gmat @ kernels.reshape(k, -1).astype(np.float64)
    dcols = dcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = _col2im(dcols, (h + 2 * padding, w + 2 * padding), stride)
    return dxp[:, :, padding:padding + h, padding:padding + w].astype(x.dtype), dk, db


def conv2d_rows(x, kernels, bias, stride, padding, g):
    k, _, kh, kw = kernels.shape
    out, cols, (n, oh, ow) = _conv_rows(x, kernels.reshape(k, -1), kh, kw, stride,
                                        padding, bias)
    y = out.astype(x.dtype).reshape(n, oh, ow, k).transpose(0, 3, 1, 2)
    return (y,) + _conv_rows_backward(_pixel_rows(g), cols, x, kernels, stride, padding)


def conv_relu_pool2d_rows(x, kernels, bias, g):
    """avg_pool2d(relu(conv2d(x, kernels, padding=1, bias)), 2) and its gradients."""
    n, _, h, w = x.shape
    k = kernels.shape[0]
    out, cols, _ = _conv_rows(x, kernels.reshape(k, -1), 3, 3, 1, 1, bias)
    act = np.maximum(out.astype(x.dtype), 0).reshape(n, h, w, k).transpose(0, 3, 1, 2)
    win = _windows(act, 2, 2, 2)
    acc = win[..., 0, 0].astype(np.float64)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        acc += win[..., i, j]
    y = (acc / 4).astype(x.dtype)
    gd = g / 4
    dz = _col2im(np.broadcast_to(gd[..., None, None], gd.shape + (2, 2)), (h, w), 2)
    dz = dz.astype(x.dtype) * (act > 0)
    return (y,) + _conv_rows_backward(_pixel_rows(dz), cols, x, kernels, 1, 1)


def conv_transpose2d_rows(x, kernels, bias, stride, padding, g):
    n, c, h, w = x.shape
    _, k, kh, kw = kernels.shape
    oh = (h - 1) * stride + kh - 2 * padding
    ow = (w - 1) * stride + kw - 2 * padding
    kmat = kernels.reshape(c, -1)
    cols = (_pixel_rows(x) @ kmat.astype(np.float64)).reshape(n, h, w, k, kh, kw)
    out = _col2im(cols.transpose(0, 3, 1, 2, 4, 5), (oh + 2 * padding, ow + 2 * padding),
                  stride)[:, :, padding:padding + oh, padding:padding + ow]
    if bias is not None:
        out = out + bias.astype(np.float64)[None, :, None, None]
    gout, gcols, (_, gh, gw) = _conv_rows(g, kmat, kh, kw, stride, padding, None)
    dx = gout.astype(x.dtype).reshape(n, gh, gw, c).transpose(0, 3, 1, 2)
    dk = (_pixel_rows(x).T @ gcols.astype(np.float64)).reshape(c, k, kh, kw)
    db = g.astype(np.float64).sum(axis=(0, 2, 3)).astype(x.dtype)
    return out.astype(x.dtype), dx, dk.astype(x.dtype), db


# ---------------------------------------------------------------------------
# Whole-matrix conv adjoints: the tap-major engine's backward passes and
# conv_transpose2d's forward as they were before they ran over the engine's
# blocks. Each holds a whole 64-bit (C*kh*kw, N*OH*OW) matrix: the rebuilt
# im2col matrix for the kernel gradient, or W.T @ g before it is scattered
# onto the input. The fused block reaches its conv gradient through
# avg_pool2d's adjoint and the ReLU mask. Each takes and returns NumPy arrays
# in one storage dtype.


def _chan_rows(a):
    """(N,C,H,W) -> the 64-bit (C, N*H*W) matrix with one row per channel."""
    return a.transpose(1, 0, 2, 3).astype(np.float64, order="C").reshape(a.shape[1], -1)


def _bias_grad(g, n):
    """Sum g (K, N*P), the channel rows of a conv output gradient over N
    images, in the row-major engine's order: pairwise for one image (or one
    channel), else one pixel row after another, in slabs led by the running
    sum."""
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


def _kernel_grad(rows, a, kh, kw, stride, pad):
    """rows @ cols.T with cols the whole 64-bit im2col matrix of a (N,C,H,W)."""
    n, c, h, w = a.shape
    cols = np.empty((c * kh * kw, rows.shape[1]), dtype=np.float64)
    T._im2col(a, cols, kh, kw, stride, pad, 0, n, 0, T._conv_grid((h, w), kh, kw, stride, pad)[0])
    return (rows @ cols.T).reshape(len(rows), c, kh, kw)


def _conv_adjoint(wmat, rows, kh, kw, stride, pad, hw):
    """_col2im of the whole W.T @ rows onto an (H, W) map."""
    cols = (wmat.astype(np.float64).T @ rows).reshape(
        wmat.shape[1] // (kh * kw), kh, kw, -1, *T._conv_grid(hw, kh, kw, stride, pad))
    return T._col2im(cols, hw, stride, pad)


def _conv_backward_whole(rows, x, kernels, with_bias, stride, pad):
    k, _, kh, kw = kernels.shape
    dx = _conv_adjoint(kernels.reshape(k, -1), rows, kh, kw, stride, pad, x.shape[2:])
    dk = _kernel_grad(rows, x, kh, kw, stride, pad)
    db = _bias_grad(rows, x.shape[0]).astype(x.dtype) if with_bias else None
    return dx.astype(x.dtype), dk.astype(x.dtype), db


def conv2d_backward_whole(x, kernels, with_bias, stride, padding, g):
    """conv2d's (dx, dk, db) for output gradient g; db is None without a bias."""
    return _conv_backward_whole(_chan_rows(g), x, kernels, with_bias, stride, padding)


def conv_relu_pool2d_backward_whole(x, kernels, bias, g):
    """conv_relu_pool2d's (dx, dk, db) for pooled-output gradient g."""
    conv = T.conv2d(T.Tensor(x, dtype=x.dtype), T.Tensor(kernels, dtype=x.dtype),
                    padding=1, bias=T.Tensor(bias, dtype=x.dtype)).data
    dz = _chan_rows(T._pool_adjoint(g, 2, 2, x.shape[2:]).astype(x.dtype))
    dz *= _chan_rows(conv) > 0
    return _conv_backward_whole(dz, x, kernels, True, 1, 1)


def conv_transpose2d_whole(x, kernels, bias, stride, padding, g):
    """conv_transpose2d's output and kernel gradient for output gradient g."""
    c, k, kh, kw = kernels.shape
    h, w = x.shape[2:]
    out_hw = ((h - 1) * stride + kh - 2 * padding, (w - 1) * stride + kw - 2 * padding)
    rows = _chan_rows(x)
    out = _conv_adjoint(kernels.reshape(c, -1), rows, kh, kw, stride, padding, out_hw)
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    dk = _kernel_grad(rows, g, kh, kw, stride, padding)
    return out.astype(x.dtype), dk.astype(x.dtype)


# ---------------------------------------------------------------------------
# Per-image preprocessing: one image at a time, the median by np.median over
# a window view and CLAHE one tile histogram at a time. The stack kernels of
# weedhybrid.imaging must reproduce these bytes exactly. Arrays are (H,W,C)
# uint8; nothing here calls the package.

_LUMA = (0.299, 0.587, 0.114)


def resize_per_image(arr, target):
    """Bilinear resize, half-pixel centers, round half-up."""
    h, w = arr.shape[:2]
    th, tw = target
    if (th, tw) == (h, w):
        return arr
    src = arr.astype(np.float64)

    def axis_weights(n_out, n_in):
        pos = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
        pos = np.clip(pos, 0.0, n_in - 1)
        lo = np.floor(pos).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), pos - lo

    y0, y1, wy = axis_weights(th, h)
    x0, x1, wx = axis_weights(tw, w)
    wy = wy[:, None, None]
    wx = wx[None, :, None]
    top = src[y0][:, x0] * (1.0 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1.0 - wx) + src[y1][:, x1] * wx
    out = top * (1.0 - wy) + bot * wy
    return np.clip(np.floor(out + 0.5), 0, 255).astype(np.uint8)


def median_per_image(arr, window):
    if window == 1:
        return arr
    r = window // 2
    padded = np.pad(arr, ((r, r), (r, r), (0, 0)), mode="edge")
    view = np.lib.stride_tricks.sliding_window_view(padded, (window, window), axis=(0, 1))
    return np.median(view, axis=(-2, -1)).astype(np.uint8)


def _luma_per_image(arr):
    y = (_LUMA[0] * arr[:, :, 0].astype(np.float64)
         + _LUMA[1] * arr[:, :, 1].astype(np.float64)
         + _LUMA[2] * arr[:, :, 2].astype(np.float64))
    return np.floor(y + 0.5).astype(np.uint8)


def clahe_luts_per_tile(arr, tile, clip):
    """(row_bounds, col_bounds, (gy, gx, 256) LUTs), one tile at a time."""
    h, w = arr.shape[:2]
    lum = _luma_per_image(arr) if arr.shape[2] == 3 else arr[:, :, 0]
    gy, gx = min(tile, h), min(tile, w)
    by = np.floor(np.arange(gy + 1, dtype=np.int64) * h / gy).astype(np.int64)
    bx = np.floor(np.arange(gx + 1, dtype=np.int64) * w / gx).astype(np.int64)
    luts = np.empty((gy, gx, 256), dtype=np.float64)
    for ty in range(gy):
        for tx in range(gx):
            block = lum[by[ty]:by[ty + 1], bx[tx]:bx[tx + 1]]
            hist = np.bincount(block.ravel(), minlength=256).astype(np.float64)
            area = block.size
            climit = max(1.0, clip * area / 256.0)
            excess = float(np.sum(np.maximum(hist - climit, 0.0)))
            running = np.cumsum(np.minimum(hist, climit) + excess / 256.0)
            luts[ty, tx] = 255.0 * running / area
    return by, bx, luts


def clahe_per_image(arr, tile, clip):
    h, w, c = arr.shape
    by, bx, luts = clahe_luts_per_tile(arr, tile, clip)
    gy, gx = luts.shape[:2]
    lum = _luma_per_image(arr) if c == 3 else arr[:, :, 0]

    def blend_axis(extent, bounds):
        n = len(bounds) - 1
        centers = (bounds[:-1] + bounds[1:] - 1) / 2.0
        pos = np.arange(extent, dtype=np.float64)
        if n == 1:
            return np.zeros(extent, dtype=np.int64), np.zeros(extent)
        t = np.clip(np.searchsorted(centers, pos, side="right") - 1, 0, n - 2)
        return t, np.clip((pos - centers[t]) / (centers[t + 1] - centers[t]), 0.0, 1.0)

    ty, uy = blend_axis(h, by)
    tx, ux = blend_axis(w, bx)
    ty2, tx2 = np.minimum(ty + 1, gy - 1), np.minimum(tx + 1, gx - 1)
    flat = luts.reshape(gy * gx, 256)
    v = lum.astype(np.int64)
    a = flat[ty[:, None] * gx + tx[None, :], v]
    b = flat[ty[:, None] * gx + tx2[None, :], v]
    cc = flat[ty2[:, None] * gx + tx[None, :], v]
    d = flat[ty2[:, None] * gx + tx2[None, :], v]
    m = ((1.0 - uy)[:, None] * (1.0 - ux)[None, :] * a
         + (1.0 - uy)[:, None] * ux[None, :] * b
         + uy[:, None] * (1.0 - ux)[None, :] * cc
         + uy[:, None] * ux[None, :] * d)
    fallback = np.clip(np.floor(m + 0.5), 0, 255)
    if c == 1:
        return fallback.astype(np.uint8)[:, :, None]
    vf = lum.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(vf > 0, m / np.where(vf > 0, vf, 1.0), 0.0)
    scaled = np.clip(np.floor(arr.astype(np.float64) * ratio[:, :, None] + 0.5), 0, 255)
    return np.where((vf == 0)[:, :, None], fallback[:, :, None], scaled).astype(np.uint8)


def stage_per_image(arr, cfg):
    """Resize, median, CLAHE, brightness and gamma of one image."""
    arr = resize_per_image(arr, cfg.target_size)
    arr = median_per_image(arr, cfg.median_window)
    arr = clahe_per_image(arr, cfg.clahe_tile, cfg.clahe_clip)
    if cfg.beta != 0.0:
        arr = np.clip(np.floor(arr.astype(np.float64) + cfg.beta + 0.5),
                      0, 255).astype(np.uint8)
    if cfg.gamma != 1.0:
        levels = np.arange(256, dtype=np.float64) / 255.0
        lut = np.clip(np.floor(255.0 * np.power(levels, cfg.gamma) + 0.5), 0, 255)
        arr = lut.astype(np.uint8)[arr]
    return arr


def standardize_per_image(arr, normalize=True):
    """(H,W,C) uint8 -> (C,H,W) float64, standardized per channel."""
    chw = np.transpose(arr, (2, 0, 1)).astype(np.float64)
    if not normalize:
        return chw / 255.0
    mean = chw.mean(axis=(1, 2), keepdims=True)
    std = chw.std(axis=(1, 2), keepdims=True)
    return (chw - mean) / (std + 255.0e-6)


def preprocess_per_image(arr, cfg):
    """The whole pipeline of one image -> (C,H,W) float32."""
    chw = standardize_per_image(stage_per_image(arr, cfg), cfg.normalize)
    return chw.astype(np.float32)


# ---------------------------------------------------------------------------
# Per-sample class balancing and per-view augmentation: one latent row and
# one generator call per synthetic image, and the two views of one image
# drawn and applied at a time. These call the package's generator and
# gamma_correct; only the batching differs from gan.rebalance and
# pretrain.make_views.


def rebalance_per_sample(counts, target, params, seed=0, out_size=None):
    """Class counts -> the ((H, W, 3) uint8, label) synthetic images that top each
    class up to target, class by class."""
    cfg = params.config
    out = []
    rng = np.random.default_rng([seed, 0xFA4E])
    for cls in range(cfg.class_count):
        for _ in range(max(0, target - counts[cls])):
            z = T.const(rng.standard_normal((1, cfg.latent_dim)))
            img = G.to_uint8(G.generate(z, [cls], params).data)[0]
            if out_size is not None and img.shape[:2] != tuple(out_size):
                img = im.resize_bilinear(img, out_size)
            out.append((img, cls))
    return out


def draw_view_params(cfg, rng):
    """One view's (op, gamma): the op first, then the gamma if it varies."""
    op = cfg.ops[int(rng.integers(len(cfg.ops)))]
    lo, hi = cfg.gamma_range
    return op, lo if lo == hi else float(rng.uniform(lo, hi))


_TURNS = {"identity": 0, "rot90": 1, "rot180": 2, "rot270": 3}


def apply_view_params(arr, op, gamma):
    if op == "hflip":
        arr = arr[:, ::-1]
    elif op == "vflip":
        arr = arr[::-1]
    else:
        arr = np.rot90(arr, _TURNS[op])
    return im.gamma_correct(arr, gamma)


def views_per_image(images, rng, cfg):
    """Both views of each image in turn, as a list of (H, W, C) uint8 arrays."""
    views = []
    for img in images:
        first = draw_view_params(cfg, rng)
        second = draw_view_params(cfg, rng)
        views += [apply_view_params(img, *first), apply_view_params(img, *second)]
    return views


# ---------------------------------------------------------------------------
# Multi-head self-attention as the chain of tensor ops it ran as before
# tensor.attention fused it: 8 tape records per head plus one concat.


def attention_chain(e, heads):
    """Concat over heads of softmax(Q K^T / sqrt(d_k)) V, one op at a time."""
    scale = 1.0 / math.sqrt(heads[0][0].shape[-1])
    out = []
    for wq, wk, wv in heads:
        q = T.matmul(e, wq)
        k = T.matmul(e, wk)
        v = T.matmul(e, wv)
        scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), scale)
        out.append(T.matmul(T.softmax(scores, axis=-1), v))
    return T.concat(out, axis=-1)


# ---------------------------------------------------------------------------
# Evaluation one image at a time: a predict call per image, every label and
# mask kept, and the report computed once over the whole set.


def evaluate_per_image(params, heads, data):
    """training.evaluate's MetricsReport over every sample of `data`."""
    k = heads.cls_w.shape[-1]
    labels, masks = [], []
    for i in range(len(data)):
        pred = H.predict(params, heads, T.const(data.images[i:i + 1]))
        labels.append(int(pred.labels[0]))
        masks.append(np.argmax(pred.seg_mask.data[0], axis=0))
    report = TR.classification_metrics(data.labels, labels, k)
    report.mean_iou, report.iou_per_class, flagged = TR.mean_iou(masks, data.masks, k)
    report.zero_division = report.zero_division or flagged
    return report


# ---------------------------------------------------------------------------
# Adam over whole arrays: new float64 moments and about ten full-size
# temporaries per parameter, in the order training.adam_step keeps per element.


def adam_step_whole(params, state):
    """One bias-corrected Adam update of every parameter, whole arrays at a time."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for i, p in enumerate(params):
        g = np.asarray(p.grad, dtype=np.float64)
        state.m[i] = state.beta1 * state.m[i] + (1.0 - state.beta1) * g
        state.v[i] = state.beta2 * state.v[i] + (1.0 - state.beta2) * g * g
        update = state.lr * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2)
                                                 + state.eps)
        p.data = (p.data.astype(np.float64) - update).astype(p.data.dtype)


# ---------------------------------------------------------------------------
# Smoothed noise as two np.roll copies per shift: nine shifted fields summed
# in (dy, dx) row-major order per pass, then divided by 9.


def smooth_noise_rolled(rng, size, passes=2):
    field = rng.uniform(0.0, 1.0, size)
    for _ in range(passes):
        acc = np.zeros_like(field)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += np.roll(np.roll(field, dy, axis=0), dx, axis=1)
        field = acc / 9.0
    return field
