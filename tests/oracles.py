"""Independent brute-force scalar oracles.

Everything here is deliberately slow: plain Python loops and float64
arithmetic, written from the operation definitions and kept free of any code
shared with the package implementations.
"""

import math

import numpy as np


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
