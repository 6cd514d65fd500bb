"""Shared test utilities: central finite-difference gradient checking,
checkpoint-named parameter lists, in-memory checkpoints and traced memory
peaks."""

import io
import tracemalloc

import numpy as np

from weedhybrid import deploy as dp
from weedhybrid import tensor as T


def gradcheck(build_loss, params, eps=1e-3, rtol=1e-3):
    """Check autodiff grads of a scalar loss against central finite differences.

    build_loss rebuilds the forward graph from scratch (closing over params);
    params is a list of Tensors whose data will be perturbed in place. Runs in
    whatever dtype the params carry; callers use float64 so the difference
    quotient is not drowned by storage rounding. Returns the max relative
    error seen; raises AssertionError past rtol.
    """
    for p in params:
        p.grad = None
    with T.Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    grads = []
    for p in params:
        assert p.grad is not None, "parameter missing gradient after backward"
        grads.append(p.grad.copy())
        p.grad = None

    worst = 0.0
    for p, ad in zip(params, grads):
        flat = p.data.reshape(-1)
        ad_flat = ad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            f_plus = build_loss().item()
            flat[i] = keep - eps
            f_minus = build_loss().item()
            flat[i] = keep
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ad_flat[i] - fd)
            rel = err / max(abs(ad_flat[i]), abs(fd), 1e-6)
            worst = max(worst, rel)
            assert rel <= rtol, (
                f"gradient mismatch at element {i}: autodiff {ad_flat[i]:.8g} "
                f"vs finite difference {fd:.8g} (rel err {rel:.3g})")
    return worst


def named_leaves(build, cfg, params):
    """(checkpoint name, tensor) pairs of `params`, named by walking its
    builder (e.g. backbone.build_backbone) with a callback that returns
    each tensor's name."""
    names = T.leaves(build(cfg, lambda name, shape, init: name))
    return list(zip(names, T.leaves(params), strict=True))


def rand_tensor(rng, shape, scale=1.0, requires_grad=True):
    return T.Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def checkpoint_bytes(entries, flags=dp.FLAG_FULL):
    """The bytes deploy.save_checkpoint writes for `entries`."""
    fh = io.BytesIO()
    dp.save_checkpoint(fh, entries, flags)
    return fh.getvalue()


def decode_bytes(blob):
    """deploy.load_checkpoint over an in-memory checkpoint."""
    return dp.load_checkpoint(io.BytesIO(blob))


def peak_traced_bytes(fn, held=False):
    """The peak bytes tracemalloc counts while fn() runs; with held, the
    bytes still allocated when it has returned, its result alive. Memory
    allocated before the call is not counted."""
    tracemalloc.start()
    try:
        result = fn()  # alive while the memory is read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current if held else peak
