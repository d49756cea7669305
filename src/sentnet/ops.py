"""Differentiable array primitives.

Each operation validates shapes, computes its forward value, and returns a
:class:`GradPair`: the value plus a pullback closure that maps the upstream
gradient to gradients for every differentiable input, in input order.
Arithmetic stays in the dtype of the inputs, so training runs in float32
while the finite-difference checker promotes to float64.

Work that only a pullback reads is deferred to the pullback: max pooling
builds its argmax map on the first pullback (or argmax) call, and ReLU
builds its mask there, so a forward-only pass (evaluation, feature
extraction) never pays for them. Pooling's one exception is an input
holding a -0, where the argmax also fixes the sign of zero maxima and is
built in the forward (see max_pool2d).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class GradPair:
    """Forward value plus a pullback from upstream gradient to input gradients.

    Ops with parameters also set param_pullback, which returns only the
    parameter gradients (dw, db) and skips the input gradient: the cheaper
    call for a bottom layer, whose input gradient nothing reads.
    """

    value: Array
    pullback: Callable[[Array], tuple[Array, ...]]
    param_pullback: Callable[[Array], tuple[Array, ...]] | None = None


def _check_finite(arr: Array, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(op)


def _as_float(x, name: str, op: str) -> Array:
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def _im2col(xp: Array, kh: int, kw: int, stride: int) -> tuple[Array, int, int]:
    """Patch matrix [N, C*kh*kw, out_h*out_w] from a padded input."""
    n, c = xp.shape[:2]
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    out_h, out_w = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, out_h * out_w)
    return cols, out_h, out_w


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> GradPair:
    """Cross-correlation of [N,C,H,W] with kernels [K,C,kh,kw], plus bias.

    Output spatial size is (H + 2*pad - kh) // stride + 1 and the stride must
    divide (H + 2*pad - kh) exactly; positions are never dropped silently.
    Pullback returns (dx, dw, db).
    """
    x = _as_float(x, "x", "conv2d")
    w = _as_float(w, "w", "conv2d")
    b = _as_float(b, "b", "conv2d")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4d input and weights, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    k, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeError(f"conv2d: input has {c} channels but weights expect {cw}")
    if b.shape != (k,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match {k} kernels")
    if stride < 1 or pad < 0:
        raise ShapeError(f"conv2d: invalid stride {stride} or pad {pad}")
    span_h, span_w = h + 2 * pad - kh, wd + 2 * pad - kw
    if span_h < 0 or span_w < 0:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{wd + 2 * pad}")
    if span_h % stride or span_w % stride:
        raise ShapeError(
            f"conv2d: stride {stride} does not tile input {h}x{wd} with kernel {kh}x{kw} pad {pad}"
        )

    if pad:
        xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
        xp[:, :, pad : pad + h, pad : pad + wd] = x
    else:
        xp = x
    cols, out_h, out_w = _im2col(xp, kh, kw, stride)
    w_flat = w.reshape(k, c * kh * kw)
    out = np.matmul(w_flat[None], cols)
    out += b[None, :, None]
    out = out.reshape(n, k, out_h, out_w)
    _check_finite(out, "conv2d")

    def flat_param_grads(g: Array) -> tuple[Array, Array, Array]:
        g = np.ascontiguousarray(g, dtype=out.dtype).reshape(n, k, out_h * out_w)
        db = g.sum(axis=(0, 2))
        dw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        return g, dw, db

    def param_pullback(g: Array) -> tuple[Array, Array]:
        return flat_param_grads(g)[1:]

    def pullback(g: Array) -> tuple[Array, Array, Array]:
        g, dw, db = flat_param_grads(g)
        dcols = np.matmul(w_flat.T[None], g)
        dcols = dcols.reshape(n, c, kh, kw, out_h, out_w)
        dxp = np.zeros_like(xp)
        for r in range(kh):
            for s in range(kw):
                dxp[:, :, r : r + stride * out_h : stride, s : s + stride * out_w : stride] += dcols[
                    :, :, r, s
                ]
        dx = dxp[:, :, pad : pad + h, pad : pad + wd] if pad else dxp
        return dx, dw, db

    return GradPair(out, pullback, param_pullback)


def _pool_window(a: Array, idx: int, size: int, stride: int, out_shape: tuple[int, ...]) -> Array:
    """View of a at window offset idx (row-major), one element per output."""
    r, s = divmod(idx, size)
    out_h, out_w = out_shape[-2:]
    return a[:, :, r : r + stride * (out_h - 1) + 1 : stride, s : s + stride * (out_w - 1) + 1 : stride]


def _pool_argmax(x: Array, out: Array, size: int, stride: int) -> Array:
    """First window offset, in row-major scan order, whose element equals out.

    Returned in the smallest unsigned dtype that holds size*size - 1.
    """
    count = size * size
    seen = _pool_window(x, 0, size, stride, out.shape) == out
    first_at = np.zeros(out.shape, dtype=np.min_scalar_type(count - 1))
    for idx in range(1, count):
        first = (_pool_window(x, idx, size, stride, out.shape) == out) > seen
        seen |= first
        first_at += np.multiply(first, idx, dtype=first_at.dtype)
    return first_at


def _has_negative_zero(x: Array) -> bool:
    bits = np.uint32 if x.dtype == np.float32 else np.uint64
    return bool((x.view(bits) == np.array(-0.0, dtype=x.dtype).view(bits)).any())


def max_pool2d(x, size: int, stride: int) -> tuple[GradPair, Callable[[], Array]]:
    """Max pooling over [N,C,H,W] windows; floor((H - size)/stride) + 1 outputs.

    Returns the GradPair and a function of no arguments that gives the flat
    within-window argmax map [N,C,oh,ow] (intp). Ties resolve to the first
    maximum in row-major window scan order, and the pullback routes each
    upstream element to exactly that input position.

    The argmax is lazy: the forward takes only the max, and the map is built
    on the first pullback or argmax call, then cached and shared. The
    exception: a zero maximum takes the sign of the element at the argmax,
    and np.maximum may keep either of two tied zeros, so when x holds a -0
    the forward builds the argmax and copies that element into every zero
    maximum. With no -0 every zero is +0 and the copy could not change a
    bit. The pullback and the argmax read x and the value as the forward
    left them, so neither may be written in place.
    """
    x = _as_float(x, "x", "max_pool2d")
    if x.ndim != 4:
        raise ShapeError(f"max_pool2d: expected 4d input, got {x.shape}")
    h, w = x.shape[2:]
    if size < 1 or stride < 1:
        raise ShapeError(f"max_pool2d: invalid size {size} or stride {stride}")
    if size > h or size > w:
        raise ShapeError(f"max_pool2d: window {size} exceeds input {h}x{w}")
    out_shape = (*x.shape[:2], (h - size) // stride + 1, (w - size) // stride + 1)

    def at(a: Array, idx: int) -> Array:
        return _pool_window(a, idx, size, stride, out_shape)

    count = size * size
    out = np.array(at(x, 0))
    for idx in range(1, count):
        np.maximum(out, at(x, idx), out=out)

    @functools.cache
    def first_at() -> Array:
        return _pool_argmax(x, out, size, stride)

    if _has_negative_zero(x):
        zero = np.flatnonzero(out == 0)
        ni, ci, oy, ox = np.unravel_index(zero, out.shape)
        r, s = np.divmod(first_at().flat[zero], size)
        out.flat[zero] = x[ni, ci, oy * stride + r, ox * stride + s]
    _check_finite(out, "max_pool2d")

    @functools.cache
    def argmax() -> Array:
        return first_at().astype(np.intp)

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=out.dtype)
        offsets = first_at()
        dx = np.zeros_like(x)
        # Descending offsets add overlapping windows' shares in output scan
        # order, as np.add.at over the argmax positions would, so every sum
        # rounds the same; the masked-out terms are zeros, which leave a sum
        # unchanged while g is finite.
        for idx in reversed(range(count)):
            at(dx, idx)[...] += g * (offsets == idx)
        return (dx,)

    return GradPair(out, pullback), argmax


def local_response_norm(x, size: int = 5, k: float = 2.0, alpha: float = 1e-4, beta: float = 0.75) -> GradPair:
    """Cross-channel response normalization of [N,C,H,W].

    Each activation is divided by (k + alpha/size * sum of squares over the
    size adjacent channels centered on it)^beta, with the window clipped at
    the channel boundaries.
    """
    x = _as_float(x, "x", "local_response_norm")
    if x.ndim != 4:
        raise ShapeError(f"local_response_norm: expected 4d input, got {x.shape}")
    if size < 1:
        raise ShapeError(f"local_response_norm: window size {size} must be >= 1")
    lo = (size - 1) // 2
    hi = size // 2
    denom_base = _channel_window_sum(x * x, lo, hi)
    denom_base *= alpha / size
    denom_base += k
    scale = denom_base ** (-beta)
    out = x * scale
    _check_finite(out, "local_response_norm")

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=out.dtype)
        # d out[c]/d x[i] couples channel i to every window containing it.
        t = g * x * denom_base ** (-beta - 1.0)
        coupled = _channel_window_sum(t, hi, lo)
        dx = g * scale - (2.0 * alpha * beta / size) * x * coupled
        return (dx,)

    return GradPair(out, pullback)


def _channel_window_sum(a: Array, below: int, above: int) -> Array:
    """out[:, ch] = sum of a[:, j] for ch - below <= j <= ch + above, clipped.

    One slice add per window offset. Each output adds its channels in
    ascending order starting from zero, the order numpy's own sum over a
    channel slice takes, so the result is the same bit for bit.
    """
    c = a.shape[1]
    out = np.zeros_like(a)
    for off in range(-below, above + 1):
        start, stop = max(0, -off), min(c, c - off)
        if start < stop:
            out[:, start:stop] += a[:, start + off : stop + off]
    return out


def affine(x, w, b) -> GradPair:
    """Fully connected map [N,D] @ [D,M] + [M]; pullback returns (dx, dw, db)."""
    x = _as_float(x, "x", "affine")
    w = _as_float(w, "w", "affine")
    b = _as_float(b, "b", "affine")
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"affine: expected 2d input and weights, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: input width {x.shape[1]} does not match weight rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias shape {b.shape} does not match {w.shape[1]} units")
    out = x @ w + b
    _check_finite(out, "affine")

    def param_pullback(g: Array) -> tuple[Array, Array]:
        g = np.asarray(g, dtype=out.dtype)
        return x.T @ g, g.sum(axis=0)

    def pullback(g: Array) -> tuple[Array, Array, Array]:
        g = np.asarray(g, dtype=out.dtype)
        return (g @ w.T, *param_pullback(g))

    return GradPair(out, pullback, param_pullback)


def relu(x) -> GradPair:
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""
    x = _as_float(x, "x", "relu")
    out = np.maximum(x, 0)

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=out.dtype)
        return (g * (x > 0),)

    return GradPair(out, pullback)


def softmax(logits) -> Array:
    """Row-wise softmax of [N,C], computed with the max-shift for stability."""
    logits = _as_float(logits, "logits", "softmax")
    if logits.ndim != 2:
        raise ShapeError(f"softmax: expected 2d logits, got {logits.shape}")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    _check_finite(out, "softmax")
    return out


def cross_entropy_loss(logits, labels) -> GradPair:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    Pullback returns (dlogits,) where dlogits = (softmax - onehot) / N scaled
    by the upstream scalar.
    """
    logits = _as_float(logits, "logits", "cross_entropy_loss")
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy_loss: expected 2d logits, got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy_loss: labels shape {labels.shape} does not match batch {n}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ShapeError("cross_entropy_loss: labels must be integers")
    if labels.min() < 0 or labels.max() >= c:
        raise ShapeError(f"cross_entropy_loss: labels outside [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(n), labels]
    loss = np.asarray((log_z - picked).mean(), dtype=logits.dtype)
    _check_finite(loss, "cross_entropy_loss")
    probs = softmax(logits)

    def pullback(g) -> tuple[Array]:
        g = np.asarray(g, dtype=logits.dtype)
        dlogits = probs.copy()
        dlogits[np.arange(n), labels] -= 1
        dlogits *= g / n
        return (dlogits,)

    return GradPair(loss, pullback)


def hinge_loss(scores, labels, weights_norm_sq=0.0, reg: float = 0.0) -> GradPair:
    """Binary L2-regularized hinge: mean(max(0, 1 - y*s)) + reg * ||w||^2.

    labels must be in {-1, +1}. Pullback returns (dscores, dweights_norm_sq);
    the subgradient at a margin of exactly 1 is 0.
    """
    scores = _as_float(scores, "scores", "hinge_loss")
    labels = np.asarray(labels)
    if scores.ndim != 1:
        raise ShapeError(f"hinge_loss: expected 1d scores, got {scores.shape}")
    if labels.shape != scores.shape:
        raise ShapeError(f"hinge_loss: labels shape {labels.shape} does not match scores {scores.shape}")
    if not np.isin(labels, (-1, 1)).all():
        raise ShapeError("hinge_loss: labels must be -1 or +1")
    y = labels.astype(scores.dtype)
    wns = np.asarray(weights_norm_sq, dtype=scores.dtype)
    margins = 1.0 - y * scores
    active = margins > 0
    n = scores.shape[0]
    loss = np.asarray(np.maximum(margins, 0).mean() + reg * wns, dtype=scores.dtype)
    _check_finite(loss, "hinge_loss")

    def pullback(g) -> tuple[Array, Array]:
        g = np.asarray(g, dtype=scores.dtype)
        dscores = np.where(active, -y / n, 0).astype(scores.dtype) * g
        dwns = np.asarray(reg, dtype=scores.dtype) * g
        return dscores, dwns

    return GradPair(loss, pullback)


def grad_check(
    fn: Callable[..., GradPair],
    inputs: Sequence[Array],
    eps: float = 1e-3,
    seed: int = 0,
) -> float:
    """Max relative error between analytic pullback and central differences.

    Inputs are promoted to float64; the forward value is projected to a
    scalar against a fixed random direction so a single pullback covers all
    outputs. Relative error is |a - n| / max(1, |a|, |n|) per element.
    """
    inputs64 = [np.asarray(a, dtype=np.float64) for a in inputs]
    rng = np.random.default_rng(seed)
    pair = fn(*inputs64)
    direction = rng.standard_normal(pair.value.shape)
    analytic = pair.pullback(direction)
    if len(analytic) != len(inputs64):
        raise ShapeError(
            f"grad_check: pullback returned {len(analytic)} gradients for {len(inputs64)} inputs"
        )

    def objective(args: list[Array]) -> float:
        return float(np.sum(fn(*args).value * direction))

    worst = 0.0
    for idx, base in enumerate(inputs64):
        grad = np.asarray(analytic[idx], dtype=np.float64)
        if grad.shape != base.shape:
            raise ShapeError(
                f"grad_check: gradient {idx} has shape {grad.shape}, input has {base.shape}"
            )
        flat = base.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus = objective(inputs64)
            flat[j] = orig - eps
            minus = objective(inputs64)
            flat[j] = orig
            numeric = (plus - minus) / (2 * eps)
            a = float(grad.reshape(-1)[j])
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst
