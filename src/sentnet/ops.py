"""Differentiable array primitives.

Each operation validates shapes, computes its forward value, and returns a
:class:`GradPair`: the value plus a pullback closure that maps the upstream
gradient to gradients for every differentiable input, in input order;
conv2d's and affine's is built on the form training calls, param_pullback.
Arithmetic stays in the dtype of the inputs: training runs in float32, and
a float64 input, as the tests' finite-difference checker passes, stays
float64.

Work that only a pullback reads is deferred to the pullback: max pooling
builds its argmax map on the first pullback (or argmax) call, and ReLU
builds its mask there, so a forward-only pass (evaluation, feature
extraction) never pays for them. Pooling's one exception is an input
holding a -0, where the argmax also fixes the sign of zero maxima and is
built in the forward (see max_pool2d). A pullback also rebuilds what it can
from the inputs rather than keep it: local response normalization its
denominator's base, convolution its padded input and patch matrix.

Convolution multiplies each example's patch matrix by the flattened
kernels, one GEMM per example, and walks the batch in runs of m
consecutive examples. As in Caffe's convolution layer, no patch matrix
outlives the forward: a convolution keeps only its unpadded input (the
previous layer's output, which is alive anyway) and its kernels. The
forward pads each run into one buffer (at pad 0 it reads the input in
place), fills the run's matrices into another and runs their GEMMs into
the run's slice of the output. The pullbacks rebuild each run the same
way, add its dw GEMMs into one dw in example order, and add its patch
gradients back in a batch-inner [H, W, m, C] layout, where each window
offset's add runs over contiguous rows, before slicing them into the
run's dx. A run is as many examples as fit IM2COL_BUDGET (1 MiB, about
a core's cache), and at least one. Every GEMM sees the same operands and
every sum runs in the same order at any run length, so the bytes do not
depend on it. Every full-size layer runs one example at a time (each
example's matrix is 1.5 MB or more); `small` conv1 runs 4 examples at a
time (235 KB each), conv2 8, conv3 32 and conv4 and conv5 24.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NonFiniteError, ShapeError

Array = np.ndarray


@dataclass(frozen=True)
class GradPair:
    """Forward value plus a pullback from upstream gradient to input gradients.

    conv2d and affine also set param_pullback(g, with_dx) -> (dx, db,
    blocks), which their pullback is built on: dx (None without with_dx)
    from the weights as they are at the call, the bias gradient, then the
    weight gradient as (first row, rows) blocks, each computed when the
    iterator reaches it, so a caller may update each block before drawing
    the next. affine gives blocks of FC_BLOCK rows, conv2d one block.
    """

    value: Array
    pullback: Callable[[Array], tuple[Array, ...]]
    param_pullback: Callable[..., tuple[Array | None, Array, Iterable[tuple[int, Array]]]] | None = None


def _full_pullback(param_pullback, w_shape: tuple[int, ...]) -> Callable[[Array], tuple[Array, Array, Array]]:
    """(dx, dw, db) from a param_pullback, dw filled from its blocks, one alive beside it."""

    def pullback(g: Array) -> tuple[Array, Array, Array]:
        dx, db, blocks = param_pullback(g, True)
        dw = np.empty(w_shape, dtype=db.dtype)
        for start, rows in blocks:
            dw[start : start + len(rows)] = rows
            del rows  # freed before the next block is computed
        return dx, dw, db

    return pullback


def _check_finite(arr: Array, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(op)


def _as_float(x) -> Array:
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


IM2COL_BUDGET = 1 << 20  # bytes of patch matrices one run of examples may fill


def _patches(xp: Array, kh: int, kw: int, stride: int) -> Array:
    """Patch view [N, C, kh, kw, out_h, out_w] of a padded input; copies nothing."""
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return windows.transpose(0, 1, 4, 5, 2, 3)


def _col2im_add(dxp: Array, dcols: Array, stride: int) -> None:
    """Add patch gradients [..., C, kh, kw, out_h, out_w] back onto the padded
    input gradient [..., C, H, W], one window offset at a time in row-major order.

    Both may be transposed views of other layouts: every element receives its
    kh*kw terms in that order whatever the memory order, so the sums match."""
    kh, kw, out_h, out_w = dcols.shape[-4:]
    for r in range(kh):
        for s in range(kw):
            dxp[..., r : r + stride * out_h : stride, s : s + stride * out_w : stride] += dcols[..., r, s, :, :]


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> GradPair:
    """Cross-correlation of [N,C,H,W] with kernels [K,C,kh,kw], plus bias.

    Output spatial size is (H + 2*pad - kh) // stride + 1 and the stride must
    divide (H + 2*pad - kh) exactly; positions are never dropped silently.
    Pullback returns (dx, dw, db). The pullbacks read x and w, which must
    not change before they run, but not the output, so a caller may
    rectify it in place. Forward and pullbacks walk the batch in runs of m
    consecutive examples, as many as fit IM2COL_BUDGET and at least one.
    Each run is padded and its patch matrices built afresh, so no padded
    copy or patch matrix outlives a call.
    """
    x = _as_float(x)
    w = _as_float(w)
    b = _as_float(b)
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

    out_h, out_w = span_h // stride + 1, span_w // stride + 1
    hp, wp = h + 2 * pad, wd + 2 * pad
    rows, positions = c * kh * kw, out_h * out_w
    w_flat = w.reshape(k, rows)
    dtype = np.result_type(w_flat, x)
    example_bytes = rows * positions * x.itemsize  # 0 with no input channels
    m = max(1, min(n, IM2COL_BUDGET // max(example_bytes, 1)))

    def runs() -> Iterator[tuple[slice, Array]]:
        """(run, its patch matrices [len, rows, positions]) for each run of m
        examples in order. A run is padded into one buffer (x is read in
        place at pad 0) and its matrices filled into another, which the
        caller may overwrite before it draws the next run."""
        xp = np.zeros((min(m, n), c, hp, wp), dtype=x.dtype) if pad else x
        patches = _patches(xp, kh, kw, stride)
        cols = np.empty((min(m, n), rows, positions), dtype=x.dtype)
        for start in range(0, n, m):
            run = slice(start, min(start + m, n))
            count = run.stop - start
            if pad:
                xp[:count, :, pad : pad + h, pad : pad + wd] = x[run]
            view = patches[:count] if pad else patches[run]
            cols[:count].reshape(view.shape)[...] = view
            yield run, cols[:count]

    out = np.empty((n, k, positions), dtype=dtype)
    for run, cols in runs():
        np.matmul(w_flat[None], cols, out=out[run])
        del cols  # so the last run's matrices die with runs(), before the finite check
    out += b[None, :, None]
    out = out.reshape(n, k, out_h, out_w)
    _check_finite(out, "conv2d")

    def param_pullback(g: Array, with_dx: bool):
        g = np.ascontiguousarray(g, dtype=dtype).reshape(n, k, positions)
        db, dw = g.sum(axis=(0, 2)), np.zeros((k, rows), dtype=dtype)
        dx = np.empty_like(x) if with_dx else None
        for run, cols in runs():
            term = np.empty_like(dw)
            for g_i, cols_i in zip(g[run], cols):  # dw's terms in example order
                dw += np.matmul(g_i, cols_i.T, out=term)
            del term  # before the patch gradients below are built
            if with_dx:
                # col2im in the batch-inner layout [H, W, m, c], where each window
                # offset's add runs over contiguous rows; the patch gradients'
                # contiguous copy goes into the run's matrices, which dw has read
                count = len(cols)
                dcols = np.matmul(w_flat.T[None], g[run]).reshape(count, c, kh, kw, out_h, out_w)
                if cols.dtype != dtype:  # float32 input, float64 kernels
                    cols = np.empty(cols.shape, dtype=dtype)
                inner_cols = cols.reshape(kh, kw, out_h, out_w, count, c)
                inner_cols[...] = dcols.transpose(2, 3, 4, 5, 0, 1)
                del dcols
                inner = np.zeros((hp, wp, count, c), dtype=x.dtype)
                _col2im_add(inner.transpose(2, 3, 0, 1), inner_cols.transpose(4, 5, 0, 1, 2, 3), stride)
                dx[run] = inner[pad : pad + h, pad : pad + wd].transpose(2, 3, 0, 1)
        return dx, db, ((0, dw.reshape(w.shape)),)

    return GradPair(out, _full_pullback(param_pullback, w.shape), param_pullback)


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
    x = _as_float(x)
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
    x = _as_float(x)
    if x.ndim != 4:
        raise ShapeError(f"local_response_norm: expected 4d input, got {x.shape}")
    if size < 1:
        raise ShapeError(f"local_response_norm: window size {size} must be >= 1")
    lo = (size - 1) // 2
    hi = size // 2

    def denom_base() -> Array:
        # k + alpha/size * the window's sum of squares; the pullback rebuilds
        # it from x rather than keep it
        base = _channel_window_sum(x * x, lo, hi)
        base *= alpha / size
        base += k
        return base

    scale = denom_base() ** (-beta)
    out = x * scale
    _check_finite(out, "local_response_norm")

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=out.dtype)
        # d out[c]/d x[i] couples channel i to every window containing it.
        t = g * x * denom_base() ** (-beta - 1.0)
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


FC_BLOCK = 1024  # weight rows per FC weight-gradient block


def affine(x, w, b) -> GradPair:
    """Fully connected map [N,D] @ [D,M] + [M]; pullback returns (dx, dw, db).

    dw is defined by its blocks of FC_BLOCK rows s:e, each the product
    x[:, s:e].T @ g issued alone; every caller takes these same products.
    """
    x = _as_float(x)
    w = _as_float(w)
    b = _as_float(b)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"affine: expected 2d input and weights, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine: input width {x.shape[1]} does not match weight rows {w.shape[0]}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine: bias shape {b.shape} does not match {w.shape[1]} units")
    out = x @ w + b
    _check_finite(out, "affine")
    dtype = out.dtype

    def param_pullback(g: Array, with_dx: bool):
        g = np.asarray(g, dtype=dtype)
        d = w.shape[0]
        # a one-row tail joins the block before it: numpy runs one row as a GEMV, with other bits
        starts = list(range(0, max(d - 1, 1), FC_BLOCK))
        blocks = ((s, x[:, s:e].T @ g) for s, e in zip(starts, starts[1:] + [d]))
        return (g @ w.T if with_dx else None), g.sum(axis=0), blocks

    return GradPair(out, _full_pullback(param_pullback, w.shape), param_pullback)


def relu(x) -> GradPair:
    """Elementwise max(x, 0); subgradient at exactly 0 is 0."""
    x = _as_float(x)
    out = np.maximum(x, 0)

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=out.dtype)
        return (g * (x > 0),)

    return GradPair(out, pullback)


def softmax(logits) -> Array:
    """Row-wise softmax of [N,C], computed with the max-shift for stability."""
    logits = _as_float(logits)
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
    logits = _as_float(logits)
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
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(n), labels]
    loss = np.asarray((np.log(z[:, 0]) - picked).mean(), dtype=logits.dtype)
    _check_finite(loss, "cross_entropy_loss")
    probs = e / z  # softmax's formula on the same numbers; finite when the loss is

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
    scores = _as_float(scores)
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

