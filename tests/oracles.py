"""Independent reference implementations used to verify the package.

Everything here is written the slow, obvious way (explicit Python loops,
float64 accumulation, direct formulas) and deliberately shares no code with
the package. When a package result and an oracle result agree, the agreement
is between two routes that were derived separately.
"""

from __future__ import annotations

import io
import struct

import numpy as np

Array = np.ndarray


def conv2d_loops(x: Array, w: Array, b: Array, stride: int = 1, pad: int = 0) -> Array:
    """Cross-correlation via seven nested loops in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((n, k, out_h, out_w), dtype=np.float64)
    for i in range(n):
        for f in range(k):
            for oy in range(out_h):
                for ox in range(out_w):
                    acc = 0.0
                    for ch in range(c):
                        for r in range(kh):
                            for s in range(kw):
                                acc += xp[i, ch, oy * stride + r, ox * stride + s] * w[f, ch, r, s]
                    out[i, f, oy, ox] = acc + b[f]
    return out


def conv2d_patches(x: Array, w: Array, b: Array, stride: int = 1, pad: int = 0) -> Array:
    """Cross-correlation as an elementwise product over explicit patches.

    Faster than the seven-loop route but still independent of the package:
    each output position is a direct sum over one sliced patch.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, c, h, wd = x.shape
    k, _, kh, kw = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((n, k, out_h, out_w), dtype=np.float64)
    for oy in range(out_h):
        for ox in range(out_w):
            patch = xp[:, :, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
            out[:, :, oy, ox] = np.einsum("ncrs,kcrs->nk", patch, w) + b
    return out


def max_pool_loops(x: Array, size: int, stride: int) -> tuple[Array, Array]:
    """Window-scan max pooling; returns (output, flat argmax per window).

    Ties go to the first maximum in row-major scan order, matching a plain
    running-max loop.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out_h = (h - size) // stride + 1
    out_w = (w - size) // stride + 1
    out = np.zeros((n, c, out_h, out_w), dtype=np.float64)
    arg = np.zeros((n, c, out_h, out_w), dtype=np.int64)
    for i in range(n):
        for ch in range(c):
            for oy in range(out_h):
                for ox in range(out_w):
                    best = -np.inf
                    best_at = 0
                    flat = 0
                    for r in range(size):
                        for s in range(size):
                            v = x[i, ch, oy * stride + r, ox * stride + s]
                            if v > best:
                                best = v
                                best_at = flat
                            flat += 1
                    out[i, ch, oy, ox] = best
                    arg[i, ch, oy, ox] = best_at
    return out, arg


def lrn_direct(x: Array, size: int = 5, k: float = 2.0, alpha: float = 1e-4, beta: float = 0.75) -> Array:
    """Cross-channel normalization evaluated one channel at a time.

    b[c] = a[c] / (k + alpha/size * sum_{j in window(c)} a[j]^2)^beta with the
    window spanning (size-1)//2 channels below and size//2 above, clipped.
    """
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    lo = (size - 1) // 2
    hi = size // 2
    out = np.zeros_like(x)
    for ch in range(c):
        start = max(0, ch - lo)
        stop = min(c, ch + hi + 1)
        ssq = np.zeros((n, h, w), dtype=np.float64)
        for j in range(start, stop):
            ssq += x[:, j] ** 2
        out[:, ch] = x[:, ch] / (k + (alpha / size) * ssq) ** beta
    return out


def max_pool_add_at(x: Array, size: int, stride: int):
    """Max pooling by a sliding-window argmax, pulled back with np.add.at.

    Runs in the dtype of x; returns (out, argmax, pullback). This was the
    package's own formulation, kept so a faster one can be held to the same
    bits: ties go to the first maximum in row-major window order, and
    overlapping windows add their shares in output scan order.
    """
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape
    out_h = (h - size) // stride + 1
    out_w = (w - size) // stride + 1
    windows = np.lib.stride_tricks.sliding_window_view(x, (size, size), axis=(2, 3))
    flat = windows[:, :, ::stride, ::stride][:, :, :out_h, :out_w].reshape(n, c, out_h, out_w, size * size)
    argmax = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, argmax[..., None], axis=-1)[..., 0])
    rows = argmax // size + (np.arange(out_h) * stride)[None, None, :, None]
    cols = argmax % size + (np.arange(out_w) * stride)[None, None, None, :]

    def pullback(g: Array) -> Array:
        dx = np.zeros_like(x)
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(dx, (ni, ci, rows, cols), np.asarray(g, dtype=x.dtype))
        return dx

    return out, argmax, pullback


def max_pool_eager(x: Array, size: int, stride: int):
    """Strided-slice max pooling that builds its argmax in the forward.

    Returns (out, argmax, pullback). This was the package's own formulation
    before the argmax became lazy, kept so the lazy one can be held to the
    same bits: the argmax is the first offset in scan order equal to the
    max, every zero max takes the sign of the element at the argmax, and the
    pullback adds offsets in descending order.
    """
    x = np.ascontiguousarray(x)
    h, w = x.shape[2:]
    out_h = (h - size) // stride + 1
    out_w = (w - size) // stride + 1

    def at(a: Array, idx: int) -> Array:
        r, s = divmod(idx, size)
        return a[:, :, r : r + stride * (out_h - 1) + 1 : stride, s : s + stride * (out_w - 1) + 1 : stride]

    count = size * size
    out = np.array(at(x, 0))
    for idx in range(1, count):
        np.maximum(out, at(x, idx), out=out)
    seen = at(x, 0) == out
    first_at = np.zeros(out.shape, dtype=np.min_scalar_type(count - 1))
    for idx in range(1, count):
        first = (at(x, idx) == out) > seen
        seen |= first
        first_at += np.multiply(first, idx, dtype=first_at.dtype)
    argmax = first_at.astype(np.intp)
    zero = np.flatnonzero(out == 0)
    ni, ci, oy, ox = np.unravel_index(zero, out.shape)
    r, s = np.divmod(argmax.flat[zero], size)
    out.flat[zero] = x[ni, ci, oy * stride + r, ox * stride + s]

    def pullback(g: Array) -> Array:
        g = np.asarray(g, dtype=out.dtype)
        dx = np.zeros_like(x)
        for idx in reversed(range(count)):
            at(dx, idx)[...] += g * (first_at == idx)
        return dx

    return out, argmax, pullback


def lrn_channel_loops(x: Array, size: int = 5, k: float = 2.0, alpha: float = 1e-4, beta: float = 0.75):
    """Cross-channel normalization with one window sum per channel.

    Runs in the dtype of x; returns (out, pullback). This was the package's
    own formulation, kept so a faster one can be held to the same bits.
    """
    x = np.ascontiguousarray(x)
    c = x.shape[1]
    lo = (size - 1) // 2
    hi = size // 2
    sq = x * x
    denom_base = np.empty_like(x)
    for ch in range(c):
        denom_base[:, ch] = sq[:, max(0, ch - lo) : min(c, ch + hi + 1)].sum(axis=1)
    denom_base *= alpha / size
    denom_base += k
    scale = denom_base ** (-beta)
    out = x * scale

    def pullback(g: Array) -> Array:
        g = np.asarray(g, dtype=x.dtype)
        t = g * x * denom_base ** (-beta - 1.0)
        coupled = np.empty_like(x)
        for ch in range(c):
            coupled[:, ch] = t[:, max(0, ch - hi) : min(c, ch + lo + 1)].sum(axis=1)
        return g * scale - (2.0 * alpha * beta / size) * x * coupled

    return out, pullback


def matmul_loops(x: Array, w: Array, b: Array) -> Array:
    """Affine map via three nested loops in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, d = x.shape
    m = w.shape[1]
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(d):
                acc += x[i, t] * w[t, j]
            out[i, j] = acc + b[j]
    return out


def momentum_updates(w0: float, grads: list[float], lr: float, momentum: float, decay: float) -> list[float]:
    """Scalar SGD-with-momentum trajectory from the recurrence itself.

    v <- momentum * v - lr * (g + decay * w); w <- w + v. Returns the weight
    after each step.
    """
    w = float(w0)
    v = 0.0
    trace = []
    for g in grads:
        v = momentum * v - lr * (g + decay * w)
        w = w + v
        trace.append(w)
    return trace


def sgd_step_whole_array(ckpt, grads, state, lr, lr_mults, momentum, weight_decay) -> None:
    """optim.sgd_step as one whole-array expression per tensor.

    Builds temporaries the size of each tensor; the blocked update must
    match it bit for bit.
    """
    for name, (dw, db) in grads.items():
        mult = lr_mults.get(name, 1.0)
        if mult == 0.0:
            continue
        step = np.float32(lr * mult)
        mom = np.float32(momentum)
        decay = np.float32(weight_decay)
        for param, grad, vel in zip(ckpt.entries[name], (dw, db), state.velocities[name]):
            vel *= mom
            vel -= step * (grad + decay * param)
            param += vel


def _encode_tensor(buf, arr: Array) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    buf.write(struct.pack("<B", arr.ndim))
    buf.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    buf.write(arr.tobytes())


def checkpoint_bytes(entries: dict, metadata: dict) -> bytes:
    """A .nsrg file's bytes, assembled in memory with BytesIO and tobytes()."""
    buf = io.BytesIO()
    buf.write(b"NSRG")
    buf.write(struct.pack("<I", 1))
    buf.write(struct.pack("<I", len(entries)))
    for name, tensors in entries.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", len(tensors)))
        for arr in tensors:
            _encode_tensor(buf, arr)
    meta = "".join(f"{k}={metadata[k]}\n" for k in sorted(metadata)).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    return buf.getvalue()


def raw_tensor_bytes(arr: Array) -> bytes:
    """A .rawt file's bytes: one tensor in the checkpoint tensor layout."""
    buf = io.BytesIO()
    _encode_tensor(buf, arr)
    return buf.getvalue()


def checkpoint_entries(raw: bytes) -> dict:
    """Decode a .nsrg file's tensors with frombuffer over the whole file."""
    pos = 12
    (count,) = struct.unpack_from("<I", raw, 8)
    entries = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2 : pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        (n_tensors,) = struct.unpack_from("<B", raw, pos)
        pos += 1
        tensors = []
        for _ in range(n_tensors):
            (rank,) = struct.unpack_from("<B", raw, pos)
            extents = struct.unpack_from(f"<{rank}Q", raw, pos + 1)
            pos += 1 + 8 * rank
            count_f = int(np.prod(extents))
            tensors.append(
                np.frombuffer(raw, dtype="<f4", count=count_f, offset=pos).reshape(extents).astype(np.float32)
            )
            pos += 4 * count_f
        entries[name] = tuple(tensors)
    return entries


def numeric_grad(objective, array: Array, eps: float = 1e-3) -> Array:
    """Central-difference gradient of a scalar objective in the given array.

    The array is perturbed in place one element at a time and restored, so
    the objective may capture it by reference.
    """
    flat = array.reshape(-1)
    grad = np.zeros(flat.size, dtype=np.float64)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + eps
        plus = float(objective())
        flat[j] = orig - eps
        minus = float(objective())
        flat[j] = orig
        grad[j] = (plus - minus) / (2 * eps)
    return grad.reshape(array.shape)


def probe_fit_primal(x: Array, y01: Array, kind: str, lam: float, iters: int, standardize: bool = True):
    """Linear probe trained on its weights directly, one lambda and one fitting set.

    Full-batch (sub)gradient descent from w = 0 with step 1/(lam * t), the L2
    penalty on w only, an unregularized bias and the loss averaged over the
    rows. Columns are standardized by the fitting rows' own mean and standard
    deviation (constant columns pass through). Returns (w, b, mean, scale);
    w is [d] for "svm" (hinge loss on +-1 labels) and [d, 2] for "softmax"
    (cross-entropy), mean and scale are None without standardization.
    """
    x = np.asarray(x, dtype=np.float64)
    y01 = np.asarray(y01, dtype=np.int64)
    mean = scale = None
    if standardize:
        mean = x.mean(axis=0)
        scale = x.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        x = (x - mean) / scale
    n, d = x.shape
    if kind == "svm":
        y = np.where(y01 > 0, 1.0, -1.0)
        w = np.zeros(d)
        b = np.zeros(())
        for t in range(1, iters + 1):
            step = 1.0 / (lam * t)
            scores = x @ w + b
            active = (1.0 - y * scores) > 0
            coeff = np.where(active, y, 0.0) / n
            grad_w = lam * w - x.T @ coeff
            grad_b = -coeff.sum()
            w -= step * grad_w
            b -= step * grad_b
        return w, b, mean, scale
    w = np.zeros((d, 2))
    b = np.zeros(2)
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), y01] = 1.0
    for t in range(1, iters + 1):
        step = 1.0 / (lam * t)
        logits = x @ w + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / n
        grad_w = lam * w + x.T @ delta
        grad_b = delta.sum(axis=0)
        w -= step * grad_w
        b -= step * grad_b
    return w, b, mean, scale


def probe_predict_primal(x: Array, kind: str, w: Array, b: Array, mean, scale) -> Array:
    """Class predictions of a probe from probe_fit_primal."""
    x = np.asarray(x, dtype=np.float64)
    if mean is not None:
        x = (x - mean) / scale
    values = x @ w + b
    if kind == "svm":
        return (values > 0).astype(np.int64)
    return values.argmax(axis=1)


def probe_select_primal(x: Array, y01: Array, kind: str, grid, inner: Array, iters: int, standardize: bool = True):
    """Inner-CV accuracy per lambda and the chosen lambda, one primal fit at a time.

    inner holds an inner fold id per row; each fold is scored by a probe fit
    on all other rows. The best mean accuracy wins, ties to the smaller lambda.
    """
    y01 = np.asarray(y01, dtype=np.int64)
    scores = {}
    for lam in sorted(grid):
        accs = []
        for f in sorted(set(inner.tolist())):
            tr, va = inner != f, inner == f
            fit = probe_fit_primal(x[tr], y01[tr], kind, lam, iters, standardize)
            accs.append(float((probe_predict_primal(x[va], kind, *fit) == y01[va]).mean()))
        scores[lam] = float(np.mean(accs))
    best = max(scores.values())
    return scores, min(l for l, s in scores.items() if s == best)


def eval_scores_plain(spec, ckpt, source) -> Array:
    """Center-view probabilities from a pass over center crops, 64 at a time.

    This and eval_scores_oversampled were the package's two evaluation loops
    before one pass served both; they run the package's own forward pass, so
    they pin the batching and fusion, not the layers.
    """
    from sentnet.network import forward

    return np.vstack([forward(spec, ckpt, x).post[spec.layers[-1].name] for x, _ in source.eval_batches(64)])


def eval_scores_oversampled(spec, ckpt, source, pre_softmax: bool) -> Array:
    """Fused ten-view scores from passes over 6 images (60 views) at a time."""
    from sentnet.data import ten_crop
    from sentnet.network import forward

    crop = spec.input_shape[1]
    rows = []
    for start in range(0, source.n, 6):
        idx = range(start, min(start + 6, source.n))
        x = np.stack([v.tensor for i in idx for v in ten_crop(source.square(i), crop, source.means)])
        state = forward(spec, ckpt, x)
        raw = state.post[spec.top_name] if pre_softmax else state.post[spec.layers[-1].name]
        raw = raw.reshape(len(idx), 10, -1)
        fused = raw.mean(axis=-2)
        if pre_softmax:
            shifted = fused - fused.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            fused = e / e.sum(axis=1, keepdims=True)
        rows.append(fused)
    return np.vstack(rows)
