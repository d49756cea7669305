"""Span tracer that wraps sentnet's public functions from outside the package.

`install(tracer)` replaces each traced function in every sentnet module that
holds a reference to it, so calls made through a module attribute
(`ops.conv2d`) and through a name imported with `from ... import` (`forward`
in optim, harness and probe) both land in the wrapper. Nothing under `src/`
is edited.

A span is `[name, start, end, parent, tag]`: `parent` is the index of the
enclosing span (-1 at the top) and `tag` carries the network layer an op ran
for, or a label such as "train"/"eval" for forward passes. Spans live in
memory and are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

LAYER_OP = {"conv": "conv2d", "pool": "max_pool2d", "norm": "local_response_norm", "fc": "affine"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.untraced: list[str] = []
        self._stack: list[int] = []
        self._layers = None  # layer specs of the network.forward call in progress
        self._cursor = -1

    def begin(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def timed(self, name: str, fn, *args, tag: str | None = None, **kwargs):
        idx = self.begin(name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # Each op call inside network.forward belongs to the next layer of its
    # kind; a fused ReLU belongs to the layer that just ran. Position, not
    # shape, tells layers apart (fc6 and fc7 of `small` share weight shapes).
    def layer_for(self, op: str) -> str | None:
        if self._layers is None:
            return None
        if op == "relu":
            nxt = self._cursor + 1
            if nxt < len(self._layers) and self._layers[nxt].kind.value == "relu":
                self._cursor = nxt
            return self._layers[self._cursor].name if self._cursor >= 0 else None
        for i in range(self._cursor + 1, len(self._layers)):
            if LAYER_OP.get(self._layers[i].kind.value) == op:
                self._cursor = i
                return self._layers[i].name
        return None


def _sentnet_modules():
    return [m for name, m in sys.modules.items() if name == "sentnet" or name.startswith("sentnet.")]


def _replace(tracer: Tracer, label: str, original, wrapper) -> None:
    """Point every sentnet module attribute that is `original` at `wrapper`."""
    found = False
    for mod in _sentnet_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, functools.update_wrapper(wrapper, original))
                found = True
    if not found:
        tracer.untraced.append(label)


def _lookup(tracer: Tracer, module, name: str):
    fn = getattr(module, name, None)
    if fn is None:
        tracer.untraced.append(f"{module.__name__}.{name}")
    return fn


def install(tracer: Tracer) -> None:
    import numpy as np
    from sentnet import checkpoint, data, harness, network, ops, optim, probe, surgery

    def wrap_pair(pair, name: str, layer: str | None, flops: float = 0.0):
        """New GradPair whose pullback runs inside a span (GradPair is frozen)."""
        inner = pair.pullback

        def pullback(g):
            if flops:
                tracer.counts[f"{name}.bwd_flop"] += flops
            return tracer.timed(f"ops.{name}.bwd", inner, g, tag=layer)

        return type(pair)(pair.value, pullback)

    orig = _lookup(tracer, ops, "conv2d")
    if orig:
        def conv2d(x, w, b, stride=1, pad=0):
            layer = tracer.layer_for("conv2d")
            n, c, h, wd = np.shape(x)
            k, _, kh, kw = np.shape(w)
            oh, ow = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
            macs = n * k * c * kh * kw * oh * ow
            tracer.counts["conv2d.calls"] += 1
            tracer.counts["conv2d.fwd_flop"] += 2 * macs
            im2col = n * c * kh * kw * oh * ow * np.asarray(x).dtype.itemsize
            tracer.counts["conv2d.im2col_peak"] = max(tracer.counts["conv2d.im2col_peak"], im2col)
            pair = tracer.timed("ops.conv2d.fwd", orig, x, w, b, stride=stride, pad=pad, tag=layer)
            return wrap_pair(pair, "conv2d", layer, 4 * macs)  # dw and dcols

        _replace(tracer, "ops.conv2d", orig, conv2d)

    orig_pool = _lookup(tracer, ops, "max_pool2d")
    if orig_pool:
        def max_pool2d(x, size, stride):
            layer = tracer.layer_for("max_pool2d")
            pair, argmax = tracer.timed("ops.max_pool2d.fwd", orig_pool, x, size, stride, tag=layer)
            return wrap_pair(pair, "max_pool2d", layer), argmax

        _replace(tracer, "ops.max_pool2d", orig_pool, max_pool2d)

    orig_lrn = _lookup(tracer, ops, "local_response_norm")
    if orig_lrn:
        def local_response_norm(x, *args, **kwargs):
            layer = tracer.layer_for("local_response_norm")
            pair = tracer.timed("ops.local_response_norm.fwd", orig_lrn, x, *args, tag=layer, **kwargs)
            return wrap_pair(pair, "local_response_norm", layer)

        _replace(tracer, "ops.local_response_norm", orig_lrn, local_response_norm)

    orig_affine = _lookup(tracer, ops, "affine")
    if orig_affine:
        def affine(x, w, b):
            layer = tracer.layer_for("affine")
            n, d = np.shape(x)
            macs = n * d * np.shape(w)[1]
            tracer.counts["affine.fwd_flop"] += 2 * macs
            pair = tracer.timed("ops.affine.fwd", orig_affine, x, w, b, tag=layer)
            return wrap_pair(pair, "affine", layer, 4 * macs)  # dx and dw

        _replace(tracer, "ops.affine", orig_affine, affine)

    orig_relu = _lookup(tracer, ops, "relu")
    if orig_relu:
        def relu(x):
            layer = tracer.layer_for("relu")
            return wrap_pair(tracer.timed("ops.relu.fwd", orig_relu, x, tag=layer), "relu", layer)

        _replace(tracer, "ops.relu", orig_relu, relu)

    orig_fwd = _lookup(tracer, network, "forward")
    if orig_fwd:
        def forward(spec, ckpt, batch, retain=False):
            outer = tracer._layers, tracer._cursor
            tracer._layers, tracer._cursor = spec.layers, -1
            try:
                return tracer.timed(
                    "network.forward", orig_fwd, spec, ckpt, batch, retain=retain,
                    tag="train" if retain else "eval",
                )
            finally:
                tracer._layers, tracer._cursor = outer

        _replace(tracer, "network.forward", orig_fwd, forward)

    for module, name, span in (
        (network, "backward", "network.backward"),
        (optim, "train", "optim.train"),
        (optim, "sgd_step", "optim.sgd_step"),
        (surgery, "apply", "surgery.apply"),
        (probe, "extract_features", "probe.extract_features"),
    ):
        fn = _lookup(tracer, module, name)
        if fn:
            _replace(tracer, span, fn, functools.partial(tracer.timed, span, fn))

    orig_ten = _lookup(tracer, data, "ten_crop")
    if orig_ten:
        _replace(tracer, "data.ten_crop", orig_ten, functools.partial(tracer.timed, "data.ten_crop", orig_ten))

    orig_decode = _lookup(tracer, data, "decode_squares")
    if orig_decode:
        def decode_squares(manifest, config):
            out = tracer.timed("data.decode_squares", orig_decode, manifest, config)
            tracer.counts["images_decoded"] += len(out)
            return out

        _replace(tracer, "data.decode_squares", orig_decode, decode_squares)

    orig_eval = _lookup(tracer, harness, "evaluate")
    if orig_eval:
        def evaluate(spec, ckpt, source, oversample=False, pre_softmax_fusion=False):
            tracer.counts["eval_views"] += source.n * (10 if oversample else 1)
            return tracer.timed(
                "harness.evaluate_tencrop" if oversample else "harness.evaluate_plain",
                orig_eval, spec, ckpt, source, oversample=oversample,
                pre_softmax_fusion=pre_softmax_fusion,
            )

        _replace(tracer, "harness.evaluate", orig_eval, evaluate)

    orig_fit = _lookup(tracer, probe, "fit_probe")
    if orig_fit:
        def fit_probe(features, labels, *args, **kwargs):
            tag = "wide" if np.shape(features)[1] >= 1000 else "narrow"
            return tracer.timed("probe.fit_probe", orig_fit, features, labels, *args, tag=tag, **kwargs)

        _replace(tracer, "probe.fit_probe", orig_fit, fit_probe)

    orig_save = _lookup(tracer, checkpoint, "save_checkpoint")
    if orig_save:
        def save_checkpoint(ckpt, path):
            tracer.timed("checkpoint.save", orig_save, ckpt, path)
            tracer.counts["checkpoint.bytes"] += os.path.getsize(path)

        _replace(tracer, "checkpoint.save_checkpoint", orig_save, save_checkpoint)

    orig_load = _lookup(tracer, checkpoint, "load_checkpoint")
    if orig_load:
        def load_checkpoint(path, spec=None):
            out = tracer.timed("checkpoint.load", orig_load, path, spec)
            tracer.counts["checkpoint.bytes"] += os.path.getsize(path)
            return out

        _replace(tracer, "checkpoint.load_checkpoint", orig_load, load_checkpoint)

    view_source = getattr(data, "ViewSource", None)
    if view_source is None:
        tracer.untraced.append("data.ViewSource")
        return
    orig_batch = view_source.train_batch

    def train_batch(self, *args, **kwargs):
        return tracer.timed("data.train_batch", orig_batch, self, *args, **kwargs)

    view_source.train_batch = train_batch
    orig_batches = view_source.eval_batches

    def eval_batches(self, *args, **kwargs):
        # a generator: the span covers each `next`, not the consumer's work
        it = orig_batches(self, *args, **kwargs)
        while True:
            idx = tracer.begin("data.eval_batches")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(idx)
            yield item

    view_source.eval_batches = eval_batches


# -- reading the spans back -------------------------------------------------


def check_spans(spans: list[list]) -> list[str]:
    """Problems with nesting: every span closed and inside its parent."""
    problems = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) is not closed")
        elif parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or parent >= i:
                problems.append(f"span {i} ({name}) lies outside its parent {parent} ({p[0]})")
    return problems


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _descendant_of(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans: list[list], counts: dict[str, float], layer_names) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed `<module>.<function>.<quantity>`."""
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for name, start, end, _, tag in spans:
        total[name] += end - start
        calls[name] += 1
        if name == "probe.fit_probe":
            total[f"probe.fit_{tag}"] += end - start

    # per-layer time of each forward and backward call, fused ReLU included
    per_call: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, tag in spans:
        if name.startswith("ops.") and tag is not None and parent >= 0:
            per_call[parent][tag] += end - start
    train_fwd = [i for i, s in enumerate(spans) if s[0] == "network.forward" and s[4] == "train"]
    # workloads that never train report per extraction batch instead
    fwd_calls = train_fwd or [i for i, s in enumerate(spans) if s[0] == "network.forward"]
    bwd_calls = [i for i, s in enumerate(spans) if s[0] == "network.backward"]

    # a step runs from fetching its batch to the end of its SGD update
    step_ms = []
    batch_start = {}
    for name, start, end, parent, _ in spans:
        if name == "data.train_batch":
            batch_start[parent] = start
        elif name == "optim.sgd_step" and parent in batch_start:
            step_ms.append((end - batch_start.pop(parent)) * 1e3)

    def median_ms(indices, layer):
        return statistics.median(per_call[i].get(layer, 0.0) for i in indices) * 1e3 if indices else 0.0

    m = {
        "ops.conv2d.fwd_s": total["ops.conv2d.fwd"],
        "ops.conv2d.bwd_s": total["ops.conv2d.bwd"],
        "ops.conv2d.calls": counts.get("conv2d.calls", 0.0),
        "ops.conv2d.fwd_gflop": counts.get("conv2d.fwd_flop", 0.0) / 1e9,
        "ops.conv2d.bwd_gflop": counts.get("conv2d.bwd_flop", 0.0) / 1e9,
        "ops.conv2d.im2col_mb": counts.get("conv2d.im2col_peak", 0.0) / 1e6,
        "ops.max_pool2d.fwd_s": total["ops.max_pool2d.fwd"],
        "ops.max_pool2d.bwd_s": total["ops.max_pool2d.bwd"],
        "ops.local_response_norm.fwd_s": total["ops.local_response_norm.fwd"],
        "ops.local_response_norm.bwd_s": total["ops.local_response_norm.bwd"],
        "ops.affine.fwd_s": total["ops.affine.fwd"],
        "ops.affine.bwd_s": total["ops.affine.bwd"],
        "ops.affine.gflop": (counts.get("affine.fwd_flop", 0.0) + counts.get("affine.bwd_flop", 0.0)) / 1e9,
        "ops.relu.s": total["ops.relu.fwd"] + total["ops.relu.bwd"],
    }
    for layer in layer_names:
        m[f"network.{layer}.fwd_ms"] = median_ms(fwd_calls, layer)
        m[f"network.{layer}.bwd_ms"] = median_ms(bwd_calls, layer)
    m.update({
        "network.forward.s": total["network.forward"],
        "network.backward.s": total["network.backward"],
        "optim.train.s": total["optim.train"],
        "optim.sgd_step.s": total["optim.sgd_step"],
        "optim.steps": float(len(step_ms)),
        "optim.step_ms.p50": statistics.median(step_ms) if step_ms else 0.0,
        "optim.step_ms.p90": (
            statistics.quantiles(step_ms, n=10, method="inclusive")[8] if len(step_ms) > 1 else sum(step_ms)
        ),
        "data.train_batch.s": total["data.train_batch"],
        "data.eval_batches.s": total["data.eval_batches"],
        "data.ten_crop.s": total["data.ten_crop"],
        "data.decode_squares.s": total["data.decode_squares"],
        "data.images_decoded": counts.get("images_decoded", 0.0),
        "harness.evaluate_plain.s": total["harness.evaluate_plain"],
        "harness.evaluate_tencrop.s": total["harness.evaluate_tencrop"],
        "harness.eval_views": counts.get("eval_views", 0.0),
        "probe.extract_features.s": total["probe.extract_features"],
        "probe.forward_passes": float(sum(
            1 for i, s in enumerate(spans)
            if s[0] == "network.forward" and _descendant_of(spans, i, "probe.extract_features")
        )),
        "probe.fit_probe.s": total["probe.fit_probe"],
        "probe.fit_probe.calls": float(calls["probe.fit_probe"]),
        "probe.fit_wide.s": total["probe.fit_wide"],
        "probe.fit_narrow.s": total["probe.fit_narrow"],
        "checkpoint.save.s": total["checkpoint.save"],
        "checkpoint.load.s": total["checkpoint.load"],
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0.0),
        "surgery.apply.s": total["surgery.apply"],
    })
    return m
