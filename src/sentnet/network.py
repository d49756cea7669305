"""Network specs, shape inference, initialization, and forward/backward.

A network is a flat stack of named layers over [N,C,H,W] batches. ReLU is a
flag on CONV/FC layers, mirroring in-place rectification: the layer's named
endpoint is its post-activation output, and probes can still request the
pre-activation values. Parameters live in a checkpoint keyed by layer name.

forward keeps every endpoint. With retain=True, the training pass, it
also keeps each layer's pullbacks and nothing they do not read: a fused
ReLU rectifies its layer's output in place and its pullback takes the mask
from that output, so only a pass without retain (feature extraction) keeps
pre-activations. infer is the forward-only pass that keeps only the
endpoints it is asked for. Both run each layer through one dispatch,
_run_layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import ops
from .checkpoint import Checkpoint
from .errors import NonFiniteError, ShapeError

Array = np.ndarray

INIT_STD = 0.01


class LayerKind(str, Enum):
    CONV = "conv"
    POOL = "pool"
    NORM = "norm"
    FC = "fc"
    SOFTMAX = "softmax"


@dataclass(frozen=True)
class LayerSpec:
    """One named layer; only the fields relevant to its kind are used.

    lr_mult scales the learning rate for this layer's parameters; 0 freezes
    them exactly.
    """

    name: str
    kind: LayerKind
    out_channels: int = 0  # CONV kernels
    units: int = 0  # FC width
    kernel: int = 0
    stride: int = 1
    pad: int = 0
    relu: bool = False  # fused rectification for CONV/FC
    norm_size: int = 5
    norm_k: float = 2.0
    norm_alpha: float = 1e-4
    norm_beta: float = 0.75
    lr_mult: float = 1.0
    init_std: float = INIT_STD

    def __post_init__(self):
        if not self.name:
            raise ShapeError("layer name must be non-empty")
        if self.lr_mult < 0:
            raise ShapeError(f"{self.name}: lr_mult must be >= 0")
        if self.has_params and self.init_std <= 0:
            raise ShapeError(f"{self.name}: init_std must be positive")
        if self.kind == LayerKind.CONV:
            if self.out_channels < 1 or self.kernel < 1 or self.stride < 1 or self.pad < 0:
                raise ShapeError(f"{self.name}: invalid conv hyperparameters")
        elif self.kind == LayerKind.POOL:
            if self.kernel < 1 or self.stride < 1:
                raise ShapeError(f"{self.name}: invalid pool hyperparameters")
        elif self.kind == LayerKind.NORM:
            if self.norm_size < 1:
                raise ShapeError(f"{self.name}: invalid norm window")
        elif self.kind == LayerKind.FC:
            if self.units < 1:
                raise ShapeError(f"{self.name}: invalid fc width")

    @property
    def has_params(self) -> bool:
        return self.kind in (LayerKind.CONV, LayerKind.FC)


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layer stack plus the per-example input shape (C,H,W)."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ShapeError(f"duplicate layer names: {dupes}")
        softmax_at = [i for i, l in enumerate(self.layers) if l.kind == LayerKind.SOFTMAX]
        if softmax_at and (len(softmax_at) > 1 or softmax_at[0] != len(self.layers) - 1):
            raise ShapeError("softmax must appear exactly once, at the top")

    def layer(self, name: str) -> LayerSpec:
        for l in self.layers:
            if l.name == name:
                return l
        raise ShapeError(f"no layer named {name!r}")

    @property
    def parameterized(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.has_params)

    @property
    def endpoints(self) -> tuple[str, ...]:
        """Names of all probe-able layers (everything below the softmax)."""
        return tuple(l.name for l in self.layers if l.kind != LayerKind.SOFTMAX)

    @property
    def top_name(self) -> str:
        """Name of the layer feeding the softmax (or the top layer if none)."""
        below = [l for l in self.layers if l.kind != LayerKind.SOFTMAX]
        if not below:
            raise ShapeError("network has no layers below softmax")
        return below[-1].name

    def validate_for_training(self) -> None:
        if not self.layers or self.layers[-1].kind != LayerKind.SOFTMAX:
            raise ShapeError("training requires a softmax layer at the top")

    def fingerprint(self) -> str:
        text = repr((self.input_shape, self.layers))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _conv_out(side: int, kernel: int, stride: int, pad: int, name: str) -> int:
    span = side + 2 * pad - kernel
    if span < 0 or span % stride:
        raise ShapeError(
            f"{name}: kernel {kernel} stride {stride} pad {pad} does not tile side {side}"
        )
    return span // stride + 1


def infer_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """Per-layer output shapes (without the batch axis), in layer order."""
    shapes: dict[str, tuple[int, ...]] = {}
    cur: tuple[int, ...] = spec.input_shape
    for layer in spec.layers:
        if layer.kind == LayerKind.CONV:
            if len(cur) != 3:
                raise ShapeError(f"{layer.name}: conv needs a 3d input, got {cur}")
            c, h, w = cur
            oh = _conv_out(h, layer.kernel, layer.stride, layer.pad, layer.name)
            ow = _conv_out(w, layer.kernel, layer.stride, layer.pad, layer.name)
            cur = (layer.out_channels, oh, ow)
        elif layer.kind == LayerKind.POOL:
            if len(cur) != 3:
                raise ShapeError(f"{layer.name}: pool needs a 3d input, got {cur}")
            c, h, w = cur
            if layer.kernel > h or layer.kernel > w:
                raise ShapeError(f"{layer.name}: window {layer.kernel} exceeds input {h}x{w}")
            cur = (c, (h - layer.kernel) // layer.stride + 1, (w - layer.kernel) // layer.stride + 1)
        elif layer.kind == LayerKind.NORM:
            if len(cur) != 3:
                raise ShapeError(f"{layer.name}: norm needs a 3d input, got {cur}")
        elif layer.kind == LayerKind.FC:
            cur = (layer.units,)
        elif layer.kind == LayerKind.SOFTMAX:
            cur = (int(np.prod(cur)),)
        shapes[layer.name] = cur
    return shapes


def parameter_shapes(spec: NetworkSpec) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
    """(weights, bias) shapes for every parameterized layer."""
    out: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    cur: tuple[int, ...] = spec.input_shape
    shapes = infer_shapes(spec)
    for layer in spec.layers:
        if layer.kind == LayerKind.CONV:
            c = cur[0]
            out[layer.name] = (
                (layer.out_channels, c, layer.kernel, layer.kernel),
                (layer.out_channels,),
            )
        elif layer.kind == LayerKind.FC:
            fan_in = int(np.prod(cur))
            out[layer.name] = ((fan_in, layer.units), (layer.units,))
        cur = shapes[layer.name]
    return out


def count_parameters(spec: NetworkSpec) -> int:
    """Total learnable scalars, from the analytic per-layer formulas."""
    total = 0
    for w_shape, b_shape in parameter_shapes(spec).values():
        total += int(np.prod(w_shape)) + int(np.prod(b_shape))
    return total


def _layer_rng(seed: int, name: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def init_layer_params(spec: NetworkSpec, name: str, seed: int) -> tuple[Array, Array]:
    """Gaussian(0, init_std) weights and zero bias for one layer, seeded by name."""
    w_shape, b_shape = parameter_shapes(spec)[name]
    rng = _layer_rng(seed, name)
    w = rng.normal(0.0, spec.layer(name).init_std, size=w_shape).astype(np.float32)
    b = np.zeros(b_shape, dtype=np.float32)
    return w, b


def init_params(spec: NetworkSpec, seed: int) -> Checkpoint:
    """Fresh checkpoint for every parameterized layer; deterministic in seed."""
    entries: dict[str, tuple[Array, Array]] = {}
    for layer in spec.parameterized:
        entries[layer.name] = init_layer_params(spec, layer.name, seed)
    return Checkpoint(
        entries=entries,
        metadata={"spec": spec.fingerprint(), "seed": str(seed), "epoch": "0"},
    )


@dataclass
class ForwardState:
    """Everything retained by a forward pass.

    post holds the named endpoint values, pre the values before a fused
    ReLU (the post value itself when the layer has none), each in the dtype
    the pass ran in. A pass run with retain=True rectifies each fused ReLU
    in place and so keeps no pre-activation for those layers; its aux
    carries each layer's GradPair, fused-ReLU pullback and pre-flatten
    shape. aux is empty otherwise.
    """

    pre: dict[str, Array]
    post: dict[str, Array]
    aux: dict[str, object]

    def endpoint(self, name: str, pre_activation: bool = False) -> Array:
        table = self.pre if pre_activation else self.post
        if name in table:
            return table[name]
        if name in self.post:
            raise ShapeError(f"{name!r}: a retained pass keeps no pre-activation of a fused ReLU")
        raise ShapeError(f"no endpoint named {name!r}")


def _input(spec: NetworkSpec, ckpt: Checkpoint, batch: Array) -> Array:
    """The batch as a pass runs it: float64 stays float64 (the gradient-check
    path, since every op preserves the input dtype), anything else is float32.
    Checks the batch and the checkpoint against spec."""
    dtype = np.float64 if np.asarray(batch).dtype == np.float64 else np.float32
    batch = np.ascontiguousarray(batch, dtype=dtype)
    if batch.ndim != 4 or batch.shape[1:] != spec.input_shape:
        raise ShapeError(
            f"batch shape {batch.shape} does not match input {('N',) + spec.input_shape}"
        )
    ckpt.validate_against(parameter_shapes(spec))
    return batch


def _run_layer(layer: LayerSpec, ckpt: Checkpoint, x: Array) -> tuple[Array, ops.GradPair | None, tuple | None]:
    """One layer over its input: (value before any fused ReLU, GradPair,
    the input's shape when an FC or softmax layer flattened it, else None).

    The softmax has no pair: the loss owns its pullback.
    """
    flat_shape = None
    if layer.kind in (LayerKind.FC, LayerKind.SOFTMAX) and x.ndim > 2:
        flat_shape, x = x.shape, x.reshape(x.shape[0], -1)
    try:
        if layer.kind == LayerKind.CONV:
            w, b = ckpt.entries[layer.name]
            pair = ops.conv2d(x, w, b, stride=layer.stride, pad=layer.pad)
        elif layer.kind == LayerKind.POOL:
            pair, _ = ops.max_pool2d(x, size=layer.kernel, stride=layer.stride)
        elif layer.kind == LayerKind.NORM:
            pair = ops.local_response_norm(
                x, size=layer.norm_size, k=layer.norm_k, alpha=layer.norm_alpha, beta=layer.norm_beta
            )
        elif layer.kind == LayerKind.FC:
            w, b = ckpt.entries[layer.name]
            pair = ops.affine(x, w, b)
        else:
            return ops.softmax(x), None, flat_shape
    except NonFiniteError as exc:
        raise NonFiniteError(exc.op, layer=layer.name) from None
    return pair.value, pair, flat_shape


def _relu_pullback(post: Array):
    """A fused ReLU's pullback from its rectified output: post > 0 exactly
    where the pre-activation was > 0 (every finite value, ±0 included),
    so it gives ops.relu's pullback bit for bit."""

    def pullback(g: Array) -> tuple[Array]:
        g = np.asarray(g, dtype=post.dtype)
        return (g * (post > 0),)

    return pullback


def forward(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    batch: Array,
    retain: bool = False,
) -> ForwardState:
    """Run the stack over batch [N,C,H,W]; retain=True keeps pullbacks.

    float32 batches run in float32; a float64 batch promotes the whole pass
    (the gradient-check path), since every op preserves the input dtype.
    Every layer's post-activation value is kept. A pass without retain also
    keeps each fused ReLU's pre-activation, for the probes; a retained pass,
    which training runs, rectifies in place as Caffe does, and each ReLU's
    pullback reads its mask from the rectified output. A pass that needs
    only some endpoints is infer's.
    """
    x = _input(spec, ckpt, batch)
    pre: dict[str, Array] = {}
    post: dict[str, Array] = {}
    aux: dict[str, object] = {}
    for layer in spec.layers:
        out, pair, flat_shape = _run_layer(layer, ckpt, x)
        relu_pullback = None
        if not (layer.relu and layer.kind in (LayerKind.CONV, LayerKind.FC)):
            pre[layer.name] = out
        elif retain:
            np.maximum(out, 0, out=out)
            relu_pullback = _relu_pullback(out)
        else:
            pre[layer.name], out = out, ops.relu(out).value
        post[layer.name] = x = out
        if retain and pair is not None:
            aux[layer.name] = (pair, relu_pullback, flat_shape)
    return ForwardState(pre=pre, post=post, aux=aux)


def infer(spec: NetworkSpec, ckpt: Checkpoint, batch: Array, keep: Iterable[str]) -> dict[str, Array]:
    """Forward-only pass over batch [N,C,H,W]: {name: endpoint value} for
    each layer named in keep, with the bits forward gives its post values.

    Only what keep names outlives the layer that reads it: each other
    activation, and each layer's GradPair, is dropped once the next layer
    has read it, a fused ReLU rectifies its layer's output in place (as
    ops.relu computes it, np.maximum(x, 0)), and no layer above the highest
    kept one runs.
    """
    x = _input(spec, ckpt, batch)
    wanted = set(keep)
    for name in wanted:
        spec.layer(name)
    kept: dict[str, Array] = {}
    for layer in spec.layers:
        if len(kept) == len(wanted):
            break
        x = _run_layer(layer, ckpt, x)[0]
        if layer.relu and layer.kind in (LayerKind.CONV, LayerKind.FC):
            np.maximum(x, 0, out=x)
        if layer.name in wanted:
            kept[layer.name] = x
    return kept


def backward_walk(
    spec: NetworkSpec, state: ForwardState, top_grad: Array
) -> Iterator[tuple[str, int, Array, Array | None]]:
    """The backward pass, one parameter gradient at a time, top layer first.

    Yields (layer, start, dw, db): dw is the weight gradient's rows from
    `start` on, db the bias gradient (None after a layer's first block).
    A layer's input gradient is computed, from its weights as they are,
    before the walk yields for it, and no weight is read after that, so a
    consumer may update each layer as its gradient arrives (optim.sgd_step
    does) with the bits of an update after the whole pass. Gradients come
    from GradPair.param_pullback: an FC layer's weight gradient in blocks
    of ops.FC_BLOCK rows, a conv layer's whole. A pair with parameters but
    no param_pullback gives its gradients whole through its full pullback,
    which fills them from the same blocks.

    The walk ends at the lowest trained layer (parameters and lr_mult > 0):
    no gradient below it is ever read, so layers under it get no pullback
    call and it computes only its parameter gradients. It yields for every
    parameterized layer from the top down to that layer; frozen layers
    above it are included, frozen layers below it are not.
    """
    if not state.aux:
        raise ShapeError("backward requires a forward pass run with retain=True")
    top = spec.top_name
    g = np.asarray(top_grad, dtype=state.post[top].dtype)
    if g.shape != state.post[top].shape:
        raise ShapeError(f"top gradient shape {g.shape} does not match {state.post[top].shape}")
    below = [l for l in spec.layers if l.kind != LayerKind.SOFTMAX]
    lowest = next((i for i, l in enumerate(below) if l.has_params and l.lr_mult > 0), len(below))
    for i in reversed(range(lowest, len(below))):
        layer = below[i]
        pair, relu_pullback, flat_shape = state.aux[layer.name]
        if relu_pullback is not None:
            (g,) = relu_pullback(g)
        if pair.param_pullback is not None:
            g, db, blocks = pair.param_pullback(g, i > lowest)
        elif layer.has_params:  # rebuilt from value and pullback, as bench/tracing.py does
            g, dw, db = pair.pullback(g)
            blocks = ((0, dw),)
        else:
            (g,), blocks = pair.pullback(g), ()
        for start, dw in blocks:
            yield layer.name, start, dw, db
            dw = db = None  # freed before the next block is computed
        if flat_shape is not None and i > lowest:
            g = g.reshape(flat_shape)


def backward(spec: NetworkSpec, state: ForwardState, top_grad: Array) -> dict[str, tuple[Array, Array]]:
    """Parameter gradients from the upstream gradient at the top endpoint.

    top_grad is the loss gradient with respect to the post-activation output
    of the layer feeding the softmax (the loss owns the softmax pullback).
    The dict holds every parameterized layer from the top down to the
    lowest trained one, each weight gradient filled from backward_walk's
    blocks, one alive beside it: the bits training applies block by block.
    """
    shapes, grads = parameter_shapes(spec), {}
    for name, start, rows, db in backward_walk(spec, state, top_grad):
        if db is not None:  # a layer's first block
            grads[name] = (np.empty(shapes[name][0], dtype=rows.dtype), db)
        grads[name][0][start : start + len(rows)] = rows
        del rows, db  # freed before the walk computes the next block
    return grads


def _conv(name, out_channels, kernel, stride=1, pad=0, lr_mult=1.0):
    return LayerSpec(
        name, LayerKind.CONV, out_channels=out_channels, kernel=kernel, stride=stride, pad=pad,
        relu=True, lr_mult=lr_mult,
    )


def _pool(name, kernel, stride):
    return LayerSpec(name, LayerKind.POOL, kernel=kernel, stride=stride)


def _norm(name):
    return LayerSpec(name, LayerKind.NORM)


def _fc(name, units, relu, lr_mult=1.0):
    return LayerSpec(name, LayerKind.FC, units=units, relu=relu, lr_mult=lr_mult)


def _scaled(layer: LayerSpec, fan_in: int) -> LayerSpec:
    """Fan-in-scaled init for desk-scale stacks, where a fixed 0.01 would
    shrink activations to nothing within a few layers."""
    return replace(layer, init_std=round(float(np.sqrt(2.0 / fan_in)), 4))


def reference_spec(num_classes: int = 1000) -> NetworkSpec:
    """Full-size reference stack: 5 conv + 3 fc over 3x227x227 inputs.

    Endpoint chain: conv1..pool5 spatial, then fc6/fc7 (4096) and the fc8
    head. conv5 maps to 256x13x13 and pool5 flattens to 9216.
    """
    return NetworkSpec(
        input_shape=(3, 227, 227),
        layers=(
            _conv("conv1", 96, 11, stride=4),
            _pool("pool1", 3, 2),
            _norm("norm1"),
            _conv("conv2", 256, 5, pad=2),
            _pool("pool2", 3, 2),
            _norm("norm2"),
            _conv("conv3", 384, 3, pad=1),
            _conv("conv4", 384, 3, pad=1),
            _conv("conv5", 256, 3, pad=1),
            _pool("pool5", 3, 2),
            _fc("fc6", 4096, relu=True),
            _fc("fc7", 4096, relu=True),
            _fc("fc8", num_classes, relu=False),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


def reference_spec_small(num_classes: int = 1000) -> NetworkSpec:
    """Desk-scale twin of the reference stack over 3x64x64 inputs.

    Same layer names, kinds, and ordering; conv widths cut 8x and fc6/fc7 at
    128 units so every experiment runs in seconds.
    """
    return NetworkSpec(
        input_shape=(3, 64, 64),
        layers=(
            _scaled(_conv("conv1", 12, 7, stride=3), 3 * 7 * 7),
            _pool("pool1", 2, 2),
            _norm("norm1"),
            _scaled(_conv("conv2", 32, 5, pad=2), 12 * 5 * 5),
            _pool("pool2", 2, 2),
            _norm("norm2"),
            _scaled(_conv("conv3", 48, 3, pad=1), 32 * 3 * 3),
            _scaled(_conv("conv4", 48, 3, pad=1), 48 * 3 * 3),
            _scaled(_conv("conv5", 32, 3, pad=1), 48 * 3 * 3),
            _pool("pool5", 2, 2),
            _scaled(_fc("fc6", 128, relu=True), 32 * 2 * 2),
            _scaled(_fc("fc7", 128, relu=True), 128),
            _fc("fc8", num_classes, relu=False),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


def with_lr_mult(spec: NetworkSpec, multipliers: Mapping[str, float]) -> NetworkSpec:
    """Copy of spec with lr_mult overridden for the named layers."""
    for name in multipliers:
        spec.layer(name)
    layers = tuple(
        replace(l, lr_mult=multipliers[l.name]) if l.name in multipliers else l
        for l in spec.layers
    )
    return NetworkSpec(input_shape=spec.input_shape, layers=layers)
