"""SGD with momentum, a stepwise learning-rate schedule, and the train loop.

The update rule, applied per parameter tensor with the owning layer's
lr_mult:

    v <- momentum * v - lr * lr_mult * (grad + weight_decay * param)
    param <- param + v

Layers with lr_mult 0 are skipped entirely, so frozen parameters stay
bit-identical to their initial values.

Training updates each layer during the backward pass: sgd_step consumes
network.backward_walk, which has computed a layer's input gradient from
the old weights before it yields the layer's gradient, and an FC weight
gradient comes in blocks of ops.FC_BLOCK rows, each applied before the
next is computed. The update is elementwise, so the bits are those of an
update after the whole pass, while no gradient dict is built: one conv
layer's gradient or one FC block (16 MB of the reference fc6's 151 MB)
is alive at a time. train_in_place then drops the step's forward state,
loss and batch, so the next step's forward runs with no state of this one
alive.

The update runs over blocks of BLOCK elements through one small scratch
buffer instead of building model-sized temporaries (fc6 of the reference
net holds 37.7M floats). Each block performs the formula's operations in
its order, decay * param, grad + that, lr * lr_mult * that, then the
velocity and parameter updates, so parameters and velocities come out
bit-identical to the whole-array expression. Parameters and velocities
must be C-contiguous, as every checkpoint the package builds is.
Velocities start as np.zeros: a large one is fresh zero pages from the
allocator, so no pass writes it before the first update does.

The loop scores no held-out views: a validation accuracy comes from the
caller's validate(ckpt), which the harness makes from harness.evaluate on
a view source that Task.source built, with the training rows' means.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

import numpy as np

from .checkpoint import Checkpoint
from .errors import ConfigError, DataError, DivergenceError, NonFiniteError
from .network import NetworkSpec, backward_walk, forward
from .ops import cross_entropy_loss

log = logging.getLogger(__name__)

Array = np.ndarray

BLOCK = 1 << 16  # elements per sgd_step block: 1 MB of param, grad, velocity and scratch


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; defaults follow the fine-tuning recipe."""

    base_lr: float = 0.001
    step_epochs: int = 6
    gamma: float = 0.1
    epochs: int = 65
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 32
    seed: int = 0
    stop_at_train_acc: float | None = None

    def __post_init__(self):
        if not (0 < self.base_lr < math.inf):
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if self.step_epochs < 1:
            raise ConfigError(f"step_epochs must be >= 1, got {self.step_epochs}")
        if not (0 < self.gamma <= 1):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not (0 <= self.weight_decay < math.inf):
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stop_at_train_acc is not None and not (0 <= self.stop_at_train_acc <= 1):
            raise ConfigError(f"stop_at_train_acc must be in [0, 1], got {self.stop_at_train_acc}")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch: base_lr * gamma^(epoch // step)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return config.base_lr * config.gamma ** (epoch // config.step_epochs)


@dataclass
class OptState:
    """Per-parameter velocity tensors, one (weights, bias) pair per layer."""

    velocities: dict[str, tuple[Array, Array]]

    @classmethod
    def for_checkpoint(cls, ckpt: Checkpoint) -> "OptState":
        return cls(
            velocities={
                name: (np.zeros(w.shape, w.dtype), np.zeros(b.shape, b.dtype))
                for name, (w, b) in ckpt.entries.items()
            }
        )


def sgd_step(
    ckpt: Checkpoint,
    grads: Iterable[tuple[str, int, Array, Array | None]],
    state: OptState,
    lr: float,
    lr_mults: dict[str, float],
    momentum: float,
    weight_decay: float,
) -> None:
    """One in-place momentum update over every gradient in grads.

    grads are the items of network.backward_walk: (name, start, dw, db)
    updates the weight rows from start on, and the bias unless db is None
    (only a layer's first block carries it). Items are applied in order as
    they arrive, so a walk's layer is updated before the walk computes the
    next gradient, and each is dropped before the next is drawn, so no two
    FC blocks are alive at once. state holds the velocities alone.
    """
    mom = np.float32(momentum)
    decay = np.float32(weight_decay)
    for name, start, dw, db in grads:
        mult = lr_mults.get(name, 1.0)
        if mult != 0.0:
            step = np.float32(lr * mult)
            (w, b), (vw, vb) = ckpt.entries[name], state.velocities[name]
            rows = slice(start, start + len(dw))
            _update(w[rows], dw, vw[rows], step, mom, decay)
            if db is not None:
                _update(b, db, vb, step, mom, decay)
        del dw, db  # so the walk computes the next gradient with this one freed


def _update(param: Array, grad: Array, vel: Array, step, mom, decay) -> None:
    """vel <- mom * vel - step * (grad + decay * param); param <- param + vel."""
    if not (param.flags.c_contiguous and vel.flags.c_contiguous):
        # reshape(-1) would copy, and the update would be lost
        raise ValueError("sgd_step updates C-contiguous parameters and velocities only")
    p, g, v = param.reshape(-1), grad.reshape(-1), vel.reshape(-1)
    scratch = np.empty(min(BLOCK, p.size), dtype=np.result_type(g, p))
    for start in range(0, p.size, BLOCK):
        pb, gb, vb = p[start : start + BLOCK], g[start : start + BLOCK], v[start : start + BLOCK]
        tmp = scratch[: pb.size]
        np.multiply(decay, pb, out=tmp)
        np.add(gb, tmp, out=tmp)  # IEEE addition commutes: same bits as grad + decay * param
        np.multiply(step, tmp, out=tmp)
        vb *= mom
        vb -= tmp
        pb += vb


class BatchSource(Protocol):
    """Minimal dataset interface consumed by the train loop."""

    n: int

    def train_batch(self, indices: Array, rng: np.random.Generator) -> tuple[Array, Array]:
        """Augmented training views and labels for the given example indices."""


@dataclass
class HistoryRow:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float | None


def history_to_csv(rows: Iterable[HistoryRow]) -> str:
    lines = ["epoch,loss,train_acc,val_acc"]
    for r in rows:
        val = "" if r.val_acc is None else f"{r.val_acc:.6f}"
        lines.append(f"{r.epoch},{r.loss:.6f},{r.train_acc:.6f},{val}")
    return "\n".join(lines) + "\n"


def train(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: BatchSource,
    config: TrainConfig,
    validate: Callable[[Checkpoint], float] | None = None,
) -> tuple[Checkpoint, list[HistoryRow]]:
    """Train a copy of ckpt on source; returns (new checkpoint, history).

    The input checkpoint is never mutated: this is train_in_place on a copy.
    """
    return train_in_place(spec, ckpt.copy(), source, config, validate)


def train_in_place(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: BatchSource,
    config: TrainConfig,
    validate: Callable[[Checkpoint], float] | None = None,
) -> tuple[Checkpoint, list[HistoryRow]]:
    """Train ckpt's own tensors on source; returns (ckpt, history).

    Shuffling and augmentation draws are seeded per epoch from
    (config.seed, epoch), so runs are reproducible. Each step's update runs
    inside its backward pass (see the module docstring); the forward pass
    and the loss finish before it, so a non-finite value there raises
    DivergenceError, naming the epoch, the batch within it and the layer
    (the softmax layer for the loss), before any parameter of that step
    changes. Each epoch logs one INFO line with its loss, train accuracy,
    learning rate and seconds. With `validate`, each epoch's val_acc is
    validate(ckpt).
    """
    spec.validate_for_training()
    if source.n == 0:
        raise DataError("cannot train on an empty image set")
    state = OptState.for_checkpoint(ckpt)
    lr_mults = {l.name: l.lr_mult for l in spec.parameterized}
    top = spec.top_name
    loss_layer = spec.layers[-1].name
    history: list[HistoryRow] = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = lr_at(config, epoch)
        rng = np.random.default_rng([config.seed, epoch])
        perm = rng.permutation(source.n)
        loss_sum = 0.0
        correct = 0
        for batch, start in enumerate(range(0, source.n, config.batch_size)):
            idx = perm[start : start + config.batch_size]
            x, y = source.train_batch(idx, rng)
            try:
                fwd = forward(spec, ckpt, x, retain=True)
                logits = fwd.post[top]
                pair = cross_entropy_loss(logits, y)
            except NonFiniteError as exc:
                # blown-up parameters overflow in the forward pass before the
                # loss itself can go non-finite
                layer = exc.layer or loss_layer
                raise DivergenceError(epoch, f"{exc.op} produced non-finite values", batch, layer) from exc
            loss = float(pair.value)
            if not np.isfinite(loss):
                raise DivergenceError(epoch, batch=batch, layer=loss_layer)
            (dlogits,) = pair.pullback(np.float32(1.0))
            walk = backward_walk(spec, fwd, dlogits)
            sgd_step(ckpt, walk, state, lr, lr_mults, config.momentum, config.weight_decay)
            loss_sum += loss * len(y)
            correct += int((logits.argmax(axis=1) == y).sum())
            # so the next forward runs with no state of this step alive
            del fwd, pair, walk, logits, dlogits, x, y
        train_acc = correct / source.n
        val_acc = validate(ckpt) if validate is not None else None
        history.append(HistoryRow(epoch, loss_sum / source.n, train_acc, val_acc))
        log.info(
            "epoch %d: loss %.6f, train accuracy %.4f, lr %g, %.2f s",
            epoch, loss_sum / source.n, train_acc, lr, time.perf_counter() - started,
        )
        if config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc:
            log.info("early stop at epoch %d: train accuracy %.4f", epoch, train_acc)
            break
    ckpt.metadata["epoch"] = str(len(history))
    ckpt.metadata["seed"] = str(config.seed)
    return ckpt, history
