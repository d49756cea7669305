"""SGD with momentum, a stepwise learning-rate schedule, and the train loop.

The update rule, applied per parameter tensor with the owning layer's
lr_mult:

    v <- momentum * v - lr * lr_mult * (grad + weight_decay * param)
    param <- param + v

Layers with lr_mult 0 are skipped entirely, so frozen parameters stay
bit-identical to their initial values.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .checkpoint import Checkpoint
from .errors import ConfigError, DivergenceError, NonFiniteError
from .network import NetworkSpec, backward, forward
from .ops import cross_entropy_loss

log = logging.getLogger(__name__)

Array = np.ndarray


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
        if self.base_lr <= 0:
            raise ConfigError(f"base_lr must be > 0, got {self.base_lr}")
        if self.step_epochs < 1:
            raise ConfigError(f"step_epochs must be >= 1, got {self.step_epochs}")
        if not (0 < self.gamma <= 1):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (0 <= self.momentum < 1):
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Learning rate for a 0-based epoch: base_lr * gamma^(epoch // step)."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return config.base_lr * config.gamma ** (epoch // config.step_epochs)


@dataclass
class OptState:
    """Per-parameter velocity tensors plus the current epoch index."""

    velocities: dict[str, tuple[Array, Array]]
    epoch: int = 0

    @classmethod
    def for_checkpoint(cls, ckpt: Checkpoint) -> "OptState":
        return cls(
            velocities={
                name: (np.zeros_like(w), np.zeros_like(b))
                for name, (w, b) in ckpt.entries.items()
            }
        )


def sgd_step(
    ckpt: Checkpoint,
    grads: dict[str, tuple[Array, Array]],
    state: OptState,
    lr: float,
    lr_mults: dict[str, float],
    momentum: float,
    weight_decay: float,
) -> None:
    """One in-place momentum update over every entry present in grads."""
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


class BatchSource(Protocol):
    """Minimal dataset interface consumed by the train loop."""

    n: int

    def train_batch(self, indices: Array, rng: np.random.Generator) -> tuple[Array, Array]:
        """Augmented training views and labels for the given example indices."""

    def eval_batches(self, batch_size: int) -> Iterable[tuple[Array, Array]]:
        """Deterministic evaluation views over the whole set, in order."""


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


def accuracy_on(spec: NetworkSpec, ckpt: Checkpoint, source: BatchSource, batch_size: int = 64) -> float:
    """Fraction of correct argmax predictions over deterministic eval views."""
    correct = 0
    total = 0
    top = spec.top_name
    for x, y in source.eval_batches(batch_size):
        state = forward(spec, ckpt, x)
        preds = state.post[top].argmax(axis=1)
        correct += int((preds == y).sum())
        total += len(y)
    return correct / total if total else 0.0


def train(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: BatchSource,
    config: TrainConfig,
    val_source: BatchSource | None = None,
) -> tuple[Checkpoint, list[HistoryRow]]:
    """Train a copy of ckpt on source; returns (new checkpoint, history).

    Shuffling and augmentation draws are seeded per epoch from
    (config.seed, epoch), so runs are reproducible and the input checkpoint
    is never mutated. A non-finite value in the forward pass or the loss
    raises DivergenceError naming the epoch, the batch within it and the
    layer (the softmax layer for the loss). Each epoch logs one INFO line
    with its loss, train accuracy, learning rate and seconds.
    """
    spec.validate_for_training()
    out = ckpt.copy()
    state = OptState.for_checkpoint(out)
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
                fwd = forward(spec, out, x, retain=True)
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
            grads = backward(spec, out, fwd, dlogits)
            sgd_step(out, grads, state, lr, lr_mults, config.momentum, config.weight_decay)
            loss_sum += loss * len(y)
            correct += int((logits.argmax(axis=1) == y).sum())
        state.epoch = epoch + 1
        train_acc = correct / source.n
        val_acc = accuracy_on(spec, out, val_source) if val_source is not None else None
        history.append(HistoryRow(epoch, loss_sum / source.n, train_acc, val_acc))
        log.info(
            "epoch %d: loss %.6f, train accuracy %.4f, lr %g, %.2f s",
            epoch, loss_sum / source.n, train_acc, lr, time.perf_counter() - started,
        )
        if config.stop_at_train_acc is not None and train_acc >= config.stop_at_train_acc:
            log.info("early stop at epoch %d: train accuracy %.4f", epoch, train_acc)
            break
    out.metadata["epoch"] = str(state.epoch)
    out.metadata["seed"] = str(config.seed)
    return out, history
