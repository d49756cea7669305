"""Tests for the SGD optimizer, schedule, and train loop."""

import numpy as np
import pytest

from sentnet.checkpoint import Checkpoint
from sentnet.errors import ConfigError, DivergenceError
from sentnet.network import LayerKind, LayerSpec, NetworkSpec, init_params
from sentnet.optim import (
    HistoryRow,
    OptState,
    TrainConfig,
    accuracy_on,
    history_to_csv,
    lr_at,
    sgd_step,
    train,
)

from oracles import momentum_updates


def linear_spec(num_classes=2, relu=False):
    """Single fc layer over flattened 1x2x2 inputs, plus softmax."""
    return NetworkSpec(
        input_shape=(1, 2, 2),
        layers=(
            LayerSpec("f", LayerKind.FC, units=num_classes, relu=relu, init_std=0.5),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


class ArraySource:
    """In-memory BatchSource over fixed tensors, no augmentation."""

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=np.float32)
        self.y = np.asarray(y, dtype=np.int64)
        self.n = len(self.y)

    def train_batch(self, indices, rng):
        return self.x[indices], self.y[indices]

    def eval_batches(self, batch_size):
        for start in range(0, self.n, batch_size):
            yield self.x[start : start + batch_size], self.y[start : start + batch_size]


def toy_source(n=16, seed=0):
    rng = np.random.default_rng(seed)
    y = np.arange(n) % 2
    x = rng.normal(0, 1, size=(n, 1, 2, 2)).astype(np.float32)
    x[:, 0, 0, 0] = np.where(y == 1, 2.0, -2.0) + rng.normal(0, 0.1, size=n)
    return ArraySource(x, y)


class TestSchedule:
    def test_exact_decade_steps(self):
        cfg = TrainConfig(base_lr=0.001, step_epochs=6, gamma=0.1, epochs=65)
        for epoch in range(65):
            want = 0.001 * 0.1 ** (epoch // 6)
            assert lr_at(cfg, epoch) == want, epoch
        assert lr_at(cfg, 0) == 0.001
        assert lr_at(cfg, 5) == 0.001
        assert lr_at(cfg, 6) == pytest.approx(0.0001, rel=1e-12)
        assert lr_at(cfg, 64) == pytest.approx(0.001 * 0.1**10, rel=1e-9)

    def test_number_of_distinct_rates(self):
        cfg = TrainConfig(base_lr=0.001, step_epochs=6, gamma=0.1, epochs=65)
        rates = {lr_at(cfg, e) for e in range(65)}
        assert len(rates) == 11  # epochs 0..64 span floor(64/6)+1 = 11 decades

    def test_negative_epoch_rejected(self):
        with pytest.raises(ConfigError):
            lr_at(TrainConfig(), -1)


class TestConfigValidation:
    def test_defaults_match_fine_tuning_recipe(self):
        cfg = TrainConfig()
        assert cfg.base_lr == 0.001
        assert cfg.step_epochs == 6
        assert cfg.gamma == 0.1
        assert cfg.epochs == 65
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 0.0005
        assert cfg.batch_size == 32

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_lr": 0.0},
            {"base_lr": -1.0},
            {"step_epochs": 0},
            {"gamma": 0.0},
            {"gamma": 1.5},
            {"epochs": 0},
            {"momentum": 1.0},
            {"momentum": -0.1},
            {"weight_decay": -1e-4},
            {"batch_size": 0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestSgdStep:
    def make(self, w0):
        ckpt = Checkpoint(entries={"f": (np.array([w0], dtype=np.float32),
                                         np.zeros(1, dtype=np.float32))})
        return ckpt, OptState.for_checkpoint(ckpt)

    def test_two_steps_match_recurrence_oracle(self):
        ckpt, state = self.make(1.0)
        grads = [0.5, -0.25]
        lr, mom, wd = 0.1, 0.9, 0.01
        trace = momentum_updates(1.0, grads, lr, mom, wd)
        for g in grads:
            sgd_step(
                ckpt,
                {"f": (np.array([g], dtype=np.float32), np.zeros(1, dtype=np.float32))},
                state, lr, {"f": 1.0}, mom, wd,
            )
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), trace[-1], rtol=1e-6)

    def test_closed_form_two_steps_no_decay(self):
        # with constant gradient g and zero decay: w2 = w0 - lr*g*(2 + momentum)
        ckpt, state = self.make(0.75)
        g = np.array([0.5], dtype=np.float32)
        for _ in range(2):
            sgd_step(ckpt, {"f": (g, np.zeros(1, dtype=np.float32))},
                     state, 0.1, {"f": 1.0}, 0.9, 0.0)
        want = 0.75 - 0.1 * 0.5 * (2 + 0.9)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), want, rtol=1e-6)

    def test_zero_momentum_is_plain_sgd(self):
        ckpt, state = self.make(1.0)
        g = np.array([2.0], dtype=np.float32)
        sgd_step(ckpt, {"f": (g, np.zeros(1, dtype=np.float32))},
                 state, 0.05, {"f": 1.0}, 0.0, 0.0)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 0.9, rtol=1e-6)

    def test_lr_mult_scales_the_step(self):
        ckpt, state = self.make(1.0)
        g = np.array([1.0], dtype=np.float32)
        sgd_step(ckpt, {"f": (g, np.zeros(1, dtype=np.float32))},
                 state, 0.01, {"f": 10.0}, 0.0, 0.0)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 0.9, rtol=1e-6)

    def test_lr_mult_zero_freezes_bit_exact(self):
        ckpt, state = self.make(1.2345)
        before = ckpt.entries["f"][0].tobytes()
        for _ in range(5):
            sgd_step(ckpt, {"f": (np.array([3.0], dtype=np.float32),
                                  np.ones(1, dtype=np.float32))},
                     state, 0.1, {"f": 0.0}, 0.9, 0.01)
        assert ckpt.entries["f"][0].tobytes() == before
        assert not state.velocities["f"][0].any()

    def test_weight_decay_pulls_toward_zero(self):
        ckpt, state = self.make(10.0)
        zero = np.zeros(1, dtype=np.float32)
        sgd_step(ckpt, {"f": (zero, zero)}, state, 0.1, {"f": 1.0}, 0.0, 0.5)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 9.5, rtol=1e-6)


class TestTrainLoop:
    def test_input_checkpoint_never_mutated(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        before = {k: (w.tobytes(), b.tobytes()) for k, (w, b) in ckpt.entries.items()}
        cfg = TrainConfig(base_lr=0.01, epochs=3, batch_size=8, seed=0)
        train(spec, ckpt, toy_source(), cfg)
        after = {k: (w.tobytes(), b.tobytes()) for k, (w, b) in ckpt.entries.items()}
        assert before == after

    def test_loss_decreases_on_separable_data(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.05, step_epochs=50, epochs=30, batch_size=16,
                          momentum=0.9, weight_decay=0.0, seed=0)
        out, hist = train(spec, ckpt, toy_source(), cfg)
        assert hist[-1].loss < hist[0].loss / 2
        assert hist[-1].train_acc == 1.0

    def test_deterministic_in_seed(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.02, epochs=4, batch_size=4, seed=7)
        out1, hist1 = train(spec, ckpt, toy_source(), cfg)
        out2, hist2 = train(spec, ckpt, toy_source(), cfg)
        for name in out1.entries:
            assert out1.entries[name][0].tobytes() == out2.entries[name][0].tobytes()
        assert [h.loss for h in hist1] == [h.loss for h in hist2]

    def test_different_seed_changes_trajectory(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        out1, _ = train(spec, ckpt, toy_source(), TrainConfig(base_lr=0.02, epochs=2, batch_size=4, seed=0))
        out2, _ = train(spec, ckpt, toy_source(), TrainConfig(base_lr=0.02, epochs=2, batch_size=4, seed=1))
        assert out1.entries["f"][0].tobytes() != out2.entries["f"][0].tobytes()

    def test_frozen_layer_stays_bit_identical_through_training(self):
        spec = NetworkSpec(
            input_shape=(1, 2, 2),
            layers=(
                LayerSpec("body", LayerKind.FC, units=4, relu=True, init_std=0.5, lr_mult=0.0),
                LayerSpec("head", LayerKind.FC, units=2, init_std=0.5),
                LayerSpec("prob", LayerKind.SOFTMAX),
            ),
        )
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.05, epochs=5, batch_size=8, seed=0)
        out, _ = train(spec, ckpt, toy_source(), cfg)
        assert out.entries["body"][0].tobytes() == ckpt.entries["body"][0].tobytes()
        assert out.entries["body"][1].tobytes() == ckpt.entries["body"][1].tobytes()
        assert out.entries["head"][0].tobytes() != ckpt.entries["head"][0].tobytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_epoch(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        # an absurd learning rate forces the loss to overflow float32
        cfg = TrainConfig(base_lr=1e8, epochs=10, batch_size=16, seed=0)
        src = toy_source()
        src.x *= 1e6
        with pytest.raises(DivergenceError) as info:
            train(spec, ckpt, src, cfg)
        err = info.value
        assert err.epoch >= 0
        assert 0 <= err.batch < 1  # one batch of 16 per epoch
        assert err.layer in ("f", "prob")
        assert f"epoch {err.epoch}, batch {err.batch}, layer {err.layer}:" in str(err)

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_the_layer_and_batch_that_overflowed(self):
        # frozen layers keep the weights fixed, so only the one huge row overflows
        spec = NetworkSpec(
            input_shape=(1, 2, 2),
            layers=(
                LayerSpec("body", LayerKind.FC, units=4, relu=True, init_std=0.5, lr_mult=0.0),
                LayerSpec("head", LayerKind.FC, units=2, init_std=0.5, lr_mult=0.0),
                LayerSpec("prob", LayerKind.SOFTMAX),
            ),
        )
        ckpt = init_params(spec, seed=0)
        ckpt.entries["body"][0][:] = 1e30
        src = toy_source(n=12)
        src.x[11] = 1e10
        cfg = TrainConfig(epochs=1, batch_size=4, seed=0)
        with pytest.raises(DivergenceError) as info:
            train(spec, ckpt, src, cfg)
        perm = np.random.default_rng([0, 0]).permutation(12)
        err = info.value
        assert (err.epoch, err.batch, err.layer) == (0, int(np.flatnonzero(perm == 11)[0]) // 4, "body")
        assert "affine" in str(err)

    def test_early_stop_on_train_accuracy(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.05, step_epochs=50, epochs=100, batch_size=16,
                          weight_decay=0.0, seed=0, stop_at_train_acc=1.0)
        out, hist = train(spec, ckpt, toy_source(), cfg)
        assert len(hist) < 100
        assert hist[-1].train_acc == 1.0
        assert out.metadata["epoch"] == str(len(hist))

    def test_validation_accuracy_tracked(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.02, epochs=2, batch_size=8, seed=0)
        _, hist = train(spec, ckpt, toy_source(), cfg, val_source=toy_source(seed=1))
        assert all(h.val_acc is not None for h in hist)
        assert all(0.0 <= h.val_acc <= 1.0 for h in hist)

    def test_one_log_line_per_epoch(self, caplog):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        cfg = TrainConfig(base_lr=0.02, step_epochs=2, epochs=3, batch_size=8)
        with caplog.at_level("INFO", logger="sentnet.optim"):
            _, hist = train(spec, ckpt, toy_source(), cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "sentnet.optim"]
        assert len(lines) == 3
        for row, line, lr in zip(hist, lines, (0.02, 0.02, 0.002)):
            assert line.startswith(
                f"epoch {row.epoch}: loss {row.loss:.6f}, train accuracy {row.train_acc:.4f}, lr {lr:g}, "
            )
            assert line.endswith(" s")

    def test_epoch_metadata_updated(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        out, _ = train(spec, ckpt, toy_source(), TrainConfig(base_lr=0.01, epochs=3, batch_size=8))
        assert out.metadata["epoch"] == "3"


class TestHistoryCsv:
    def test_format(self):
        rows = [HistoryRow(0, 0.5, 0.75, None), HistoryRow(1, 0.25, 1.0, 0.5)]
        text = history_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,train_acc,val_acc"
        assert lines[1] == "0,0.500000,0.750000,"
        assert lines[2] == "1,0.250000,1.000000,0.500000"

    def test_accuracy_on_counts_correctly(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        src = toy_source()
        acc = accuracy_on(spec, ckpt, src, batch_size=5)
        correct = 0
        from sentnet.network import forward

        for start in range(0, src.n, 5):
            state = forward(spec, ckpt, src.x[start : start + 5])
            correct += int((state.post["f"].argmax(axis=1) == src.y[start : start + 5]).sum())
        assert acc == correct / src.n
