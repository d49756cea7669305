"""Tests for the SGD optimizer, schedule, and train loop."""

import weakref

import numpy as np
import pytest

from sentnet import ops, optim
from sentnet.checkpoint import Checkpoint
from sentnet.errors import ConfigError, DataError, DivergenceError
from sentnet.network import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    backward,
    backward_walk,
    forward,
    init_params,
    reference_spec_small,
    with_lr_mult,
)
from sentnet.optim import (
    BLOCK,
    HistoryRow,
    OptState,
    TrainConfig,
    history_to_csv,
    lr_at,
    sgd_step,
    train,
    train_in_place,
)

from oracles import momentum_updates, sgd_step_whole_array, traced_peak


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

    @pytest.mark.parametrize("field", ["base_lr", "weight_decay", "stop_at_train_acc"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.01, 1.01, -1.0, 2.0])
    def test_stop_accuracy_outside_unit_interval_rejected(self, value):
        with pytest.raises(ConfigError, match="stop_at_train_acc"):
            TrainConfig(stop_at_train_acc=value)

    @pytest.mark.parametrize("value", [None, 0.0, 0.5, 1.0])
    def test_stop_accuracy_in_unit_interval_accepted(self, value):
        assert TrainConfig(stop_at_train_acc=value).stop_at_train_acc == value


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
                [("f", 0, np.array([g], dtype=np.float32), np.zeros(1, dtype=np.float32))],
                state, lr, {"f": 1.0}, mom, wd,
            )
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), trace[-1], rtol=1e-6)

    def test_closed_form_two_steps_no_decay(self):
        # with constant gradient g and zero decay: w2 = w0 - lr*g*(2 + momentum)
        ckpt, state = self.make(0.75)
        g = np.array([0.5], dtype=np.float32)
        for _ in range(2):
            sgd_step(ckpt, [("f", 0, g, np.zeros(1, dtype=np.float32))],
                     state, 0.1, {"f": 1.0}, 0.9, 0.0)
        want = 0.75 - 0.1 * 0.5 * (2 + 0.9)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), want, rtol=1e-6)

    def test_zero_momentum_is_plain_sgd(self):
        ckpt, state = self.make(1.0)
        g = np.array([2.0], dtype=np.float32)
        sgd_step(ckpt, [("f", 0, g, np.zeros(1, dtype=np.float32))],
                 state, 0.05, {"f": 1.0}, 0.0, 0.0)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 0.9, rtol=1e-6)

    def test_lr_mult_scales_the_step(self):
        ckpt, state = self.make(1.0)
        g = np.array([1.0], dtype=np.float32)
        sgd_step(ckpt, [("f", 0, g, np.zeros(1, dtype=np.float32))],
                 state, 0.01, {"f": 10.0}, 0.0, 0.0)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 0.9, rtol=1e-6)

    def test_lr_mult_zero_freezes_bit_exact(self):
        ckpt, state = self.make(1.2345)
        before = ckpt.entries["f"][0].tobytes()
        for _ in range(5):
            sgd_step(ckpt, [("f", 0, np.array([3.0], dtype=np.float32),
                             np.ones(1, dtype=np.float32))],
                     state, 0.1, {"f": 0.0}, 0.9, 0.01)
        assert ckpt.entries["f"][0].tobytes() == before
        assert not state.velocities["f"][0].any()

    def test_weight_decay_pulls_toward_zero(self):
        ckpt, state = self.make(10.0)
        zero = np.zeros(1, dtype=np.float32)
        sgd_step(ckpt, [("f", 0, zero, zero)], state, 0.1, {"f": 1.0}, 0.0, 0.5)
        np.testing.assert_allclose(float(ckpt.entries["f"][0][0]), 9.5, rtol=1e-6)


def walk_items(grads):
    """A dict of whole (dw, db) pairs as the items backward_walk yields."""
    return [(name, 0, dw, db) for name, (dw, db) in grads.items()]


class TestBlockedUpdateMatchesWholeArray:
    """sgd_step against the whole-array expression in oracles, bit for bit."""

    def run_both(self, entries, lr_mults, steps=2, seed=0):
        rng = np.random.default_rng(seed)
        ckpt = Checkpoint(entries=entries)
        want = ckpt.copy()
        state = OptState.for_checkpoint(ckpt)
        want_state = OptState.for_checkpoint(want)
        for _ in range(steps):
            grads = {
                name: tuple(rng.standard_normal(t.shape, dtype=np.float32) for t in tensors)
                for name, tensors in entries.items()
            }
            sgd_step(ckpt, walk_items(grads), state, 0.01, lr_mults, 0.9, 0.0005)
            sgd_step_whole_array(want, grads, want_state, 0.01, lr_mults, 0.9, 0.0005)
        for name in entries:
            for got, ref in zip(ckpt.entries[name] + state.velocities[name],
                                want.entries[name] + want_state.velocities[name]):
                assert got.dtype == np.float32
                assert got.tobytes() == ref.tobytes(), name
        return ckpt, state

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_sizes_around_the_block(self, n):
        rng = np.random.default_rng(n)
        entries = {"f": (rng.standard_normal(n, dtype=np.float32),
                         rng.standard_normal(1, dtype=np.float32))}
        self.run_both(entries, {"f": 10.0})

    def test_fc6_shaped_tensor(self):
        # the reference net's fc6: 9216 x 4096 weights, 37.7M floats
        rng = np.random.default_rng(6)
        w = rng.standard_normal((9216, 4096), dtype=np.float32)
        w *= np.float32(0.005)
        entries = {"fc6": (w, np.full(4096, 0.1, dtype=np.float32))}
        self.run_both(entries, {"fc6": 1.0}, steps=1)

    def test_frozen_layers_skipped(self):
        rng = np.random.default_rng(2)
        entries = {
            "conv1": (rng.standard_normal((4, 3, 3, 3), dtype=np.float32), np.zeros(4, dtype=np.float32)),
            "fc8": (rng.standard_normal((10, 2), dtype=np.float32), np.zeros(2, dtype=np.float32)),
        }
        before = [t.tobytes() for t in entries["conv1"]]
        ckpt, state = self.run_both(entries, {"conv1": 0.0, "fc8": 10.0})
        assert [t.tobytes() for t in ckpt.entries["conv1"]] == before
        assert not any(v.any() for v in state.velocities["conv1"])

    def test_non_contiguous_parameters_rejected(self):
        w = np.asfortranarray(np.ones((3, 4), dtype=np.float32))
        ckpt = Checkpoint(entries={"f": (w, np.zeros(4, dtype=np.float32))})
        grads = {"f": (np.ones((3, 4), dtype=np.float32), np.ones(4, dtype=np.float32))}
        with pytest.raises(ValueError, match="contiguous"):
            sgd_step(ckpt, walk_items(grads), OptState.for_checkpoint(ckpt), 0.1, {"f": 1.0}, 0.9, 0.0)


class TestTrainLoop:
    def test_empty_source_rejected(self):
        # zero rows would leave the epoch's train accuracy 0 / 0
        spec = linear_spec()
        empty = ArraySource(np.zeros((0, 1, 2, 2)), [])
        with pytest.raises(DataError, match="empty"):
            train_in_place(spec, init_params(spec, seed=0), empty, TrainConfig(base_lr=0.01, epochs=1))

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
        cfg = TrainConfig(base_lr=0.02, epochs=3, batch_size=8, seed=0)
        seen = []

        def validate(net):
            seen.append((net, net.entries["f"][0].copy()))
            return len(seen) / 4

        out, hist = train(spec, ckpt, toy_source(), cfg, validate=validate)
        assert [h.val_acc for h in hist] == [0.25, 0.5, 0.75]
        assert all(net is out for net, _ in seen)  # once per epoch, with the checkpoint being trained
        assert seen[-1][1].tobytes() == out.entries["f"][0].tobytes()
        assert not np.array_equal(seen[0][1], seen[1][1])  # each call sees that epoch's weights

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


# frozen layers below and above the lowest trained one, and new-layer rates
MIXED = {"conv1": 0.0, "conv3": 0.0, "fc7": 0.0, "fc8": 10.0}
# every conv layer and fc6 frozen: fc7 is the lowest trained layer, an FC
FC_LOWEST = {"conv1": 0.0, "conv2": 0.0, "conv3": 0.0, "conv4": 0.0, "conv5": 0.0, "fc6": 0.0, "fc8": 10.0}


def run_steps(spec, gradients, steps=4, n=8, strip_param_pullback=False):
    """`steps` SGD steps of a seeded `small` net; gradients(spec, ckpt,
    state, top_grad) is what each step hands sgd_step."""
    ckpt = init_params(spec, seed=3)
    opt = OptState.for_checkpoint(ckpt)
    lr_mults = {l.name: l.lr_mult for l in spec.parameterized}
    for step in range(steps):
        rng = np.random.default_rng([5, step])
        x = rng.normal(0, 30, size=(n, 3, 64, 64)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        if strip_param_pullback:  # as a wrapper that rebuilds each pair from value and pullback
            for name, (pair, relu_pullback, flat) in list(state.aux.items()):
                state.aux[name] = (type(pair)(pair.value, pair.pullback), relu_pullback, flat)
        (g,) = ops.cross_entropy_loss(state.post[spec.top_name], np.arange(n) % 2).pullback(np.float32(1.0))
        sgd_step(ckpt, gradients(spec, ckpt, state, g), opt, 0.001, lr_mults, 0.9, 0.0005)
    return ckpt, opt


def fused(spec, ckpt, state, g):
    """The backward walk, each item applied as it arrives."""
    return backward_walk(spec, state, g)


def whole_pass(spec, ckpt, state, g):
    """The whole backward pass, then the update."""
    return list(backward_walk(spec, state, g))


def assert_same_bits(a, b):
    (ckpt_a, opt_a), (ckpt_b, opt_b) = a, b
    assert list(ckpt_a.entries) == list(ckpt_b.entries)
    for name in ckpt_a.entries:
        for got, want in zip(ckpt_a.entries[name] + opt_a.velocities[name],
                             ckpt_b.entries[name] + opt_b.velocities[name], strict=True):
            assert got.tobytes() == want.tobytes(), name


class TestUpdateDuringBackward:
    """Updating each layer as the backward walk yields it gives the bits of
    an update after the whole pass: parameters and velocities, over steps."""

    @pytest.mark.parametrize("mults", [{}, MIXED, FC_LOWEST], ids=["all", "mixed", "fc-lowest"])
    @pytest.mark.parametrize("block", [ops.FC_BLOCK, 48, 1 << 30], ids=[str(ops.FC_BLOCK), "48", "whole"])
    def test_fused_matches_unfused(self, mults, block, monkeypatch):
        monkeypatch.setattr(ops, "FC_BLOCK", block)
        spec = with_lr_mult(reference_spec_small(num_classes=2), mults)
        want = run_steps(spec, whole_pass)
        assert_same_bits(run_steps(spec, fused), want)
        frozen = [name for name, mult in mults.items() if mult == 0.0]
        seeded = init_params(spec, seed=3)
        for name in frozen:
            assert want[0].entries[name][0].tobytes() == seeded.entries[name][0].tobytes()
        assert want[0].entries["fc8"][0].tobytes() != seeded.entries["fc8"][0].tobytes()

    @pytest.mark.parametrize("mults", [{}, MIXED, FC_LOWEST], ids=["all", "mixed", "fc-lowest"])
    def test_pairs_without_param_pullback_take_the_whole_gradient_path(self, mults, monkeypatch):
        monkeypatch.setattr(ops, "FC_BLOCK", 48)
        spec = with_lr_mult(reference_spec_small(num_classes=2), mults)
        want = run_steps(spec, fused)
        assert_same_bits(run_steps(spec, fused, strip_param_pullback=True), want)

    def test_walk_yields_fc_rows_in_blocks_and_the_dict_whole(self, monkeypatch):
        monkeypatch.setattr(ops, "FC_BLOCK", 48)
        spec = with_lr_mult(reference_spec_small(num_classes=2), MIXED)
        ckpt = init_params(spec, seed=3)
        x = np.random.default_rng(1).normal(0, 30, size=(4, 3, 64, 64)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        (g,) = ops.cross_entropy_loss(state.post[spec.top_name], np.array([0, 1, 1, 0])).pullback(np.float32(1.0))
        items = [(name, start, len(dw), db is not None) for name, start, dw, db in backward_walk(spec, state, g)]
        blocks = [(0, 48, True), (48, 48, False), (96, 32, False)]  # 128 rows each
        assert items[:9] == [(name, *block) for name in ("fc8", "fc7", "fc6") for block in blocks]
        assert [name for name, *_ in items[9:]] == ["conv5", "conv4", "conv3", "conv2"]
        grads = backward(spec, state, g)
        assert list(grads) == ["fc8", "fc7", "fc6", "conv5", "conv4", "conv3", "conv2"]
        assert grads["fc6"][0].shape == (128, 128)

    def test_train_matches_an_update_after_the_whole_pass(self, monkeypatch):
        spec = with_lr_mult(reference_spec_small(num_classes=2), MIXED)
        rng = np.random.default_rng(8)
        source = ArraySource(rng.normal(0, 30, size=(12, 3, 64, 64)), np.arange(12) % 2)
        cfg = TrainConfig(base_lr=0.001, epochs=2, batch_size=5, seed=4)
        got, _ = train(spec, init_params(spec, seed=3), source, cfg)
        monkeypatch.setattr(optim, "backward_walk", lambda spec, state, g: whole_pass(spec, None, state, g))
        want, _ = train(spec, init_params(spec, seed=3), source, cfg)
        for name in want.entries:
            for a, b in zip(got.entries[name], want.entries[name]):
                assert a.tobytes() == b.tobytes(), name

    def test_no_two_fc_blocks_are_alive_at_once(self):
        """backward_walk and sgd_step each drop an FC weight-gradient block
        once it is applied, so the next block is computed with it freed."""
        spec = NetworkSpec(input_shape=(16, 32, 32),
                           layers=(LayerSpec("f", LayerKind.FC, units=512), LayerSpec("prob", LayerKind.SOFTMAX)))
        ckpt = init_params(spec, seed=0)
        opt = OptState.for_checkpoint(ckpt)
        x = np.random.default_rng(0).normal(size=(4, *spec.input_shape)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        (g,) = ops.cross_entropy_loss(state.post["f"], np.array([0, 1, 0, 1])).pullback(np.float32(1.0))
        block_bytes = ops.FC_BLOCK * 512 * 4  # 2 MiB of the weights' 16384 rows

        def update():
            sgd_step(ckpt, backward_walk(spec, state, g), opt, 0.001, {"f": 1.0}, 0.9, 0.0005)

        peak, _ = traced_peak(update)
        assert block_bytes <= peak < 1.5 * block_bytes, f"peak {peak} B for {block_bytes} B blocks"

    def test_small_step_holds_one_run_of_patch_matrices(self):
        """A small train step at batch 32 (every layer trained) holds its
        activations, its gradients and one run's patch matrices: conv1 runs
        4 examples in its 1 MiB budget. It held 10.4 MiB with conv1's whole
        batch of matrices (7.18 MiB) in one run."""
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        opt = OptState.for_checkpoint(ckpt)
        x = np.random.default_rng(0).normal(0, 50, size=(32, *spec.input_shape)).astype(np.float32)
        lr_mults = {layer.name: layer.lr_mult for layer in spec.parameterized}

        def step():
            state = forward(spec, ckpt, x, retain=True)
            (g,) = ops.cross_entropy_loss(state.post[spec.top_name], np.arange(32) % 2).pullback(np.float32(1.0))
            sgd_step(ckpt, backward_walk(spec, state, g), opt, 0.001, lr_mults, 0.9, 0.0005)

        peak, _ = traced_peak(step)
        assert peak < 6 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_each_step_state_is_dead_before_the_next_forward(self, monkeypatch):
        """A step's ForwardState (its activations and the pullbacks' inputs)
        is freed once its update is applied, so two steps' states are never
        alive at once, across batches and epochs."""
        spec = with_lr_mult(reference_spec_small(num_classes=2), MIXED)
        rng = np.random.default_rng(8)
        source = ArraySource(rng.normal(0, 30, size=(12, 3, 64, 64)), np.arange(12) % 2)
        states = []

        def tracked(*args, **kwargs):
            assert all(ref() is None for ref in states), "a previous step's state is still alive"
            state = forward(*args, **kwargs)
            states.append(weakref.ref(state))
            return state

        monkeypatch.setattr(optim, "forward", tracked)
        train_in_place(spec, init_params(spec, seed=3), source, TrainConfig(base_lr=0.001, epochs=2, batch_size=5))
        assert len(states) == 6

    def test_train_in_place_updates_and_returns_its_input(self):
        spec = linear_spec()
        ckpt = init_params(spec, seed=0)
        weights = ckpt.entries["f"][0]
        before = weights.copy()
        cfg = TrainConfig(base_lr=0.01, epochs=2, batch_size=8)
        out, _ = train_in_place(spec, ckpt, toy_source(), cfg)
        want, _ = train(spec, init_params(spec, seed=0), toy_source(), cfg)
        assert out is ckpt and out.entries["f"][0] is weights
        assert weights.tobytes() != before.tobytes()
        assert weights.tobytes() == want.entries["f"][0].tobytes()


class TestHistoryCsv:
    def test_format(self):
        rows = [HistoryRow(0, 0.5, 0.75, None), HistoryRow(1, 0.25, 1.0, 0.5)]
        text = history_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,loss,train_acc,val_acc"
        assert lines[1] == "0,0.500000,0.750000,"
        assert lines[2] == "1,0.250000,1.000000,0.500000"
