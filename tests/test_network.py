"""Tests for network specs, shape inference, init, and forward/backward."""

import numpy as np
import pytest

from sentnet import network, ops
from sentnet.errors import ShapeError
from sentnet.network import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    backward,
    count_parameters,
    forward,
    infer_shapes,
    init_params,
    parameter_shapes,
    reference_spec,
    reference_spec_small,
    with_lr_mult,
)
from sentnet.optim import TrainConfig, train

from oracles import numeric_grad

ENDPOINTS = (
    "conv1", "pool1", "norm1", "conv2", "pool2", "norm2",
    "conv3", "conv4", "conv5", "pool5", "fc6", "fc7", "fc8",
)


def tiny_spec(num_classes=2):
    """A short conv-pool-norm-fc-fc stack over 3x8x8 inputs, for fast tests."""
    return NetworkSpec(
        input_shape=(3, 8, 8),
        layers=(
            LayerSpec("c1", LayerKind.CONV, out_channels=4, kernel=3, stride=1, pad=1,
                      relu=True, init_std=0.2),
            LayerSpec("p1", LayerKind.POOL, kernel=2, stride=2),
            LayerSpec("n1", LayerKind.NORM, norm_size=3),
            LayerSpec("f1", LayerKind.FC, units=6, relu=True, init_std=0.2),
            LayerSpec("f2", LayerKind.FC, units=num_classes, init_std=0.2),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


class TestSpecValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ShapeError, match="duplicate"):
            NetworkSpec(
                input_shape=(1, 4, 4),
                layers=(
                    LayerSpec("a", LayerKind.NORM),
                    LayerSpec("a", LayerKind.NORM),
                ),
            )

    def test_softmax_must_sit_on_top(self):
        with pytest.raises(ShapeError, match="softmax"):
            NetworkSpec(
                input_shape=(1, 4, 4),
                layers=(
                    LayerSpec("prob", LayerKind.SOFTMAX),
                    LayerSpec("n", LayerKind.NORM),
                ),
            )

    def test_unknown_layer_lookup(self):
        spec = tiny_spec()
        with pytest.raises(ShapeError, match="nope"):
            spec.layer("nope")

    def test_negative_lr_mult_rejected(self):
        with pytest.raises(ShapeError, match="lr_mult"):
            LayerSpec("c", LayerKind.CONV, out_channels=1, kernel=3, lr_mult=-1.0)

    def test_endpoints_exclude_softmax(self):
        spec = tiny_spec()
        assert spec.endpoints == ("c1", "p1", "n1", "f1", "f2")
        assert spec.top_name == "f2"

    def test_fingerprint_tracks_content(self):
        a = reference_spec_small(num_classes=2)
        b = reference_spec_small(num_classes=2)
        c = reference_spec_small(num_classes=3)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestShapeInference:
    def test_reference_spec_chain(self):
        spec = reference_spec(num_classes=1000)
        shapes = infer_shapes(spec)
        assert shapes["conv1"] == (96, 55, 55)
        assert shapes["pool1"] == (96, 27, 27)
        assert shapes["norm1"] == (96, 27, 27)
        assert shapes["conv2"] == (256, 27, 27)
        assert shapes["pool2"] == (256, 13, 13)
        assert shapes["conv3"] == (384, 13, 13)
        assert shapes["conv4"] == (384, 13, 13)
        assert shapes["conv5"] == (256, 13, 13)
        assert shapes["pool5"] == (256, 6, 6)
        assert int(np.prod(shapes["pool5"])) == 9216
        assert shapes["fc6"] == (4096,)
        assert shapes["fc7"] == (4096,)
        assert shapes["fc8"] == (1000,)

    def test_reference_spec_has_thirteen_endpoints(self):
        spec = reference_spec()
        assert spec.endpoints == ENDPOINTS

    def test_small_spec_chain(self):
        spec = reference_spec_small(num_classes=4)
        shapes = infer_shapes(spec)
        assert shapes["conv1"] == (12, 20, 20)
        assert shapes["pool1"] == (12, 10, 10)
        assert shapes["conv2"] == (32, 10, 10)
        assert shapes["pool2"] == (32, 5, 5)
        assert shapes["conv5"] == (32, 5, 5)
        assert shapes["pool5"] == (32, 2, 2)
        assert shapes["fc6"] == (128,)
        assert shapes["fc8"] == (4,)
        assert spec.endpoints == ENDPOINTS

    def test_parameter_shapes_reference(self):
        shapes = parameter_shapes(reference_spec(num_classes=1000))
        assert shapes["conv1"] == ((96, 3, 11, 11), (96,))
        assert shapes["conv2"] == ((256, 96, 5, 5), (256,))
        assert shapes["fc6"] == ((9216, 4096), (4096,))
        assert shapes["fc8"] == ((4096, 1000), (1000,))

    def test_count_parameters_by_hand(self):
        spec = tiny_spec(num_classes=2)
        # c1: 4*3*3*3 + 4; f1: (4*4*4)*6 + 6; f2: 6*2 + 2
        want = (108 + 4) + (64 * 6 + 6) + (6 * 2 + 2)
        assert count_parameters(spec) == want

    def test_bad_geometry_names_the_layer(self):
        spec = NetworkSpec(
            input_shape=(1, 4, 4),
            layers=(LayerSpec("cbig", LayerKind.CONV, out_channels=1, kernel=7),),
        )
        with pytest.raises(ShapeError, match="cbig"):
            infer_shapes(spec)


class TestInit:
    def test_deterministic_in_seed(self):
        spec = tiny_spec()
        a = init_params(spec, seed=3)
        b = init_params(spec, seed=3)
        c = init_params(spec, seed=4)
        for name in a.entries:
            np.testing.assert_array_equal(a.entries[name][0], b.entries[name][0])
        assert any(
            not np.array_equal(a.entries[n][0], c.entries[n][0]) for n in a.entries
        )

    def test_layer_streams_are_independent(self):
        # a layer's draw depends on its name, not its position in the spec
        spec = tiny_spec()
        a = init_params(spec, seed=0)
        assert not np.array_equal(
            a.entries["f1"][0].reshape(-1)[:6], a.entries["f2"][0].reshape(-1)[:6]
        )

    def test_gaussian_scale_and_zero_bias(self):
        spec = reference_spec(num_classes=1000)
        ckpt = init_params(spec, seed=0)
        w, b = ckpt.entries["fc6"]
        assert abs(float(w.std()) - 0.01) < 0.001
        assert abs(float(w.mean())) < 0.001
        np.testing.assert_array_equal(b, np.zeros_like(b))
        assert w.dtype == np.float32

    def test_small_spec_uses_fan_in_scaled_std(self):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        w, _ = ckpt.entries["conv1"]
        want = np.sqrt(2.0 / (3 * 7 * 7))
        assert abs(float(w.std()) - want) < 0.02

    def test_metadata_records_spec_and_seed(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=9)
        assert ckpt.metadata["spec"] == spec.fingerprint()
        assert ckpt.metadata["seed"] == "9"


class TestForward:
    def test_all_endpoints_present_with_inferred_shapes(self):
        spec = reference_spec_small(num_classes=4)
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(0).normal(0, 50, size=(2, 3, 64, 64)).astype(np.float32)
        state = forward(spec, ckpt, x)
        shapes = infer_shapes(spec)
        for name in spec.endpoints:
            assert state.post[name].shape == (2,) + shapes[name], name

    def test_softmax_rows_sum_to_one(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(1).normal(0, 1, size=(3, 3, 8, 8)).astype(np.float32)
        state = forward(spec, ckpt, x)
        np.testing.assert_allclose(state.post["prob"].sum(axis=1), np.ones(3), rtol=1e-5)

    def test_pre_and_post_activation_views(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(2).normal(0, 1, size=(2, 3, 8, 8)).astype(np.float32)
        state = forward(spec, ckpt, x)
        pre = state.endpoint("c1", pre_activation=True)
        post = state.endpoint("c1")
        assert (pre < 0).any()
        np.testing.assert_array_equal(post, np.maximum(pre, 0))

    def test_matches_manual_op_chain(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=5)
        x = np.random.default_rng(3).normal(0, 1, size=(2, 3, 8, 8)).astype(np.float32)
        state = forward(spec, ckpt, x)

        w1, b1 = ckpt.entries["c1"]
        h = ops.relu(ops.conv2d(x, w1, b1, stride=1, pad=1).value).value
        h = ops.max_pool2d(h, 2, 2)[0].value
        h = ops.local_response_norm(h, size=3).value
        h = h.reshape(2, -1)
        wf1, bf1 = ckpt.entries["f1"]
        h = ops.relu(ops.affine(h, wf1, bf1).value).value
        wf2, bf2 = ckpt.entries["f2"]
        logits = ops.affine(h, wf2, bf2).value
        np.testing.assert_allclose(state.post["f2"], logits, rtol=1e-6)
        np.testing.assert_allclose(state.post["prob"], ops.softmax(logits), rtol=1e-5)

    def test_wrong_input_shape_rejected(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        with pytest.raises(ShapeError):
            forward(spec, ckpt, np.zeros((2, 3, 9, 9), dtype=np.float32))

    def test_float64_batch_promotes_the_pass(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(4).normal(size=(1, 3, 8, 8))
        state = forward(spec, ckpt, x.astype(np.float64))
        assert state.post["f2"].dtype == np.float64
        state32 = forward(spec, ckpt, x.astype(np.float32))
        assert state32.post["f2"].dtype == np.float32


class TestBackward:
    def test_requires_retained_state(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        x = np.zeros((1, 3, 8, 8), dtype=np.float32)
        state = forward(spec, ckpt, x)
        with pytest.raises(ShapeError, match="retain"):
            backward(spec, ckpt, state, np.zeros((1, 2), dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        # a kink-free stack (no relu, no pool), so central differences hold
        # at every parameter without argmax or rectifier flips
        spec = NetworkSpec(
            input_shape=(3, 6, 6),
            layers=(
                LayerSpec("c1", LayerKind.CONV, out_channels=3, kernel=3, pad=1,
                          relu=False, init_std=0.2),
                LayerSpec("n1", LayerKind.NORM, norm_size=3),
                LayerSpec("f1", LayerKind.FC, units=5, relu=False, init_std=0.2),
                LayerSpec("f2", LayerKind.FC, units=2, init_std=0.2),
                LayerSpec("prob", LayerKind.SOFTMAX),
            ),
        )
        ckpt = init_params(spec, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(2, 3, 6, 6)).astype(np.float64)
        labels = np.array([0, 1])

        state = forward(spec, ckpt, x, retain=True)
        loss = ops.cross_entropy_loss(state.post[spec.top_name], labels)
        (g,) = loss.pullback(1.0)
        grads = backward(spec, ckpt, state, g)

        def objective():
            s = forward(spec, ckpt, x)
            return float(ops.cross_entropy_loss(s.post[spec.top_name], labels).value)

        for name in ("c1", "f1", "f2"):
            w, b = ckpt.entries[name]
            num_w = numeric_grad(objective, w, eps=2.0**-10)
            err = np.abs(grads[name][0] - num_w) / np.maximum(1.0, np.abs(num_w))
            assert err.max() < 1e-4, f"{name} weights: {err.max()}"
            num_b = numeric_grad(objective, b, eps=2.0**-10)
            err_b = np.abs(grads[name][1] - num_b) / np.maximum(1.0, np.abs(num_b))
            assert err_b.max() < 1e-4, f"{name} bias: {err_b.max()}"

    def test_fused_relu_and_pool_wiring_matches_manual_chain(self):
        # compose the primitive pullbacks by hand and demand agreement with
        # backward(); this pins the wiring (order, flatten, fused relu) even
        # where finite differences cannot go
        spec = tiny_spec()
        ckpt = init_params(spec, seed=7)
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, size=(2, 3, 8, 8)).astype(np.float32)
        labels = np.array([0, 1])

        state = forward(spec, ckpt, x, retain=True)
        loss = ops.cross_entropy_loss(state.post[spec.top_name], labels)
        (g,) = loss.pullback(1.0)
        grads = backward(spec, ckpt, state, g)

        w1, b1 = ckpt.entries["c1"]
        conv = ops.conv2d(x, w1, b1, stride=1, pad=1)
        act1 = ops.relu(conv.value)
        pool, _ = ops.max_pool2d(act1.value, 2, 2)
        norm = ops.local_response_norm(pool.value, size=3)
        flat = norm.value.reshape(2, -1)
        wf1, bf1 = ckpt.entries["f1"]
        aff1 = ops.affine(flat, wf1, bf1)
        act2 = ops.relu(aff1.value)
        wf2, bf2 = ckpt.entries["f2"]
        aff2 = ops.affine(act2.value, wf2, bf2)
        manual_loss = ops.cross_entropy_loss(aff2.value, labels)

        (gm,) = manual_loss.pullback(1.0)
        gm, dwf2, dbf2 = aff2.pullback(gm)
        (gm,) = act2.pullback(gm)
        gm, dwf1, dbf1 = aff1.pullback(gm)
        gm = gm.reshape(norm.value.shape)
        (gm,) = norm.pullback(gm)
        (gm,) = pool.pullback(gm)
        (gm,) = act1.pullback(gm)
        _, dw1, db1 = conv.pullback(gm)

        np.testing.assert_allclose(grads["f2"][0], dwf2, rtol=1e-6)
        np.testing.assert_allclose(grads["f2"][1], dbf2, rtol=1e-6)
        np.testing.assert_allclose(grads["f1"][0], dwf1, rtol=1e-6)
        np.testing.assert_allclose(grads["f1"][1], dbf1, rtol=1e-6)
        np.testing.assert_allclose(grads["c1"][0], dw1, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(grads["c1"][1], db1, rtol=1e-5, atol=1e-7)

    def test_zero_upstream_gives_zero_gradients(self):
        spec = tiny_spec()
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(9).normal(size=(2, 3, 8, 8)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        grads = backward(spec, ckpt, state, np.zeros((2, 2), dtype=np.float32))
        for name, (dw, db) in grads.items():
            assert not dw.any(), name
            assert not db.any(), name

    def test_duplicated_sample_keeps_mean_gradient(self):
        # the loss averages over the batch, so a duplicated batch of one
        # sample must reproduce the single-sample gradient
        spec = tiny_spec()
        ckpt = init_params(spec, seed=1)
        x1 = np.random.default_rng(10).normal(size=(1, 3, 8, 8)).astype(np.float64)
        x4 = np.repeat(x1, 4, axis=0)

        def grads_for(x, labels):
            state = forward(spec, ckpt, x, retain=True)
            loss = ops.cross_entropy_loss(state.post[spec.top_name], labels)
            (g,) = loss.pullback(1.0)
            return backward(spec, ckpt, state, g)

        g1 = grads_for(x1, np.array([1]))
        g4 = grads_for(x4, np.array([1, 1, 1, 1]))
        for name in g1:
            np.testing.assert_allclose(g4[name][0], g1[name][0], rtol=1e-9, atol=1e-12)

    def test_covers_every_parameterized_layer(self):
        spec = reference_spec_small(num_classes=2)
        ckpt = init_params(spec, seed=0)
        x = np.random.default_rng(11).normal(0, 30, size=(2, 3, 64, 64)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        grads = backward(spec, ckpt, state, np.ones((2, 2), dtype=np.float32))
        assert set(grads) == {l.name for l in spec.parameterized}


def full_chain_grads(spec, state, g):
    """Every layer's full pullback, top to bottom, input gradients included."""
    grads = {}
    for layer in reversed([l for l in spec.layers if l.kind != LayerKind.SOFTMAX]):
        pair, relu_pullback, flat_shape = state.aux[layer.name]
        if relu_pullback is not None:
            (g,) = relu_pullback(g)
        if layer.has_params:
            g, dw, db = pair.pullback(g)
            grads[layer.name] = (dw, db)
            if flat_shape is not None:
                g = g.reshape(flat_shape)
        else:
            (g,) = pair.pullback(g)
    return grads


def record_pullbacks(state):
    """Replace each retained GradPair with one that logs which pullback ran."""
    calls = []

    def logged(name, kind, fn):
        def run(g):
            calls.append((name, kind))
            return fn(g)

        return None if fn is None else run

    for name, (pair, relu_pullback, flat_shape) in list(state.aux.items()):
        logged_pair = ops.GradPair(
            pair.value, logged(name, "full", pair.pullback), logged(name, "params", pair.param_pullback)
        )
        state.aux[name] = (logged_pair, relu_pullback, flat_shape)
    return calls


class TestBackwardStopsAtLowestTrainedLayer:
    FROZEN = {"conv1": 0.0, "conv2": 0.0}

    def step_state(self, spec, seed=0):
        ckpt = init_params(spec, seed=seed)
        x = np.random.default_rng(seed + 1).normal(0, 30, size=(4, 3, 64, 64)).astype(np.float32)
        state = forward(spec, ckpt, x, retain=True)
        loss = ops.cross_entropy_loss(state.post[spec.top_name], np.array([0, 1, 1, 0]))
        (g,) = loss.pullback(np.float32(1.0))
        return ckpt, state, g

    @pytest.mark.parametrize("frozen", [{}, FROZEN, {"conv1": 0.0, "conv2": 0.0, "conv3": 0.0,
                                                     "conv4": 0.0, "conv5": 0.0}])
    def test_gradients_equal_the_full_chain_bit_for_bit(self, frozen):
        spec = with_lr_mult(reference_spec_small(num_classes=2), frozen)
        ckpt, state, g = self.step_state(spec)
        grads = backward(spec, ckpt, state, g)
        want = full_chain_grads(spec, state, g)
        trained = {l.name for l in spec.parameterized if l.name not in frozen}
        assert set(grads) == trained
        for name in trained:
            assert grads[name][0].tobytes() == want[name][0].tobytes(), name
            assert grads[name][1].tobytes() == want[name][1].tobytes(), name

    def test_layers_below_get_no_pullback_call(self):
        spec = with_lr_mult(reference_spec_small(num_classes=2), self.FROZEN)
        ckpt, state, g = self.step_state(spec)
        calls = record_pullbacks(state)
        backward(spec, ckpt, state, g)
        names = [name for name, _ in calls]
        assert names == ["fc8", "fc7", "fc6", "pool5", "conv5", "conv4", "conv3"]
        assert calls[-1] == ("conv3", "params")
        assert all(kind == "full" for _, kind in calls[:-1])

    def test_bottom_layer_skips_its_input_gradient(self):
        spec = reference_spec_small(num_classes=2)
        ckpt, state, g = self.step_state(spec)
        calls = record_pullbacks(state)
        backward(spec, ckpt, state, g)
        assert calls[-1] == ("conv1", "params")
        assert [kind for _, kind in calls].count("params") == 1

    def test_pullback_without_parameter_form_still_works(self):
        # a GradPair rebuilt from value and pullback alone (as a wrapper
        # around the ops would) takes the full pullback at the bottom layer
        spec = reference_spec_small(num_classes=2)
        ckpt, state, g = self.step_state(spec)
        want = backward(spec, ckpt, state, g)
        for name, (pair, relu_pullback, flat_shape) in list(state.aux.items()):
            state.aux[name] = (ops.GradPair(pair.value, pair.pullback), relu_pullback, flat_shape)
        got = backward(spec, ckpt, state, g)
        for name in want:
            assert got[name][0].tobytes() == want[name][0].tobytes(), name

    def test_nothing_trained_gives_no_gradients(self):
        spec = reference_spec_small(num_classes=2)
        spec = with_lr_mult(spec, {l.name: 0.0 for l in spec.parameterized})
        ckpt, state, g = self.step_state(spec)
        calls = record_pullbacks(state)
        assert backward(spec, ckpt, state, g) == {}
        assert calls == []

    def test_frozen_lower_layers_stay_byte_identical_through_train(self):
        spec = with_lr_mult(reference_spec_small(num_classes=2), self.FROZEN)
        ckpt = init_params(spec, seed=3)

        x = np.random.default_rng(4).normal(0, 30, size=(8, 3, 64, 64)).astype(np.float32)
        y = np.arange(8) % 2

        class Source:
            n = 8

            def train_batch(self, idx, rng):
                return x[idx], y[idx]

        out, _ = train(spec, ckpt, Source(), TrainConfig(base_lr=0.01, epochs=2, batch_size=4))
        for name in self.FROZEN:
            for got, before in zip(out.entries[name], ckpt.entries[name]):
                assert got.tobytes() == before.tobytes(), name
        assert out.entries["conv3"][0].tobytes() != ckpt.entries["conv3"][0].tobytes()


class TestForwardOnlyPooling:
    def count_argmax_builds(self, monkeypatch):
        calls = []
        inner = ops._pool_argmax
        monkeypatch.setattr(ops, "_pool_argmax", lambda *args: calls.append(1) or inner(*args))
        return calls

    def test_inference_pass_builds_no_argmax(self, monkeypatch):
        calls = self.count_argmax_builds(monkeypatch)
        spec = reference_spec_small(num_classes=2)
        x = np.random.default_rng(0).normal(0, 30, size=(4, 3, 64, 64)).astype(np.float32)
        forward(spec, init_params(spec, seed=0), x)
        assert calls == []

    def test_backward_builds_one_argmax_per_pool_it_crosses(self, monkeypatch):
        calls = self.count_argmax_builds(monkeypatch)
        spec = with_lr_mult(reference_spec_small(num_classes=2), {"conv1": 0.0, "conv2": 0.0})
        ckpt, state, g = TestBackwardStopsAtLowestTrainedLayer().step_state(spec)
        assert calls == []
        backward(spec, ckpt, state, g)
        assert len(calls) == 1  # pool5; pool1 and pool2 lie below conv3


class TestLrMultOverride:
    def test_override_applies_and_validates(self):
        spec = reference_spec_small(num_classes=2)
        out = with_lr_mult(spec, {"conv1": 0.0, "fc8": 10.0})
        assert out.layer("conv1").lr_mult == 0.0
        assert out.layer("fc8").lr_mult == 10.0
        assert out.layer("conv2").lr_mult == 1.0
        with pytest.raises(ShapeError):
            with_lr_mult(spec, {"missing": 1.0})
