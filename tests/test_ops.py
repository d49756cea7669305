"""Unit tests for the differentiable array primitives."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentnet import ops
from sentnet.errors import ShapeError
from sentnet.network import LayerKind, infer_shapes, reference_spec, reference_spec_small

from oracles import (
    conv2d_loops,
    conv2d_patches,
    conv2d_whole_batch,
    grad_check,
    lrn_channel_loops,
    lrn_direct,
    matmul_loops,
    max_pool_add_at,
    max_pool_eager,
    max_pool_loops,
    traced_current,
    traced_peak,
)


def rand(shape, seed, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(np.float32)


class TestConv2d:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for case, (stride, pad) in enumerate([(1, 0), (1, 1), (2, 0), (2, 1)]):
            x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
            w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
            b = rng.standard_normal(4).astype(np.float32)
            got = ops.conv2d(x, w, b, stride=stride, pad=pad).value
            want = conv2d_loops(x, w, b, stride=stride, pad=pad)
            assert got.shape == want.shape, f"case {case}"
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_patch_oracle_agrees_with_loop_oracle(self):
        # the two independent routes must agree with each other too
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        np.testing.assert_allclose(
            conv2d_patches(x, w, b, stride=1, pad=1),
            conv2d_loops(x, w, b, stride=1, pad=1),
            rtol=1e-12,
        )

    def test_identity_kernel(self):
        x = rand((1, 1, 4, 4), seed=1)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = ops.conv2d(x, w, b).value
        np.testing.assert_array_equal(out, x)

    def test_zero_weights_give_bias(self):
        x = rand((2, 3, 5, 5), seed=2)
        w = np.zeros((2, 3, 3, 3), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out = ops.conv2d(x, w, b).value
        assert np.all(out[:, 0] == 1.5)
        assert np.all(out[:, 1] == -2.0)

    def test_output_dtype_follows_input(self):
        x64 = np.zeros((1, 1, 3, 3), dtype=np.float64)
        w64 = np.zeros((1, 1, 3, 3), dtype=np.float64)
        assert ops.conv2d(x64, w64, np.zeros(1)).value.dtype == np.float64
        x32 = x64.astype(np.float32)
        w32 = w64.astype(np.float32)
        assert ops.conv2d(x32, w32, np.zeros(1, dtype=np.float32)).value.dtype == np.float32

    def test_channel_mismatch_rejected(self):
        x = rand((1, 3, 5, 5), seed=0)
        w = rand((2, 4, 3, 3), seed=1)
        with pytest.raises(ShapeError, match="channels"):
            ops.conv2d(x, w, np.zeros(2, dtype=np.float32))

    def test_stride_must_tile_exactly(self):
        x = rand((1, 1, 6, 6), seed=0)
        w = rand((1, 1, 3, 3), seed=1)
        with pytest.raises(ShapeError, match="stride"):
            ops.conv2d(x, w, np.zeros(1, dtype=np.float32), stride=2)

    def test_kernel_larger_than_input_rejected(self):
        x = rand((1, 1, 2, 2), seed=0)
        w = rand((1, 1, 3, 3), seed=1)
        with pytest.raises(ShapeError, match="exceeds"):
            ops.conv2d(x, w, np.zeros(1, dtype=np.float32))

    def test_pullback_shapes(self):
        x = rand((2, 3, 7, 7), seed=4)
        w = rand((5, 3, 3, 3), seed=5)
        b = rand((5,), seed=6)
        pair = ops.conv2d(x, w, b, stride=2, pad=0)
        dx, dw, db = pair.pullback(np.ones_like(pair.value))
        assert dx.shape == x.shape
        assert dw.shape == w.shape
        assert db.shape == b.shape

    def test_bias_gradient_counts_positions(self):
        # db is the plain sum of the upstream gradient over batch and space
        x = rand((2, 1, 4, 4), seed=7)
        w = rand((3, 1, 3, 3), seed=8)
        pair = ops.conv2d(x, w, np.zeros(3, dtype=np.float32))
        g = np.ones_like(pair.value)
        _, _, db = pair.pullback(g)
        np.testing.assert_allclose(db, np.full(3, 2 * 2 * 2))


def check_param_pullback(pair, g, want_dx, want_dw, want_db):
    """pair.param_pullback(g, block, with_dx) gives the bytes of want's dx
    (None without with_dx), db, and dw's rows block by block from row 0, with
    and without dx, at block=None and at an odd block size. Returns the
    number of blocks each call gave."""
    counts = []
    for with_dx in (True, False):
        for block in (None, 3):
            dx, db, blocks = pair.param_pullback(g, block, with_dx)
            assert dx.tobytes() == want_dx.tobytes() if with_dx else dx is None
            assert db.tobytes() == want_db.tobytes()
            rows = count = 0
            for start, dw in blocks:
                assert start == rows and dw.tobytes() == want_dw[start : start + len(dw)].tobytes()
                rows, count = rows + len(dw), count + 1
            assert rows == len(want_dw)
            counts.append(count)
    return counts


def check_conv_against_whole_batch_oracle(x, w, b, stride, pad, seed=0):
    """conv2d's value, pullback and param_pullback equal conv2d_whole_batch's
    bytes; its dw is one block at any block size."""
    pair = ops.conv2d(x, w, b, stride=stride, pad=pad)
    want, want_pullback, want_param_pullback = conv2d_whole_batch(x, w, b, stride=stride, pad=pad)
    assert pair.value.dtype == want.dtype
    assert pair.value.tobytes() == want.tobytes()
    g = upstream(want.shape, want.dtype, seed)
    for got_grad, want_grad in zip(pair.pullback(g), want_pullback(g), strict=True):
        assert got_grad.shape == want_grad.shape and got_grad.tobytes() == want_grad.tobytes()
    assert check_param_pullback(pair, g, want_pullback(g)[0], *want_param_pullback(g)) == [1] * 4


def conv_inputs(n, c, k, pad, stride, kernel, dtype, seed):
    """x, w, b for a conv whose output is 5 positions high and 4 wide."""
    h = kernel + 4 * stride - 2 * pad
    wd = kernel + 3 * stride - 2 * pad
    x = bit_test_input("normal", (n, c, h, wd), dtype, seed)
    w = bit_test_input("normal", (k, c, kernel, kernel), dtype, seed + 1)
    b = bit_test_input("normal", (k,), dtype, seed + 2)
    return x, w, b


def check_against_whole_batch_oracle(pad, stride, kernel, dtype):
    """check_conv_against_whole_batch_oracle on a few batch and channel sizes."""
    for n, (c, k) in [(1, (3, 5)), (2, (4, 2)), (7, (2, 3))]:
        seed = 10 * n + c
        x, w, b = conv_inputs(n, c, k, pad, stride, kernel, dtype, seed)
        check_conv_against_whole_batch_oracle(x, w, b, stride, pad, seed + 3)


class TestStreamedIm2col:
    """conv2d walks the batch in runs of consecutive examples, each run's
    patch matrices built afresh, and must give the bytes of the whole-batch
    formulation it grew from: value, pullback and param_pullback. A run is
    as many examples as fit IM2COL_BUDGET, and at least one (the batch
    streams when one example's matrix exceeds half the budget)."""

    @staticmethod
    def budget(kind: str, example_bytes: int) -> int:
        """The budget of a named case: runs of one, one run, or a byte short
        of one example's matrix (an example with no rows counts as 1 byte)."""
        return {"runs-of-one": 0, "one-run": 1 << 62, "example-size": max(example_bytes, 1) - 1}[kind]

    @pytest.mark.parametrize("budget", [0, 1 << 62])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride,kernel", [(1, 3), (3, 3), (4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_whole_batch_oracle(self, monkeypatch, budget, pad, stride, kernel, dtype):
        monkeypatch.setattr(ops, "IM2COL_BUDGET", budget)
        check_against_whole_batch_oracle(pad, stride, kernel, dtype)

    @pytest.mark.parametrize("pad", [0, 2])
    @pytest.mark.parametrize("stride,kernel", [(1, 3), (4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_example_size_alone_streams_to_the_same_bytes(self, monkeypatch, pad, stride, kernel, dtype):
        """A budget a byte short of each batch's one-example matrix."""
        for n, (c, k) in [(1, (3, 5)), (2, (4, 2)), (7, (2, 3))]:
            seed = 10 * n + c
            x, w, b = conv_inputs(n, c, k, pad, stride, kernel, dtype, seed)
            monkeypatch.setattr(ops, "IM2COL_BUDGET", self.budget("example-size", c * kernel**2 * 5 * 4 * x.itemsize))
            check_conv_against_whole_batch_oracle(x, w, b, stride, pad, seed + 3)

    @pytest.mark.parametrize("budget,streams", [(0, True), (1 << 62, False)])
    def test_streamed_forward_never_holds_the_batch_patch_matrix(self, monkeypatch, budget, streams):
        monkeypatch.setattr(ops, "IM2COL_BUDGET", budget)
        x = rand((8, 16, 20, 20), seed=1)
        w = rand((4, 16, 5, 5), seed=2)
        b = rand((4,), seed=3)
        batch_cols_bytes = 8 * (16 * 5 * 5) * (20 * 20) * 4
        peak, pair = traced_peak(lambda: ops.conv2d(x, w, b, stride=1, pad=2))
        assert pair.value.shape == (8, 4, 20, 20)
        if streams:
            assert peak < batch_cols_bytes / 4
        else:
            assert peak >= batch_cols_bytes

    @pytest.mark.parametrize("budget", [0, 1 << 62], ids=["streamed", "whole-batch"])
    def test_pair_holds_no_patch_matrix(self, monkeypatch, budget):
        """conv1 of the small network at training batch 32, in runs of one
        example and in one run of the whole batch: past the forward its pair
        keeps its input and its output, not the 7.18 MiB of patch matrices,
        which the pullback rebuilds."""
        monkeypatch.setattr(ops, "IM2COL_BUDGET", budget)
        spec = reference_spec_small(2)
        conv1 = spec.layer("conv1")
        n, c = 32, spec.input_shape[0]
        _, oh, ow = infer_shapes(spec)["conv1"]
        x = rand((n, *spec.input_shape), seed=1)
        w, b = rand((conv1.out_channels, c, conv1.kernel, conv1.kernel), seed=2), rand((conv1.out_channels,), seed=3)
        held, _pair = traced_current(lambda: ops.conv2d(x, w, b, stride=conv1.stride, pad=conv1.pad))
        batch_cols_bytes = n * c * conv1.kernel**2 * oh * ow * 4
        assert held < batch_cols_bytes / 4

    @pytest.mark.parametrize("examples,extra,streams", [(2, -1, True), (8, 0, False)], ids=["streams", "whole-batch"])
    def test_one_example_matrix_of_the_threshold_streams(self, monkeypatch, examples, extra, streams):
        """The budget at its edges: a byte short of two examples' matrices
        runs one example at a time, and exactly the batch's 8 runs it whole."""
        example_bytes = (16 * 5 * 5) * (20 * 20) * 4
        monkeypatch.setattr(ops, "IM2COL_BUDGET", examples * example_bytes + extra)
        x, w, b = rand((8, 16, 20, 20), seed=1), rand((4, 16, 5, 5), seed=2), rand((4,), seed=3)
        peak, _ = traced_peak(lambda: ops.conv2d(x, w, b, stride=1, pad=2))
        assert (peak < 2 * example_bytes) if streams else (peak >= 8 * example_bytes)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride,kernel", [(1, 3), (3, 3), (4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_runs_of_m_examples_match_the_whole_batch_oracle(self, monkeypatch, m, pad, stride, kernel, dtype):
        """A batch of 7 in runs of m, IM2COL_BUDGET fitting exactly m
        examples' matrices: runs of 2 and 3 end in a shorter tail run."""
        n, c, k = 7, 2, 3
        x, w, b = conv_inputs(n, c, k, pad, stride, kernel, dtype, seed=m)
        example_bytes = c * kernel**2 * 5 * 4 * x.itemsize
        monkeypatch.setattr(ops, "IM2COL_BUDGET", m * example_bytes)
        lengths, col2im_add = [], ops._col2im_add

        def run_col2im_add(dxp, *args):
            lengths.append(len(dxp))
            return col2im_add(dxp, *args)

        monkeypatch.setattr(ops, "_col2im_add", run_col2im_add)
        check_conv_against_whole_batch_oracle(x, w, b, stride, pad, seed=m + 3)
        runs = [m] * (n // m) + [n % m] * (n % m > 0)
        assert lengths == runs * 3  # the pullback and the two param_pullbacks with dx

    @pytest.mark.parametrize("m", [1, 3, 7])
    @pytest.mark.parametrize("x_dtype,w_dtype", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_mixed_dtypes_match_the_whole_batch_oracle(self, monkeypatch, m, x_dtype, w_dtype):
        """Input and kernels of different float dtypes: the GEMMs run in the
        wider one, on patch matrices kept in the input's."""
        x, w, b = conv_inputs(7, 2, 3, 1, 1, 3, x_dtype, seed=m)
        monkeypatch.setattr(ops, "IM2COL_BUDGET", m * 2 * 9 * 20 * x.itemsize)
        check_conv_against_whole_batch_oracle(x, w.astype(w_dtype), b.astype(w_dtype), 1, 1, seed=m + 3)

    @pytest.mark.parametrize("budget", ["runs-of-one", "one-run", "example-size"])
    def test_empty_batch_gives_zero_parameter_gradients(self, monkeypatch, budget):
        monkeypatch.setattr(ops, "IM2COL_BUDGET", self.budget(budget, 4 * 3**2 * 5 * 4 * 4))
        for pad in (0, 1):
            x, w, b = conv_inputs(0, 4, 3, pad, 1, 3, np.float32, seed=5)
            check_conv_against_whole_batch_oracle(x, w, b, 1, pad)
            dx, dw, db = ops.conv2d(x, w, b, stride=1, pad=pad).pullback(np.zeros((0, 3, 5, 4), np.float32))
            assert dx.shape == x.shape and not dw.any() and not db.any()

    @pytest.mark.parametrize("budget", ["runs-of-one", "one-run", "example-size"])
    def test_zero_input_channels(self, monkeypatch, budget):
        """No ZeroDivisionError from an example whose patch matrix has no rows:
        the output is the bias and dw is empty."""
        monkeypatch.setattr(ops, "IM2COL_BUDGET", self.budget(budget, 0))
        for pad in (0, 1):
            x, w, b = conv_inputs(3, 0, 2, pad, 1, 3, np.float32, seed=6)
            check_conv_against_whole_batch_oracle(x, w, b, 1, pad)
            pair = ops.conv2d(x, w, b, stride=1, pad=pad)
            assert (pair.value == b[None, :, None, None]).all() and pair.pullback(pair.value)[1].shape == w.shape

    def test_pad_zero_reads_its_input_in_place(self):
        """conv1 of the small network (pad 0) at training batch 32: the
        forward peaks at its patch matrices and its output, with no padded
        copy of its input (1.5 MiB) beside them."""
        spec = reference_spec_small(2)
        conv1 = spec.layer("conv1")
        assert conv1.pad == 0
        n, c = 32, spec.input_shape[0]
        _, oh, ow = infer_shapes(spec)["conv1"]
        x = rand((n, *spec.input_shape), seed=1)
        w, b = rand((conv1.out_channels, c, conv1.kernel, conv1.kernel), seed=2), rand((conv1.out_channels,), seed=3)
        peak, pair = traced_peak(lambda: ops.conv2d(x, w, b, stride=conv1.stride, pad=conv1.pad))
        matrices_and_output = (n * c * conv1.kernel**2 * oh * ow + pair.value.size) * 4
        assert peak < matrices_and_output + x.nbytes / 2

    def test_every_reference_layer_streams_and_no_small_one_does(self):
        """At training batch 32 every full-size conv runs one example at a
        time, and every small one runs more than one and at most the budget's
        bytes of matrices: the run lengths the README states."""
        for spec, streams in ((reference_spec(2), True), (reference_spec_small(2), False)):
            shapes = infer_shapes(spec)
            below = spec.input_shape
            lengths = []
            for layer in spec.layers:
                if layer.kind == LayerKind.CONV:
                    _, oh, ow = shapes[layer.name]
                    example_bytes = below[0] * layer.kernel**2 * oh * ow * 4
                    m = max(1, min(32, ops.IM2COL_BUDGET // example_bytes))
                    assert (m == 1) if streams else (1 < m and m * example_bytes <= ops.IM2COL_BUDGET), layer.name
                    lengths.append(m)
                below = shapes[layer.name]
            assert lengths == ([1] * 5 if streams else [4, 8, 32, 24, 24])

    def test_reference_conv2_pullback_holds_one_example_at_a_time(self):
        """conv2 of the full-size network at training batch 32: the pullback
        allocates neither the batch's patch matrix (224 MB), nor the
        [n, k, rows] stack of per-example dw (79 MB), nor the batch's patch
        gradients (224 MB)."""
        n, c, k, side = 32, 96, 256, 27
        x, w, b = rand((n, c, side, side), seed=1), rand((k, c, 5, 5), seed=2), rand((k,), seed=3)
        pair = ops.conv2d(x, w, b, stride=1, pad=2)
        g = np.ones_like(pair.value)
        peak, (dx, dw, db) = traced_peak(lambda: pair.pullback(g))
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        stack_bytes = n * k * c * 25 * 4  # the smallest of the three
        assert peak < stack_bytes / 2  # 26 MB: dx, one example's matrices and patch gradients, dw, one term


class TestMaxPool2d:
    def test_known_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        pair, arg = ops.max_pool2d(x, size=2, stride=2)
        np.testing.assert_array_equal(pair.value[0, 0], [[5, 7], [13, 15]])
        np.testing.assert_array_equal(arg()[0, 0], [[3, 3], [3, 3]])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(9)
        for size, stride in [(2, 2), (3, 2), (3, 1), (2, 1)]:
            x = rng.standard_normal((2, 3, 7, 7)).astype(np.float32)
            pair, arg = ops.max_pool2d(x, size=size, stride=stride)
            want, want_arg = max_pool_loops(x, size, stride)
            np.testing.assert_allclose(pair.value, want, rtol=1e-6)
            np.testing.assert_array_equal(arg(), want_arg)

    def test_tie_takes_first_in_scan_order(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        pair, arg = ops.max_pool2d(x, size=2, stride=2)
        assert arg()[0, 0, 0, 0] == 0
        (dx,) = pair.pullback(np.ones_like(pair.value))
        np.testing.assert_array_equal(dx[0, 0], [[1, 0], [0, 0]])

    def test_pullback_routes_to_argmax_only(self):
        x = np.array([[[[1, 9], [3, 2]]]], dtype=np.float32)
        pair, _ = ops.max_pool2d(x, size=2, stride=2)
        (dx,) = pair.pullback(np.full_like(pair.value, 5.0))
        np.testing.assert_array_equal(dx[0, 0], [[0, 5], [0, 0]])

    def test_overlapping_windows_accumulate(self):
        # with stride < size one input cell can win several windows
        x = np.array([[[[0, 0, 0], [0, 7, 0], [0, 0, 0]]]], dtype=np.float32)
        pair, _ = ops.max_pool2d(x, size=2, stride=1)
        (dx,) = pair.pullback(np.ones_like(pair.value))
        assert dx[0, 0, 1, 1] == 4.0
        assert dx.sum() == 4.0

    def test_floor_division_output_size(self):
        x = rand((1, 1, 7, 7), seed=0)
        pair, _ = ops.max_pool2d(x, size=3, stride=2)
        assert pair.value.shape == (1, 1, 3, 3)

    def test_window_too_large_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            ops.max_pool2d(rand((1, 1, 2, 2), seed=0), size=3, stride=1)


class TestLocalResponseNorm:
    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(10)
        for c in (1, 2, 5, 8):
            x = rng.standard_normal((2, c, 3, 3)).astype(np.float32) * 3
            got = ops.local_response_norm(x).value
            want = lrn_direct(x)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_zero_input_maps_to_zero(self):
        x = np.zeros((1, 5, 2, 2), dtype=np.float32)
        np.testing.assert_array_equal(ops.local_response_norm(x).value, x)

    def test_single_channel_formula(self):
        # size 1, k 1, alpha 1, beta 1: b = a / (1 + a^2)
        x = np.array([[[[2.0]]]], dtype=np.float64)
        out = ops.local_response_norm(x, size=1, k=1.0, alpha=1.0, beta=1.0).value
        np.testing.assert_allclose(out, 2.0 / 5.0, rtol=1e-12)

    def test_window_clipping_at_boundaries(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 3, 1, 1)).astype(np.float64)
        out = ops.local_response_norm(x, size=5, k=2.0, alpha=0.5, beta=0.75).value
        total = (x**2).sum()
        for ch in range(3):
            want = x[0, ch, 0, 0] / (2.0 + 0.1 * total) ** 0.75
            np.testing.assert_allclose(out[0, ch, 0, 0], want, rtol=1e-12)

    def test_magnitude_never_amplified(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 6, 4, 4)).astype(np.float32) * 10
        out = ops.local_response_norm(x).value
        limit = np.abs(x) / 2.0**0.75 + 1e-6
        assert np.all(np.abs(out) <= limit)


def bit_test_input(kind, shape, dtype, seed):
    """Inputs where a reordered sum or a different tie rule would show."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(-2, 3, size=shape).astype(dtype)
    if kind == "relu":
        return np.maximum(rng.standard_normal(shape), 0).astype(dtype)
    if kind == "signed-zeros":
        return rng.choice(np.array([-0.0, 0.0, -0.0, 1.0, -1.0]), size=shape).astype(dtype)
    return (rng.standard_normal(shape) * 3).astype(dtype)


def upstream(shape, dtype, seed):
    g = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    g.reshape(-1)[::7] = -0.0
    return g


INPUT_KINDS = ("ties", "relu", "signed-zeros", "normal")


class TestBitExactAgainstAddAtAndChannelLoops:
    """The strided-slice pooling and offset-loop LRN against the formulations
    they replaced, byte for byte: value, argmax and pullback."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 2), (3, 3), (2, 1)])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_max_pool2d(self, kind, size, stride, dtype):
        for seed, shape in enumerate([(2, 3, 7, 7), (3, 2, 8, 9), (1, 4, 6, 5)]):
            x = bit_test_input(kind, shape, dtype, seed)
            pair, arg = ops.max_pool2d(x, size=size, stride=stride)
            want, want_arg, want_pullback = max_pool_add_at(x, size, stride)
            assert pair.value.dtype == want.dtype and arg().dtype == want_arg.dtype
            assert pair.value.tobytes() == want.tobytes()
            assert arg().tobytes() == want_arg.tobytes()
            g = upstream(want.shape, dtype, seed + 100)
            (dx,) = pair.pullback(g)
            assert dx.tobytes() == want_pullback(g).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_local_response_norm(self, kind, size, dtype):
        # channel counts below, at and above the window
        for c in (1, 2, 3, 5, 7):
            for shape in [(2, c, 3, 4), (3, c, 1, 1)]:
                x = bit_test_input(kind, shape, dtype, c)
                pair = ops.local_response_norm(x, size=size, alpha=0.5)
                want, want_pullback = lrn_channel_loops(x, size=size, alpha=0.5)
                assert pair.value.tobytes() == want.tobytes()
                g = upstream(shape, dtype, c + 100)
                (dx,) = pair.pullback(g)
                assert dx.tobytes() == want_pullback(g).tobytes()


@pytest.fixture
def argmax_calls(monkeypatch):
    """Count the pooling argmax builds made while a test runs."""
    calls = []
    inner = ops._pool_argmax

    def counting(*args):
        calls.append(args[0].shape)
        return inner(*args)

    monkeypatch.setattr(ops, "_pool_argmax", counting)
    return calls


class TestLazyPoolArgmax:
    """The pooling whose argmax is built on demand against the eager one it
    replaced, byte for byte, in either order of pullback and argmax call."""

    @pytest.mark.parametrize("pullback_first", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size,stride", [(2, 2), (3, 2), (3, 3), (2, 1)])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_matches_eager_pooling(self, kind, size, stride, dtype, pullback_first):
        for seed, shape in enumerate([(2, 3, 7, 7), (3, 2, 8, 9), (1, 4, 6, 5)]):
            x = bit_test_input(kind, shape, dtype, seed)
            pair, arg = ops.max_pool2d(x, size=size, stride=stride)
            want, want_arg, want_pullback = max_pool_eager(x, size, stride)
            assert pair.value.dtype == want.dtype
            assert pair.value.tobytes() == want.tobytes()
            g = upstream(want.shape, dtype, seed + 100)
            if pullback_first:
                (dx,) = pair.pullback(g)
                got_arg = arg()
            else:
                got_arg = arg()
                (dx,) = pair.pullback(g)
            assert got_arg.dtype == want_arg.dtype == np.intp
            assert got_arg.tobytes() == want_arg.tobytes()
            assert dx.tobytes() == want_pullback(g).tobytes()

    def test_forward_builds_no_argmax_without_negative_zero(self, argmax_calls):
        x = bit_test_input("ties", (2, 3, 7, 7), np.float32, 0)
        x[x == 0] = 0.0  # +0 only
        pair, arg = ops.max_pool2d(x, size=3, stride=2)
        assert argmax_calls == []
        pair.pullback(np.ones_like(pair.value))
        pair.pullback(np.ones_like(pair.value))
        arg()
        assert len(argmax_calls) == 1  # built once, on the first pullback

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_negative_zero_builds_the_argmax_in_the_forward(self, argmax_calls, dtype):
        x = np.zeros((1, 1, 2, 2), dtype=dtype)
        x[0, 0, 0, 0] = -0.0
        pair, arg = ops.max_pool2d(x, size=2, stride=2)
        assert len(argmax_calls) == 1
        assert np.signbit(pair.value[0, 0, 0, 0])  # the first zero in scan order
        arg()
        pair.pullback(np.ones_like(pair.value))
        assert len(argmax_calls) == 1

    def test_relu_pullback_bits(self):
        for kind in INPUT_KINDS:
            x = bit_test_input(kind, (2, 3, 5, 5), np.float32, 1)
            g = upstream(x.shape, np.float32, 2)
            (dx,) = ops.relu(x).pullback(g)
            assert dx.tobytes() == (g * (x > 0)).tobytes()


class TestAffine:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 6)).astype(np.float32)
        w = rng.standard_normal((6, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        np.testing.assert_allclose(ops.affine(x, w, b).value, matmul_loops(x, w, b), rtol=1e-5)

    def test_pullback_formulas(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 2))
        b = rng.standard_normal(2)
        pair = ops.affine(x, w, b)
        g = rng.standard_normal(pair.value.shape)
        dx, dw, db = pair.pullback(g)
        np.testing.assert_allclose(dx, g @ w.T, rtol=1e-12)
        np.testing.assert_allclose(dw, x.T @ g, rtol=1e-12)
        np.testing.assert_allclose(db, g.sum(axis=0), rtol=1e-12)
        assert check_param_pullback(pair, g, dx, dw, db) == [1, 2, 1, 2]  # 5 rows, blocks of 3

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="width"):
            ops.affine(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))

    @pytest.mark.parametrize("block", [1, 0, -3])
    def test_param_pullback_rejects_blocks_below_two_rows(self, block):
        """A one-row block would run as a GEMV, whose bits differ from the whole GEMM's."""
        pair = ops.affine(np.ones((2, 3)), np.ones((3, 2)), np.zeros(2))
        for with_dx in (True, False):
            with pytest.raises(ValueError, match="at least 2 rows"):
                pair.param_pullback(np.ones((2, 2)), block, with_dx)
        assert len(list(pair.param_pullback(np.ones((2, 2)), 2, False)[2])) == 1  # 3 rows: the tail row joins


ROW_BLOCK_PROGRAM = """
import json
import numpy as np
from sentnet import ops
from sentnet.optim import FC_BLOCK

# (rows, units): reference fc6, fc7, fc8 (1000-way and 2-way); small fc6/fc7, fc8
WIDTHS = [(9216, 4096), (4096, 4096), (4096, 1000), (4096, 2), (128, 128), (128, 2)]
mismatches = []
for d, m in WIDTHS:
    w = np.zeros((d, m), dtype=np.float32)  # the weight gradient reads no weight
    for n in (1, 6, 8, 32, 60):
        rng = np.random.default_rng([d, m, n])
        x = rng.standard_normal((n, d), dtype=np.float32)
        pair = ops.affine(x, w, np.zeros(m, dtype=np.float32))
        g = rng.standard_normal((n, m), dtype=np.float32)
        whole = x.T @ g
        # None: one whole block; 97 leaves fc6's 9216 rows a one-row tail
        for block in (None, 97, *sorted({256, 1000, FC_BLOCK})):
            with_dx = block is None  # with and without dx
            dx, _, blocks = pair.param_pullback(g, block, with_dx)
            if any(rows.tobytes() != whole[start : start + len(rows)].tobytes() for start, rows in blocks):
                mismatches.append([d, m, n, block])
            if (dx is None) == with_dx:
                mismatches.append([d, m, n, block, "dx"])
print(json.dumps(mismatches))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_fc_weight_gradient_row_blocks_equal_the_whole_gemm(threads):
    """Training updates FC weights one row block of x.T @ g at a time, so its
    bytes rest on the BLAS giving each block's rows the bits of the whole
    GEMM. That is a property of the BLAS build, not of numpy, so it is
    pinned here at both thread counts, on every FC shape the presets train.
    It fails for a one-row block, which numpy runs as a GEMV, so a one-row
    tail joins the block before it."""
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", ROW_BLOCK_PROGRAM], env=env, check=True,
                          capture_output=True, text=True, timeout=600)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


STREAMED_CONV_PROGRAM = """
import json
import numpy as np
from sentnet import ops
from oracles import conv2d_whole_batch

# (batch, input [C, H, W], kernels, kernel, stride, pad): the reference conv1 and conv2
SHAPES = [(6, (3, 227, 227), 96, 11, 4, 0), (6, (96, 27, 27), 256, 5, 1, 2)]
mismatches = []
for n, chw, k, kernel, stride, pad in SHAPES:
    rng = np.random.default_rng([n, k])
    x = rng.standard_normal((n, *chw), dtype=np.float32)
    w = rng.standard_normal((k, chw[0], kernel, kernel), dtype=np.float32)
    b = rng.standard_normal(k, dtype=np.float32)
    pair = ops.conv2d(x, w, b, stride=stride, pad=pad)
    want, want_pullback, want_param_pullback = conv2d_whole_batch(x, w, b, stride=stride, pad=pad)
    g = rng.standard_normal(want.shape, dtype=np.float32)
    want_dx, want_dw, want_db = want_pullback(g)
    got, expected = [pair.value, *pair.pullback(g)], [want, want_dx, want_dw, want_db]
    for with_dx, block in ((True, None), (False, 5)):  # with and without dx; conv's dw is one block
        dx, db, ((start, dw),) = pair.param_pullback(g, block, with_dx)
        got += [dw, db, *([dx] if with_dx else [])]
        expected += [*want_param_pullback(g), *([want_dx] if with_dx else [])]
        if start or (dx is None) == with_dx:
            mismatches.append([k, "form", with_dx])
    for i, (a, e) in enumerate(zip(got, expected, strict=True)):
        if a.tobytes() != e.tobytes():
            mismatches.append([k, i])
print(json.dumps(mismatches))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_conv_gradients_equal_the_whole_batch_gemms(threads):
    """A reference-sized conv runs one example at a time: its dw adds one
    GEMM per example and its dx is built per example. Their bytes rest on the BLAS giving each
    per-example GEMM the bits of the batched call, a property of the BLAS
    build, so it is pinned here at both thread counts on the reference conv1
    and conv2 (value, pullback and param_pullback)."""
    here = Path(__file__).resolve().parent
    src = str(Path(ops.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, str(here), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", STREAMED_CONV_PROGRAM], env=env, check=True,
                          capture_output=True, text=True, timeout=600)
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []


class TestRelu:
    def test_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(ops.relu(x).value, [0, 0, 0, 0.5, 2.0])

    def test_subgradient_at_zero_is_zero(self):
        pair = ops.relu(np.array([0.0], dtype=np.float32))
        (dx,) = pair.pullback(np.array([3.0], dtype=np.float32))
        assert dx[0] == 0.0

    def test_gradient_masks_negatives(self):
        x = np.array([-1.0, 2.0], dtype=np.float32)
        (dx,) = ops.relu(x).pullback(np.array([5.0, 5.0], dtype=np.float32))
        np.testing.assert_array_equal(dx, [0.0, 5.0])


class TestSoftmax:
    def test_frozen_values(self):
        out = ops.softmax(np.array([[1.0, 2.0, 3.0]], dtype=np.float64))
        want = [0.09003057317038046, 0.24472847105479767, 0.6652409557748219]
        np.testing.assert_allclose(out[0], want, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(15)
        out = ops.softmax(rng.standard_normal((8, 5)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(8), rtol=1e-12)

    def test_large_logits_stay_finite(self):
        out = ops.softmax(np.array([[1000.0, 1001.0]], dtype=np.float32))
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        st.floats(-50, 50),
    )
    def test_shift_invariance(self, row, shift):
        logits = np.array([row], dtype=np.float64)
        np.testing.assert_allclose(
            ops.softmax(logits + shift), ops.softmax(logits), rtol=1e-9, atol=1e-12
        )


class TestCrossEntropy:
    def test_uniform_two_class_is_log_two(self):
        logits = np.zeros((4, 2), dtype=np.float64)
        labels = np.array([0, 1, 0, 1])
        pair = ops.cross_entropy_loss(logits, labels)
        np.testing.assert_allclose(float(pair.value), 0.6931471805599453, rtol=1e-12)

    def test_pullback_is_softmax_minus_onehot_over_n(self):
        rng = np.random.default_rng(16)
        logits = rng.standard_normal((5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        pair = ops.cross_entropy_loss(logits, labels)
        (dl,) = pair.pullback(1.0)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), labels] = 1
        np.testing.assert_allclose(dl, (ops.softmax(logits) - onehot) / 5, rtol=1e-12)

    def test_upstream_scaling(self):
        logits = np.random.default_rng(17).standard_normal((3, 4))
        labels = np.array([1, 2, 0])
        pair = ops.cross_entropy_loss(logits, labels)
        (d1,) = pair.pullback(1.0)
        (d2,) = pair.pullback(2.0)
        np.testing.assert_allclose(d2, 2 * d1, rtol=1e-12)

    def test_confident_correct_prediction_near_zero(self):
        logits = np.array([[20.0, 0.0], [0.0, 20.0]], dtype=np.float64)
        pair = ops.cross_entropy_loss(logits, np.array([0, 1]))
        assert float(pair.value) < 1e-8

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError, match="labels"):
            ops.cross_entropy_loss(np.zeros((2, 2)), np.array([0, 2]))

    def test_float_labels_rejected(self):
        with pytest.raises(ShapeError, match="integers"):
            ops.cross_entropy_loss(np.zeros((2, 2)), np.array([0.0, 1.0]))


class TestHingeLoss:
    def test_hand_computed_margins(self):
        scores = np.array([2.0, 0.5, -3.0], dtype=np.float64)
        labels = np.array([1, 1, -1])
        # margins: 1-2 = -1 (inactive), 1-0.5 = 0.5, 1-3 = -2 (inactive)
        pair = ops.hinge_loss(scores, labels)
        np.testing.assert_allclose(float(pair.value), 0.5 / 3, rtol=1e-12)

    def test_regularization_term(self):
        scores = np.array([5.0], dtype=np.float64)
        pair = ops.hinge_loss(scores, np.array([1]), weights_norm_sq=4.0, reg=0.5)
        np.testing.assert_allclose(float(pair.value), 2.0, rtol=1e-12)
        _, dwns = pair.pullback(1.0)
        np.testing.assert_allclose(float(dwns), 0.5, rtol=1e-12)

    def test_gradient_only_on_active_margins(self):
        scores = np.array([2.0, 0.5], dtype=np.float64)
        labels = np.array([1, -1])
        pair = ops.hinge_loss(scores, labels)
        (ds, _) = pair.pullback(1.0)
        assert ds[0] == 0.0
        np.testing.assert_allclose(ds[1], 0.5, rtol=1e-12)

    def test_kink_point_has_zero_subgradient(self):
        # the hinge kink sits where y*s = 1, so the margin term is exactly 0
        pair = ops.hinge_loss(np.array([1.0]), np.array([1]))
        (ds, _) = pair.pullback(1.0)
        assert ds[0] == 0.0

    def test_bad_labels_rejected(self):
        with pytest.raises(ShapeError, match="-1 or \\+1"):
            ops.hinge_loss(np.array([1.0]), np.array([0]))


class TestGradCheck:
    """Finite-difference verification of every pullback, several shapes each."""

    THRESHOLD = 1e-4

    def test_conv2d(self):
        rng = np.random.default_rng(20)
        cases = [
            ((1, 1, 4, 4), (1, 1, 3, 3), 1, 0),
            ((2, 2, 5, 5), (3, 2, 3, 3), 1, 1),
            ((1, 3, 6, 6), (2, 3, 2, 2), 2, 0),
            ((2, 1, 5, 5), (2, 1, 1, 1), 2, 1),
        ]
        for xs, ws, stride, pad in cases:
            x = rng.standard_normal(xs)
            w = rng.standard_normal(ws)
            b = rng.standard_normal(ws[0])
            err = grad_check(lambda a, b_, c: ops.conv2d(a, b_, c, stride=stride, pad=pad), [x, w, b])
            assert err < self.THRESHOLD, f"conv2d {xs} stride={stride} pad={pad}: {err}"

    def test_max_pool2d(self):
        # values are spaced wider than the finite-difference step so that no
        # perturbation can flip a window's argmax (the max is piecewise linear)
        rng = np.random.default_rng(21)
        for xs, size, stride in [((1, 2, 4, 4), 2, 2), ((2, 1, 5, 5), 3, 1), ((1, 1, 6, 6), 2, 1)]:
            count = int(np.prod(xs))
            x = rng.permutation(count).astype(np.float64).reshape(xs) * 0.1
            err = grad_check(lambda a: ops.max_pool2d(a, size, stride)[0], [x])
            assert err < self.THRESHOLD, f"max_pool2d {xs}: {err}"

    def test_local_response_norm(self):
        rng = np.random.default_rng(22)
        for c in (1, 3, 7):
            x = rng.standard_normal((2, c, 3, 3))
            err = grad_check(ops.local_response_norm, [x])
            assert err < self.THRESHOLD, f"lrn c={c}: {err}"

    def test_affine(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        assert grad_check(ops.affine, [x, w, b]) < self.THRESHOLD

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 4))
        x[np.abs(x) < 0.05] = 0.5  # keep the finite difference off the kink
        assert grad_check(ops.relu, [x]) < 1e-6

    def test_cross_entropy(self):
        rng = np.random.default_rng(25)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        err = grad_check(lambda lg: ops.cross_entropy_loss(lg, labels), [logits])
        assert err < self.THRESHOLD

    def test_hinge(self):
        rng = np.random.default_rng(26)
        scores = rng.standard_normal(6) * 2
        scores[np.abs(np.abs(scores) - 1) < 0.05] = 0.0  # step off the hinge point
        labels = np.where(rng.standard_normal(6) > 0, 1, -1)
        err = grad_check(
            lambda s, wn: ops.hinge_loss(s, labels, weights_norm_sq=wn, reg=0.3),
            [scores, np.asarray(2.0)],
        )
        assert err < self.THRESHOLD

    def test_detects_a_wrong_pullback(self):
        # a deliberately corrupted gradient must be flagged, not absorbed
        def broken(x):
            pair = ops.relu(x)
            return ops.GradPair(pair.value, lambda g: (2.0 * pair.pullback(g)[0],))

        x = np.full((3,), 1.5)
        assert grad_check(broken, [x]) > 1e-2
