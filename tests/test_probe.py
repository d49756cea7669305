"""Tests for feature extraction and linear probes."""

import hashlib
import itertools
import logging
import re

import numpy as np
import pytest

from oracles import (
    probe_fit_primal,
    probe_predict_primal,
    probe_select_primal,
    probe_solve_dual_allocating,
    traced_peak,
)
from sentnet import probe as probe_mod
from sentnet.data import ViewSource, audit_folds, stratified_kfold
from sentnet.errors import ConfigError, DataError
from sentnet.network import LayerKind, LayerSpec, NetworkSpec, init_params
from sentnet.probe import (
    DEFAULT_LAMBDA_GRID,
    PROBE_KINDS,
    ProbeReport,
    ProbeRow,
    extract_features,
    fit_probe,
    fit_probes,
    probe_all_layers,
)


def mini_spec():
    """conv-fc-fc over 3x8x8, just big enough to have distinct endpoints."""
    return NetworkSpec(
        input_shape=(3, 8, 8),
        layers=(
            LayerSpec("c1", LayerKind.CONV, out_channels=4, kernel=3, stride=1, pad=1,
                      relu=True, init_std=0.2),
            LayerSpec("f1", LayerKind.FC, units=6, relu=True, init_std=0.2),
            LayerSpec("f2", LayerKind.FC, units=2, init_std=0.2),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


def mini_source(n=12, seed=0):
    rng = np.random.default_rng(seed)
    squares = rng.normal(0, 1, size=(n, 3, 8, 8)).astype(np.float32)
    labels = np.arange(n) % 2
    return ViewSource(squares, labels, crop=8)


def blobs(n=30, d=5, gap=4.0, seed=0):
    """Two well-separated gaussian clusters with alternating labels."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    x = rng.normal(0, 1, size=(n, d))
    x[:, 0] += gap * (2 * labels - 1)
    return x.astype(np.float32), labels


class TestExtractFeatures:
    def test_dimensions_per_endpoint(self):
        spec = mini_spec()
        ckpt = init_params(spec, seed=0)
        src = mini_source()
        assert extract_features(spec, ckpt, src, "c1").shape == (12, 4 * 8 * 8)
        assert extract_features(spec, ckpt, src, "f1").shape == (12, 6)
        assert extract_features(spec, ckpt, src, "f2").shape == (12, 2)

    def test_batch_size_does_not_change_rows(self):
        spec = mini_spec()
        ckpt = init_params(spec, seed=0)
        src = mini_source()
        a = extract_features(spec, ckpt, src, "f1", batch_size=3)
        b = extract_features(spec, ckpt, src, "f1", batch_size=32)
        # batching only changes float32 summation order inside the matmuls
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_pre_activation_view(self):
        spec = mini_spec()
        ckpt = init_params(spec, seed=0)
        src = mini_source()
        pre = extract_features(spec, ckpt, src, "c1", pre_activation=True)
        post = extract_features(spec, ckpt, src, "c1")
        assert (pre < 0).any()
        np.testing.assert_allclose(post, np.maximum(pre, 0.0), rtol=1e-6)

    def test_unknown_endpoint(self):
        spec = mini_spec()
        with pytest.raises(ConfigError, match="endpoint"):
            extract_features(spec, init_params(spec, seed=0), mini_source(), "c9")
        with pytest.raises(ConfigError, match="endpoint"):
            extract_features(spec, init_params(spec, seed=0), mini_source(), ("f1", "c9"))

    @pytest.mark.parametrize("pre_activation", [False, True])
    @pytest.mark.parametrize("batch_size", [3, 32])
    def test_one_pass_matches_single_endpoint_form(self, pre_activation, batch_size):
        spec = mini_spec()
        ckpt = init_params(spec, seed=0)
        src = mini_source(n=13)
        together = extract_features(spec, ckpt, src, spec.endpoints, pre_activation, batch_size)
        assert list(together) == list(spec.endpoints)
        for name in spec.endpoints:
            alone = extract_features(spec, ckpt, src, name, pre_activation, batch_size)
            assert together[name].dtype == alone.dtype == np.float32
            assert together[name].shape == alone.shape
            assert together[name].tobytes() == alone.tobytes()

    def test_probe_all_layers_runs_one_forward_pass_per_batch(self, monkeypatch):
        spec = mini_spec()
        ckpt = init_params(spec, seed=0)
        src = mini_source(n=40)
        calls = []

        def counting_forward(*args, **kwargs):
            calls.append(len(args[2]))
            return forward(*args, **kwargs)

        forward = probe_mod.forward
        monkeypatch.setattr(probe_mod, "forward", counting_forward)
        probe_all_layers(spec, ckpt, src, audit_folds(np.arange(40) % 2), lambda_grid=(0.1,), iters=5)
        assert calls == [32, 8]  # ceil(40 / 32) passes cover every endpoint


class TestFitProbe:
    @pytest.mark.parametrize("kind", ["svm", "softmax"])
    def test_separable_clusters_reach_full_accuracy(self, kind):
        x, y = blobs()
        model, _ = fit_probe(x, y, kind, lambda_grid=(1e-2,), iters=200)
        assert (model.predict(x) == y).all()

    @pytest.mark.parametrize("kind", ["svm", "softmax"])
    def test_random_labels_stay_near_chance_out_of_sample(self, kind):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 6)).astype(np.float32)
        y = rng.integers(0, 2, size=120)
        model, _ = fit_probe(x[:60], y[:60], kind, lambda_grid=(1e-2,), iters=200)
        acc = float((model.predict(x[60:]) == y[60:]).mean())
        assert 0.25 <= acc <= 0.75

    def test_single_lambda_skips_selection(self):
        x, y = blobs()
        model, chosen = fit_probe(x, y, "svm", lambda_grid=(0.5,), iters=50)
        assert model.lam == 0.5
        assert list(chosen) == [0.5]
        assert np.isnan(chosen[0.5])

    def test_ties_prefer_smaller_lambda(self):
        x, y = blobs(n=36, gap=8.0)
        grid = (1e-3, 1e-2, 1e-1)
        model, chosen = fit_probe(x, y, "svm", lambda_grid=grid, iters=300, seed=1)
        assert all(v == 1.0 for v in chosen.values())
        assert model.lam == 1e-3

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4)).astype(np.float32)
        y = rng.integers(0, 2, size=30)
        m1, s1 = fit_probe(x, y, "softmax", iters=50, seed=2)
        m2, s2 = fit_probe(x, y, "softmax", iters=50, seed=2)
        assert s1 == s2
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert m1.lam == m2.lam

    def test_standardization_absorbs_column_scaling(self):
        x, y = blobs(n=40)
        scaled = x.copy()
        scaled[:, 0] *= 1000.0
        m1, _ = fit_probe(x, y, "svm", lambda_grid=(1e-2,), iters=200)
        m2, _ = fit_probe(scaled, y, "svm", lambda_grid=(1e-2,), iters=200)
        np.testing.assert_array_equal(m1.predict(x), m2.predict(scaled))
        np.testing.assert_allclose(m1.standardized(x) @ m1.weights + m1.bias,
                                   m2.standardized(scaled) @ m2.weights + m2.bias, rtol=1e-3)

    def test_constant_column_passes_through_standardizer(self):
        x, y = blobs(n=24)
        x[:, 2] = 7.0
        model, _ = fit_probe(x, y, "svm", lambda_grid=(1e-2,), iters=100)
        assert np.isfinite(model.weights).all()

    def test_nonbinary_labels_rejected(self):
        x, _ = blobs(n=9)
        with pytest.raises(DataError, match="binary"):
            fit_probe(x, np.array([0, 1, 2] * 3), "svm")

    def test_zero_rows_rejected(self):
        with pytest.raises(DataError, match="no rows"):
            fit_probe(np.zeros((0, 3), dtype=np.float32), np.zeros(0, dtype=np.int64), "svm")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="labels"):
            fit_probe(np.zeros((4, 2)), np.array([0, 1]), "svm")

    def test_bad_grid_rejected(self):
        x, y = blobs(n=10)
        with pytest.raises(ConfigError, match="positive"):
            fit_probe(x, y, "svm", lambda_grid=(0.1, -1.0))
        with pytest.raises(ConfigError, match="positive"):
            fit_probe(x, y, "svm", lambda_grid=())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("nan")])
    def test_non_finite_lambda_rejected(self, bad):
        """A NaN lambda's NaN weights predict one class, which could win selection."""
        x, y = blobs(n=10)
        with pytest.raises(ConfigError, match="finite"):
            fit_probe(x, y, "svm", lambda_grid=(bad, 0.1))
        with pytest.raises(ConfigError, match="finite"):
            list(fit_probes([x], y, PROBE_KINDS, lambda_grid=(0.1, bad)))

    def test_unknown_kind_rejected(self):
        x, y = blobs(n=10)
        with pytest.raises(ConfigError, match="kind"):
            fit_probe(x, y, "forest", lambda_grid=(0.1,))

    def test_kind_given_twice_rejected(self):
        x, y = blobs(n=10)
        with pytest.raises(ConfigError, match="kinds must name one or more.*each once"):
            fit_probes([x], y, ("svm", "svm"), lambda_grid=(0.1,))

    def test_default_grid_is_log_spaced(self):
        assert DEFAULT_LAMBDA_GRID == (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


def oracle_case(n, d, seed=0):
    """Noisy, not separable, binary data: hinge activity changes over the run.

    Columns stay near unit scale: the first steps of the 1/(lambda t) schedule
    are long, and on badly scaled raw columns they amplify rounding so much
    that no two summation orders agree, the primal's own included.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=(n, d)) + 0.5
    labels = (x[:, 0] + x[:, 1] + rng.normal(0, 1.0, size=n) > 1).astype(np.int64)
    return x.astype(np.float32), labels


class TestDualMatchesPrimalOracle:
    """fit_probe (dual, batched over lambda and inner folds) against one primal fit at a time."""

    GRID = (0.01, 0.1, 1.0)
    ITERS = 150

    @pytest.mark.parametrize("kind", ["svm", "softmax"])
    @pytest.mark.parametrize("standardize", [True, False])
    @pytest.mark.parametrize("d", [50, 5], ids=["n<d", "n>d"])
    def test_selection_and_refit_match(self, kind, standardize, d):
        x, y = oracle_case(31, d)
        inner = stratified_kfold(y, 3, 4)
        fitting_sizes = {int((inner != f).sum()) for f in range(3)}
        assert len(fitting_sizes) > 1  # unequal inner fitting sets, so padding is exercised

        model, scores = fit_probe(x, y, kind, self.GRID, 3, standardize, seed=4, iters=self.ITERS)
        want_scores, want_lam = probe_select_primal(x, y, kind, self.GRID, inner, self.ITERS, standardize)
        assert scores == want_scores
        assert model.lam == want_lam

        w, b, mean, scale = probe_fit_primal(x, y, kind, want_lam, self.ITERS, standardize)
        np.testing.assert_allclose(model.weights, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())
        np.testing.assert_allclose(model.bias, b, rtol=1e-9, atol=1e-12)
        assert model.weights.shape == w.shape and np.shape(model.bias) == np.shape(b)
        np.testing.assert_array_equal(model.predict(x), probe_predict_primal(x, kind, w, b, mean, scale))

    @pytest.mark.parametrize("kind", ["svm", "softmax"])
    @pytest.mark.parametrize("d", [50, 5], ids=["n<d", "n>d"])
    def test_single_lambda_matches(self, kind, d):
        x, y = oracle_case(31, d, seed=1)
        model, _ = fit_probe(x, y, kind, lambda_grid=(0.05,), iters=self.ITERS)
        w, b, mean, scale = probe_fit_primal(x, y, kind, 0.05, self.ITERS)
        np.testing.assert_allclose(model.weights, w, rtol=1e-9, atol=1e-12 * np.abs(w).max())
        np.testing.assert_allclose(model.bias, b, rtol=1e-9, atol=1e-12)
        np.testing.assert_array_equal(model.predict(x), probe_predict_primal(x, kind, w, b, mean, scale))


def padded_sets(sizes, width, seed=0):
    """Float64 fitting sets of the given row counts, zero-padded into one
    [F, n, width] stack, with their labels and live masks."""
    rng = np.random.default_rng(seed)
    n = max(sizes)
    x = np.zeros((len(sizes), n, width))
    y01 = np.zeros((len(sizes), n), dtype=np.int64)
    live = np.zeros((len(sizes), n), dtype=bool)
    for f, size in enumerate(sizes):
        x[f, :size] = rng.normal(0, 1, size=(size, width)) + 0.3
        y01[f, :size] = (x[f, :size, 0] + rng.normal(0, 1, size=size) > 0.3)
        live[f, :size] = True
    return x, y01, live


def fixed_scores(values):
    """Kernels, in _solve_dual's (a, out) form and the oracle's a -> K a form,
    that give the same [F, n, m] values whatever alpha is."""
    return (lambda a, out: np.copyto(out, values[:, :, : a.shape[2]]),
            lambda a: values[:, :, : a.shape[2]].copy())


class TestDualLoopMatchesAllocatingOracle:
    """_solve_dual against the loop that allocated every temporary, bit for bit."""

    SIZES = (7, 9, 8, 5)  # unequal row counts: every set but one is padded
    LAMS = np.array([[1e-3, 0.1, 1.0], [0.01, 0.01, 10.0], [1e-4, 1.0, 0.5], [0.2, 3.0, 1e-2]])

    @staticmethod
    def same_bits(got, want):
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", PROBE_KINDS)
    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "narrow"])
    @pytest.mark.parametrize("lams", [LAMS, LAMS[:, 1:2]], ids=["three-lambdas", "one-lambda"])
    def test_padded_sets(self, kind, gram, lams):
        """A refit has one lambda per set: an svm row is then one number, whose
        sum over a set's 9 rows numpy takes pairwise, not in row order."""
        x, y01, live = padded_sets(self.SIZES, 12 if gram else 3)
        if gram:
            k = x @ x.transpose(0, 2, 1)
            new, old = (lambda a, out: np.matmul(k, a, out=out)), (lambda a: k @ a)
        else:
            new = lambda a, out: np.matmul(x, x.transpose(0, 2, 1) @ a, out=out)
            old = lambda a: x @ (x.transpose(0, 2, 1) @ a)
        got = probe_mod._solve_dual(new, y01, live, kind, lams, 80)
        self.same_bits(got, probe_solve_dual_allocating(old, y01, live, kind, lams, 80))

    def test_svm_margin_at_exactly_one_and_beyond_the_reals(self):
        """y s = 1 exactly is no violation; +-0, +-inf and NaN scores too keep
        1 - y s > 0 and y s < 1 in step."""
        _, y01, live = padded_sets(self.SIZES, 2)
        y = np.where(y01 > 0, 1.0, -1.0)
        pool = np.array([1.0, -1.0, 0.0, -0.0, np.inf, -np.inf, np.nan, 1.0 - 2**-53, 1.0 + 2**-52])
        values = np.resize(pool, (*y01.shape, 3)) * np.where(live, 1.0, 7.0)[:, :, None]
        values[..., 0] = y  # y s = 1 exactly at the first step, where the bias is 0
        assert (y[:, :, None] * values == 1.0).any()
        new, old = fixed_scores(values)
        self.same_bits(probe_mod._solve_dual(new, y01, live, "svm", self.LAMS, 3),
                       probe_solve_dual_allocating(old, y01, live, "svm", self.LAMS, 3))

    def test_softmax_gradients_of_exactly_zero(self):
        """Saturated rows give probs - onehot of exactly 0 (and -1), and
        padded rows get gradients of +0 whatever their scores, +-0 among them."""
        _, y01, live = padded_sets(self.SIZES, 2)
        pool = np.array([1e300, -1e300, 0.0, -0.0, 800.0, -800.0, 3.0, -2.5])
        values = np.resize(pool, (*y01.shape, 6))
        new, old = fixed_scores(values)
        got = probe_mod._solve_dual(new, y01, live, "softmax", self.LAMS, 4)
        self.same_bits(got, probe_solve_dual_allocating(old, y01, live, "softmax", self.LAMS, 4))
        assert (got[0][live] == 0).any() and (got[0][live] != 0).any()  # some live rows never moved


class TestFittingSetStatistics:
    """_fitting_set's mean, scale and rows against block.mean / block.std over the same blocks."""

    @staticmethod
    def by_std(features, rows):
        width = features.shape[1]
        x = np.empty((len(rows), width))
        mean, scale = np.empty(width), np.empty(width)
        count = max(1, min(-(-x.size // probe_mod.COLUMN_BLOCK), width // 2))
        for a, b in itertools.pairwise(width * i // count for i in range(count + 1)):
            block = x[:, a:b]
            block[...] = features[rows, a:b]
            mean[a:b] = block.mean(axis=0)
            std = block.std(axis=0)
            scale[a:b] = np.where(std > 0, std, 1.0)
            block -= mean[a:b]
            block /= scale[a:b]
        return x, mean, scale

    @pytest.mark.parametrize("width", [40, 3 * 2**13 + 5], ids=["one-block", "uneven-blocks"])
    def test_same_bits_as_block_std(self, width):
        rng = np.random.default_rng(width)
        features = (rng.normal(0, 3, size=(30, width)) * rng.uniform(0.01, 100, size=width) + 5).astype(np.float32)
        features[:, 1] = 2.5  # a constant column: scale 1
        rows = np.flatnonzero(np.arange(30) % 4 != 1)
        if width > 40:  # several COLUMN_BLOCK blocks whose widths differ
            blocks = -(-len(rows) * width // probe_mod.COLUMN_BLOCK)
            assert blocks > 2 and width % blocks
        got = probe_mod._fitting_set(features, rows, True)
        assert got[2][1] == 1.0
        for g, w in zip(got, self.by_std(features, rows)):
            assert g.tobytes() == w.tobytes()


class TestProbeAllLayers:
    def setup_method(self):
        self.spec = mini_spec()
        self.ckpt = init_params(self.spec, seed=0)
        self.src = mini_source(n=18, seed=1)
        self.folds = audit_folds(np.arange(18) % 3)

    def run_probe(self, **kw):
        return probe_all_layers(
            self.spec, self.ckpt, self.src, self.folds,
            lambda_grid=(0.1,), iters=30, **kw,
        )

    def test_row_grid_is_complete(self):
        report = self.run_probe()
        assert len(report.rows) == len(self.spec.endpoints) * 2 * 3
        seen = {(r.endpoint, r.kind, r.fold) for r in report.rows}
        assert len(seen) == len(report.rows)
        assert report.endpoints == self.spec.endpoints
        assert report.kinds == ("svm", "softmax")

    def test_endpoint_subset(self):
        report = self.run_probe(endpoints=("f1",), kinds=("svm",))
        assert {r.endpoint for r in report.rows} == {"f1"}
        assert len(report.rows) == 3

    def test_accuracy_helpers(self):
        report = ProbeReport(
            rows=[
                ProbeRow("f1", "svm", 0, 0.5, 0.1),
                ProbeRow("f1", "svm", 1, 0.7, 0.1),
                ProbeRow("f1", "softmax", 0, 0.9, 0.1),
            ],
            endpoints=("f1",), kinds=("svm", "softmax"),
            pre_activation=False, standardize=True,
        )
        assert report.accuracies("f1", "svm") == [0.5, 0.7]
        assert report.accuracies("f2", "svm") == []

    def test_csv_format(self):
        report = ProbeReport(
            rows=[ProbeRow("c1", "svm", 2, 0.825, 0.001)],
            endpoints=("c1",), kinds=("svm",),
            pre_activation=False, standardize=True,
        )
        assert report.to_csv() == "endpoint,kind,fold,accuracy,lambda\nc1,svm,2,0.825000,0.001\n"

    def test_markdown_notes_policy(self):
        report = self.run_probe(endpoints=("f1",))
        text = report.to_markdown()
        assert "| f1 |" in text
        assert "±" in text
        assert "post-activation" in text
        assert "standardized" in text
        assert "center" in text

    def test_test_rows_never_reach_selection(self, monkeypatch):
        """Perturbing fold f's test rows leaves fold f's chosen lambda alone."""
        x, y = oracle_case(36, 8, seed=2)
        folds = np.arange(36) % 3
        src = ViewSource(np.zeros((36, 3, 8, 8), dtype=np.float32), y, crop=8)

        def chosen(feats):
            monkeypatch.setattr(probe_mod, "extract_features", lambda *a, **k: {"f1": feats})
            report = probe_all_layers(self.spec, self.ckpt, src, audit_folds(folds), endpoints=("f1",), kinds=("svm",),
                                      lambda_grid=(1e-3, 1e-2, 1e-1, 1.0), iters=60)
            return {r.fold: r.lam for r in report.rows}

        clean = chosen(x)
        moved = []
        for f in range(3):
            noisy = x.copy()
            te = folds == f
            noisy[te] = np.random.default_rng(f).normal(0, 100.0, size=noisy[te].shape)
            got = chosen(noisy)
            assert got[f] == clean[f]
            moved += [g for g in got if got[g] != clean[g]]
        assert moved  # the perturbation does reach the folds that train on those rows

    def test_fold_length_mismatch(self):
        with pytest.raises(DataError, match="fold"):
            probe_all_layers(self.spec, self.ckpt, self.src, audit_folds(np.arange(5) % 3))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            self.run_probe(kinds=("svm", "tree"))

    @pytest.mark.parametrize("key,names", [("kinds", ("svm", "svm")), ("endpoints", ("f1", "f1"))])
    def test_name_given_twice_rejected(self, key, names, monkeypatch):
        """A repeated kind or endpoint would double its column or rows; it is
        refused before any feature is extracted."""
        extracted = []
        monkeypatch.setattr(probe_mod, "extract_features", lambda *a, **k: extracted.append(a))
        with pytest.raises(ConfigError, match=f"{key} must name one or more.*each once"):
            self.run_probe(**{key: names})
        assert extracted == []

    @pytest.mark.parametrize("kw,words", [
        ({"kinds": ()}, "kinds"), ({"endpoints": ()}, "endpoints"), ({"inner_folds": 1}, "inner_folds"),
        ({"iters": 0}, "iters"), ({"lambda_grid": ()}, "lambda_grid"),
    ], ids=["no-kind", "no-endpoint", "one-inner-fold", "no-iteration", "no-lambda"])
    def test_unusable_arguments_rejected_before_extraction(self, kw, words, monkeypatch):
        extracted = []
        monkeypatch.setattr(probe_mod, "extract_features", lambda *a, **k: extracted.append(a))
        with pytest.raises(ConfigError, match=words):
            probe_all_layers(self.spec, self.ckpt, self.src, self.folds, **{"lambda_grid": (0.1,), **kw})
        assert extracted == []


def pinned_spec():
    """A Gram-path endpoint (c1, 256 wide) and narrow ones, two of equal width (f1, f2)."""
    return NetworkSpec(
        input_shape=(3, 8, 8),
        layers=(
            LayerSpec("c1", LayerKind.CONV, out_channels=4, kernel=3, stride=1, pad=1, relu=True, init_std=0.2),
            LayerSpec("f1", LayerKind.FC, units=6, relu=True, init_std=0.3),
            LayerSpec("f2", LayerKind.FC, units=6, relu=True, init_std=0.5),
            LayerSpec("f3", LayerKind.FC, units=2, init_std=0.5),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


def pinned_source(n=36, seed=3):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    squares = rng.normal(0, 1, size=(n, 3, 8, 8)).astype(np.float32)
    squares[:, 0] += 0.6 * (2 * labels - 1)[:, None, None]
    return ViewSource(squares, labels, crop=8)


class TestPinnedProbeBytes:
    """probe_all_layers' report bytes, recorded when every endpoint was fitted on its own.

    36 rows in 3 outer folds: the refits see 24 rows and the inner fits 16, so
    c1 takes the Gram and f1, f2, f3 the x (x^T a) product in both loops.
    """

    GRID = (1e-3, 1e-2, 1e-1, 1.0)
    DIGESTS = {
        GRID: "9d8f28bbe32a4332bc11232139f9e607c7579d201fa2c9ac457e4d8d64c48fc6",
        (0.1,): "8f822a79b4bd7a79faabb1061885c5025399c307b468d94fddc1a11b6c19efcb",
    }

    def setup_method(self):
        self.spec = pinned_spec()
        self.ckpt = init_params(self.spec, seed=0)
        self.src = pinned_source()
        self.folds = np.arange(36) % 3

    def report(self, grid):
        return probe_all_layers(self.spec, self.ckpt, self.src, audit_folds(self.folds), lambda_grid=grid, iters=60)

    @pytest.mark.parametrize("grid", [GRID, (0.1,)], ids=["four-lambdas", "one-lambda"])
    def test_report_bytes(self, grid):
        report = self.report(grid)
        text = report.to_csv() + report.to_markdown()
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[grid]

    def test_case_covers_both_kernels_and_different_choices(self):
        widths = {name: feats.shape[1] for name, feats in
                  extract_features(self.spec, self.ckpt, self.src, self.spec.endpoints).items()}
        assert widths["c1"] >= 24 and max(widths["f1"], widths["f2"], widths["f3"]) < 16
        assert widths["f1"] == widths["f2"]
        for kind in ("svm", "softmax"):
            by_endpoint = {}
            for r in self.report(self.GRID).rows:
                if r.kind == kind:
                    by_endpoint.setdefault(r.endpoint, []).append(r.lam)
            assert len({tuple(lams) for lams in by_endpoint.values()}) == len(by_endpoint)

    @pytest.mark.parametrize("grid", [GRID, (0.1,)], ids=["four-lambdas", "one-lambda"])
    def test_each_endpoint_alone_gives_the_same_rows(self, grid):
        report = self.report(grid)
        feats = extract_features(self.spec, self.ckpt, self.src, self.spec.endpoints)
        labels = self.src.labels
        alone = []
        for endpoint in self.spec.endpoints:
            for kind in ("svm", "softmax"):
                for f in range(3):
                    tr, te = self.folds != f, self.folds == f
                    model, _ = fit_probe(feats[endpoint][tr], labels[tr], kind, grid, iters=60)
                    acc = float((model.predict(feats[endpoint][te]) == labels[te]).mean())
                    alone.append(ProbeRow(endpoint, kind, f, acc, model.lam))
        assert report.rows == alone

    @pytest.mark.parametrize("first", ["svm", "softmax"])
    @pytest.mark.parametrize("grid", [GRID, (0.1,)], ids=["four-lambdas", "one-lambda"])
    def test_fitted_together_is_bitwise_fitted_alone(self, first, grid):
        """Both kinds on every endpoint in one call, either kind first, with
        and without standardization: each (kind, endpoint) gets the bits of
        fit_probe on that endpoint and kind alone."""
        feats = extract_features(self.spec, self.ckpt, self.src, self.spec.endpoints)
        labels = self.src.labels
        rows = np.flatnonzero(self.folds != 1)
        kinds = (first, *(kind for kind in PROBE_KINDS if kind != first))
        for standardize in (True, False):
            together = list(fit_probes(list(feats.values()), labels, kinds, grid, standardize=standardize,
                                       iters=60, rows=rows))
            assert len(together) == len(kinds) * len(feats)
            for (model, scores), (matrix, kind) in zip(together, itertools.product(feats.values(), kinds)):
                assert model.kind == kind
                want, want_scores = fit_probe(matrix[rows], labels[rows], kind, grid, standardize=standardize,
                                              iters=60)
                assert model.lam == want.lam
                assert scores.keys() == want_scores.keys()
                assert np.array_equal(list(scores.values()), list(want_scores.values()), equal_nan=True)
                assert (model.mean is None) == (want.mean is None) == (not standardize)
                pairs = [(model.weights, want.weights), (model.bias, want.bias)]
                if standardize:
                    pairs += [(model.mean, want.mean), (model.scale, want.scale)]
                for got, ref in pairs:
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("grid", [GRID, (0.1,)], ids=["four-lambdas", "one-lambda"])
    def test_both_kinds_share_two_kernels_per_outer_fold(self, grid, monkeypatch):
        """probe_all_layers builds one kernel for every kind's selection and
        one for every kind's refit per outer fold (none for selection on a
        one-lambda grid, which selects nothing)."""
        built = []
        kernel_product = probe_mod._kernel_product

        def counted(sets, rows, standardize):
            built.append(len(sets))
            return kernel_product(sets, rows, standardize)

        monkeypatch.setattr(probe_mod, "_kernel_product", counted)
        report = self.report(grid)
        endpoints = len(self.spec.endpoints)
        per_fold = [endpoints * 3, endpoints] if len(grid) > 1 else [endpoints]  # 3 inner folds
        assert built == per_fold * 3  # 3 outer folds
        assert {r.kind for r in report.rows} == set(PROBE_KINDS)

    def test_one_info_line_per_outer_fold(self, caplog):
        with caplog.at_level(logging.INFO, logger="sentnet.probe"):
            self.report((0.1,))
        lines = [r.getMessage() for r in caplog.records if r.name == "sentnet.probe"]
        assert len(lines) == 3
        for f, line in enumerate(lines):
            assert re.fullmatch(rf"outer fold {f}: 4 endpoints x 2 kinds, selection \d+\.\d{{3}} s, "
                                rf"refit \d+\.\d{{3}} s", line), line


def test_fitting_memory_stays_one_set_at_a_time(monkeypatch):
    """The peak while probing several wide endpoints stays below the widest
    one's float64 fitting set plus the Grams (and one column block of
    scratch, in which a set is built).

    Four 12000-wide endpoints, 60 rows in 5 outer folds: each refit fits 48
    rows (4.6 MB as float64), each inner fit 32. Holding every endpoint's
    sets at once would take several times that. The outer test fold is 12
    rows, so scoring it (float32 rows plus one float64 copy) stays below a
    fitting set.
    """
    n, width, endpoints = 60, 12000, ("a", "b", "c", "d")
    rng = np.random.default_rng(0)
    labels = np.arange(n) % 2
    feats = {e: (rng.normal(size=(n, width)) + labels[:, None] * 0.1).astype(np.float32) for e in endpoints}
    monkeypatch.setattr(probe_mod, "extract_features", lambda *a, **k: dict(feats))
    src = ViewSource(np.zeros((n, 3, 8, 8), dtype=np.float32), labels, crop=8)
    folds = np.arange(n) % 5

    spec = NetworkSpec(input_shape=(3, 8, 8), layers=(
        *(LayerSpec(e, LayerKind.FC, units=2) for e in endpoints), LayerSpec("prob", LayerKind.SOFTMAX)))

    def run():
        probe_all_layers(spec, None, src, audit_folds(folds), endpoints=endpoints, lambda_grid=(0.01, 0.1, 1.0),
                         iters=5)

    run()  # first-call imports and caches are not the fit's
    n_fit = int((folds != 0).sum())
    inner_fit = n_fit - n_fit // 3
    fitting_set = (n_fit + 2) * width * 8  # rows, mean and scale
    grams = len(endpoints) * (3 * inner_fit**2 + n_fit**2) * 8
    scratch = 12 * probe_mod.COLUMN_BLOCK  # one block: float32 rows and numpy's float64 std temporary
    peak, _ = traced_peak(run)
    assert peak < fitting_set + grams + scratch, (
        f"peak {peak} B: one fitting set {fitting_set} B, Grams {grams} B, block scratch {scratch} B"
    )
