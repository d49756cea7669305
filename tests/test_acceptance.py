"""Release gates for the package, one test per criterion.

Each test prints a single PASS or FAIL line with the measured numbers, so a
verbose run reads as a checklist. The two training-based gates share one
pretrained source network through a session fixture; its wall time is charged
to the transfer gate, which runs first.
"""

import itertools
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sentnet.data import ViewSource, audit_folds, compute_channel_means, stratified_kfold, ten_crop
from sentnet.harness import (
    config_from_dict,
    cross_validate,
    evaluate,
    fuse_scores,
    write_report,
)
from sentnet.network import (
    LayerKind,
    LayerSpec,
    NetworkSpec,
    count_parameters,
    infer_shapes,
    init_params,
    reference_spec,
    reference_spec_small,
)
from sentnet.ops import (
    affine,
    conv2d,
    cross_entropy_loss,
    hinge_loss,
    local_response_norm,
    max_pool2d,
    relu,
)
from sentnet.optim import TrainConfig, lr_at, train
from sentnet.probe import extract_features, fit_probe
from sentnet.surgery import apply as apply_surgery, preset_plan
from sentnet.synth import generate_arrays, write_synthetic_dataset

from oracles import conv2d_loops, conv2d_patches, grad_check

CROP = 64
GRAD_TOL = 1e-4


def gate(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.fixture(scope="session")
def source_network():
    """Four-way source net trained on the composition attributes."""
    started = time.monotonic()
    squares, labels = generate_arrays("multiclass", 5000, 72, seed=11)
    means = compute_channel_means(iter(squares))
    spec = reference_spec_small(4)
    source = ViewSource(squares, labels, CROP, means)
    config = TrainConfig(base_lr=1e-4, epochs=10, step_epochs=8, batch_size=32, seed=0)
    ckpt, history = train(spec, init_params(spec, 0), source, config)
    return SimpleNamespace(
        spec=spec,
        ckpt=ckpt,
        seconds=time.monotonic() - started,
        train_acc=history[-1].train_acc,
    )


def _conv_geometry(rng):
    ker = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    pad = int(rng.integers(0, 2))

    def side():
        s = ker - 2 * pad + stride * int(rng.integers(0, 3))
        while s < 1:
            s += stride
        return s

    return ker, stride, pad, side(), side()


def _grad_cases(name, seed):
    """One (callable, inputs) pair per primitive for the given seed."""
    rng = np.random.default_rng([41, seed])
    if name == "conv2d":
        ker, stride, pad, h, w = _conv_geometry(rng)
        n, c, k = (int(rng.integers(1, 4)) for _ in range(3))
        x = rng.standard_normal((n, c, h, w))
        wt = rng.standard_normal((k, c, ker, ker))
        b = rng.standard_normal(k)
        return lambda a, ww, bb: conv2d(a, ww, bb, stride=stride, pad=pad), [x, wt, b]
    if name == "max_pool2d":
        size = int(rng.integers(2, 4))
        stride = int(rng.integers(1, 3))
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        h = size + stride * int(rng.integers(0, 3))
        w = size + stride * int(rng.integers(0, 3))
        x = rng.permutation(n * c * h * w).astype(np.float64).reshape(n, c, h, w) * 0.1
        return lambda a: max_pool2d(a, size, stride)[0], [x]
    if name == "local_response_norm":
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 9))
        h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.standard_normal((n, c, h, w))
        return lambda a: local_response_norm(a, size=5), [x]
    if name == "affine":
        n, d, u = (int(rng.integers(1, 6)) for _ in range(3))
        return affine, [rng.standard_normal((n, d)), rng.standard_normal((d, u)), rng.standard_normal(u)]
    if name == "relu":
        shape = tuple(int(rng.integers(1, 5)) for _ in range(2))
        x = rng.standard_normal(shape)
        x = x + 0.25 * np.sign(x)
        x[x == 0] = 0.5  # keep every element off the kink
        return relu, [x]
    if name == "cross_entropy_loss":
        n, classes = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        logits = rng.standard_normal((n, classes))
        labels = rng.integers(0, classes, size=n)
        return lambda lg: cross_entropy_loss(lg, labels), [logits]
    if name == "hinge_loss":
        n = int(rng.integers(2, 8))
        labels = rng.choice([-1, 1], size=n)
        margin_offset = rng.choice([-1.0, 1.0], size=n) * (0.2 + np.abs(rng.standard_normal(n)))
        scores = labels * (1.0 + margin_offset)  # every sample off the hinge point
        wns = np.asarray(rng.uniform(0.5, 2.0))
        return lambda s, q: hinge_loss(s, labels, q, reg=0.3), [scores, wns]
    raise ValueError(name)


class TestAcceptance:
    def test_criterion_01_gradient_integrity(self):
        primitives = (
            "conv2d", "max_pool2d", "local_response_norm", "affine",
            "relu", "cross_entropy_loss", "hinge_loss",
        )
        started = time.monotonic()
        worst = {}
        for name in primitives:
            errs = []
            for seed in range(10):
                fn, inputs = _grad_cases(name, seed)
                errs.append(grad_check(fn, inputs, eps=1e-3, seed=seed))
            worst[name] = max(errs)
        elapsed = time.monotonic() - started
        peak = max(worst.values())
        detail = (
            f"7 primitives x 10 seeded shapes, worst rel err {peak:.2e} "
            f"(bound {GRAD_TOL:g}) in {elapsed:.1f}s (bound 60s)"
        )
        gate(1, peak < GRAD_TOL and elapsed < 60, detail)

    def test_criterion_02_convolution_oracle(self):
        started = time.monotonic()
        rng = np.random.default_rng(7)
        grid = []
        for n, c, k in itertools.product(range(1, 5), repeat=3):
            for h, w in itertools.product(range(1, 9), repeat=2):
                for stride, pad, ker in itertools.product((1, 2), (0, 1), (1, 2, 3)):
                    span_h, span_w = h + 2 * pad - ker, w + 2 * pad - ker
                    if span_h < 0 or span_w < 0 or span_h % stride or span_w % stride:
                        continue
                    grid.append((n, c, k, h, w, stride, pad, ker))
        worst = 0.0
        for n, c, k, h, w, stride, pad, ker in grid:
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((k, c, ker, ker))
            b = rng.standard_normal(k)
            got = conv2d(x, wt, b, stride=stride, pad=pad).value
            worst = max(worst, rel_err(got, conv2d_patches(x, wt, b, stride, pad)))
        # spot-check a sample of the same grid against the pure nested loops
        worst_loops = 0.0
        for idx in rng.choice(len(grid), size=60, replace=False):
            n, c, k, h, w, stride, pad, ker = grid[idx]
            x = rng.standard_normal((n, c, h, w))
            wt = rng.standard_normal((k, c, ker, ker))
            b = rng.standard_normal(k)
            got = conv2d(x, wt, b, stride=stride, pad=pad).value
            worst_loops = max(worst_loops, rel_err(got, conv2d_loops(x, wt, b, stride, pad)))
        elapsed = time.monotonic() - started
        detail = (
            f"{len(grid)} grid configs vs per-position oracle (worst {worst:.2e}), "
            f"60 vs nested loops (worst {worst_loops:.2e}), bound 1e-5, "
            f"in {elapsed:.1f}s (bound 120s)"
        )
        gate(2, worst <= 1e-5 and worst_loops <= 1e-5 and elapsed < 120, detail)

    def test_criterion_03_shape_fidelity(self):
        spec = reference_spec(1000)
        shapes = infer_shapes(spec)
        conv5 = shapes["conv5"]
        pool5_flat = int(np.prod(shapes["pool5"]))
        ok = conv5 == (256, 13, 13) and pool5_flat == 9216 and len(spec.endpoints) == 13
        gate(3, ok, f"conv5 {conv5} (want (256, 13, 13)), pool5 flatten {pool5_flat} (want 9216)")

    def test_criterion_04_schedule_exactness(self):
        config = TrainConfig()
        rates = [lr_at(config, epoch) for epoch in range(65)]
        expected = [0.001 * 0.1 ** (epoch // 6) for epoch in range(65)]
        exact = rates == expected
        anchors = (
            abs(rates[0] - 0.001) < 1e-15
            and abs(rates[6] - 0.0001) < 1e-15
            and abs(rates[12] - 0.00001) < 1e-15
        )
        gate(4, exact and anchors, "lr 0.001 / 10 every 6 epochs, exact over 65 epochs")

    def test_criterion_05_overfit_capacity(self):
        started = time.monotonic()
        epochs_used = []
        for seed in range(3):
            squares, labels = generate_arrays("binary", 16, 72, seed=100 + seed)
            means = compute_channel_means(iter(squares))
            source = ViewSource(squares, labels, CROP, means)
            config = TrainConfig(
                base_lr=1e-4, epochs=300, step_epochs=120, batch_size=16,
                seed=seed, stop_at_train_acc=1.0,
            )
            spec = reference_spec_small(2)
            _, history = train(spec, init_params(spec, seed), source, config)
            assert history[-1].train_acc == 1.0, f"seed {seed} peaked at {history[-1].train_acc}"
            epochs_used.append(len(history))
        elapsed = time.monotonic() - started
        ok = all(e <= 300 for e in epochs_used) and elapsed < 60
        gate(5, ok, f"16 images memorized at epochs {epochs_used} (bound 300) in {elapsed:.1f}s (bound 60s)")

    def test_criterion_06_transfer_direction(self, source_network):
        started = time.monotonic()
        squares, labels = generate_arrays("binary", 240, 72, seed=77, palette="alt")
        gaps = []
        for seed in range(5):
            order = np.random.default_rng([123, seed]).permutation(240)
            tr, te = order[:40], order[40:]
            means = compute_channel_means(squares[i] for i in tr)
            train_src = ViewSource(squares[tr], labels[tr], CROP, means)
            test_src = ViewSource(squares[te], labels[te], CROP, means)
            config = TrainConfig(base_lr=1e-4, epochs=30, step_epochs=25, batch_size=32, seed=seed)

            spec_ft, ckpt_ft = apply_surgery(
                preset_plan("finetune"), source_network.spec, source_network.ckpt, seed=seed
            )
            tuned, _ = train(spec_ft, ckpt_ft, train_src, config)
            acc_transfer = evaluate(spec_ft, tuned, test_src).accuracy

            fresh_spec = reference_spec_small(2)
            scratch, _ = train(fresh_spec, init_params(fresh_spec, 1000 + seed), train_src, config)
            acc_random = evaluate(fresh_spec, scratch, test_src).accuracy
            gaps.append(acc_transfer - acc_random)
        elapsed = time.monotonic() - started + source_network.seconds
        mean_gap = float(np.mean(gaps))
        detail = (
            f"mean gap {mean_gap * 100:+.1f} points over 5 seeds "
            f"(per-seed {[f'{g * 100:+.1f}' for g in gaps]}, bound +5.0), "
            f"source train acc {source_network.train_acc:.3f}, "
            f"{elapsed:.0f}s incl. pretrain (bound 600s)"
        )
        gate(6, mean_gap >= 0.05 and elapsed < 600, detail)

    def test_criterion_07_probe_depth_trend(self, source_network):
        started = time.monotonic()
        squares, labels = generate_arrays("binary", 360, 72, seed=78, palette="alt")
        order = np.random.default_rng(5).permutation(360)
        ft_idx, probe_idx = order[:40], order[40:]
        means = compute_channel_means(squares[i] for i in ft_idx)
        train_src = ViewSource(squares[ft_idx], labels[ft_idx], CROP, means)

        spec_ft, ckpt_ft = apply_surgery(preset_plan("finetune"), source_network.spec, source_network.ckpt, seed=0)
        config = TrainConfig(base_lr=1e-4, epochs=30, step_epochs=25, batch_size=32, seed=0)
        tuned, _ = train(spec_ft, ckpt_ft, train_src, config)

        probe_src = ViewSource(squares[probe_idx], labels[probe_idx], CROP, means)
        probe_labels = labels[probe_idx]
        accuracy = {}
        for endpoint in ("conv1", "fc7", "fc8"):
            features = extract_features(spec_ft, tuned, probe_src, endpoint)
            for kind in ("svm", "softmax"):
                model, _ = fit_probe(features[:200], probe_labels[:200], kind)
                preds = model.predict(features[200:])
                accuracy[endpoint, kind] = float((preds == probe_labels[200:]).mean())
        elapsed = time.monotonic() - started
        margins = {
            kind: min(accuracy["fc7", kind], accuracy["fc8", kind]) - accuracy["conv1", kind]
            for kind in ("svm", "softmax")
        }
        ok = all(m >= 0.03 for m in margins.values()) and elapsed < 600
        table = ", ".join(f"{ep}/{kind} {accuracy[ep, kind]:.3f}" for ep, kind in accuracy)
        detail = (
            f"top-FC margin over conv1: svm {margins['svm'] * 100:+.1f}, "
            f"softmax {margins['softmax'] * 100:+.1f} points (bound +3.0); {table}; "
            f"{elapsed:.0f}s + shared pretrain (bound 600s)"
        )
        gate(7, ok, detail)

    def test_criterion_08_surgery_bit_exactness(self):
        conv = lambda k, c, r: k * c * r * r + k
        fc = lambda i, o: i * o + o
        base = {
            "conv1": conv(96, 3, 11), "conv2": conv(256, 96, 5), "conv3": conv(384, 256, 3),
            "conv4": conv(384, 384, 3), "conv5": conv(256, 384, 3),
            "fc6": fc(9216, 4096), "fc7": fc(4096, 4096), "fc8": fc(4096, 1000),
        }
        total = sum(base.values())
        expected = {
            "finetune": total - base["fc8"] + fc(4096, 2),
            "fc7-4096": total - base["fc8"],
            "fc6-4096": total - base["fc8"] - base["fc7"],
            "fc7-2": total - base["fc8"] - base["fc7"] + fc(4096, 2),
            "fc6-2": total - base["fc8"] - base["fc7"] - base["fc6"] + fc(9216, 2),
            "fc8-1000": total,
            "fc9-2": total + fc(1000, 2),
        }
        started = time.monotonic()
        spec = reference_spec(1000)
        ckpt = init_params(spec, seed=11)
        failures = []
        for preset, want in expected.items():
            plan = preset_plan(preset)
            new_spec, new_ckpt = apply_surgery(plan, spec, ckpt, seed=3)
            got = count_parameters(new_spec)
            if got != want:
                failures.append(f"{preset}: {got} params, want {want}")
            for name in [n for n in new_ckpt.entries if n != plan.head]:
                if new_ckpt.entries[name] is not ckpt.entries[name]:
                    failures.append(f"{preset}: retained {name} is not the base's own tensors")
                for old, new in zip(ckpt.entries[name], new_ckpt.entries[name]):
                    if old.tobytes() != new.tobytes():
                        failures.append(f"{preset}: retained {name} not byte-identical")
        elapsed = time.monotonic() - started
        detail = (
            f"7 presets, retained tensors byte-identical, counts match formulas, "
            f"in {elapsed:.1f}s (bound 10s)"
        ) if not failures else "; ".join(failures)
        gate(8, not failures and elapsed < 10, detail)

    def test_criterion_09_oversampling_contract(self):
        square = np.arange(3 * 256 * 256, dtype=np.float32).reshape(3, 256, 256)
        views = ten_crop(ViewSource(square[None], [0], crop=227), [0])
        crop_ok = (
            len(views) == 10
            and np.array_equal(views[0], square[:, :227, :227])
            and np.array_equal(views[1], square[:, :227, 29:])
            and np.array_equal(views[2], square[:, 29:, :227])
            and np.array_equal(views[3], square[:, 29:, 29:])
            and np.array_equal(views[4], square[:, 14:241, 14:241])
            and all(np.array_equal(views[i + 5], views[i][:, :, ::-1]) for i in range(5))
        )

        scores = np.random.default_rng(3).random((5, 10, 4))
        fusion_gap = float(np.max(np.abs(fuse_scores(scores) - scores.mean(axis=1))))

        spec = NetworkSpec(
            input_shape=(3, 8, 8),
            layers=(
                LayerSpec("c1", LayerKind.CONV, out_channels=4, kernel=3, stride=1,
                          pad=1, relu=True, init_std=0.2),
                LayerSpec("f2", LayerKind.FC, units=2, init_std=0.2),
                LayerSpec("prob", LayerKind.SOFTMAX),
            ),
        )
        ckpt = init_params(spec, seed=3)
        squares = np.empty((6, 3, 12, 12), dtype=np.float32)
        squares[:] = np.random.default_rng(4).normal(0, 1, size=(6, 3, 1, 1))
        source = ViewSource(squares, np.arange(6) % 2, crop=8)
        plain = evaluate(spec, ckpt, source, oversample=False)
        fused = evaluate(spec, ckpt, source, oversample=True)
        eval_ok = plain.accuracy == fused.accuracy and plain.degenerate == fused.degenerate
        detail = (
            f"10 views pixel-exact {crop_ok}, fused-vs-mean gap {fusion_gap:.1e} (bound 1e-6), "
            f"view-identical eval equal {eval_ok}"
        )
        gate(9, crop_ok and fusion_gap <= 1e-6 and eval_ok, detail)

    def test_criterion_10_cv_hygiene(self):
        labels = np.array([1] * 580 + [0] * 301)
        folds = stratified_kfold(labels, 5, seed=0)
        pos = [int(((folds == f) & (labels == 1)).sum()) for f in range(5)]
        neg = [int(((folds == f) & (labels == 0)).sum()) for f in range(5)]
        counts_ok = pos == [116] * 5 and sorted(neg) == [60, 60, 60, 60, 61]

        ids_ok = sorted(set(folds.tolist())) == [0, 1, 2, 3, 4]
        splits = audit_folds(folds)
        ratio_ok = True
        global_ratio = labels.mean()
        for _, test in splits:
            expected = len(test) * global_ratio
            if abs(labels[test].sum() - expected) > 1.0:
                ratio_ok = False
        detail = (
            f"580/301 at k=5: positives {pos}, negatives {sorted(neg)}, fold ids 0..4 {ids_ok}, "
            f"per-fold ratio within 1 sample {ratio_ok}, {len(splits)} leak-free splits"
        )
        gate(10, counts_ok and ids_ok and ratio_ok, detail)

    def test_criterion_11_determinism(self, tmp_path):
        manifest = write_synthetic_dataset(tmp_path / "corpus", "binary", 16, 72, seed=5, k_folds=2)
        config = config_from_dict(
            {
                "dataset": {"manifest": str(manifest), "k": 2},
                "train": {"base_lr": 0.0001, "epochs": 2, "step_epochs": 2, "batch_size": 8},
                "experiment": {"kind": "finetune"},
            }
        )
        for run in ("a", "b"):
            cross_validate(config, tmp_path / run / "exp")
            write_report(tmp_path / run)
        csv_a = (tmp_path / "a" / "report.csv").read_bytes()
        csv_b = (tmp_path / "b" / "report.csv").read_bytes()
        sum_a = (tmp_path / "a" / "exp" / "summary.json").read_bytes()
        sum_b = (tmp_path / "b" / "exp" / "summary.json").read_bytes()
        ok = csv_a == csv_b and sum_a == sum_b
        gate(11, ok, f"two identical runs: report.csv byte-identical {csv_a == csv_b}, "
                     f"summary.json byte-identical {sum_a == sum_b}")

    @pytest.mark.skipif(
        not (os.environ.get("SENTNET_FULLSCALE_WEIGHTS") and os.environ.get("SENTNET_FULLSCALE_MANIFEST")),
        reason="full-scale replication runs only when SENTNET_FULLSCALE_WEIGHTS and "
               "SENTNET_FULLSCALE_MANIFEST point at converted pretrained weights and "
               "the labeled manifest; it is documented as optional and not gating",
    )
    def test_criterion_12_full_scale_replication(self, tmp_path):
        weights = os.environ["SENTNET_FULLSCALE_WEIGHTS"]
        manifest = os.environ["SENTNET_FULLSCALE_MANIFEST"]

        def run(preset, kind="surgery"):
            config = config_from_dict(
                {
                    "dataset": {"manifest": manifest, "k": 5},
                    "preprocess": {"resize_to": 256, "crop": 227},
                    "experiment": {
                        "kind": kind,
                        "preset": preset,
                        "arch": "reference",
                        "base_checkpoint": weights,
                    },
                }
            )
            return cross_validate(config, tmp_path / (preset or "finetune"))

        finetune = run(None, kind="finetune")
        fc7_2, fc6_2 = run("fc7-2"), run("fc6-2")
        fc9_2, fc8_1000 = run("fc9-2"), run("fc8-1000")
        headline_ok = abs(finetune.mean_oversampled - 0.830) <= 0.05
        ordering_ok = fc7_2.mean > fc6_2.mean and fc9_2.mean > fc8_1000.mean
        detail = (
            f"finetune oversampled {finetune.mean_oversampled:.3f} (want 0.830 +/- 0.05), "
            f"fc7-2 {fc7_2.mean:.3f} vs fc6-2 {fc6_2.mean:.3f}, "
            f"fc9-2 {fc9_2.mean:.3f} vs fc8-1000 {fc8_1000.mean:.3f}"
        )
        gate(12, headline_ok and ordering_ok, detail)
