"""Tests for configs, evaluation, the cross-validation loop, reports, and CLI."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sentnet import cli, harness, ops
from sentnet.checkpoint import load_checkpoint, save_checkpoint
from sentnet.data import ViewSource, compute_channel_means, decode_squares, load_manifest, read_means, write_means
from sentnet.errors import ConfigError, DataError
from sentnet.harness import (
    PRESET_ORDER,
    ExperimentConfig,
    TrainSection,
    audit_folds,
    config_from_dict,
    config_to_dict,
    cross_validate,
    evaluate,
    fuse_scores,
    load_config,
    resolve_base_lr,
    resolve_means,
    resolve_preset,
    run_probe_experiment,
    save_config,
    summarize,
    write_report,
)
from sentnet.network import LayerKind, LayerSpec, NetworkSpec, init_params, reference_spec, reference_spec_small
from sentnet.surgery import preset_plan
from sentnet.synth import write_synthetic_dataset

from oracles import eval_scores_oversampled, eval_scores_plain


class TestFuseScores:
    def test_mean_over_views(self):
        scores = np.array([[[0.2, 0.8], [0.6, 0.4]]])
        np.testing.assert_allclose(fuse_scores(scores), [[0.4, 0.6]])

    def test_pre_softmax_applies_softmax_after_averaging(self):
        logits = np.array([[[1.0, 3.0], [3.0, 1.0]], [[0.0, 2.0], [0.0, 0.0]]])
        fused = fuse_scores(logits, pre_softmax=True)
        want = ops.softmax(logits.mean(axis=1))
        np.testing.assert_allclose(fused, want, rtol=1e-12)
        np.testing.assert_allclose(fused.sum(axis=1), 1.0, rtol=1e-12)

    def test_pre_softmax_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 10, 3))
        a = fuse_scores(logits, pre_softmax=True)
        b = fuse_scores(logits + 7.5, pre_softmax=True)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_single_sample_shape(self):
        out = fuse_scores(np.ones((10, 4)) / 4)
        assert out.shape == (4,)

    def test_rank_too_low_rejected(self):
        with pytest.raises(DataError, match="views"):
            fuse_scores(np.ones(3))


def head_only_spec():
    return NetworkSpec(
        input_shape=(3, 2, 2),
        layers=(
            LayerSpec("f2", LayerKind.FC, units=2),
            LayerSpec("prob", LayerKind.SOFTMAX),
        ),
    )


def head_only_ckpt(bias):
    spec = head_only_spec()
    ckpt = init_params(spec, seed=0)
    ckpt.entries["f2"] = (
        np.zeros((12, 2), dtype=np.float32),
        np.asarray(bias, dtype=np.float32),
    )
    return spec, ckpt


class TestEvaluate:
    def test_constant_predictor_is_degenerate(self):
        spec, ckpt = head_only_ckpt([1.0, 0.0])
        squares = np.random.default_rng(1).normal(size=(5, 3, 2, 2)).astype(np.float32)
        src = ViewSource(squares, [0, 0, 1, 1, 1], crop=2)
        result = evaluate(spec, ckpt, src)
        assert result.accuracy == pytest.approx(0.4)
        assert result.degenerate
        assert result.per_class == {0: 1.0, 1: 0.0}
        np.testing.assert_array_equal(result.confusion, [[2, 0], [3, 0]])
        assert result.n == 5

    def test_tied_scores_pick_the_lowest_class(self):
        spec, ckpt = head_only_ckpt([0.3, 0.3])
        squares = np.zeros((4, 3, 2, 2), dtype=np.float32)
        src = ViewSource(squares, [1, 1, 1, 1], crop=2)
        result = evaluate(spec, ckpt, src)
        assert result.accuracy == 0.0
        assert result.per_class == {1: 0.0}

    def make_constant_image_setup(self):
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
        rng = np.random.default_rng(4)
        squares = np.empty((6, 3, 12, 12), dtype=np.float32)
        squares[:] = rng.normal(0, 1, size=(6, 3, 1, 1))  # constant per channel
        src = ViewSource(squares, np.arange(6) % 2, crop=8)
        return spec, ckpt, src

    def test_oversampling_view_identical_images_matches_plain(self):
        spec, ckpt, src = self.make_constant_image_setup()
        plain = evaluate(spec, ckpt, src, oversample=False)
        fused = evaluate(spec, ckpt, src, oversample=True)
        assert fused.accuracy == plain.accuracy
        assert fused.degenerate == plain.degenerate

    def test_pre_softmax_fusion_on_view_identical_images(self):
        spec, ckpt, src = self.make_constant_image_setup()
        plain = evaluate(spec, ckpt, src, oversample=False)
        fused = evaluate(spec, ckpt, src, oversample=True, pre_softmax_fusion=True)
        assert fused.accuracy == plain.accuracy


def random_source(n, side, crop, seed=0):
    rng = np.random.default_rng(seed)
    squares = rng.uniform(0, 255, size=(n, 3, side, side)).astype(np.float32)
    return ViewSource(squares, np.arange(n) % 2, crop, np.array([120.5, 110.25, 100.0], dtype=np.float32))


def record_forward_rows(monkeypatch):
    """(layers, rows) of every forward pass harness makes while a test runs."""
    passes = []
    inner = harness.forward

    def recording(spec, ckpt, batch, retain=False):
        passes.append((len(spec.layers), len(batch)))
        return inner(spec, ckpt, batch, retain)

    monkeypatch.setattr(harness, "forward", recording)
    return passes


class TestOnePassEvaluate:
    """One ten-crop pass against the two loops it replaced: the center-view
    and fused scores must keep their bits for any image count, though an FC
    layer's GEMM rounds a row by the rows around it."""

    @pytest.mark.parametrize("pre_softmax", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 5, 7, 13, 65])
    def test_scores_match_the_separate_loops(self, n, pre_softmax):
        spec = reference_spec_small(2)
        ckpt = init_params(spec, seed=3)
        src = random_source(n, 72, 64, seed=n)
        plain, fused = harness._view_scores(spec, ckpt, src, True, pre_softmax)
        assert plain.tobytes() == eval_scores_plain(spec, ckpt, src).tobytes()
        assert fused.tobytes() == eval_scores_oversampled(spec, ckpt, src, pre_softmax).tobytes()
        alone, none = harness._view_scores(spec, ckpt, src, False, pre_softmax)
        assert alone.tobytes() == plain.tobytes() and none is None

    def test_reference_net_single_image(self):
        # one row sends an FC layer through GEMV in the center-crop loop
        spec = reference_spec(5)
        ckpt = init_params(spec, seed=1)
        src = random_source(1, 256, 227)
        plain, fused = harness._view_scores(spec, ckpt, src, True, False)
        assert plain.tobytes() == eval_scores_plain(spec, ckpt, src).tobytes()
        assert fused.tobytes() == eval_scores_oversampled(spec, ckpt, src, False).tobytes()

    def test_network_without_convolutions(self):
        spec, ckpt = head_only_ckpt([0.25, -0.5])
        ckpt.entries["f2"] = (np.random.default_rng(2).normal(size=(12, 2)).astype(np.float32),
                              ckpt.entries["f2"][1])
        src = random_source(3, 4, 2)
        plain, fused = harness._view_scores(spec, ckpt, src, True, True)
        assert plain.tobytes() == eval_scores_plain(spec, ckpt, src).tobytes()
        assert fused.tobytes() == eval_scores_oversampled(spec, ckpt, src, True).tobytes()

    def test_every_view_crosses_the_convolutions_once(self, monkeypatch):
        passes = record_forward_rows(monkeypatch)
        spec = reference_spec_small(2)
        src = random_source(13, 72, 64)
        evaluate(spec, init_params(spec, seed=3), src, oversample=True)
        full = [rows for layers, rows in passes if layers == len(spec.layers)]
        head = [rows for layers, rows in passes if layers == 4]  # fc6, fc7, fc8, prob
        assert full == [60, 60, 10]
        assert head == [13]
        assert len(passes) == len(full) + len(head)

    def test_oversampled_result_carries_the_plain_one(self):
        spec = reference_spec_small(2)
        ckpt = init_params(spec, seed=3)
        src = random_source(7, 72, 64)
        plain = evaluate(spec, ckpt, src)
        assert plain.plain is None
        for pre_softmax in (False, True):
            fused = evaluate(spec, ckpt, src, oversample=True, pre_softmax_fusion=pre_softmax)
            for got, want in ((fused.plain, plain),
                              (fused, harness._result(eval_scores_oversampled(spec, ckpt, src, pre_softmax),
                                                      src.labels))):
                assert got.accuracy == want.accuracy and got.degenerate == want.degenerate
                assert got.per_class == want.per_class and got.n == want.n
                assert got.confusion.tobytes() == want.confusion.tobytes()

    def test_label_without_an_output_rejected(self):
        spec, ckpt = head_only_ckpt([0.0, 0.0])
        src = ViewSource(np.zeros((3, 3, 2, 2), dtype=np.float32), [0, 1, 2], crop=2)
        with pytest.raises(DataError, match="label 2 is out of range for a network with 2 outputs"):
            evaluate(spec, ckpt, src)


class TestSummarize:
    def test_hand_values(self):
        mean, std = summarize([0.8, 0.9])
        assert mean == pytest.approx(0.85)
        assert std == pytest.approx(0.070710678118, rel=1e-9)

    def test_sample_std_uses_ddof_one(self):
        values = [0.7, 0.75, 0.8, 0.85]
        _, std = summarize(values)
        assert std == pytest.approx(float(np.std(values, ddof=1)), rel=1e-12)

    def test_single_value_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            summarize([0.5])


class TestAuditFolds:
    def test_splits_partition(self):
        folds = np.array([0, 1, 2, 0, 1, 2, 0])
        splits = audit_folds(folds, k=3)
        assert len(splits) == 3
        for trainv, test in splits:
            assert len(np.intersect1d(trainv, test)) == 0
            assert len(trainv) + len(test) == 7
        np.testing.assert_array_equal(splits[0][1], [0, 3, 6])

    def test_missing_fold_id_rejected(self):
        with pytest.raises(DataError, match="cover"):
            audit_folds(np.array([0, 2, 0, 2]), k=3)


class TestConfig:
    def test_defaults_round_trip(self):
        config = ExperimentConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_file_round_trip(self, tmp_path):
        config = config_from_dict(
            {
                "dataset": {"manifest": "m.csv", "k": 3},
                "train": {"base_lr": 0.01, "epochs": 7},
                "experiment": {"kind": "surgery", "preset": "fc7-2",
                               "probe": {"kinds": ["svm"]}},
                "seeds": {"init": 5},
            }
        )
        save_config(config, tmp_path / "c.json")
        back = load_config(tmp_path / "c.json")
        assert back == config
        assert back.experiment.probe.kinds == ("svm",)
        assert back.train.epochs == 7
        assert back.seeds.init == 5
        assert back.seeds.train == 0

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="sections"):
            config_from_dict({"optimizer": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            config_from_dict({"train": {"learning_rate": 0.1}})

    def test_unknown_probe_key_rejected(self):
        with pytest.raises(ConfigError, match="experiment.probe"):
            config_from_dict({"experiment": {"probe": {"grid": [1]}}})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="object"):
            config_from_dict({"train": [1, 2]})

    def test_invalid_json_file(self, tmp_path):
        (tmp_path / "c.json").write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(tmp_path / "c.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_resolve_preset(self):
        finetune = ExperimentConfig()
        assert resolve_preset(finetune) == "finetune"
        surgery = config_from_dict({"experiment": {"kind": "surgery", "preset": "fc6-2"}})
        assert resolve_preset(surgery) == "fc6-2"
        with pytest.raises(ConfigError, match="preset"):
            resolve_preset(config_from_dict({"experiment": {"kind": "surgery"}}))
        with pytest.raises(ConfigError, match="kind"):
            resolve_preset(config_from_dict({"experiment": {"kind": "probe"}}))

    def test_resolve_base_lr_precedence(self):
        plain = preset_plan("finetune")
        with_default = preset_plan("fc6-2")
        assert resolve_base_lr(TrainSection(base_lr=0.5), with_default) == 0.5
        assert resolve_base_lr(TrainSection(), with_default) == with_default.default_base_lr
        assert resolve_base_lr(TrainSection(), plain) == 0.001


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = write_synthetic_dataset(root, "binary", 16, 72, seed=5, k_folds=2)
    return manifest


def tiny_config(manifest_path):
    return config_from_dict(
        {
            "dataset": {"manifest": str(manifest_path), "k": 2},
            "train": {"base_lr": 0.0001, "epochs": 2, "step_epochs": 2, "batch_size": 8},
            "experiment": {"kind": "finetune"},
            "seeds": {"folds": 0, "init": 0, "train": 0},
        }
    )


@pytest.fixture(scope="module")
def cv_run(tiny_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("cv") / "finetune"
    summary = cross_validate(tiny_config(tiny_corpus), out)
    return summary, out


class TestCrossValidate:
    def test_summary_structure(self, cv_run):
        summary, _ = cv_run
        assert summary.preset == "finetune"
        assert summary.label == "finetune"
        assert len(summary.folds) == 2
        assert all(o.error is None for o in summary.folds)
        assert any("folds: provided by the manifest" in a for a in summary.assumptions)

    def test_mean_recomputable_from_folds(self, cv_run):
        summary, _ = cv_run
        accs = [o.accuracy for o in summary.folds]
        assert summary.mean == pytest.approx(float(np.mean(accs)), abs=1e-12)
        assert summary.std == pytest.approx(float(np.std(accs, ddof=1)), abs=1e-12)

    def test_fold_splits_partition_the_dataset(self, cv_run):
        summary, _ = cv_run
        for o in summary.folds:
            assert sorted(o.train_indices + o.test_indices) == list(range(16))

    def test_artifacts_exist(self, cv_run):
        _, out = cv_run
        for f in (0, 1):
            fold = out / f"fold{f}"
            assert (fold / "checkpoint.nsrg").exists()
            assert (fold / "history.csv").exists()
            assert (fold / "result.json").exists()
            assert read_means(fold / "means.txt").shape == (3,)
        assert (out / "summary.json").exists()

    def test_saved_checkpoint_has_two_way_head(self, cv_run):
        _, out = cv_run
        ckpt = load_checkpoint(out / "fold0" / "checkpoint.nsrg")
        assert ckpt.entries["fc8"][0].shape == (128, 2)

    def test_summary_json_matches_returned_summary(self, cv_run):
        summary, out = cv_run
        payload = json.loads((out / "summary.json").read_text())
        assert payload["mean"] == summary.mean
        assert payload["preset"] == "finetune"
        assert payload["config"]["dataset"]["k"] == 2
        assert len(payload["folds"]) == 2

    def test_history_covers_every_epoch(self, cv_run):
        _, out = cv_run
        lines = (out / "fold0" / "history.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 3  # header + 2 epochs

    def test_reruns_are_byte_identical(self, tiny_corpus, tmp_path):
        out_a = tmp_path / "a" / "exp"
        out_b = tmp_path / "b" / "exp"
        cross_validate(tiny_config(tiny_corpus), out_a)
        cross_validate(tiny_config(tiny_corpus), out_b)
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        ck_a = (out_a / "fold0" / "checkpoint.nsrg").read_bytes()
        ck_b = (out_b / "fold0" / "checkpoint.nsrg").read_bytes()
        assert ck_a == ck_b
        write_report(tmp_path / "a")
        write_report(tmp_path / "b")
        assert (tmp_path / "a" / "report.csv").read_bytes() == (tmp_path / "b" / "report.csv").read_bytes()

    def test_probe_experiment_artifacts(self, tiny_corpus, tmp_path):
        config = config_from_dict(
            {
                "dataset": {"manifest": str(tiny_corpus), "k": 2},
                "experiment": {
                    "kind": "probe",
                    "probe": {"endpoints": ["fc7"], "kinds": ["svm"],
                              "lambda_grid": [0.1], "iters": 20},
                },
            }
        )
        report = run_probe_experiment(config, tmp_path / "probe")
        assert {r.endpoint for r in report.rows} == {"fc7"}
        assert len(report.rows) == 2  # one svm row per fold
        assert (tmp_path / "probe" / "probe_report.csv").exists()
        assert (tmp_path / "probe" / "probe_report.md").exists()
        payload = json.loads((tmp_path / "probe" / "summary.json").read_text())
        assert payload["kind"] == "probe"
        assert payload["endpoints"] == ["fc7"]


def fake_fold(fold, acc, degenerate=False, error=None):
    return {
        "fold": fold,
        "train_indices": [0],
        "test_indices": [1],
        "accuracy": None if error else acc,
        "accuracy_oversampled": None if error else acc,
        "degenerate": degenerate,
        "degenerate_oversampled": False,
        "epochs_run": 1,
        "error": error,
    }


def fake_train_summary(preset, mean=0.8, std=0.02, degenerate=False, failed=False):
    folds = [fake_fold(0, mean, degenerate=degenerate)]
    folds.append(fake_fold(1, mean, error="diverged" if failed else None))
    return {
        "kind": "train-cv",
        "label": preset,
        "preset": preset,
        "mean": mean,
        "std": std,
        "mean_oversampled": mean,
        "std_oversampled": std,
        "base_lr": 0.001,
        "assumptions": ["shared note"],
        "folds": folds,
    }


def fake_probe_summary():
    return {
        "kind": "probe",
        "label": "probes",
        "endpoints": ["conv1", "fc7"],
        "kinds": ["svm"],
        "pre_activation": False,
        "standardize": True,
        "folds_note": "manifest",
        "rows": [
            {"endpoint": "conv1", "kind": "svm", "fold": 0, "accuracy": 0.5, "lam": 0.1},
            {"endpoint": "conv1", "kind": "svm", "fold": 1, "accuracy": 0.6, "lam": 0.1},
            {"endpoint": "fc7", "kind": "svm", "fold": 0, "accuracy": 0.9, "lam": 0.1},
        ],
        "config": {},
    }


class TestWriteReport:
    def build(self, tmp_path):
        for name, payload in [
            ("remove", fake_train_summary("fc7-2", mean=0.7)),
            ("base", fake_train_summary("finetune", degenerate=True)),
            ("probes", fake_probe_summary()),
        ]:
            d = tmp_path / name
            d.mkdir()
            (d / "summary.json").write_text(json.dumps(payload))
        return write_report(tmp_path)

    def test_sections_and_ordering(self, tmp_path):
        md_path, csv_path = self.build(tmp_path)
        md = md_path.read_text()
        assert md.index("## Fine-tuning") < md.index("## Layer removal")
        assert "## Layer probes (probes)" in md
        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "family,row,classifier,oversampling,mean,std,folds,failed_folds,degenerate_folds"
        # two lines per training row, one per probe endpoint
        assert len(csv_lines) == 1 + 2 * 2 + 2
        assert csv_lines[1].startswith("finetune,finetune,net,no,0.800000")
        assert csv_lines[3].startswith("ablation,fc7-2,net,no,0.700000")
        assert any(line.startswith("probe,conv1,svm,no,0.550000") for line in csv_lines)

    def test_degenerate_marker_and_footnote(self, tmp_path):
        md = self.build(tmp_path)[0].read_text()
        assert "0.800 ± 0.020*" in md
        assert "degenerate predictor" in md

    def test_assumptions_deduplicated(self, tmp_path):
        md = self.build(tmp_path)[0].read_text()
        assert md.count("shared note") == 1

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no summary"):
            write_report(tmp_path)


class TestCli:
    def test_prepare_data_synthetic(self, tmp_path, capsys):
        code = cli.main([
            "prepare-data", "--out", str(tmp_path / "data"),
            "--synthetic", "binary", "--count", "8", "--size", "16", "--folds", "2",
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.csv")
        assert (tmp_path / "data" / "manifest.csv").exists()

    def test_prepare_data_needs_a_source(self, tmp_path, capsys):
        code = cli.main(["prepare-data", "--out", str(tmp_path)])
        assert code == 1
        assert "synthetic" in capsys.readouterr().err

    def test_missing_required_argument_exits_one(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["finetune", "--out", "somewhere"])
        assert e.value.code == 1

    def test_no_command_prints_help(self, capsys):
        assert cli.main([]) == 1
        assert "COMMAND" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = cli.main([
            "finetune", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_missing_manifest_exits_two(self, tmp_path, capsys):
        config = tiny_config(tmp_path / "missing.csv")
        save_config(config, tmp_path / "c.json")
        code = cli.main([
            "finetune", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exits_three(self, tiny_corpus, tmp_path, capsys):
        config = config_from_dict(
            {
                "dataset": {"manifest": str(tiny_corpus), "k": 2},
                "train": {"base_lr": 1e8, "epochs": 3, "step_epochs": 3, "batch_size": 8},
            }
        )
        save_config(config, tmp_path / "c.json")
        code = cli.main([
            "pretrain", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged at epoch" in err
        assert ", batch " in err and ", layer " in err

    def test_pretrain_honours_configured_means(self, tiny_corpus, tmp_path):
        fixed = np.array([101.5, 97.25, 88.0], dtype=np.float32)
        write_means(tmp_path / "fixed.txt", fixed)
        base = {
            "dataset": {"manifest": str(tiny_corpus), "k": 2},
            "train": {"base_lr": 0.0001, "epochs": 1, "batch_size": 8},
            "seeds": {"folds": 0, "init": 0, "train": 0},
        }
        variants = {
            "default": base,
            "config": {**base, "preprocess": {"resize_to": 72, "crop": 64, "channel_means": fixed.tolist()}},
            "file": {**base, "dataset": {**base["dataset"], "means": str(tmp_path / "fixed.txt")}},
        }
        for name, payload in variants.items():
            save_config(config_from_dict(payload), tmp_path / f"{name}.json")
            code = cli.main(["pretrain", "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)])
            assert code == 0, name

        config = config_from_dict(base)
        own = compute_channel_means(iter(decode_squares(load_manifest(str(tiny_corpus)), config.preprocess)))
        assert read_means(tmp_path / "default" / "means.txt").tobytes() == own.tobytes()
        assert read_means(tmp_path / "config" / "means.txt").tobytes() == fixed.tobytes()
        assert read_means(tmp_path / "file" / "means.txt").tobytes() == fixed.tobytes()
        ckpt = {name: (tmp_path / name / "pretrained.nsrg").read_bytes() for name in variants}
        assert ckpt["config"] == ckpt["file"]
        assert ckpt["config"] != ckpt["default"]

    def test_means_resolve_config_then_file_then_none(self, tmp_path):
        write_means(tmp_path / "m.txt", np.array([1.0, 2.0, 3.0], dtype=np.float32))
        both = config_from_dict({
            "dataset": {"manifest": "x.csv", "means": str(tmp_path / "m.txt")},
            "preprocess": {"channel_means": [4.0, 5.0, 6.0]},
        })
        assert resolve_means(both).tolist() == [4.0, 5.0, 6.0]
        file_only = config_from_dict({"dataset": {"manifest": "x.csv", "means": str(tmp_path / "m.txt")}})
        assert resolve_means(file_only).tolist() == [1.0, 2.0, 3.0]
        assert resolve_means(config_from_dict({"dataset": {"manifest": "x.csv"}})) is None

    def test_finetune_and_report_pipeline(self, tiny_corpus, tmp_path, capsys):
        save_config(tiny_config(tiny_corpus), tmp_path / "c.json")
        code = cli.main([
            "finetune", "--config", str(tmp_path / "c.json"),
            "--out", str(tmp_path / "runs" / "ft"),
        ])
        assert code == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert "mean" in json.loads(line)
        code = cli.main(["report", "--out", str(tmp_path / "runs")])
        assert code == 0
        assert (tmp_path / "runs" / "report.md").exists()
        assert (tmp_path / "runs" / "report.csv").exists()

    def test_evaluate_checkpoint(self, cv_run, tiny_corpus, tmp_path, capsys):
        _, cv_out = cv_run
        save_config(tiny_config(tiny_corpus), tmp_path / "c.json")
        code = cli.main([
            "evaluate", "--config", str(tmp_path / "c.json"),
            "--out", str(tmp_path / "eval"),
            "--checkpoint", str(cv_out / "fold0" / "checkpoint.nsrg"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "eval" / "evaluation.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["n"] == 16

    def test_evaluate_uses_the_means_training_used(self, cv_run, tiny_corpus, tmp_path, monkeypatch, capsys):
        _, cv_out = cv_run
        seen = []

        class RecordingSource(ViewSource):
            def __init__(self, squares, labels, crop, means=None):
                seen.append(np.asarray(means, dtype=np.float32))
                super().__init__(squares, labels, crop, means)

        monkeypatch.setattr(cli, "ViewSource", RecordingSource)
        fold_ckpt = cv_out / "fold0" / "checkpoint.nsrg"

        def run(config, checkpoint):
            save_config(config, tmp_path / "c.json")
            return cli.main(["evaluate", "--config", str(tmp_path / "c.json"),
                             "--out", str(tmp_path / "eval"), "--checkpoint", str(checkpoint)])

        # no means in the config: the fold's own means.txt, from its training rows
        assert run(tiny_config(tiny_corpus), fold_ckpt) == 0
        assert seen[-1].tobytes() == read_means(cv_out / "fold0" / "means.txt").tobytes()

        # means in the config win over the file beside the checkpoint
        fixed = [101.5, 97.25, 88.0]
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["preprocess"]["channel_means"] = fixed
        assert run(config_from_dict(payload), fold_ckpt) == 0
        assert seen[-1].tolist() == fixed

        # neither: refuse rather than compute means over the evaluation images
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "checkpoint.nsrg").write_bytes(fold_ckpt.read_bytes())
        capsys.readouterr()
        assert run(tiny_config(tiny_corpus), bare / "checkpoint.nsrg") == 1
        err = capsys.readouterr().err
        assert "channel_means" in err and "means.txt" in err
        assert len(seen) == 2

    def test_cv_artifacts_identical_across_blas_thread_counts(self, tiny_corpus, tmp_path):
        threads = sorted({1, min(2, os.cpu_count() or 1)})
        if len(threads) < 2:
            pytest.skip("needs at least 2 cores to vary the BLAS thread count")
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["train"]["epochs"] = 1
        save_config(config_from_dict(payload), tmp_path / "c.json")
        src = str(Path(cli.__file__).resolve().parents[1])
        digests = {}
        for n in threads:
            out = tmp_path / f"threads{n}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "sentnet.cli", "finetune", "--config", str(tmp_path / "c.json"),
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            files = [out / "summary.json", *sorted(out.rglob("*.nsrg"))]
            assert len(files) == 3  # summary plus one checkpoint per fold
            digests[n] = [(f.relative_to(out).as_posix(), hashlib.sha256(f.read_bytes()).hexdigest())
                          for f in files]
        assert digests[threads[0]] == digests[threads[1]]

    def test_probe_with_an_empty_training_fold_exits_two(self, tiny_corpus, tmp_path, capsys):
        # a manifest whose rows all sit in fold 0 leaves that fold no training rows
        lines = tiny_corpus.read_text().splitlines()
        rows = [line.rsplit(",", 1)[0] for line in lines[1:]]
        manifest = tmp_path / "one_fold.csv"
        manifest.write_text(
            "path,label,fold\n" + "".join(f"{tiny_corpus.parent / row},0\n" for row in rows)
        )
        config = config_from_dict(
            {
                "dataset": {"manifest": str(manifest)},
                "experiment": {"probe": {"endpoints": ["fc8"], "kinds": ["svm"],
                                         "lambda_grid": [0.1], "iters": 5}},
            }
        )
        save_config(config, tmp_path / "c.json")
        code = cli.main(["probe", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "p")])
        assert code == 2
        assert "no rows" in capsys.readouterr().err

    def test_evaluate_without_checkpoint_exits_one(self, tiny_corpus, tmp_path, capsys):
        save_config(tiny_config(tiny_corpus), tmp_path / "c.json")
        code = cli.main([
            "evaluate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def preset_runs(tiny_corpus, tmp_path_factory):
    """A two-fold, one-epoch surgery run per preset from a 5-class source net."""
    root = tmp_path_factory.mktemp("presets")
    source = root / "source.nsrg"
    save_checkpoint(init_params(reference_spec_small(5), seed=11), source)
    runs = {}
    for preset in PRESET_ORDER:
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["train"]["epochs"] = 1
        payload["experiment"].update(kind="surgery", preset=preset, base_checkpoint=str(source))
        config = config_from_dict(payload)
        cross_validate(config, root / preset)
        runs[preset] = (config, root / preset)
    return runs


def fold_manifest(corpus, indices, path):
    """A manifest of the corpus rows at the given indices, without folds."""
    rows = [line.split(",") for line in corpus.read_text().splitlines()[1:]]
    path.write_text("path,label\n" + "".join(f"{corpus.parent / rows[i][0]},{rows[i][1]}\n" for i in indices))
    return path


class TestEvaluateFoldCheckpoints:
    @pytest.mark.parametrize("preset", PRESET_ORDER)
    def test_reproduces_the_fold_result(self, preset, preset_runs, tiny_corpus, tmp_path):
        config, run_dir = preset_runs[preset]
        for fold in (0, 1):
            result = json.loads((run_dir / f"fold{fold}" / "result.json").read_text())
            assert result["error"] is None
            payload = config_to_dict(config)
            payload["dataset"]["manifest"] = str(
                fold_manifest(tiny_corpus, result["test_indices"], tmp_path / f"test{fold}.csv"))
            save_config(config_from_dict(payload), tmp_path / "c.json")
            out = tmp_path / f"eval{fold}"
            code = cli.main(["evaluate", "--config", str(tmp_path / "c.json"), "--out", str(out),
                             "--checkpoint", str(run_dir / f"fold{fold}" / "checkpoint.nsrg"), "--oversample"])
            assert code == 0
            got = json.loads((out / "evaluation.json").read_text())
            assert got["accuracy"] == result["accuracy"]
            assert got["accuracy_oversampled"] == result["accuracy_oversampled"]
            assert got["degenerate"] == result["degenerate"]
            assert got["n"] == len(result["test_indices"])

    def test_config_naming_another_preset_exits_one(self, preset_runs, tmp_path, capsys):
        config, _ = preset_runs["fc7-2"]
        save_config(config, tmp_path / "c.json")
        _, fc9_dir = preset_runs["fc9-2"]
        code = cli.main(["evaluate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "e"),
                         "--checkpoint", str(fc9_dir / "fold0" / "checkpoint.nsrg")])
        assert code == 1
        assert "'fc7-2'" in capsys.readouterr().err

    @pytest.mark.parametrize("preset", ["fc7-2", "fc9-2", "fc8-1000"])
    def test_probe_reads_a_fold_checkpoint(self, preset, preset_runs, tiny_corpus, tmp_path):
        _, run_dir = preset_runs[preset]
        config = config_from_dict(
            {
                "dataset": {"manifest": str(tiny_corpus), "k": 2},
                "experiment": {
                    "kind": "probe", "preset": preset,
                    "base_checkpoint": str(run_dir / "fold0" / "checkpoint.nsrg"),
                    "probe": {"endpoints": ["fc7"], "kinds": ["svm"], "lambda_grid": [0.1], "iters": 5},
                },
            }
        )
        report = run_probe_experiment(config, tmp_path / "probe")
        assert len(report.rows) == 2


class TestEvaluateMulticlass:
    @pytest.fixture(scope="class")
    def source_run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("multiclass")
        manifest = write_synthetic_dataset(root / "data", "multiclass", 12, 72, seed=3, k_folds=2)
        config = config_from_dict({
            "dataset": {"manifest": str(manifest)},
            "train": {"base_lr": 0.0001, "epochs": 1, "batch_size": 6},
        })
        save_config(config, root / "c.json")
        assert cli.main(["pretrain", "--config", str(root / "c.json"), "--out", str(root / "source")]) == 0
        return root, manifest

    def test_scores_the_source_net_on_its_own_task(self, source_run, capsys):
        root, manifest = source_run
        code = cli.main(["evaluate", "--config", str(root / "c.json"), "--out", str(root / "eval"),
                         "--checkpoint", str(root / "source" / "pretrained.nsrg"), "--oversample"])
        assert code == 0
        got = json.loads((root / "eval" / "evaluation.json").read_text())
        labels = load_manifest(manifest, allow_multiclass=True).labels
        assert labels.max() >= 2
        assert got["n"] == len(labels)
        assert sorted(got["per_class"]) == [str(c) for c in sorted(set(labels.tolist()))]
        assert 0.0 <= got["accuracy_oversampled"] <= 1.0

    def test_label_beyond_the_checkpoint_head_exits_two(self, source_run, cv_run, capsys):
        root, _ = source_run
        _, cv_out = cv_run  # two-way fold checkpoints
        code = cli.main(["evaluate", "--config", str(root / "c.json"), "--out", str(root / "eval2"),
                         "--checkpoint", str(cv_out / "fold0" / "checkpoint.nsrg")])
        assert code == 2
        assert "out of range for a network with 2 outputs" in capsys.readouterr().err

