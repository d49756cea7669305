"""Tests for configs, evaluation, the cross-validation loop, reports, and CLI."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import typing
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentnet import cli, harness, ops
from sentnet.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from sentnet.data import (
    ViewSource,
    compute_channel_means,
    decode_squares,
    load_manifest,
    read_means,
    stratified_kfold,
    write_means,
    write_raw_tensor,
)
from sentnet.errors import (
    CheckpointFormatError, CheckpointMismatchError, CheckpointTruncatedError, ConfigError, DataError,
    DivergenceError,
)
from sentnet.harness import (
    PRESET_ORDER,
    ExperimentConfig,
    TrainSection,
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
    write_report,
)
from sentnet.network import (
    LayerKind, LayerSpec, NetworkSpec, init_params, parameter_shapes, reference_spec, reference_spec_small,
)
from sentnet.probe import ProbeReport, ProbeRow, fold_stats
from sentnet.surgery import preset_plan
from sentnet.synth import write_synthetic_dataset

from oracles import eval_scores_oversampled, eval_scores_plain, traced_peak


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
    """(layers, rows) of every inference pass harness makes while a test runs."""
    passes = []
    inner = harness.infer

    def recording(spec, ckpt, batch, keep):
        passes.append((len(spec.layers), len(batch)))
        return inner(spec, ckpt, batch, keep)

    monkeypatch.setattr(harness, "infer", recording)
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

    def test_oversampled_result_carries_the_plain_one(self, monkeypatch):
        spec = reference_spec_small(2)
        ckpt = init_params(spec, seed=3)
        src = random_source(7, 72, 64)
        preds = []  # the predictions behind each result evaluate builds
        inner = harness._result
        monkeypatch.setattr(harness, "_result",
                            lambda scores, labels: preds.append(scores.argmax(axis=1)) or inner(scores, labels))
        plain = evaluate(spec, ckpt, src)
        assert plain.plain is None
        for pre_softmax in (False, True):
            fused = evaluate(spec, ckpt, src, oversample=True, pre_softmax_fusion=pre_softmax)
            want_scores = eval_scores_oversampled(spec, ckpt, src, pre_softmax)
            assert preds[-2].tobytes() == preds[0].tobytes()
            assert preds[-1].tobytes() == want_scores.argmax(axis=1).tobytes()
            for got, want in ((fused.plain, plain), (fused, inner(want_scores, src.labels))):
                assert got.accuracy == want.accuracy and got.degenerate == want.degenerate
                assert got.per_class == want.per_class and got.n == want.n

    def test_one_chunk_of_activations_alive_at_a_time(self):
        spec = reference_spec_small(2)
        ckpt = init_params(spec, seed=3)

        def peak(n):
            src = random_source(n, 72, 64)
            return traced_peak(lambda: evaluate(spec, ckpt, src, oversample=True))[0]

        one_chunk = peak(6)
        assert peak(12) <= 1.15 * one_chunk

    def test_label_without_an_output_rejected(self):
        spec, ckpt = head_only_ckpt([0.0, 0.0])
        src = ViewSource(np.zeros((3, 3, 2, 2), dtype=np.float32), [0, 1, 2], crop=2)
        with pytest.raises(DataError, match="label 2 is out of range for a network with 2 outputs"):
            evaluate(spec, ckpt, src)


class TestFoldStats:
    def test_two_or_more_values_give_mean_and_sample_std(self):
        values = [0.7, 0.75, 0.8, 0.85]
        assert fold_stats(values) == (float(np.mean(values)), float(np.std(values, ddof=1)))
        mean, std = fold_stats([0.8, 0.9])
        assert mean == pytest.approx(0.85)
        assert std == pytest.approx(0.070710678118, rel=1e-9)

    def test_one_value_gives_itself_and_nan(self):
        mean, std = fold_stats([0.625])
        assert mean == 0.625 and np.isnan(std)

    def test_no_values_give_nan(self):
        assert all(np.isnan(v) for v in fold_stats([]))

    def test_cross_validate_gives_one_finished_fold_alone(self, tiny_corpus, tmp_path, monkeypatch):
        inner = harness.train_in_place

        def diverge_second_fold(spec, ckpt, source, cfg, validate=None):
            if cfg.seed == 1:
                raise DivergenceError("loss became nan")
            return inner(spec, ckpt, source, cfg, validate)

        monkeypatch.setattr(harness, "train_in_place", diverge_second_fold)
        summary = cross_validate(tiny_config(tiny_corpus), tmp_path / "cv")
        first = summary.folds[0]
        assert summary.folds[1].error is not None and first.error is None
        assert (summary.mean, summary.mean_oversampled) == (first.accuracy, first.accuracy_oversampled)
        assert np.isnan(summary.std) and np.isnan(summary.std_oversampled)


# JSON kinds that a config annotation admits: a float field also takes an int
ADMITTED = {"None": {type(None)}, "bool": {bool}, "int": {int}, "float": {int, float}, "str": {str}}
JSON_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-(10**6), 10**6),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(max_size=4),
    list: st.lists(st.integers(0, 9), max_size=3),
    dict: st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
}


def wrong_values(annotation):
    """JSON values that the field annotation (a string such as "float | None") does not admit."""
    kinds, items = set(), None
    for part in annotation.split(" | "):
        if part.startswith("tuple["):
            kinds.add(list)
            items = ADMITTED[part[len("tuple["):].split(",")[0]]
        else:
            kinds |= ADMITTED[part]
    wrong = [value for kind, value in JSON_VALUES.items() if kind not in kinds]
    if items is not None:  # an array holding an item of the wrong kind
        bad_item = st.one_of([value for kind, value in JSON_VALUES.items() if kind not in items])
        wrong.append(st.lists(bad_item, min_size=1, max_size=3))
    return st.one_of(wrong)


def config_keys(cls, prefix=""):
    """(dotted key, annotation) for every field of a config section, nested ones included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from config_keys(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", f.type


CONFIG_KEYS = list(config_keys(ExperimentConfig))


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

    @pytest.mark.parametrize("arch, sections, crop, side", [
        ("small", {"preprocess": {"channel_means": [1.0, 2.0, 3.0]}}, 227, 64),
        ("small", {"preprocess": {"resize_to": 72, "crop": 60}}, 60, 64),
        ("reference", {}, 64, 227),
    ], ids=["small-means-only", "small-60", "reference-default"])
    def test_crop_must_be_the_arch_input_side(self, arch, sections, crop, side):
        with pytest.raises(ConfigError, match=f"preprocess.crop {crop} .* input side {side}"):
            config_from_dict({"experiment": {"arch": arch}, **sections})
        assert config_from_dict({"experiment": {"arch": arch},
                                 "preprocess": {"resize_to": 256, "crop": side}}).preprocess.crop == side

    def test_oversample_false_rejected(self):
        with pytest.raises(ConfigError, match="experiment.oversample"):
            config_from_dict({"experiment": {"oversample": False}})

    def test_oversample_true_or_absent_accepted(self):
        assert config_from_dict({"experiment": {"oversample": True}}).experiment.oversample is True
        assert config_from_dict({"experiment": {}}).experiment.oversample is True

    @pytest.mark.parametrize("payload, key", [
        ({"experiment": {"pre_softmax_fusion": "no"}}, "experiment.pre_softmax_fusion"),
        ({"train": {"epochs": "2"}}, "train.epochs"),
        ({"train": {"batch_size": 2.5}}, "train.batch_size"),
        ({"train": {"epochs": True}}, "train.epochs"),
        ({"train": {"base_lr": False}}, "train.base_lr"),
        ({"seeds": {"init": "a"}}, "seeds.init"),
        ({"dataset": {"k": "2"}}, "dataset.k"),
        ({"preprocess": {"channel_means": [1.0, 2.0]}}, "preprocess.channel_means"),
        ({"experiment": {"probe": {"endpoints": "fc7"}}}, "experiment.probe.endpoints"),
        ({"experiment": {"probe": {"lambda_grid": [0.1, "1"]}}}, "experiment.probe.lambda_grid"),
    ])
    def test_wrongly_typed_value_rejected_with_its_key(self, payload, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            config_from_dict(payload)

    def test_float_field_keeps_an_int_as_written(self):
        config = config_from_dict({"train": {"gamma": 1, "base_lr": 0},
                                   "preprocess": {"resize_to": 72, "crop": 64, "channel_means": [1, 2, 3]}})
        assert type(config.train.gamma) is int and type(config.train.base_lr) is int
        saved = config_to_dict(config)
        assert saved["train"]["gamma"] == 1 and saved["preprocess"]["channel_means"] == (1, 2, 3)
        assert '"gamma": 1,' in json.dumps(saved["train"], sort_keys=True)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_float_exits_one_at_load(self, value, tmp_path, capsys):
        """Python's json parses NaN and Infinity. No float field takes them: a
        NaN lambda would win selection, and NaN training floats pass every
        range check."""
        floats = [(key, annotation) for key, annotation in CONFIG_KEYS if "float" in annotation]
        assert {"train.base_lr", "train.weight_decay", "experiment.probe.lambda_grid"} <= dict(floats).keys()
        for key, annotation in floats:
            items = {"tuple[float, float, float] | None": 3, "tuple[float, ...]": 2}.get(annotation)
            text = f"[{value}{', 0.5' * (items - 1)}]" if items else value
            *sections, name = key.split(".")
            path = tmp_path / f"{key}.json"
            path.write_text("".join(f'{{"{s}": ' for s in sections) + f'{{"{name}": {text}}}' + "}" * len(sections))
            with pytest.raises(ConfigError, match=f"'{key}'"):
                load_config(path)
            code = cli.main(["probe", "--config", str(path), "--out", str(tmp_path / "never")])
            assert code == 1
            assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cli_exits_one_naming_any_mistyped_key(self, data, tmp_path_factory):
        configs = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        for key, annotation in CONFIG_KEYS:
            value = data.draw(wrong_values(annotation), label=key)
            *sections, name = key.split(".")
            payload = {name: value}
            for section in reversed(sections):
                payload = {section: payload}
            path = configs / f"{key}.json"
            path.write_text(json.dumps(payload))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["finetune", "--config", str(path), "--out", str(configs / "never")])
            assert code == 1
            assert f"'{key}'" in err.getvalue() and "Traceback" not in err.getvalue()

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
        summary, out = cv_run
        assert summary.preset == "finetune"
        assert json.loads((out / "summary.json").read_text())["label"] == "finetune"
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

    def test_tracked_validation_ends_at_the_fold_accuracy(self, tiny_corpus, tmp_path):
        """With train.track_val every epoch has a val_acc, scored by evaluate
        on the fold's test rows, so the last one is the fold's plain accuracy."""
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["train"]["track_val"] = True
        summary = cross_validate(config_from_dict(payload), tmp_path / "cv")
        assert all(o.error is None for o in summary.folds)
        for f in range(2):
            fold = tmp_path / "cv" / f"fold{f}"
            rows = [line.split(",") for line in (fold / "history.csv").read_text().splitlines()[1:]]
            assert len(rows) == 2 and all(row[3] for row in rows)
            accuracy = json.loads((fold / "result.json").read_text())["accuracy"]
            assert rows[-1][3] == f"{accuracy:.6f}"

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

    def test_byte_squares_write_the_artifacts_of_float32_squares(self, cv_run, tiny_corpus, tmp_path, monkeypatch):
        """The tiny corpus decodes to uint8 squares; the same run on those
        squares cast to float32 writes every artifact byte for byte."""
        _, out = cv_run
        config = tiny_config(tiny_corpus)
        assert decode_squares(load_manifest(str(tiny_corpus)), config.preprocess).dtype == np.uint8
        monkeypatch.setattr(harness, "decode_squares", lambda *args: decode_squares(*args).astype(np.float32))
        copy = tmp_path / "finetune"
        cross_validate(config, copy)
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert files and files == sorted(p.relative_to(copy) for p in copy.rglob("*") if p.is_file())
        for name in files:
            assert (out / name).read_bytes() == (copy / name).read_bytes(), name

    def test_fold_checkpoint_released_before_the_next_fold_trains(self, tiny_corpus, tmp_path, monkeypatch):
        inner = harness.train_in_place
        trained_refs, alive_on_entry = [], []

        def tracking(*args, **kwargs):
            alive_on_entry.append([ref() is not None for ref in trained_refs])
            trained, history = inner(*args, **kwargs)
            trained_refs.append(weakref.ref(trained))
            return trained, history

        monkeypatch.setattr(harness, "train_in_place", tracking)
        cross_validate(tiny_config(tiny_corpus), tmp_path / "cv")
        assert alive_on_entry == [[], [False]]

    @pytest.mark.parametrize("from_file", [False, True], ids=["seeded", "checkpoint"])
    def test_a_fold_trains_the_one_network_it_loaded(self, tiny_corpus, tmp_path, monkeypatch, from_file):
        """The task holds no parameter; each fold gets its own base and trains
        it in place, on view sources that read the task's squares."""
        config = tiny_config(tiny_corpus)
        if from_file:
            save_checkpoint(init_params(reference_spec_small(2), 4), tmp_path / "base.nsrg")
            experiment = dataclasses.replace(config.experiment, base_checkpoint=str(tmp_path / "base.nsrg"))
            config = dataclasses.replace(config, experiment=experiment)
        load_task, network, inner = harness.load_task, harness.Task.network, harness.train_in_place
        tasks, loaded, trained_loaded = [], [], []

        def keep_task(*args, **kwargs):
            tasks.append(load_task(*args, **kwargs))
            return tasks[-1]

        def keep_network(task):
            loaded.append(network(task))
            return loaded[-1]

        def checked(spec, ckpt, source, cfg, validate=None):
            reachable = list(_reachable(tasks[0]))
            assert not any(isinstance(o, Checkpoint) for o in reachable)
            arrays = [o for o in reachable if isinstance(o, np.ndarray)]
            params = [t for pair in ckpt.entries.values() for t in pair]
            assert not any(np.may_share_memory(t, a) for t in params for a in arrays)
            assert source.squares is tasks[0].squares
            trained, history = inner(spec, ckpt, source, cfg, validate)
            trained_loaded.append(trained.entries["fc6"][0] is loaded[-1].entries["fc6"][0])
            return trained, history

        monkeypatch.setattr(harness, "load_task", keep_task)
        monkeypatch.setattr(harness.Task, "network", keep_network)
        monkeypatch.setattr(harness, "train_in_place", checked)
        summary = cross_validate(config, tmp_path / "cv")
        assert all(o.error is None for o in summary.folds)
        assert (len(tasks), len(loaded), trained_loaded) == (1, 2, [True, True])

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


def _reachable(obj):
    """obj and everything held by its dataclass fields, dicts, lists and tuples."""
    stack, seen = [obj], set()
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        yield o
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            stack += [getattr(o, f.name) for f in dataclasses.fields(o)]
        elif isinstance(o, dict):
            stack += list(o.values())
        elif isinstance(o, (list, tuple)):
            stack += list(o)

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

    def test_probe_tables_keep_their_bytes(self, tmp_path):
        accs = {("conv1", "svm"): [0.5, 0.625, 0.75], ("conv1", "softmax"): [0.55, 0.6, 0.7],
                ("fc7", "svm"): [0.875, 0.9, 0.8], ("fc7", "softmax"): [1.0, 0.95, 0.85]}
        rows = [ProbeRow(ep, kind, f, a, 0.01 * (f + 1)) for (ep, kind), v in accs.items() for f, a in enumerate(v)]
        report = ProbeReport(rows=rows, endpoints=("conv1", "fc7"), kinds=("svm", "softmax"),
                             pre_activation=False, standardize=True)
        table = (
            "| Endpoint | SVM | Softmax |\n|---|---|---|\n"
            "| conv1 | 0.625 ± 0.125 | 0.617 ± 0.076 |\n| fc7 | 0.858 ± 0.052 | 0.933 ± 0.076 |\n"
        )
        assert report.to_markdown() == (
            table + "\nFeatures: post-activation, single center view, standardized columns.\n"
        )
        (tmp_path / "probes").mkdir()
        payload = {"kind": "probe", "label": "probes", "endpoints": ["conv1", "fc7"], "kinds": ["svm", "softmax"],
                   "pre_activation": False, "standardize": True, "folds_note": "manifest",
                   "rows": [dataclasses.asdict(r) for r in rows], "config": {}}
        (tmp_path / "probes" / "summary.json").write_text(json.dumps(payload))
        md_path, csv_path = write_report(tmp_path)
        assert md_path.read_text() == (
            "# Experiment report\n\n## Layer probes (probes)\n\n" + table
            + "\n## Assumptions\n\n- probe features: post-activation, single center view\n"
        )
        assert csv_path.read_text() == (
            "family,row,classifier,oversampling,mean,std,folds,failed_folds,degenerate_folds\n"
            "probe,conv1,svm,no,0.625000,0.125000,3,0,0\nprobe,conv1,softmax,no,0.616667,0.076376,3,0,0\n"
            "probe,fc7,svm,no,0.858333,0.052042,3,0,0\nprobe,fc7,softmax,no,0.933333,0.076376,3,0,0\n"
        )

    def test_report_keeps_its_bytes(self, tmp_path):
        write_summaries(tmp_path, PINNED_RUNS)
        md_path, csv_path = write_report(tmp_path)
        assert md_path.read_text() == "\n".join(PINNED_MD)
        assert csv_path.read_text() == "\n".join(PINNED_CSV) + "\n"

    def test_probe_feature_note_listed_once(self, tmp_path):
        write_summaries(tmp_path, {"a": pinned_probe("a"), "b": pinned_probe("b"),
                                   "c": pinned_probe("c", pre_activation=True)})
        md = write_report(tmp_path)[0].read_text()
        assert md.count("- probe features: post-activation, single center view") == 1
        assert md.count("- probe features: pre-activation, single center view") == 1

    def test_shared_probe_label_names_its_directory(self, tmp_path):
        write_summaries(tmp_path, {"a": pinned_probe("probes"), "b/c": pinned_probe("probes")})
        md = write_report(tmp_path)[0].read_text()
        assert md.index("## Layer probes (probes (a))") < md.index("## Layer probes (probes (b/c))")

    def test_preset_of_no_family_gets_the_last_training_table(self, tmp_path):
        custom = pinned_summary("custom", [pinned_fold(0, 0.5, degenerate=True), pinned_fold(1, 0.75)],
                                ["custom note"])
        runs = {"custom": custom, "ft": PINNED_RUNS["ft-again"], "probes": pinned_probe("p")}
        write_summaries(tmp_path, runs)
        md_path, csv_path = write_report(tmp_path)
        md = md_path.read_text()
        assert md.index("## Fine-tuning") < md.index("## Other presets") < md.index("## Layer probes (p)")
        assert "| custom | 0.625 ± 0.177* | 0.625 ± 0.177 |" in md
        assert "\\* at least one fold predicted a single class" in md
        assert csv_path.read_text().splitlines()[3:5] == [
            "other,custom,net,no,0.625000,0.176777,2,0,1", "other,custom,net,yes,0.625000,0.176777,2,0,0",
        ]


def pinned_fold(f, acc, error=None, degenerate=False, degenerate_os=False, acc_os=None):
    return {"fold": f, "train_indices": [1 - f], "test_indices": [f],
            "accuracy": None if error else acc,
            "accuracy_oversampled": None if error else (acc if acc_os is None else acc_os),
            "degenerate": degenerate, "degenerate_oversampled": degenerate_os,
            "epochs_run": 1, "error": error}


def pinned_summary(preset, folds, notes):
    """A train-cv summary whose statistics are computed here, apart from the package."""
    stats = {}
    for key in ("", "_oversampled"):
        accs = [f["accuracy" + key] for f in folds if f["error"] is None]
        stats["mean" + key] = float(np.mean(accs)) if accs else float("nan")
        stats["std" + key] = float(np.std(accs, ddof=1)) if len(accs) > 1 else float("nan")
    return {"kind": "train-cv", "label": preset, "preset": preset, "folds": folds,
            **stats, "base_lr": 0.001, "assumptions": notes}


def pinned_probe(label, pre_activation=False):
    accs = [("conv1", "svm", [0.5, 0.625]), ("conv1", "softmax", [0.75, 0.5]), ("fc7", "svm", [0.875])]
    return {"kind": "probe", "label": label, "endpoints": ["conv1", "fc7"], "kinds": ["svm", "softmax"],
            "pre_activation": pre_activation, "standardize": True, "folds_note": "manifest", "config": {},
            "rows": [{"endpoint": ep, "kind": kind, "fold": f, "accuracy": a, "lam": 0.1}
                     for ep, kind, values in accs for f, a in enumerate(values)]}


def write_summaries(root, runs):
    for rel, payload in runs.items():
        (root / rel).mkdir(parents=True)
        (root / rel / "summary.json").write_text(json.dumps(payload))


# Every family, a label two runs share, diverged folds, plain and oversampled
# degenerate folds, a CV with one finished fold and one with none, and a probe
# summary whose fc7 SVM has one fold and whose fc7 softmax has none.
PINNED_RUNS = {
    "ft": pinned_summary(
        "finetune", [pinned_fold(0, 0.75, degenerate=True), pinned_fold(1, 0.625, acc_os=0.875),
                     pinned_fold(2, 0.5)],
        ["folds: stratified k=3, seed 0", "base learning rate 0.001"]),
    "ft-again": pinned_summary("finetune", [pinned_fold(0, 0.5), pinned_fold(1, 0.75)],
                               ["folds: provided by the manifest"]),
    "fc7-2": pinned_summary(
        "fc7-2", [pinned_fold(0, 0.625, degenerate_os=True), pinned_fold(1, 0.5, acc_os=0.625),
                  pinned_fold(2, 0, error="diverged at epoch 1, batch 0, layer fc7")],
        ["folds: stratified k=3, seed 0", "base learning rate 0.0001 (preset default)"]),
    "fc6-2": pinned_summary(
        "fc6-2", [pinned_fold(0, 0.875, acc_os=0.75), pinned_fold(1, 0, error="diverged")],
        ["one finished fold"]),
    "fc9-2": pinned_summary(
        "fc9-2", [pinned_fold(0, 0, error="diverged"), pinned_fold(1, 0, error="diverged")],
        ["no finished fold"]),
    "deep/fc8-1000": pinned_summary(
        "fc8-1000", [pinned_fold(0, 0.5), pinned_fold(1, 0.625)],
        ["label mapping: positive -> class 0, negative -> class 1 (wide retained head)"]),
    "probes": pinned_probe("probes"),
}
TABLE_HEAD = ["| Architecture | Without oversampling | With oversampling |", "|---|---|---|"]
PINNED_MD = [
    "# Experiment report", "",
    "## Fine-tuning", "", *TABLE_HEAD,
    "| finetune (ft) | 0.625 ± 0.125* | 0.708 ± 0.191 |",
    "| finetune (ft-again) | 0.625 ± 0.177 | 0.625 ± 0.177 |", "",
    "## Layer removal", "", *TABLE_HEAD,
    "| fc7-2 | 0.562 ± 0.088 (1 fold(s) diverged) | 0.625 ± 0.000* |",
    "| fc6-2 | 0.875 (1 fold(s) diverged) | 0.750 |", "",
    "## Layer addition", "", *TABLE_HEAD,
    "| fc8-1000 | 0.562 ± 0.088 | 0.562 ± 0.088 |",
    "| fc9-2 | failed (2 fold(s) diverged) | failed |", "",
    "## Layer probes (probes)", "",
    "| Endpoint | SVM | Softmax |", "|---|---|---|",
    "| conv1 | 0.562 ± 0.088 | 0.625 ± 0.177 |",
    "| fc7 | 0.875 | - |", "",
    "\\* at least one fold predicted a single class (degenerate predictor)", "",
    "## Assumptions", "",
    "- folds: stratified k=3, seed 0",
    "- base learning rate 0.001",
    "- folds: provided by the manifest",
    "- base learning rate 0.0001 (preset default)",
    "- one finished fold",
    "- label mapping: positive -> class 0, negative -> class 1 (wide retained head)",
    "- no finished fold",
    "- probe features: post-activation, single center view", "",
]
PINNED_CSV = [
    "family,row,classifier,oversampling,mean,std,folds,failed_folds,degenerate_folds",
    "finetune,finetune (ft),net,no,0.625000,0.125000,3,0,1",
    "finetune,finetune (ft),net,yes,0.708333,0.190941,3,0,0",
    "finetune,finetune (ft-again),net,no,0.625000,0.176777,2,0,0",
    "finetune,finetune (ft-again),net,yes,0.625000,0.176777,2,0,0",
    "ablation,fc7-2,net,no,0.562500,0.088388,3,1,0",
    "ablation,fc7-2,net,yes,0.625000,0.000000,3,1,1",
    "ablation,fc6-2,net,no,0.875000,nan,2,1,0",
    "ablation,fc6-2,net,yes,0.750000,nan,2,1,0",
    "addition,fc8-1000,net,no,0.562500,0.088388,2,0,0",
    "addition,fc8-1000,net,yes,0.562500,0.088388,2,0,0",
    "addition,fc9-2,net,no,nan,nan,2,2,0",
    "addition,fc9-2,net,yes,nan,nan,2,2,0",
    "probe,conv1,svm,no,0.562500,0.088388,2,0,0",
    "probe,conv1,softmax,no,0.625000,0.176777,2,0,0",
    "probe,fc7,svm,no,0.875000,nan,1,0,0",
]


MALFORMED_INPUTS = {  # case: (command, exit code, words of its one error line)
    "config is a directory": ("finetune", 1, "unreadable config"),
    "config is not UTF-8": ("finetune", 1, "unreadable config"),
    "manifest is a directory": ("pretrain", 2, "Is a directory"),
    "manifest label int rejects": ("pretrain", 2, "m.csv:2: bad label"),
    "manifest fold blank on one row": ("finetune", 2, "m.csv:3: blank fold"),
    "means file is binary": ("pretrain", 2, "unreadable means file"),
    "PPM of 0x0 pixels": ("pretrain", 2, "empty.ppm: image has no pixels"),
    "raw tensor of 3x0x5": ("pretrain", 2, "empty.rawt: image has no pixels"),
    "checkpoint name byte 0xff": ("evaluate", 2, "name is not UTF-8"),
}


def malformed_config(root, case, manifest):
    """The path of a config whose inputs are well formed but for the one `case` names."""
    payload = {"dataset": {"manifest": str(manifest), "k": 2}, "train": {"epochs": 1, "batch_size": 8}}
    if case == "config is a directory":
        (root / "c.json").mkdir()
        return root / "c.json"
    if case == "config is not UTF-8":
        (root / "c.json").write_bytes(b'{"train": {"epochs": "\xff"}}')
        return root / "c.json"
    if case == "manifest is a directory":
        payload["dataset"]["manifest"] = str(root)
    elif case == "manifest label int rejects":
        (root / "m.csv").write_text("path,label\na.ppm,\u00b2\n", encoding="utf-8")
        payload["dataset"]["manifest"] = str(root / "m.csv")
    elif case == "manifest fold blank on one row":
        (root / "m.csv").write_text("path,label,fold\na.ppm,1,0\nb.ppm,0,\n")
        payload["dataset"]["manifest"] = str(root / "m.csv")
    elif case == "means file is binary":
        (root / "means.txt").write_bytes(b"\x93NUMPY\x01\x00")
        payload["dataset"]["means"] = str(root / "means.txt")
    elif case == "PPM of 0x0 pixels":
        (root / "empty.ppm").write_bytes(b"P6\n0 0\n255\n")
        (root / "m.csv").write_text("path,label\nempty.ppm,1\n")
        payload["dataset"]["manifest"] = str(root / "m.csv")
    elif case == "raw tensor of 3x0x5":
        write_raw_tensor(root / "empty.rawt", np.zeros((3, 0, 5), dtype=np.float32))
        (root / "m.csv").write_text("path,label\nempty.rawt,1\n")
        payload["dataset"]["manifest"] = str(root / "m.csv")
    elif case == "checkpoint name byte 0xff":
        save_checkpoint(init_params(reference_spec_small(2), seed=0), root / "c.nsrg")
        raw = bytearray((root / "c.nsrg").read_bytes())
        raw[14] = 0xFF  # the first byte of the first entry's name
        (root / "c.nsrg").write_bytes(bytes(raw))
        payload["experiment"] = {"base_checkpoint": str(root / "c.nsrg")}
    (root / "c.json").write_text(json.dumps(payload))
    return root / "c.json"


def one_fold_manifest(corpus, path):
    """The corpus with every row in fold 0, which leaves that fold no training rows."""
    rows = [line.rsplit(",", 1)[0] for line in corpus.read_text().splitlines()[1:]]
    path.write_text("path,label,fold\n" + "".join(f"{corpus.parent / row},0\n" for row in rows))
    return path


class TestCli:
    @pytest.mark.parametrize("case", MALFORMED_INPUTS)
    def test_malformed_input_exits_with_one_line(self, case, tiny_corpus, tmp_path, capsys):
        command, code, words = MALFORMED_INPUTS[case]
        config = malformed_config(tmp_path, case, tiny_corpus)
        assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("sentnet:")]
        assert len(lines) == 1 and words in lines[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_train_recipe_checked_before_any_work(self, command, tiny_corpus, tmp_path, monkeypatch, capsys):
        decoded = []
        monkeypatch.setattr(harness, "decode_squares", lambda *args: decoded.append(args))
        payload = {"dataset": {"manifest": str(tiny_corpus), "k": 2}, "train": {"epochs": 0}}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]) == 1
        assert "epochs must be >= 1" in capsys.readouterr().err
        assert decoded == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("kinds", ["lda"]),
        ("kinds", ["svm", "svm"]),
        ("endpoints", ["nope"]),
        ("endpoints", ["fc7", "fc7"]),
        ("lambda_grid", []),
        ("lambda_grid", [0.1, 0]),
        ("inner_folds", 1),
        ("iters", 0),
    ])
    def test_probe_section_checked_before_any_work(self, key, value, tiny_corpus, tmp_path, monkeypatch, capsys):
        decoded = []
        monkeypatch.setattr(harness, "decode_squares", lambda *args: decoded.append(args))
        payload = {"dataset": {"manifest": str(tiny_corpus), "k": 2},
                   "experiment": {"kind": "probe", "probe": {key: value}}}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        assert cli.main(["probe", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]) == 1
        assert f"experiment.probe.{key}" in capsys.readouterr().err
        assert decoded == [] and not (tmp_path / "out").exists()

    def test_prepare_data_synthetic(self, tmp_path, capsys):
        code = cli.main([
            "prepare-data", "--out", str(tmp_path / "data"),
            "--synthetic", "binary", "--count", "8", "--size", "16", "--folds", "2",
        ])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.csv")
        assert (tmp_path / "data" / "manifest.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--count", "0"), ("--count", "-1"), ("--size", "0"), ("--size", "-3")])
    def test_prepare_data_rejects_empty_synthetic_sizes(self, flag, value, tmp_path, capsys):
        code = cli.main(["prepare-data", "--out", str(tmp_path / "data"), "--synthetic", "binary", flag, value])
        err = capsys.readouterr().err
        assert code == 1 and f"{flag[2:]} must be >= 1, got {value}" in err and "Traceback" not in err, err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("args,words", [
        (["--folds", "0"], "need at least 2 folds, got 0"),
        (["--folds", "1"], "need at least 2 folds, got 1"),
        (["--count", "3", "--folds", "5"], "fewer than k=5"),
    ], ids=["folds-0", "folds-1", "count-3-folds-5"])
    def test_prepare_data_checks_folds_before_any_image(self, args, words, tmp_path, capsys):
        code = cli.main(["prepare-data", "--out", str(tmp_path / "data"), "--synthetic", "binary", "--size", "8",
                         *args])
        err = capsys.readouterr().err
        assert code == 1 and words in err and "Traceback" not in err, err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_prepare_data_manifest_checks_folds_before_reading_it(self, folds, tiny_corpus, tmp_path, monkeypatch,
                                                                  capsys):
        """Too few folds is a usage error on the manifest path too: exit 1, as
        the synthetic path does, with the manifest unread and nothing written."""
        read = []
        monkeypatch.setattr(cli, "load_manifest", lambda *args, **kwargs: read.append(args))
        code = cli.main(["prepare-data", "--out", str(tmp_path / "data"), "--manifest", str(tiny_corpus),
                         "--folds", folds])
        err = capsys.readouterr().err
        assert code == 1 and f"need at least 2 folds, got {folds}" in err and "Traceback" not in err, err
        assert read == [] and not (tmp_path / "data").exists()

    @pytest.mark.parametrize("command,seeds,args", [
        ("finetune", {}, ["--seed", "-1"]),
        ("finetune", {"train": -2}, []),
        ("pretrain", {"folds": -1}, []),
        ("prepare-data", None, ["--synthetic", "binary", "--seed", "-3"]),
        ("prepare-data", None, ["--manifest", "MANIFEST", "--seed", "-3"]),
    ], ids=["finetune-flag", "finetune-config", "pretrain-config", "prepare-synthetic", "prepare-manifest"])
    def test_negative_seed_exits_one_before_any_output(self, command, seeds, args, tiny_corpus, tmp_path, capsys):
        """numpy takes no negative seed, so one is refused before --out is made."""
        args = [str(tiny_corpus) if a == "MANIFEST" else a for a in args]
        if seeds is not None:
            payload = {"dataset": {"manifest": str(tiny_corpus), "k": 2}, "train": {"epochs": 1, "batch_size": 8},
                       "seeds": seeds}
            (tmp_path / "c.json").write_text(json.dumps(payload))
            args += ["--config", str(tmp_path / "c.json")]
        assert cli.main([command, *args, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("sentnet:")]
        assert len(lines) == 1 and "must be at least 0" in lines[0] and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

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

    def test_oversample_false_exits_one(self, tmp_path, capsys):
        payload = config_to_dict(tiny_config(tmp_path / "m.csv"))
        payload["experiment"]["oversample"] = False
        (tmp_path / "c.json").write_text(json.dumps(payload))
        code = cli.main(["finetune", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "experiment.oversample" in capsys.readouterr().err

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
            "preprocess": {"resize_to": 72, "crop": 64, "channel_means": [4.0, 5.0, 6.0]},
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
            def __init__(self, squares, labels, crop, means=None, rows=None):
                seen.append(np.asarray(means, dtype=np.float32))
                super().__init__(squares, labels, crop, means, rows)

        monkeypatch.setattr(harness, "ViewSource", RecordingSource)
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

    @staticmethod
    def artifact_digests_by_thread_count(command, config, tmp_path):
        """{BLAS threads: [(path, sha256)] of every file `command` writes}, for 1 and 2 threads."""
        threads = sorted({1, min(2, os.cpu_count() or 1)})
        if len(threads) < 2:
            pytest.skip("needs at least 2 cores to vary the BLAS thread count")
        save_config(config, tmp_path / "c.json")
        src = str(Path(cli.__file__).resolve().parents[1])
        digests = {}
        for n in threads:
            out = tmp_path / f"threads{n}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "sentnet.cli", command, "--config", str(tmp_path / "c.json"),
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=600,
            )
            digests[n] = [(f.relative_to(out).as_posix(), hashlib.sha256(f.read_bytes()).hexdigest())
                          for f in sorted(out.rglob("*")) if f.is_file()]
        assert digests[threads[0]] == digests[threads[1]]
        return digests[threads[0]]

    def test_cv_artifacts_identical_across_blas_thread_counts(self, tiny_corpus, tmp_path):
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["train"]["epochs"] = 1
        files = self.artifact_digests_by_thread_count("finetune", config_from_dict(payload), tmp_path)
        assert sum(name.endswith(".nsrg") for name, _ in files) == 2  # one checkpoint per fold
        assert "summary.json" in dict(files)

    def test_probe_artifacts_identical_across_blas_thread_counts(self, tiny_corpus, tmp_path):
        payload = config_to_dict(tiny_config(tiny_corpus))
        payload["experiment"] = {"kind": "probe", "probe": {"lambda_grid": [0.01, 0.1, 1.0], "iters": 40}}
        files = dict(self.artifact_digests_by_thread_count("probe", config_from_dict(payload), tmp_path))
        assert {"summary.json", "probe_report.csv", "probe_report.md"} <= set(files)

    def test_finetune_and_probe_never_import_numpy_ma(self, tiny_corpus, tmp_path):
        """np.unique and np.intersect1d import numpy.ma (about 4 ms), inside the timed run."""
        finetune = config_to_dict(tiny_config(tiny_corpus))
        finetune["train"]["epochs"] = 1
        probe = config_to_dict(tiny_config(tiny_corpus))
        probe["experiment"] = {"kind": "probe", "probe": {"lambda_grid": [0.1, 1.0], "iters": 5}}
        commands = []
        for name, payload in (("finetune", finetune), ("probe", probe)):
            save_config(config_from_dict(payload), tmp_path / f"{name}.json")
            commands.append([name, "--config", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / name)])
        script = ("import json, sys\nfrom sentnet import cli\n"
                  "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
                  "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env, check=True,
                              capture_output=True, text=True, timeout=600)
        assert json.loads(done.stdout.splitlines()[-1]) == [[0, 0], False]

    def test_probe_with_an_empty_training_fold_exits_two(self, tiny_corpus, tmp_path, capsys):
        manifest = one_fold_manifest(tiny_corpus, tmp_path / "one_fold.csv")
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
        assert "need at least 2 fold ids" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["finetune"], ["surgery", "--preset", "fc7-2"], ["probe"]],
                             ids=["finetune", "surgery", "probe"])
    @pytest.mark.parametrize("means", ["fixed", "computed"])
    def test_finetune_with_one_fold_id_exits_two_before_any_fold(self, command, means, tiny_corpus, tmp_path,
                                                                  monkeypatch, capsys):
        decoded = []
        monkeypatch.setattr(harness, "decode_squares", lambda *args: decoded.append(args))
        payload = {"dataset": {"manifest": str(one_fold_manifest(tiny_corpus, tmp_path / "one_fold.csv"))},
                   "train": {"epochs": 1}}
        if means == "fixed":
            payload["preprocess"] = {"resize_to": 72, "crop": 64, "channel_means": [100.0, 100.0, 100.0]}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        code = cli.main([*command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and "need at least 2 fold ids" in err and "Traceback" not in err, err
        assert decoded == [] and not (tmp_path / "out").exists()

    def test_sparse_fold_ids_number_cv_and_probe_folds_alike(self, tiny_corpus, tmp_path):
        """Fold ids {0, 5} are folds 0 and 1 in the CV result.json files and in probe_report.csv."""
        lines = tiny_corpus.read_text().splitlines()
        rows = [line.rsplit(",", 1) for line in lines[1:]]
        sparse = tmp_path / "sparse.csv"
        sparse.write_text(lines[0] + "\n" + "".join(f"{tiny_corpus.parent / row},{5 * int(f)}\n" for row, f in rows))
        payload = config_to_dict(tiny_config(sparse))
        payload["train"]["epochs"] = 1
        payload["experiment"]["probe"] = {"endpoints": ["fc8"], "kinds": ["svm"], "lambda_grid": [0.1], "iters": 5}
        config = config_from_dict(payload)
        summary = cross_validate(config, tmp_path / "cv")
        run_probe_experiment(config, tmp_path / "probe")
        cv_folds = [json.loads((tmp_path / "cv" / f"fold{o.fold}" / "result.json").read_text())["fold"]
                    for o in summary.folds]
        probe_rows = (tmp_path / "probe" / "probe_report.csv").read_text().splitlines()[1:]
        assert cv_folds == [0, 1]
        assert sorted({int(row.split(",")[2]) for row in probe_rows}) == cv_folds

    @pytest.mark.parametrize("command", ["finetune", "probe"])
    @pytest.mark.parametrize("k", [1, 0])
    def test_dataset_k_below_two_exits_one_before_any_work(self, command, k, tiny_corpus, tmp_path, capsys):
        manifest = fold_manifest(tiny_corpus, range(16), tmp_path / "no_folds.csv")
        (tmp_path / "c.json").write_text(json.dumps({"dataset": {"manifest": str(manifest), "k": k}}))
        code = cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and f"dataset.k must be at least 2, got {k}" in err and "Traceback" not in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["pretrain", "finetune", "probe"])
    def test_crop_other_than_the_arch_input_exits_one_before_any_work(self, command, tiny_corpus, tmp_path,
                                                                       monkeypatch, capsys):
        """A preprocess section that sets only the means keeps PreprocessConfig's
        256/227, which the small arch's 64-pixel input cannot take."""
        decoded = []
        monkeypatch.setattr(harness, "decode_squares", lambda *args: decoded.append(args))
        payload = {"dataset": {"manifest": str(tiny_corpus), "k": 2},
                   "preprocess": {"channel_means": [100.0, 100.0, 100.0]}}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        code = cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1 and "preprocess.crop 227" in err and "input side 64" in err, err
        assert decoded == [] and not (tmp_path / "out").exists()

    def test_surgery_without_a_preset_exits_one(self, tiny_corpus, tmp_path, capsys):
        save_config(tiny_config(tiny_corpus), tmp_path / "c.json")
        code = cli.main(["surgery", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "s")])
        assert code == 1
        assert "--preset" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_evaluate_without_checkpoint_exits_one(self, tiny_corpus, tmp_path, capsys):
        save_config(tiny_config(tiny_corpus), tmp_path / "c.json")
        code = cli.main([
            "evaluate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "e"),
        ])
        assert code == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_evaluate_with_non_finite_means_exits_two(self, tiny_corpus, tmp_path, capsys):
        """A means file holding nan is bad input (exit 2), not a divergence or a crash."""
        save_checkpoint(init_params(reference_spec_small(2), seed=0), tmp_path / "c.nsrg")
        (tmp_path / "means.txt").write_text("1.0\nnan\n3.0\n")
        payload = {"dataset": {"manifest": str(tiny_corpus), "k": 2, "means": str(tmp_path / "means.txt")}}
        (tmp_path / "c.json").write_text(json.dumps(payload))
        code = cli.main(["evaluate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "e"),
                         "--checkpoint", str(tmp_path / "c.nsrg")])
        err = capsys.readouterr().err
        assert code == 2 and "non-finite" in err and "Traceback" not in err, err


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


class TestLoadTask:
    """load_task checks a base checkpoint from its header; Task.network reads the tensors."""

    @pytest.fixture
    def base(self, tmp_path):
        path = tmp_path / "base" / "checkpoint.nsrg"
        path.parent.mkdir()
        save_checkpoint(init_params(reference_spec_small(num_classes=2), seed=0), path)
        return path

    def config(self, corpus, base):
        payload = config_to_dict(tiny_config(corpus))
        payload["experiment"]["base_checkpoint"] = str(base)
        return config_from_dict(payload)

    def test_allocates_no_tensor_payload(self, tiny_corpus, base, monkeypatch):
        monkeypatch.setattr(harness, "decode_squares", lambda manifest, preprocess: None)  # images are not checked
        payload = 4 * load_checkpoint(base).num_parameters()
        peak, task = traced_peak(lambda: harness.load_task(self.config(tiny_corpus, base), "fc7-2", surgery=True))
        assert peak < payload // 4, f"load_task traced {peak} bytes for a {payload}-byte checkpoint"
        assert task.base_spec.layers[-2].units == 2  # the width read from the header's fc8
        task.network().validate_against(parameter_shapes(task.base_spec))

    @pytest.mark.parametrize("damage, error", [
        (lambda raw: raw[: len(raw) // 2], CheckpointTruncatedError),
        (lambda raw: b"XXXX" + raw[4:], CheckpointFormatError),
    ], ids=["truncated", "bad-magic"])
    def test_a_damaged_checkpoint_still_fails_here(self, tiny_corpus, base, damage, error, tmp_path, monkeypatch,
                                                    capsys):
        base.write_bytes(damage(base.read_bytes()))
        config = self.config(tiny_corpus, base)

        def never(*args):
            raise AssertionError("the images were decoded before the checkpoint was checked")

        monkeypatch.setattr(harness, "decode_squares", never)
        with pytest.raises(error) as raised:
            harness.load_task(config)
        save_config(config, tmp_path / "c.json")
        for command in ("finetune", "probe"):
            assert cli.main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / command)]) == 2
            assert str(raised.value) in capsys.readouterr().err


class TestRunFold:
    @pytest.mark.parametrize("preset", ["finetune", "fc8-1000", "fc9-2"])
    def test_one_fold_alone_reproduces_its_cross_validated_artifacts(self, preset, preset_runs, tmp_path):
        config, run_dir = preset_runs[preset]
        result = json.loads((run_dir / "fold1" / "result.json").read_text())
        task = harness.load_task(config, preset, surgery=True)
        train_idx, test_idx = np.array(result["train_indices"]), np.array(result["test_indices"])
        outcome = harness.run_fold(task, config, 1, train_idx, test_idx, tmp_path / "alone")
        assert outcome.error is None
        for name in ("result.json", "means.txt", "history.csv", "checkpoint.nsrg"):
            assert (tmp_path / "alone" / name).read_bytes() == (run_dir / "fold1" / name).read_bytes(), name

    def test_seeded_weights_must_fit_the_preset_unless_surgery_cuts_them(self, tiny_corpus):
        config = tiny_config(tiny_corpus)
        with pytest.raises(CheckpointMismatchError, match="fc7-2"):
            harness.load_task(config, "fc7-2")
        task = harness.load_task(config, "fc7-2", surgery=True)
        task.network().validate_against(parameter_shapes(task.base_spec))

    def test_folds_stratify_on_the_manifest_labels(self, tiny_corpus, preset_runs, tmp_path):
        config, _ = preset_runs["fc8-1000"]  # trains on swapped labels
        payload = config_to_dict(config)
        payload["dataset"]["manifest"] = str(fold_manifest(tiny_corpus, range(16), tmp_path / "m.csv"))
        summary = cross_validate(config_from_dict(payload), tmp_path / "cv")
        labels = load_manifest(tiny_corpus).labels
        folds = stratified_kfold(labels, 2, config.seeds.folds)
        assert (stratified_kfold(1 - labels, 2, config.seeds.folds) != folds).any()
        want = [np.flatnonzero(folds == f).tolist() for f in (0, 1)]
        assert [o.test_indices for o in summary.folds] == want


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

