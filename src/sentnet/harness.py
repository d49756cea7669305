"""Cross-validated experiments: configs, evaluation, fold loop, reports.

An experiment takes a base checkpoint, applies a surgery preset per fold,
trains on the fold's training split, and evaluates the held-out fold with
and without ten-crop oversampling. Every random draw is seeded from the
config, fold failures are isolated, and all artifacts (per-fold
checkpoints, history CSVs, summary JSON, reports) are deterministic byte
for byte.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import probe as probe_mod
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    TEN_CROP_CENTER,
    DatasetManifest,
    PreprocessConfig,
    ViewSource,
    compute_channel_means,
    decode_squares,
    load_manifest,
    read_means,
    stratified_kfold,
    ten_crop,
    write_means,
)
from .errors import ConfigError, DataError, DivergenceError
from .network import (
    LayerKind,
    NetworkSpec,
    forward,
    infer_shapes,
    init_params,
    parameter_shapes,
    reference_spec,
    reference_spec_small,
)
from .ops import softmax
from .optim import TrainConfig, history_to_csv, train
from .surgery import SurgeryPlan, apply as apply_surgery, preset_plan, plan_spec

log = logging.getLogger(__name__)

Array = np.ndarray

FAMILY_OF_PRESET = {
    "finetune": "finetune",
    "fc7-4096": "ablation",
    "fc6-4096": "ablation",
    "fc7-2": "ablation",
    "fc6-2": "ablation",
    "fc8-1000": "addition",
    "fc9-2": "addition",
}
PRESET_ORDER = tuple(FAMILY_OF_PRESET)
FAMILY_TITLES = {
    "finetune": "Fine-tuning",
    "ablation": "Layer removal",
    "addition": "Layer addition",
}

# Presets that train a wide retained head on binary data; positive maps to
# class index 0 and negative to class index 1, other outputs stay unused.
SWAPPED_LABEL_PRESETS = ("fc8-1000",)


# -- configuration ----------------------------------------------------------


@dataclass(frozen=True)
class DatasetSection:
    manifest: str = ""
    k: int = 5
    means: str | None = None  # optional mean-file override


@dataclass(frozen=True)
class TrainSection:
    base_lr: float | None = None  # None defers to the preset default
    step_epochs: int = 6
    gamma: float = 0.1
    epochs: int = 65
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 32
    stop_at_train_acc: float | None = None
    track_val: bool = False


@dataclass(frozen=True)
class ProbeSection:
    endpoints: tuple[str, ...] | None = None
    kinds: tuple[str, ...] = probe_mod.PROBE_KINDS
    lambda_grid: tuple[float, ...] = probe_mod.DEFAULT_LAMBDA_GRID
    inner_folds: int = 3
    standardize: bool = True
    pre_activation: bool = False
    iters: int = probe_mod.ITERATION_BUDGET


@dataclass(frozen=True)
class ExperimentSection:
    kind: str = "finetune"  # finetune | surgery | probe
    preset: str | None = None
    arch: str = "small"  # small | reference
    base_checkpoint: str | None = None
    oversample: bool = True
    pre_softmax_fusion: bool = False
    probe: ProbeSection = field(default_factory=ProbeSection)

    def __post_init__(self):
        if not self.oversample:  # cross_validate scores every fold with and without oversampling
            raise ConfigError("experiment.oversample: false is not supported; every fold is scored both ways")


@dataclass(frozen=True)
class SeedsSection:
    folds: int = 0
    init: int = 0
    train: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSection = field(default_factory=DatasetSection)
    preprocess: PreprocessConfig = field(default_factory=lambda: PreprocessConfig(resize_to=72, crop=64))
    train: TrainSection = field(default_factory=TrainSection)
    experiment: ExperimentSection = field(default_factory=ExperimentSection)
    seeds: SeedsSection = field(default_factory=SeedsSection)


def _build_section(cls, payload: dict[str, Any], where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ConfigError(f"unknown keys in config section {where!r}: {unknown}")
    kwargs = dict(payload)
    for f in dataclasses.fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    if cls is ExperimentSection and "probe" in kwargs:
        kwargs["probe"] = _build_section(ProbeSection, kwargs["probe"], f"{where}.probe")
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad config section {where!r}: {e}") from None


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {
        "dataset": DatasetSection,
        "preprocess": PreprocessConfig,
        "train": TrainSection,
        "experiment": ExperimentSection,
        "seeds": SeedsSection,
    }
    unknown = sorted(set(payload) - set(sections))
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    kwargs = {}
    for name, cls in sections.items():
        if name in payload:
            section = _build_section(cls, payload[name], name)
        else:
            section = ExperimentConfig.__dataclass_fields__[name].default_factory()
        kwargs[name] = section
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    return config_from_dict(payload)


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


# -- evaluation -------------------------------------------------------------


def fuse_scores(view_scores: Array, pre_softmax: bool = False) -> Array:
    """Fuse per-view score vectors [..., V, C] by averaging over views.

    Default input is post-softmax scores; with pre_softmax=True the inputs
    are logits and the softmax is applied after averaging.
    """
    view_scores = np.asarray(view_scores)
    if view_scores.ndim < 2:
        raise DataError(f"fuse_scores expects [..., views, classes], got {view_scores.shape}")
    fused = view_scores.mean(axis=-2)
    if pre_softmax:
        flat = fused.reshape(-1, fused.shape[-1])
        fused = softmax(flat).reshape(fused.shape)
    return fused


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    confusion: Array  # [observed true classes, model classes]
    per_class: dict[int, float]
    degenerate: bool
    n: int
    plain: EvalResult | None = None  # the center-view result of an oversampled evaluation


TEN_CROP_CHUNK = 6  # images per oversampled forward pass (60 views)
EVAL_BATCH = 64  # center views per plain forward pass


def _split_head(spec: NetworkSpec, ckpt: Checkpoint) -> tuple[str | None, NetworkSpec, Checkpoint]:
    """The layers from the first FC (or the softmax) up, as a network of their own.

    Returns the name of the layer the head reads (None when it reads the
    input), the head's spec over that layer's output shape, and the head's
    tensors. Every layer below the head gives each example the same bits in
    any batch (convolution runs one GEMM per example; pooling, normalization
    and ReLU are elementwise), while an FC layer's GEMM rounds a row
    differently depending on the rows around it.
    """
    k = next(i for i, l in enumerate(spec.layers) if l.kind in (LayerKind.FC, LayerKind.SOFTMAX))
    below = spec.layers[k - 1].name if k else None
    shape = infer_shapes(spec)[below] if below else spec.input_shape
    head = NetworkSpec(input_shape=shape, layers=spec.layers[k:])
    return below, head, Checkpoint(entries={l.name: ckpt.entries[l.name] for l in head.parameterized})


def _ten_crop_chunk(
    spec: NetworkSpec, ckpt: Checkpoint, source: ViewSource, idx: range, below: str | None, pre_softmax: bool
) -> tuple[Array, Array]:
    """One chunk's center-view inputs to the head and its fused scores.

    The chunk's batch and forward state die when this returns, so no two
    chunks' activations are ever alive at once.
    """
    x = ten_crop(source, idx)
    state = forward(spec, ckpt, x)
    center = (state.post[below] if below else x)[TEN_CROP_CENTER::10].copy()
    raw = state.post[spec.top_name if pre_softmax else spec.layers[-1].name]
    return center, fuse_scores(raw.reshape(len(idx), 10, -1), pre_softmax=pre_softmax)


def _view_scores(
    spec: NetworkSpec, ckpt: Checkpoint, source: ViewSource, oversample: bool, pre_softmax: bool
) -> tuple[Array, Array | None]:
    """Center-view probabilities and, with oversample, fused ten-view scores.

    Center views go through the network EVAL_BATCH at a time. Oversampled,
    each chunk's ten crops run once, and the center views' inputs to the FC
    head are kept and finished in those same batches, so no view crosses
    the convolutional layers twice and both results have the bits a
    separate center-crop pass would give (see _split_head).
    """
    prob_name = spec.layers[-1].name
    if not oversample:
        batches = (x for x, _ in source.eval_batches(EVAL_BATCH))
        head, head_ckpt, fused = spec, ckpt, None
    else:
        below, head, head_ckpt = _split_head(spec, ckpt)
        chunks = [
            _ten_crop_chunk(spec, ckpt, source, range(s, min(s + TEN_CROP_CHUNK, source.n)), below, pre_softmax)
            for s in range(0, source.n, TEN_CROP_CHUNK)
        ]
        center_inputs = np.concatenate([center for center, _ in chunks])
        fused = np.vstack([rows for _, rows in chunks])
        batches = (center_inputs[s : s + EVAL_BATCH] for s in range(0, source.n, EVAL_BATCH))
    plain = np.vstack([forward(head, head_ckpt, x).post[prob_name] for x in batches])
    return plain, fused


def _result(scores: Array, labels: Array) -> EvalResult:
    preds = scores.argmax(axis=1)
    accuracy = float((preds == labels).mean())
    true_classes = sorted(int(c) for c in np.unique(labels))
    confusion = np.zeros((len(true_classes), scores.shape[1]), dtype=np.int64)
    per_class: dict[int, float] = {}
    for row, cls in enumerate(true_classes):
        mask = labels == cls
        for p in preds[mask]:
            confusion[row, int(p)] += 1
        per_class[cls] = float((preds[mask] == cls).mean())
    degenerate = len(np.unique(preds)) <= 1
    return EvalResult(
        accuracy=accuracy,
        confusion=confusion,
        per_class=per_class,
        degenerate=degenerate,
        n=len(labels),
    )


def evaluate(
    spec: NetworkSpec,
    ckpt: Checkpoint,
    source: ViewSource,
    oversample: bool = False,
    pre_softmax_fusion: bool = False,
) -> EvalResult:
    """Accuracy, confusion, per-class accuracy, and a degenerate flag.

    Without oversampling each image contributes its center view; with it,
    the ten fixed views are fused by score averaging, and the result's
    `plain` field holds the center-view result of the same forward pass.
    Prediction is the argmax of the (fused) scores, ties resolving to the
    lowest class index. A label the network has no output for raises
    DataError.
    """
    classes = infer_shapes(spec)[spec.layers[-1].name][0]
    if source.n and int(source.labels.max()) >= classes:
        raise DataError(
            f"label {int(source.labels.max())} is out of range for a network with {classes} outputs"
        )
    plain_scores, fused_scores = _view_scores(spec, ckpt, source, oversample, pre_softmax_fusion)
    plain = _result(plain_scores, source.labels)
    if not oversample:
        return plain
    return dataclasses.replace(_result(fused_scores, source.labels), plain=plain)


def summarize(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1); needs >= 2 values."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise DataError(f"need at least 2 fold accuracies to summarize, got {len(vals)}")
    return float(np.mean(vals)), float(np.std(vals, ddof=1))


def audit_folds(folds: Array, k: int | None = None) -> list[tuple[Array, Array]]:
    """Train/test index pairs per fold, checked to partition the dataset."""
    folds = np.asarray(folds)
    ids = sorted(int(f) for f in np.unique(folds))
    if k is not None and ids != list(range(k)):
        raise DataError(f"fold ids {ids} do not cover 0..{k - 1}")
    splits = []
    n = len(folds)
    for f in ids:
        test = np.flatnonzero(folds == f)
        trainv = np.flatnonzero(folds != f)
        if np.intersect1d(test, trainv).size:
            raise DataError(f"fold {f}: train/test overlap")
        if len(test) + len(trainv) != n:
            raise DataError(f"fold {f}: split does not cover the dataset")
        splits.append((trainv, test))
    return splits


# -- the fold loop ----------------------------------------------------------


@dataclass
class FoldOutcome:
    fold: int
    train_indices: list[int]
    test_indices: list[int]
    accuracy: float | None = None
    accuracy_oversampled: float | None = None
    degenerate: bool = False
    degenerate_oversampled: bool = False
    epochs_run: int = 0
    error: str | None = None


@dataclass
class CVSummary:
    label: str
    preset: str
    folds: list[FoldOutcome]
    mean: float
    std: float
    mean_oversampled: float
    std_oversampled: float
    base_lr: float
    assumptions: list[str]

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "train-cv",
            "label": self.label,
            "preset": self.preset,
            "mean": self.mean,
            "std": self.std,
            "mean_oversampled": self.mean_oversampled,
            "std_oversampled": self.std_oversampled,
            "base_lr": self.base_lr,
            "assumptions": self.assumptions,
            "folds": [dataclasses.asdict(f) for f in self.folds],
        }


def _arch_spec(arch: str, num_classes: int) -> NetworkSpec:
    if arch == "small":
        return reference_spec_small(num_classes)
    if arch == "reference":
        return reference_spec(num_classes)
    raise ConfigError(f"unknown arch {arch!r}; expected 'small' or 'reference'")


def resolve_preset(config: ExperimentConfig) -> str:
    exp = config.experiment
    if exp.kind == "finetune":
        return exp.preset or "finetune"
    if exp.kind == "surgery":
        if not exp.preset:
            raise ConfigError("surgery experiments need experiment.preset")
        return exp.preset
    raise ConfigError(f"experiment kind {exp.kind!r} does not train with a preset")


def resolve_base_lr(train: TrainSection, plan: SurgeryPlan) -> float:
    if train.base_lr is not None:
        return train.base_lr
    if plan.default_base_lr is not None:
        return plan.default_base_lr
    return 0.001


def _train_config(train: TrainSection, base_lr: float, seed: int) -> TrainConfig:
    return TrainConfig(
        base_lr=base_lr,
        step_epochs=train.step_epochs,
        gamma=train.gamma,
        epochs=train.epochs,
        momentum=train.momentum,
        weight_decay=train.weight_decay,
        batch_size=train.batch_size,
        seed=seed,
        stop_at_train_acc=train.stop_at_train_acc,
    )


def _base_network(config: ExperimentConfig) -> tuple[NetworkSpec, Checkpoint]:
    """The configured checkpoint (or fresh weights) and the arch spec below any preset.

    The spec's fc8 width is the checkpoint's. A checkpoint without fc8 is one
    a preset removed it from, so the width cannot matter; callers check the
    checkpoint against the spec their preset makes of this one.
    """
    exp = config.experiment
    if exp.base_checkpoint is not None:
        ckpt = load_checkpoint(exp.base_checkpoint)
        head = ckpt.entries.get("fc8")
        return _arch_spec(exp.arch, 2 if head is None else int(head[1].shape[0])), ckpt
    spec = _arch_spec(exp.arch, 2)
    return spec, init_params(spec, config.seeds.init)


def preset_task(preset: str | None, base_spec: NetworkSpec, labels: Array) -> tuple[NetworkSpec, Array]:
    """The network a surgery preset makes of base_spec, and the labels it
    trains and is scored on.

    No preset leaves both as they are. The presets in SWAPPED_LABEL_PRESETS
    keep a wide head and map positive to class 0, negative to class 1.
    cross_validate, run_probe_experiment and `sentnet evaluate` all take
    their spec and labels from here.
    """
    if preset is None:
        return base_spec, labels
    plan = preset_plan(preset)
    if plan.label in SWAPPED_LABEL_PRESETS:
        labels = np.where(labels == 1, 0, 1)
    return plan_spec(plan, base_spec), labels


def _assumptions(config: ExperimentConfig, plan: SurgeryPlan, base_lr: float, folds_from: str) -> list[str]:
    t = config.train
    notes = [
        f"momentum {t.momentum}, weight decay {t.weight_decay}, batch size {t.batch_size} "
        "are defaults not pinned by the protocol",
        f"folds: {folds_from}",
        f"new-layer lr multiplier {plan.new_layer_lr_mult:g}, init Gaussian std 0.01",
        f"base learning rate {base_lr:g}"
        + (" (preset default)" if config.train.base_lr is None and plan.default_base_lr else ""),
        "score fusion: mean of post-softmax view scores"
        if not config.experiment.pre_softmax_fusion
        else "score fusion: softmax of mean logits",
    ]
    if plan.label in SWAPPED_LABEL_PRESETS:
        notes.append("label mapping: positive -> class 0, negative -> class 1 (wide retained head)")
    return notes


def resolve_means(config: ExperimentConfig) -> Array | None:
    """Channel means fixed by the config, or None.

    preprocess.channel_means wins over the dataset.means file. None tells the
    caller to compute means over its own training rows.
    """
    if config.preprocess.channel_means is not None:
        return np.asarray(config.preprocess.channel_means, dtype=np.float32)
    if config.dataset.means is not None:
        return read_means(config.dataset.means)
    return None


def _load_folds(manifest: DatasetManifest, config: ExperimentConfig) -> tuple[Array, str]:
    if manifest.folds is not None:
        folds = manifest.folds
        note = "provided by the manifest"
    else:
        folds = stratified_kfold(manifest.labels, config.dataset.k, config.seeds.folds)
        note = f"stratified k={config.dataset.k}, seed {config.seeds.folds}"
    return folds, note


def cross_validate(config: ExperimentConfig, out_dir: str | Path, label: str | None = None) -> CVSummary:
    """Run the configured k-fold experiment, writing artifacts under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    preset = resolve_preset(config)
    plan = preset_plan(preset)
    label = label or preset
    base_lr = resolve_base_lr(config.train, plan)

    manifest = load_manifest(config.dataset.manifest)
    labels = manifest.labels
    folds, folds_note = _load_folds(manifest, config)
    splits = audit_folds(folds)
    squares = decode_squares(manifest, config.preprocess)
    base_spec, base_ckpt = _base_network(config)
    base_ckpt.validate_against(parameter_shapes(base_spec))
    _, labels_eff = preset_task(preset, base_spec, labels)

    crop = config.preprocess.crop
    fixed_means = resolve_means(config)

    def run_fold(f: int, train_idx: Array, test_idx: Array, fold_dir: Path) -> FoldOutcome:
        # The fold's network, checkpoints and view sources die when this
        # returns, so none of them is alive while the next fold trains.
        outcome = FoldOutcome(
            fold=f,
            train_indices=[int(i) for i in train_idx],
            test_indices=[int(i) for i in test_idx],
        )
        try:
            means = fixed_means
            if means is None:
                means = compute_channel_means(squares[i] for i in train_idx)
            write_means(fold_dir / "means.txt", means)
            spec_f, ckpt_f, _ = apply_surgery(plan, base_spec, base_ckpt, seed=config.seeds.init + f)
            train_src = ViewSource(squares[train_idx], labels_eff[train_idx], crop, means)
            test_src = ViewSource(squares[test_idx], labels_eff[test_idx], crop, means)
            cfg = _train_config(config.train, base_lr, config.seeds.train + f)
            val_src = test_src if config.train.track_val else None
            trained, history = train(spec_f, ckpt_f, train_src, cfg, val_src)
            outcome.epochs_run = len(history)
            save_checkpoint(trained, fold_dir / "checkpoint.nsrg")
            (fold_dir / "history.csv").write_text(history_to_csv(history))
            fused = evaluate(
                spec_f, trained, test_src, oversample=True,
                pre_softmax_fusion=config.experiment.pre_softmax_fusion,
            )
            outcome.accuracy = fused.plain.accuracy
            outcome.accuracy_oversampled = fused.accuracy
            outcome.degenerate = fused.plain.degenerate
            outcome.degenerate_oversampled = fused.degenerate
        except DivergenceError as e:
            outcome.error = str(e)
            log.warning("fold %d failed: %s", f, e)
        return outcome

    outcomes: list[FoldOutcome] = []
    for f, (train_idx, test_idx) in enumerate(splits):
        fold_dir = out / f"fold{f}"
        fold_dir.mkdir(parents=True, exist_ok=True)
        outcome = run_fold(f, train_idx, test_idx, fold_dir)
        (fold_dir / "result.json").write_text(
            json.dumps(dataclasses.asdict(outcome), indent=2, sort_keys=True) + "\n"
        )
        outcomes.append(outcome)

    done = [o for o in outcomes if o.error is None]
    if len(done) >= 2:
        mean, std = summarize([o.accuracy for o in done])
        mean_os, std_os = summarize([o.accuracy_oversampled for o in done])
    elif len(done) == 1:
        mean = float(done[0].accuracy)
        mean_os = float(done[0].accuracy_oversampled)
        std = std_os = float("nan")
    else:
        mean = std = mean_os = std_os = float("nan")
    summary = CVSummary(
        label=label,
        preset=preset,
        folds=outcomes,
        mean=mean,
        std=std,
        mean_oversampled=mean_os,
        std_oversampled=std_os,
        base_lr=base_lr,
        assumptions=_assumptions(config, plan, base_lr, folds_note),
    )
    payload = summary.to_dict()
    payload["config"] = config_to_dict(config)
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return summary


def run_probe_experiment(config: ExperimentConfig, out_dir: str | Path, label: str | None = None) -> probe_mod.ProbeReport:
    """Probe every endpoint of the configured network across the outer folds."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    exp = config.experiment
    base_spec, base_ckpt = _base_network(config)
    manifest = load_manifest(config.dataset.manifest)
    spec, labels = preset_task(exp.preset, base_spec, manifest.labels)
    base_ckpt.validate_against(parameter_shapes(spec))
    folds, folds_note = _load_folds(manifest, config)
    audit_folds(folds)
    squares = decode_squares(manifest, config.preprocess)
    means = resolve_means(config)
    if means is None:
        means = compute_channel_means(iter(squares))
    source = ViewSource(squares, labels, config.preprocess.crop, means)
    p = exp.probe
    report = probe_mod.probe_all_layers(
        spec,
        base_ckpt,
        source,
        folds,
        endpoints=p.endpoints,
        kinds=p.kinds,
        lambda_grid=p.lambda_grid,
        inner_folds=p.inner_folds,
        standardize=p.standardize,
        pre_activation=p.pre_activation,
        seed=config.seeds.folds,
        iters=p.iters,
    )
    (out / "probe_report.csv").write_text(report.to_csv())
    (out / "probe_report.md").write_text(report.to_markdown())
    payload = {
        "kind": "probe",
        "label": label or "probe",
        "endpoints": list(report.endpoints),
        "kinds": list(report.kinds),
        "pre_activation": report.pre_activation,
        "standardize": report.standardize,
        "folds_note": folds_note,
        "rows": [dataclasses.asdict(r) for r in report.rows],
        "config": config_to_dict(config),
    }
    (out / "summary.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return report


# -- reports ----------------------------------------------------------------


def _fmt(mean: float, std: float) -> str:
    if np.isnan(mean):
        return "failed"
    if np.isnan(std):
        return f"{mean:.3f}"
    return f"{mean:.3f} ± {std:.3f}"


def collect_summaries(root: str | Path) -> list[tuple[str, dict[str, Any]]]:
    root = Path(root)
    found = []
    for path in sorted(root.rglob("summary.json")):
        rel = str(path.parent.relative_to(root)) or "."
        try:
            found.append((rel, json.loads(path.read_text())))
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: invalid summary JSON: {e}") from None
    return found


def write_report(root: str | Path) -> tuple[Path, Path]:
    """Aggregate every experiment under root into report.md and report.csv."""
    root = Path(root)
    summaries = collect_summaries(root)
    if not summaries:
        raise DataError(f"no summary.json artifacts under {root}")

    train_rows: list[dict[str, Any]] = []
    probe_summaries: list[tuple[str, dict[str, Any]]] = []
    for rel, payload in summaries:
        if payload.get("kind") == "probe":
            probe_summaries.append((rel, payload))
            continue
        preset = payload.get("preset", "?")
        fold_rows = payload.get("folds", [])
        done = [f for f in fold_rows if f.get("error") is None]
        failed = [f for f in fold_rows if f.get("error") is not None]
        train_rows.append(
            {
                "dir": rel,
                "label": payload.get("label", preset),
                "preset": preset,
                "family": FAMILY_OF_PRESET.get(preset, "other"),
                "mean": payload.get("mean", float("nan")),
                "std": payload.get("std", float("nan")),
                "mean_os": payload.get("mean_oversampled", float("nan")),
                "std_os": payload.get("std_oversampled", float("nan")),
                "n_folds": len(fold_rows),
                "n_failed": len(failed),
                "degenerate": sum(1 for f in done if f.get("degenerate")),
                "degenerate_os": sum(1 for f in done if f.get("degenerate_oversampled")),
                "assumptions": payload.get("assumptions", []),
            }
        )

    preset_rank = {p: i for i, p in enumerate(PRESET_ORDER)}
    train_rows.sort(key=lambda r: (preset_rank.get(r["preset"], 99), r["dir"]))

    md: list[str] = ["# Experiment report", ""]
    csv_lines = ["family,row,classifier,oversampling,mean,std,folds,failed_folds,degenerate_folds"]
    assumptions: list[str] = []
    for r in train_rows:
        for note in r["assumptions"]:
            if note not in assumptions:
                assumptions.append(note)

    for family in ("finetune", "ablation", "addition"):
        rows = [r for r in train_rows if r["family"] == family]
        if not rows:
            continue
        md.append(f"## {FAMILY_TITLES[family]}")
        md.append("")
        md.append("| Architecture | Without oversampling | With oversampling |")
        md.append("|---|---|---|")
        seen_labels = [r["label"] for r in rows]
        for r in rows:
            name = r["label"] if seen_labels.count(r["label"]) == 1 else f"{r['label']} ({r['dir']})"
            plain = _fmt(r["mean"], r["std"]) + ("*" if r["degenerate"] else "")
            fused = _fmt(r["mean_os"], r["std_os"]) + ("*" if r["degenerate_os"] else "")
            if r["n_failed"]:
                plain += f" ({r['n_failed']} fold(s) diverged)"
            md.append(f"| {name} | {plain} | {fused} |")
            csv_lines.append(
                f"{family},{name},net,no,{r['mean']:.6f},{r['std']:.6f},"
                f"{r['n_folds']},{r['n_failed']},{r['degenerate']}"
            )
            csv_lines.append(
                f"{family},{name},net,yes,{r['mean_os']:.6f},{r['std_os']:.6f},"
                f"{r['n_folds']},{r['n_failed']},{r['degenerate_os']}"
            )
        md.append("")

    for rel, payload in probe_summaries:
        md.append(f"## Layer probes ({payload.get('label', rel)})")
        md.append("")
        report = probe_mod.ProbeReport(
            rows=[probe_mod.ProbeRow(**r) for r in payload.get("rows", [])],
            endpoints=tuple(payload.get("endpoints", [])),
            kinds=tuple(payload.get("kinds", probe_mod.PROBE_KINDS)),
            pre_activation=bool(payload.get("pre_activation")),
            standardize=bool(payload.get("standardize", True)),
        )
        md.extend(report.table())
        md.append("")
        for ep in report.endpoints:
            for kind in report.kinds:
                accs = report.accuracies(ep, kind)
                if accs:
                    std = np.std(accs, ddof=1) if len(accs) > 1 else float("nan")
                    csv_lines.append(f"probe,{ep},{kind},no,{np.mean(accs):.6f},{std:.6f},{len(accs)},0,0")
        note = "pre-activation" if report.pre_activation else "post-activation"
        assumptions.append(f"probe features: {note}, single center view")

    if any(r["degenerate"] or r["degenerate_os"] for r in train_rows):
        md.append("\\* at least one fold predicted a single class (degenerate predictor)")
        md.append("")
    if assumptions:
        md.append("## Assumptions")
        md.append("")
        for note in assumptions:
            md.append(f"- {note}")
        md.append("")

    md_path = root / "report.md"
    csv_path = root / "report.csv"
    md_path.write_text("\n".join(md))
    csv_path.write_text("\n".join(csv_lines) + "\n")
    return md_path, csv_path
