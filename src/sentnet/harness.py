"""Cross-validated experiments: configs, tasks, evaluation, fold loop, reports.

Every command loads its task in one place, load_task: the arch spec, the
preset's network and labels, the decoded images, the channel means, and
where the network comes from (the base checkpoint or seeded weights). The
task holds no network: each fold, and each command that reads one, gets
its own from Task.network and trains it in place. The config fixes the means
(preprocess.channel_means, then dataset.means); otherwise a CV fold takes
them from its training rows, pretrain and probe from every image, and
evaluate from the means.txt training wrote. An experiment applies a
surgery preset per fold, trains on the fold's training split (run_fold),
and evaluates the held-out fold with and without ten-crop oversampling.
Every random draw is seeded from the config, fold failures are isolated,
and all artifacts (per-fold checkpoints, history CSVs, summary JSON,
reports) are deterministic byte for byte.

Every statistic over folds, in summary.json and in the report, follows one
rule, probe.fold_stats: the mean and sample standard deviation over the
folds that finished. write_report renders every summary under a root in one
pass, with each preset in the table its surgery plan names (see
surgery.PRESETS).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import types
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import probe as probe_mod
from .checkpoint import Checkpoint, load_checkpoint, read_checkpoint_header, save_checkpoint
from .data import (
    EVAL_BATCH,
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
from .errors import CheckpointMismatchError, ConfigError, DataError, DivergenceError
from .network import (
    LayerKind,
    NetworkSpec,
    infer,
    infer_shapes,
    init_params,
    parameter_shapes,
    reference_spec,
    reference_spec_small,
)
from .ops import softmax
from .optim import TrainConfig, history_to_csv, train_in_place
from .surgery import PRESETS, SurgeryPlan, apply as apply_surgery, preset_plan, plan_spec

log = logging.getLogger(__name__)

Array = np.ndarray

PRESET_ORDER = tuple(PRESETS)
FAMILY_TITLES = {  # the report's training tables, in order (see SurgeryPlan.family)
    "finetune": "Fine-tuning",
    "ablation": "Layer removal",
    "addition": "Layer addition",
    "other": "Other presets",
}


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


def _fits(value: Any, hint: Any) -> bool:
    """Whether a JSON value has a config field's annotated type.

    A bool is only a bool, never an int; a float field also takes an int
    (kept as written) but no NaN or infinity, which Python's json parses;
    a tuple field takes an array.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[1:] == (Ellipsis,):
            args = args[:1] * len(value)
        return len(args) == len(value) and all(_fits(v, a) for v, a in zip(value, args))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, hint)


def _build_section(cls, payload: dict[str, Any], where: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown keys in config section {where!r}: {unknown}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in payload.items():
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build_section(hints[name], value, f"{where}.{name}")
        elif not _fits(value, hints[name]):
            raise ConfigError(f"config key '{where}.{name}' must be {fields[name].type}, got {value!r}")
        else:
            kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_from_dict(payload: dict[str, Any]) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(payload) - set(ExperimentConfig.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown config sections: {unknown}")
    sections = typing.get_type_hints(ExperimentConfig)
    return ExperimentConfig(**{name: _build_section(sections[name], v, name) for name, v in payload.items()})


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: unreadable config: {e}") from None
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
    per_class: dict[int, float]
    degenerate: bool
    n: int
    plain: EvalResult | None = None  # the center-view result of an oversampled evaluation


TEN_CROP_CHUNK = 6  # images per oversampled forward pass (60 views)


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

    The pass keeps only those two endpoints, and the chunk's batch and
    activations die when this returns, so no two chunks' activations are
    ever alive at once.
    """
    x = ten_crop(source, idx)
    scored = spec.top_name if pre_softmax else spec.layers[-1].name
    kept = infer(spec, ckpt, x, (scored,) if below is None else (below, scored))
    center = (kept[below] if below else x)[TEN_CROP_CENTER::10].copy()
    return center, fuse_scores(kept[scored].reshape(len(idx), 10, -1), pre_softmax=pre_softmax)


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
    plain = np.vstack([infer(head, head_ckpt, x, (prob_name,))[prob_name] for x in batches])
    return plain, fused


def _result(scores: Array, labels: Array) -> EvalResult:
    preds = scores.argmax(axis=1)
    accuracy = float((preds == labels).mean())
    per_class = {int(cls): float((preds[labels == cls] == cls).mean()) for cls in sorted(set(labels.tolist()))}
    degenerate = len(set(preds.tolist())) <= 1
    return EvalResult(
        accuracy=accuracy,
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
    """Accuracy, per-class accuracy, and a degenerate flag.

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


def audit_folds(folds: Array, k: int | None = None) -> list[tuple[Array, Array]]:
    """(train, test) index pairs, one per fold id in ascending order: fold f
    tests the rows whose id is f and trains on all the others, so each pair
    partitions the dataset. With k given, the ids must be exactly 0..k-1."""
    folds = np.asarray(folds)
    ids = sorted(int(f) for f in set(folds.tolist()))
    if k is not None and ids != list(range(k)):
        raise DataError(f"fold ids {ids} do not cover 0..{k - 1}")
    return [(np.flatnonzero(folds != f), np.flatnonzero(folds == f)) for f in ids]


# -- tasks ------------------------------------------------------------------


def _arch_spec(arch: str, num_classes: int) -> NetworkSpec:
    if arch == "small":
        return reference_spec_small(num_classes)
    if arch == "reference":
        return reference_spec(num_classes)
    raise ConfigError(f"unknown arch {arch!r}; expected 'small' or 'reference'")


def resolve_means(config: ExperimentConfig) -> Array | None:
    """Channel means fixed by the config, or None.

    preprocess.channel_means wins over the dataset.means file. None leaves
    the means to the command (see load_task and Task.means).
    """
    if config.preprocess.channel_means is not None:
        return np.asarray(config.preprocess.channel_means, dtype=np.float32)
    if config.dataset.means is not None:
        return read_means(config.dataset.means)
    return None


@dataclass(frozen=True, eq=False)
class Task:
    """What a command reads from its config: network, labels, images and means.

    It holds no parameter tensor: network() makes a fresh copy of the base
    for each caller, so one fold's network is alive at a time.
    """

    base_spec: NetworkSpec  # the arch below any preset, as wide as the checkpoint's fc8
    spec: NetworkSpec  # the network the preset makes of base_spec
    checkpoint: str | None  # the checkpoint file network() loads, or None for seeded weights
    init_seed: int  # the seed of those weights
    preset: str | None
    manifest: DatasetManifest  # folds stratify on its labels, whatever the preset
    labels: Array  # the labels the preset trains and is scored on
    squares: Array  # every image, decoded and squared once: [n, 3, S, S], uint8 if all are whole bytes, else float32
    fixed_means: Array | None  # the config's means (or a trained checkpoint's)

    def network(self) -> Checkpoint:
        """The checkpoint, loaded anew, or init_params(base_spec, init_seed):
        the caller's own, to cut and train in place."""
        if self.checkpoint is None:
            return init_params(self.base_spec, self.init_seed)
        return load_checkpoint(self.checkpoint)

    def means(self, rows: Sequence[int] | None = None) -> Array:
        """The fixed means, else the channel means of these rows (all by default)."""
        if self.fixed_means is not None:
            return self.fixed_means
        return compute_channel_means(self.squares if rows is None else (self.squares[i] for i in rows))


def load_task(
    config: ExperimentConfig, preset: str | None = None, *,
    surgery: bool = False, trained: bool = False, multiclass: bool = False,
) -> Task:
    """The task every command runs on, as its config names it.

    The network is experiment.base_checkpoint (its fc8 sets the arch spec's
    width) or else seeded weights as wide as the manifest has classes; the
    preset gives the spec and labels (see SurgeryPlan.swap_binary_labels). With
    `surgery` the checkpoint is the base each fold's surgery starts from,
    so it must match the arch spec, not the preset's network. With
    `trained` it is one training wrote: its metadata names the preset (a
    different `preset` is an error) and, if the config fixes no means, the
    means.txt beside it holds them. `multiclass` admits any class index in
    the manifest. Only the checkpoint's header is read here, to check its
    shapes and metadata (Task.network loads the tensors); it and the means
    load before the manifest, so their errors come first.
    """
    exp = config.experiment
    header = None
    if exp.base_checkpoint is not None:
        header = read_checkpoint_header(exp.base_checkpoint)
        head = header.shapes.get("fc8")
        base_spec = _arch_spec(exp.arch, 2 if head is None else int(head[1][0]))
    if trained:
        named, preset = preset, header.metadata.get("surgery")
        if named is not None and preset is not None and named != preset:
            raise ConfigError(f"the config names preset {named!r} but the checkpoint was made by {preset!r}")
    means = resolve_means(config)
    if means is None and trained:
        beside = Path(exp.base_checkpoint).parent / "means.txt"
        if not beside.exists():
            raise ConfigError(
                f"evaluate needs the channel means training used: set preprocess.channel_means "
                f"or dataset.means in the config, or keep the means.txt training wrote at {beside}"
            )
        means = read_means(beside)
    manifest = load_manifest(config.dataset.manifest, allow_multiclass=multiclass)
    if header is None:
        base_spec = _arch_spec(exp.arch, max(2, int(manifest.labels.max()) + 1))
    spec, labels = base_spec, manifest.labels
    if preset is not None:
        plan = preset_plan(preset)
        spec = plan_spec(plan, base_spec)
        if plan.swap_binary_labels:
            labels = np.where(labels == 1, 0, 1)
    shapes = parameter_shapes(base_spec if surgery else spec)
    if header is not None:
        header.validate_against(shapes)
    elif shapes != parameter_shapes(base_spec):
        raise CheckpointMismatchError(
            f"seeded {exp.arch} weights do not fit preset {preset!r}'s network: set experiment.base_checkpoint"
        )
    squares = decode_squares(manifest, config.preprocess)
    return Task(base_spec, spec, exp.base_checkpoint, config.seeds.init, preset, manifest, labels, squares, means)


def _train_config(train: TrainSection, base_lr: float, seed: int) -> TrainConfig:
    """The section's recipe, with the resolved base rate and the given seed."""
    recipe = {name: getattr(train, name) for name in TrainConfig.__dataclass_fields__ if hasattr(train, name)}
    return TrainConfig(**{**recipe, "base_lr": base_lr, "seed": seed})


def _train_and_write(
    spec: NetworkSpec, ckpt: Checkpoint, source: ViewSource, cfg: TrainConfig, path: Path,
    val_source: ViewSource | None = None,
) -> list:
    """Train ckpt in place, writing means.txt first, then the checkpoint at
    path and history.csv beside it; returns the history."""
    write_means(path.parent / "means.txt", source.means)
    _, history = train_in_place(spec, ckpt, source, cfg, val_source)
    save_checkpoint(ckpt, path)
    (path.parent / "history.csv").write_text(history_to_csv(history))
    return history


def pretrain(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Train the source network on every manifest image from seeded weights
    (experiment.base_checkpoint is not read); returns the checkpoint's path."""
    base_lr = config.train.base_lr if config.train.base_lr is not None else 0.01
    cfg = _train_config(config.train, base_lr, config.seeds.train)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeded = dataclasses.replace(config.experiment, base_checkpoint=None)
    task = load_task(dataclasses.replace(config, experiment=seeded), multiclass=True)
    source = ViewSource(task.squares, task.labels, config.preprocess.crop, task.means())
    _train_and_write(task.spec, task.network(), source, cfg, out / "pretrained.nsrg")
    return out / "pretrained.nsrg"


def evaluate_checkpoint(config: ExperimentConfig, out_dir: str | Path, oversample: bool = False) -> dict:
    """Score experiment.base_checkpoint on every manifest image as the network
    its preset made, and write the result to evaluation.json."""
    if config.experiment.base_checkpoint is None:
        raise ConfigError("evaluate needs --checkpoint or experiment.base_checkpoint")
    task = load_task(config, config.experiment.preset, trained=True, multiclass=True)
    source = ViewSource(task.squares, task.labels, config.preprocess.crop, task.means())
    result = evaluate(
        task.spec, task.network(), source, oversample=oversample,
        pre_softmax_fusion=config.experiment.pre_softmax_fusion,
    )
    plain = result.plain or result
    payload = {
        "accuracy": plain.accuracy,
        "per_class": {str(k): v for k, v in plain.per_class.items()},
        "degenerate": plain.degenerate,
        "n": plain.n,
    }
    if oversample:
        payload["accuracy_oversampled"] = result.accuracy
        payload["degenerate_oversampled"] = result.degenerate
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "evaluation.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


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
        return {"kind": "train-cv", **dataclasses.asdict(self)}


def resolve_preset(config: ExperimentConfig) -> str:
    exp = config.experiment
    if exp.kind == "finetune":
        return exp.preset or "finetune"
    if exp.kind == "surgery":
        if not exp.preset:
            raise ConfigError("surgery needs --preset or experiment.preset in the config")
        return exp.preset
    raise ConfigError(f"experiment kind {exp.kind!r} does not train with a preset")


def resolve_base_lr(train: TrainSection, plan: SurgeryPlan) -> float:
    if train.base_lr is not None:
        return train.base_lr
    if plan.default_base_lr is not None:
        return plan.default_base_lr
    return 0.001


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
    if plan.swap_binary_labels:
        notes.append("label mapping: positive -> class 0, negative -> class 1 (wide retained head)")
    return notes


def _load_folds(manifest: DatasetManifest, config: ExperimentConfig) -> tuple[Array, str]:
    if manifest.folds is not None:
        return manifest.folds, "provided by the manifest"
    k, seed = config.dataset.k, config.seeds.folds
    return stratified_kfold(manifest.labels, k, seed), f"stratified k={k}, seed {seed}"


def run_fold(
    task: Task, config: ExperimentConfig, f: int, train_idx: Array, test_idx: Array, fold_dir: str | Path
) -> FoldOutcome:
    """Train and score outer fold f, writing its means.txt, checkpoint.nsrg,
    history.csv and result.json under fold_dir.

    The fold reads only its arguments, so it runs alone from a task loaded
    as cross_validate loads one. It holds one network: it gets its own base
    from the task, surgery keeps the base tensors the preset retains (the
    rest, such as a dropped fc8, die at once), and training updates those
    in place. Its view sources read the task's squares through row indices,
    with no copy. All of it dies when the fold returns, before the next
    fold trains. A diverged fold is recorded in its outcome, not raised.
    """
    fold_dir = Path(fold_dir)
    fold_dir.mkdir(parents=True, exist_ok=True)
    outcome = FoldOutcome(
        fold=f,
        train_indices=[int(i) for i in train_idx],
        test_indices=[int(i) for i in test_idx],
    )
    plan = preset_plan(task.preset)
    crop = config.preprocess.crop
    try:
        means = task.means(train_idx)
        spec, ckpt, _ = apply_surgery(plan, task.base_spec, task.network(), seed=config.seeds.init + f)
        train_src = ViewSource(task.squares, task.labels, crop, means, rows=train_idx)
        test_src = ViewSource(task.squares, task.labels, crop, means, rows=test_idx)
        cfg = _train_config(config.train, resolve_base_lr(config.train, plan), config.seeds.train + f)
        val_src = test_src if config.train.track_val else None
        history = _train_and_write(spec, ckpt, train_src, cfg, fold_dir / "checkpoint.nsrg", val_src)
        outcome.epochs_run = len(history)
        fused = evaluate(
            spec, ckpt, test_src, oversample=True,
            pre_softmax_fusion=config.experiment.pre_softmax_fusion,
        )
        outcome.accuracy = fused.plain.accuracy
        outcome.accuracy_oversampled = fused.accuracy
        outcome.degenerate = fused.plain.degenerate
        outcome.degenerate_oversampled = fused.degenerate
    except DivergenceError as e:
        outcome.error = str(e)
        log.warning("fold %d failed: %s", f, e)
    result = json.dumps(dataclasses.asdict(outcome), indent=2, sort_keys=True)
    (fold_dir / "result.json").write_text(result + "\n")
    return outcome


def cross_validate(config: ExperimentConfig, out_dir: str | Path, label: str | None = None) -> CVSummary:
    """Run the configured k-fold experiment, writing artifacts under out_dir."""
    preset = resolve_preset(config)
    plan = preset_plan(preset)
    base_lr = resolve_base_lr(config.train, plan)
    _train_config(config.train, base_lr, config.seeds.train)  # the recipe's errors come before any work
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = load_task(config, preset, surgery=True)
    folds, folds_note = _load_folds(task.manifest, config)
    outcomes = [
        run_fold(task, config, f, train_idx, test_idx, out / f"fold{f}")
        for f, (train_idx, test_idx) in enumerate(audit_folds(folds))
    ]

    done = [o for o in outcomes if o.error is None]
    mean, std = probe_mod.fold_stats([o.accuracy for o in done])
    mean_os, std_os = probe_mod.fold_stats([o.accuracy_oversampled for o in done])
    summary = CVSummary(
        label=label or preset,
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


def _check_probe_section(config: ExperimentConfig) -> None:
    """Raise ConfigError for a probe section no run could use, before any work:
    kinds and endpoints (of the network the preset makes of the arch) must be
    known and non-empty, the lambda grid non-empty and positive, inner_folds
    at least 2 and iters at least 1."""
    exp, probe = config.experiment, config.experiment.probe
    if not probe.kinds or any(kind not in probe_mod.PROBE_KINDS for kind in probe.kinds):
        raise ConfigError(f"experiment.probe.kinds must name some of {probe_mod.PROBE_KINDS}, got {probe.kinds}")
    if probe.endpoints is not None:
        spec = _arch_spec(exp.arch, 2)  # the width of fc8 does not change a layer's name
        if exp.preset is not None:
            spec = plan_spec(preset_plan(exp.preset), spec)
        if not probe.endpoints or any(name not in spec.endpoints for name in probe.endpoints):
            raise ConfigError(
                f"experiment.probe.endpoints must name some of {spec.endpoints}, got {probe.endpoints}"
            )
    if not probe.lambda_grid or min(probe.lambda_grid) <= 0:
        raise ConfigError(f"experiment.probe.lambda_grid must be non-empty and positive, got {probe.lambda_grid}")
    if probe.inner_folds < 2:
        raise ConfigError(f"experiment.probe.inner_folds must be >= 2, got {probe.inner_folds}")
    if probe.iters < 1:
        raise ConfigError(f"experiment.probe.iters must be >= 1, got {probe.iters}")


def run_probe_experiment(config: ExperimentConfig, out_dir: str | Path, label: str | None = None) -> probe_mod.ProbeReport:
    """Probe every endpoint of the configured network across the outer folds."""
    _check_probe_section(config)  # before --out is made or any image decoded
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    task = load_task(config, config.experiment.preset)
    folds, folds_note = _load_folds(task.manifest, config)
    # Means over every image, the outer test folds' too (README, "Linear probes").
    source = ViewSource(task.squares, task.labels, config.preprocess.crop, task.means())
    report = probe_mod.probe_all_layers(
        task.spec, task.network(), source, folds, seed=config.seeds.folds,
        **dataclasses.asdict(config.experiment.probe),
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


REPORT_SECTIONS = (*FAMILY_TITLES, "probe")


def _section(payload: dict[str, Any]) -> int:
    """Where a summary goes in REPORT_SECTIONS: its preset's family, "other", or "probe"."""
    if payload.get("kind") == "probe":
        return REPORT_SECTIONS.index("probe")
    plan = PRESETS.get(payload.get("preset"))
    return REPORT_SECTIONS.index(plan.family if plan else "other")


def write_report(root: str | Path) -> tuple[Path, Path]:
    """Aggregate every summary under root into report.md and report.csv.

    Training runs fill one table per preset family, in preset order and then
    by directory; presets of no family fill a last "Other presets" table.
    Each probe run gets a table of its own after those. A label that two
    runs of one section share is followed by the run's directory.
    """
    root = Path(root)
    rank = {preset: i for i, preset in enumerate(PRESET_ORDER)}
    runs = sorted(
        (_section(payload), rank.get(payload.get("preset"), 0), rel,
         payload.get("label", payload.get("preset", rel)), payload)
        for rel, payload in collect_summaries(root)
    )
    if not runs:
        raise DataError(f"no summary.json artifacts under {root}")
    md = ["# Experiment report", ""]
    csv = ["family,row,classifier,oversampling,mean,std,folds,failed_folds,degenerate_folds"]
    notes: list[str] = []
    flagged = False  # some fold predicted a single class
    for section, group in itertools.groupby(runs, key=lambda run: REPORT_SECTIONS[run[0]]):
        group = list(group)
        labels = Counter(label for _, _, _, label, _ in group)
        if section != "probe":
            md += [f"## {FAMILY_TITLES[section]}", "",
                   "| Architecture | Without oversampling | With oversampling |", "|---|---|---|"]
        for _, _, rel, label, payload in group:
            name = label if labels[label] == 1 else f"{label} ({rel})"
            if section == "probe":
                report = probe_mod.ProbeReport(
                    rows=[probe_mod.ProbeRow(**r) for r in payload.get("rows", [])],
                    endpoints=tuple(payload.get("endpoints", [])),
                    kinds=tuple(payload.get("kinds", probe_mod.PROBE_KINDS)),
                    pre_activation=bool(payload.get("pre_activation")),
                    standardize=bool(payload.get("standardize", True)),
                )
                md += [f"## Layer probes ({name})", "", *report.table(), ""]
                for ep, kind in itertools.product(report.endpoints, report.kinds):
                    accs = report.accuracies(ep, kind)
                    if accs:
                        mean, std = probe_mod.fold_stats(accs)
                        csv.append(f"probe,{ep},{kind},no,{mean:.6f},{std:.6f},{len(accs)},0,0")
                features = "pre-activation" if report.pre_activation else "post-activation"
                notes.append(f"probe features: {features}, single center view")
                continue
            folds = payload.get("folds", [])
            failed = sum(1 for f in folds if f.get("error") is not None)
            cells = []
            for key, oversampled in (("", "no"), ("_oversampled", "yes")):
                mean, std = payload.get(f"mean{key}", float("nan")), payload.get(f"std{key}", float("nan"))
                degenerate = sum(1 for f in folds if f.get("error") is None and f.get(f"degenerate{key}"))
                flagged = flagged or degenerate > 0
                cells.append(probe_mod.format_stats(mean, std) + ("*" if degenerate else ""))
                csv.append(f"{section},{name},net,{oversampled},{mean:.6f},{std:.6f},"
                           f"{len(folds)},{failed},{degenerate}")
            diverged = f" ({failed} fold(s) diverged)" if failed else ""
            md.append(f"| {name} | {cells[0]}{diverged} | {cells[1]} |")
            notes += payload.get("assumptions", [])
        if section != "probe":
            md.append("")

    if flagged:
        md += ["\\* at least one fold predicted a single class (degenerate predictor)", ""]
    if notes:
        md += ["## Assumptions", "", *(f"- {note}" for note in dict.fromkeys(notes)), ""]
    md_path = root / "report.md"
    csv_path = root / "report.csv"
    md_path.write_text("\n".join(md))
    csv_path.write_text("\n".join(csv) + "\n")
    return md_path, csv_path
