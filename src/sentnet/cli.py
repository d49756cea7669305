"""Command-line interface.

Subcommands mirror the experiment lifecycle: prepare-data, pretrain,
finetune, surgery, probe, evaluate, report. Exit codes are stable: 0
success, 1 usage or configuration problem, 2 data or checkpoint problem,
3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import harness, synth
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    ViewSource,
    compute_channel_means,
    decode_squares,
    load_manifest,
    read_means,
    save_manifest,
    stratified_kfold,
    write_means,
)
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    SentnetError,
    ShapeError,
    SurgeryError,
)
from .network import init_params, parameter_shapes
from .optim import history_to_csv, train

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sentnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    def common(p, config_required=True):
        p.add_argument("--config", help="experiment config JSON", required=config_required)
        p.add_argument("--seed", type=int, default=None, help="override every config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("prepare-data", help="generate or fold-split a dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--synthetic", choices=["binary", "multiclass"], help="generate a synthetic dataset")
    p.add_argument("--count", type=int, default=200, help="synthetic image count")
    p.add_argument("--size", type=int, default=72, help="synthetic image side")
    p.add_argument("--palette", choices=["base", "alt"], default="base")
    p.add_argument("--manifest", help="existing manifest to assign folds to")
    p.add_argument("--folds", type=int, default=5)

    common(sub.add_parser("pretrain", help="train the source network from scratch"))
    common(sub.add_parser("finetune", help="cross-validated head-replacement fine-tuning"))

    p = sub.add_parser("surgery", help="cross-validated experiment for a surgery preset")
    common(p)
    p.add_argument("--preset", help="surgery preset name", default=None)

    common(sub.add_parser("probe", help="layer-wise linear probes"))

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a manifest")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint to evaluate (defaults to config base_checkpoint)")
    p.add_argument("--oversample", action="store_true", help="also report ten-crop fused accuracy")

    p = sub.add_parser("report", help="aggregate experiment artifacts into a report")
    p.add_argument("--out", required=True, help="directory holding experiment outputs")
    return parser


def _load_config(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config, seeds=harness.SeedsSection(folds=args.seed, init=args.seed, train=args.seed)
        )
    return config


def _cmd_prepare_data(args) -> int:
    out = Path(args.out)
    if args.synthetic and args.manifest:
        raise ConfigError("pass either --synthetic or --manifest, not both")
    if args.synthetic:
        path = synth.write_synthetic_dataset(
            out, args.synthetic, args.count, args.size, args.seed,
            k_folds=args.folds, palette=args.palette,
        )
        print(path)
        return EXIT_OK
    if args.manifest:
        manifest = load_manifest(args.manifest, allow_multiclass=True)
        folds = stratified_kfold(manifest.labels, args.folds, args.seed)
        out.mkdir(parents=True, exist_ok=True)
        target = out / "manifest.csv"
        save_manifest(manifest.with_folds(folds), target)
        print(target)
        return EXIT_OK
    raise ConfigError("prepare-data needs --synthetic or --manifest")


def _cmd_pretrain(args) -> int:
    config = _load_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(config.dataset.manifest, allow_multiclass=True)
    labels = manifest.labels
    num_classes = max(2, int(labels.max()) + 1)
    spec = harness._arch_spec(config.experiment.arch, num_classes)
    ckpt = init_params(spec, config.seeds.init)
    squares = decode_squares(manifest, config.preprocess)
    means = harness.resolve_means(config)
    if means is None:
        means = compute_channel_means(iter(squares))
    write_means(out / "means.txt", means)
    source = ViewSource(squares, labels, config.preprocess.crop, means)
    base_lr = config.train.base_lr if config.train.base_lr is not None else 0.01
    cfg = harness._train_config(config.train, base_lr, config.seeds.train)
    trained, history = train(spec, ckpt, source, cfg)
    save_checkpoint(trained, out / "pretrained.nsrg")
    (out / "history.csv").write_text(history_to_csv(history))
    print(out / "pretrained.nsrg")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    config = _load_config(args)
    if config.experiment.kind not in ("finetune",):
        config = dataclasses.replace(
            config, experiment=dataclasses.replace(config.experiment, kind="finetune")
        )
    summary = harness.cross_validate(config, args.out)
    print(json.dumps({"label": summary.label, "mean": summary.mean,
                      "mean_oversampled": summary.mean_oversampled}))
    return EXIT_OK


def _cmd_surgery(args) -> int:
    config = _load_config(args)
    preset = args.preset or config.experiment.preset
    if not preset:
        raise ConfigError("surgery needs --preset or experiment.preset in the config")
    config = dataclasses.replace(
        config, experiment=dataclasses.replace(config.experiment, kind="surgery", preset=preset)
    )
    summary = harness.cross_validate(config, args.out)
    print(json.dumps({"label": summary.label, "mean": summary.mean,
                      "mean_oversampled": summary.mean_oversampled}))
    return EXIT_OK


def _cmd_probe(args) -> int:
    config = _load_config(args)
    harness.run_probe_experiment(config, args.out)
    print(Path(args.out) / "probe_report.csv")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    config = _load_config(args)
    if args.checkpoint:
        config = dataclasses.replace(
            config,
            experiment=dataclasses.replace(config.experiment, base_checkpoint=args.checkpoint),
        )
    if config.experiment.base_checkpoint is None:
        raise ConfigError("evaluate needs --checkpoint or experiment.base_checkpoint")
    base_spec, ckpt = harness._base_network(config)
    # A fold checkpoint records the preset that shaped it; scoring it as that
    # preset's network, on that preset's labels, reproduces the fold's result.
    preset = ckpt.metadata.get("surgery")
    named = config.experiment.preset
    if named is not None and preset is not None and named != preset:
        raise ConfigError(f"the config names preset {named!r} but the checkpoint was made by {preset!r}")
    means = harness.resolve_means(config)
    if means is None:
        beside = Path(config.experiment.base_checkpoint).parent / "means.txt"
        if not beside.exists():
            raise ConfigError(
                f"evaluate needs the channel means training used: set preprocess.channel_means "
                f"or dataset.means in the config, or keep the means.txt training wrote at {beside}"
            )
        means = read_means(beside)
    manifest = load_manifest(config.dataset.manifest, allow_multiclass=True)
    spec, labels = harness.preset_task(preset, base_spec, manifest.labels)
    ckpt.validate_against(parameter_shapes(spec))
    squares = decode_squares(manifest, config.preprocess)
    source = ViewSource(squares, labels, config.preprocess.crop, means)
    result = harness.evaluate(
        spec, ckpt, source, oversample=args.oversample,
        pre_softmax_fusion=config.experiment.pre_softmax_fusion,
    )
    plain = result.plain or result
    payload = {
        "accuracy": plain.accuracy,
        "per_class": {str(k): v for k, v in plain.per_class.items()},
        "degenerate": plain.degenerate,
        "n": plain.n,
    }
    if args.oversample:
        payload["accuracy_oversampled"] = result.accuracy
        payload["degenerate_oversampled"] = result.degenerate
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "evaluation.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_report(args) -> int:
    md_path, csv_path = harness.write_report(args.out)
    print(md_path)
    print(csv_path)
    return EXIT_OK


_COMMANDS = {
    "prepare-data": _cmd_prepare_data,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "surgery": _cmd_surgery,
    "probe": _cmd_probe,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SurgeryError) as e:
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_USAGE
    except DivergenceError as e:
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, ShapeError) as e:
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as e:
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_DATA
    except SentnetError as e:
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
