"""Command-line interface.

Subcommands mirror the experiment lifecycle: prepare-data, pretrain,
finetune, surgery, probe, evaluate, report. Exit codes are stable: 0
success, 1 usage or configuration problem, 2 data or checkpoint problem,
3 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import sys
from pathlib import Path

from . import harness, synth
from .data import load_manifest, save_manifest, stratified_kfold
from .errors import ConfigError, DivergenceError, SentnetError, SurgeryError

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
    if args.seed < 0:  # numpy refuses it only once out/ is made
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
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
        if args.folds < 2:  # a usage error, as on the synthetic path: exit 1 before the manifest is read
            raise ConfigError(f"need at least 2 folds, got {args.folds}")
        manifest = load_manifest(args.manifest, allow_multiclass=True)
        folds = stratified_kfold(manifest.labels, args.folds, args.seed)
        out.mkdir(parents=True, exist_ok=True)
        target = out / "manifest.csv"
        save_manifest(manifest.with_folds(folds), target)
        print(target)
        return EXIT_OK
    raise ConfigError("prepare-data needs --synthetic or --manifest")


def _cmd_pretrain(args) -> int:
    print(harness.pretrain(_load_config(args), args.out))
    return EXIT_OK


def _cmd_cross_validate(args, kind: str) -> int:
    """`finetune` and `surgery`: the configured k-fold experiment as that kind."""
    config = _load_config(args)
    preset = getattr(args, "preset", None) or config.experiment.preset
    experiment = dataclasses.replace(config.experiment, kind=kind, preset=preset)
    summary = harness.cross_validate(dataclasses.replace(config, experiment=experiment), args.out)
    print(json.dumps({"label": summary.preset, "mean": summary.mean,
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
    payload = harness.evaluate_checkpoint(config, args.out, oversample=args.oversample)
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
    "finetune": functools.partial(_cmd_cross_validate, kind="finetune"),
    "surgery": functools.partial(_cmd_cross_validate, kind="surgery"),
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
    except (SentnetError, OSError) as e:  # data, checkpoint, shape and file-system problems
        print(f"sentnet: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
