"""The benchmark's workloads: inputs made at set-up, CLI stages, output checks.

Set-up generates every input with `sentnet.synth` (through `sentnet
prepare-data`) and, where a workload starts from a source network, writes a
seeded checkpoint. The timed part then runs CLI stages in a worker whose
working directory is fresh for each iteration; configs name inputs by paths
relative to it, so artifacts repeat byte for byte across iterations and
checkouts. Why each workload exists is in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

INPUTS = "../inputs"  # set-up output, seen from the worker's directory


@dataclass(frozen=True)
class Stage:
    name: str  # the sentnet subcommand
    argv: tuple[str, ...]
    config: dict | None = None  # written to <name>.json and passed as --config


@dataclass(frozen=True)
class Plan:
    stages: tuple[Stage, ...]
    folds: int  # outer folds in every summary; a diverged `finetune` fold is a failure
    work: dict[str, float] = field(default_factory=dict)  # units of work per stage, for rates


def _prepare(out: Path, task: str, count: int, size: int, seed: int, folds: int, palette: str = "base") -> None:
    from sentnet import cli

    argv = ["prepare-data", "--out", str(out), "--synthetic", task, "--count", str(count),
            "--size", str(size), "--seed", str(seed), "--folds", str(folds), "--palette", palette]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"set-up failed: sentnet {' '.join(argv)} exited {code}")


def _source_checkpoint(path: Path, arch: str, classes: int, seed: int) -> None:
    from sentnet import harness
    from sentnet.checkpoint import save_checkpoint
    from sentnet.network import init_params

    save_checkpoint(init_params(harness._arch_spec(arch, classes), seed), path)


def _seeds(seed: int) -> dict:
    return {"folds": seed, "init": seed, "train": seed}


# -- quickstart-small ---------------------------------------------------------
# The README quick start at reduced size: pretrain, k-fold fine-tune with
# ten-crop evaluation, report.

QUICKSTART = {
    False: dict(source=240, target=60, pretrain_epochs=2, finetune_epochs=4, k=5),
    True: dict(source=64, target=20, pretrain_epochs=1, finetune_epochs=1, k=5),
}


def quickstart_setup(inputs: Path, seed: int, tiny: bool) -> None:
    size = QUICKSTART[tiny]
    _prepare(inputs / "source", "multiclass", size["source"], 72, seed, 5)
    _prepare(inputs / "target", "binary", size["target"], 72, seed, size["k"], palette="alt")


def quickstart_plan(seed: int, tiny: bool) -> Plan:
    size = QUICKSTART[tiny]
    pretrain = {
        "dataset": {"manifest": f"{INPUTS}/source/manifest.csv"},
        "train": {"base_lr": 0.0001, "epochs": size["pretrain_epochs"], "step_epochs": 8},
        "experiment": {"arch": "small"},
        "seeds": _seeds(seed),
    }
    finetune = {
        "dataset": {"manifest": f"{INPUTS}/target/manifest.csv", "k": size["k"]},
        "train": {"base_lr": 0.0001, "epochs": size["finetune_epochs"], "step_epochs": 25},
        "experiment": {"arch": "small", "base_checkpoint": "runs/source/pretrained.nsrg"},
        "seeds": _seeds(seed),
    }
    return Plan(
        stages=(
            Stage("pretrain", ("pretrain", "--out", "runs/source"), pretrain),
            Stage("finetune", ("finetune", "--out", "runs/finetune"), finetune),
            Stage("report", ("report", "--out", "runs")),
        ),
        folds=size["k"],
        work={"pretrain": size["pretrain_epochs"] * size["source"]},
    )


# -- probe-small --------------------------------------------------------------
# `sentnet probe` on every endpoint of a seeded 4-class `small` source net;
# the lambda grid and iteration budget are trimmed so a run takes seconds.

PROBE = {
    False: dict(target=60, k=3, lambdas=(0.01, 0.1, 1.0), inner=3, iters=100),
    True: dict(target=24, k=2, lambdas=(0.1, 1.0), inner=2, iters=5),
}
SMALL_ENDPOINTS = 13


def probe_setup(inputs: Path, seed: int, tiny: bool) -> None:
    size = PROBE[tiny]
    _prepare(inputs / "target", "binary", size["target"], 72, seed, size["k"], palette="alt")
    _source_checkpoint(inputs / "source.nsrg", "small", 4, seed)


def probe_plan(seed: int, tiny: bool) -> Plan:
    size = PROBE[tiny]
    config = {
        "dataset": {"manifest": f"{INPUTS}/target/manifest.csv", "k": size["k"]},
        "experiment": {
            "arch": "small",
            "base_checkpoint": f"{INPUTS}/source.nsrg",
            "probe": {"lambda_grid": list(size["lambdas"]), "inner_folds": size["inner"], "iters": size["iters"]},
        },
        "seeds": _seeds(seed),
    }
    fits = SMALL_ENDPOINTS * 2 * size["k"] * (len(size["lambdas"]) * size["inner"] + 1)
    return Plan(stages=(Stage("probe", ("probe", "--out", "runs/probe"), config),), folds=size["k"],
                work={"probe": fits})


# -- reference-finetune -------------------------------------------------------
# Full-size 227x227 `reference` net fine-tuned from a seeded 1000-class
# checkpoint: the workload where SGD over 58M parameters, the wide fc layers,
# the ~230 MB checkpoint codec and 60-view ten-crop chunks all show.

REFERENCE = {
    False: dict(target=12, classes=1000, epochs=1),
    True: dict(target=4, classes=10, epochs=1),
}


def reference_setup(inputs: Path, seed: int, tiny: bool) -> None:
    size = REFERENCE[tiny]
    _prepare(inputs / "target", "binary", size["target"], 256, seed, 2)
    _source_checkpoint(inputs / "source.nsrg", "reference", size["classes"], seed)


def reference_plan(seed: int, tiny: bool) -> Plan:
    size = REFERENCE[tiny]
    config = {
        "dataset": {"manifest": f"{INPUTS}/target/manifest.csv", "k": 2},
        "preprocess": {"resize_to": 256, "crop": 227},
        "train": {"base_lr": 0.001, "epochs": size["epochs"], "batch_size": 8},
        "experiment": {"arch": "reference", "base_checkpoint": f"{INPUTS}/source.nsrg"},
        "seeds": _seeds(seed),
    }
    return Plan(stages=(Stage("finetune", ("finetune", "--out", "runs/finetune"), config),), folds=2)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int, bool], None]  # (inputs dir, seed, tiny)
    plan: Callable[[int, bool], Plan]  # (seed, tiny)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quickstart-small", quickstart_setup, quickstart_plan),
        Workload("probe-small", probe_setup, probe_plan),
        Workload("reference-finetune", reference_setup, reference_plan),
    )
}


# -- output checks ------------------------------------------------------------

DIGESTED = ("summary.json", "report.md", "report.csv", "probe_report.csv")


def digest(out: Path) -> str:
    """sha256 over every digested artifact and checkpoint, by relative path."""
    files = sorted(p for p in out.rglob("*") if p.is_file() and (p.name in DIGESTED or p.suffix == ".nsrg"))
    h = hashlib.sha256()
    for p in files:
        h.update(f"{p.relative_to(out).as_posix()} {hashlib.sha256(p.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def _accuracy_ok(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_outputs(out: Path, plan: Plan) -> tuple[list[str], int]:
    """Structural problems with a finished iteration's artifacts, and diverged folds."""
    problems: list[str] = []
    diverged = 0
    summaries = sorted(out.rglob("summary.json"))
    if not summaries:
        problems.append("no summary.json written")
    for path in summaries:
        s = json.loads(path.read_text())
        where = path.parent.relative_to(out).as_posix()
        if s.get("kind") == "probe":
            rows = s["rows"]
            want = len(s["endpoints"]) * len(s["kinds"]) * plan.folds
            if len(s["endpoints"]) != SMALL_ENDPOINTS or len(rows) != want:
                problems.append(f"{where}: {len(rows)} probe rows for {len(s['endpoints'])} endpoints")
            csv_rows = (path.parent / "probe_report.csv").read_text().splitlines()[1:]
            if len(csv_rows) != len(rows):
                problems.append(f"{where}: probe_report.csv has {len(csv_rows)} rows, summary {len(rows)}")
            problems += [f"{where}: probe accuracy {r['accuracy']!r}" for r in rows if not _accuracy_ok(r["accuracy"])]
            continue
        fold_rows = s["folds"]
        diverged += sum(1 for f in fold_rows if f["error"] is not None)
        if len(fold_rows) != plan.folds:
            problems.append(f"{where}: {len(fold_rows)} folds, expected {plan.folds}")
        for f in fold_rows:
            if f["error"] is not None:
                problems.append(f"{where}: fold {f['fold']} did not finish: {f['error']}")
            for key in ("accuracy", "accuracy_oversampled"):
                if f["error"] is None and not _accuracy_ok(f[key]):
                    problems.append(f"{where}: fold {f['fold']} {key} {f[key]!r}")
            if not (out / where / f"fold{f['fold']}" / "checkpoint.nsrg").is_file():
                problems.append(f"{where}: fold {f['fold']} wrote no checkpoint")
    if any(st.name == "report" for st in plan.stages):
        for name in ("report.md", "report.csv"):
            if not (out / "runs" / name).is_file():
                problems.append(f"runs/{name} not written")
    return problems, diverged
