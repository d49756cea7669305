"""One timed iteration of a workload, in a fresh process.

Run by run.py with the iteration directory as working directory. Calls
`sentnet.cli.main` in-process for each stage, then checks and hashes the
artifacts and writes a JSON result. With --trace 1 the public functions of
every layer are wrapped first (see tracing.py) and the spans are written out
when the iteration ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_stages(plan, tracer) -> tuple[dict[str, float], dict[str, int], float]:
    from sentnet import cli

    for stage in plan.stages:
        if stage.config is not None:
            Path(f"{stage.name}.json").write_text(json.dumps(stage.config, indent=2))
    seconds: dict[str, float] = {}
    exits: dict[str, int] = {}
    start = time.perf_counter()
    for stage in plan.stages:
        argv = list(stage.argv) + (["--config", f"{stage.name}.json"] if stage.config is not None else [])
        t0 = time.perf_counter()
        span = tracer.begin(f"stage.{stage.name}") if tracer else None
        try:
            exits[stage.name] = cli.main(argv)
        except Exception:  # a crash is reported as a failed stage, not a lost run
            traceback.print_exc()
            exits[stage.name] = -1
        finally:
            if tracer:
                tracer.end(span)
        seconds[stage.name] = time.perf_counter() - t0
    return seconds, exits, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--spans", help="where to write the spans of a traced iteration")
    args = parser.parse_args()

    plan = workloads.WORKLOADS[args.workload].plan(args.seed, args.tiny)
    tracer = None
    if args.trace:
        import sentnet.cli  # noqa: F401  (every module that holds a traced name)

        tracer = tracing.Tracer()
        tracing.install(tracer)
    seconds, exits, run_s = run_stages(plan, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = Path.cwd()
    problems = [f"sentnet {name} exited {code}" for name, code in exits.items() if code != 0]
    diverged = 0
    if not problems:
        found, diverged = workloads.check_outputs(out, plan)
        problems += found
    result = {
        "stages": seconds,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": workloads.digest(out),
        "problems": problems,
        "attempted": len(plan.stages) + plan.folds * sum(1 for s in plan.stages if s.name == "finetune"),
        "failed": sum(1 for code in exits.values() if code != 0) + diverged,
    }
    if tracer:
        spans = tracer.spans
        stage_ids = {i for i, s in enumerate(spans) if s[3] == -1}
        covered = sum(s[2] - s[1] for s in spans if s[3] in stage_ids)
        self_s = tracing.self_times(spans)
        from sentnet.network import reference_spec_small

        layer_names = [l.name for l in reference_spec_small(2).layers if l.kind.value != "softmax"]
        result["layers"] = tracing.layer_metrics(spans, tracer.counts, layer_names)
        result["coverage"] = covered / run_s
        result["span_problems"] = tracing.check_spans(spans) + [
            f"span {i} ({spans[i][0]}) has self time {t!r}" for i, t in enumerate(self_s) if t < -1e-9
        ]
        result["untraced"] = tracer.untraced
        if args.spans:
            Path(args.spans).write_text(json.dumps({"spans": spans, "self_s": self_s}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
