"""sentnet benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload quickstart-small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from its `src/`. Set-up makes the inputs from --seed, then fresh
worker processes run the workload one after another until --seconds have
been measured; set-up is timed again after each iteration. With --trace 0
the end-to-end metrics are medians over the iterations; with --trace 1
traced and untraced iterations alternate and the per-layer metrics are
medians over the traced ones. Human-readable lines come first; the last line of standard output is
one JSON object holding the metrics that BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170  # a run must end within 180 s

# ROADMAP baseline (2 cores, OpenBLAS 0.3.31), for the cross-check a traced run prints
BASELINE = {
    "quickstart-small": [("optim.step_ms.p50", 53.0, "small train step, batch 32"),
                         ("network.conv1.bwd_ms", 9.6, "small conv1 backward, batch 32"),
                         ("network.pool1.fwd_ms", 3.7, "small pool1 forward, batch 32")],
    "reference-finetune": [("optim.step_ms.p50", 602.0, "reference train step, batch 4")],
}


UNITS = {"pretrain_images_per_s": "images/s", "probe_fits_per_s": "fits/s", "failed_fraction": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(("_ms", ".p50", ".p90")):
        return "ms"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflop"):
        return "GFLOP"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def blas_record(threads: int) -> dict:
    """numpy, BLAS name/version and the BLAS thread count actually in force."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    in_force = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(handle, sym):
                in_force = int(getattr(handle, sym)())
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_set": threads,
        "blas_threads_in_force": in_force,
    }


def run_worker(args, iteration: int, traced: bool, work: Path, env: dict, deadline: float) -> dict:
    it_dir = work / "iter"
    shutil.rmtree(it_dir, ignore_errors=True)
    it_dir.mkdir()
    result = work / f"result{iteration}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(work / f"spans{iteration}.json")]
    if args.tiny:
        cmd.append("--tiny")
    with open(work / f"worker{iteration}.log", "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=it_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
            code = proc.returncode
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            code = "timeout"
    if code != 0 or not result.is_file():
        tail = (work / f"worker{iteration}.log").read_text()[-2000:]
        print(f"worker {iteration} failed ({code}):\n{tail}", file=sys.stderr)
        return {"problems": [f"worker exited {code}"], "attempted": 1, "failed": 1, "traced": traced}
    out = json.loads(result.read_text())
    out["traced"] = traced
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "sentnet" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no sentnet checkout at {ROOT} (need src/sentnet and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # BLAS threads are a benchmark setting: fixed before numpy loads, here and in workers
    threads = min(2, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.dont_write_bytecode = True
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    import sentnet.cli  # noqa: F401  (imports are not set-up work)

    setup_times: list[float] = []

    def timed_setup(dest: Path) -> None:
        shutil.rmtree(dest, ignore_errors=True)
        with contextlib.redirect_stdout(sys.stderr):  # the CLI prints each manifest path
            t0 = time.perf_counter()
            workload.setup(dest, args.seed, args.tiny)
            setup_times.append(time.perf_counter() - t0)

    timed_setup(work / "inputs")
    machine = blas_record(threads)

    # Iterate until --seconds are measured; with tracing, traced and untraced
    # alternate. Set-up is timed again after each iteration, so its median, like
    # that of the iterations, spreads over the whole run.
    results: list[dict] = []
    min_iterations = 3 if args.trace else 2
    measure_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(results) % 2 == 0
        t0 = time.monotonic()
        results.append(run_worker(args, len(results), traced, work, env, deadline))
        last = time.monotonic() - t0
        if results[-1]["problems"] and "run_s" not in results[-1]:
            break
        if not args.tiny:
            timed_setup(work / "setup_again")
        if len(results) >= min_iterations and time.monotonic() - measure_start >= args.seconds:
            break
        if time.monotonic() + 1.5 * last > deadline:
            break
    for scratch in ("iter", "setup_again", "inputs"):  # keep logs, results and spans only
        shutil.rmtree(work / scratch, ignore_errors=True)

    plain = [r for r in results if not r["traced"] and "run_s" in r]
    traced_runs = [r for r in results if r["traced"] and "run_s" in r]
    problems = sorted({p for r in results for p in r["problems"]})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digests = [r["digest"] for r in results if "digest" in r]
    mismatched = sum(1 for d in digests if d != digests[0])
    failed += mismatched
    if mismatched:
        problems.append(f"{mismatched} of {len(digests)} iterations wrote different artifacts for seed {args.seed}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"iterations {len(plain)} untraced, {len(traced_runs)} traced")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))

    e2e: dict[str, float] = {"setup_s": statistics.median(setup_times)}
    if plain:
        plan = workload.plan(args.seed, args.tiny)
        e2e["run_s"] = statistics.median(r["run_s"] for r in plain)
        e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        for stage in plan.stages:
            if stage.name in ("pretrain", "finetune", "probe"):
                e2e[f"{stage.name}_s"] = statistics.median(r["stages"][stage.name] for r in plain)
        if "pretrain" in plan.work:
            e2e["pretrain_images_per_s"] = plan.work["pretrain"] / e2e["pretrain_s"]
        if "probe" in plan.work:
            e2e["probe_fits_per_s"] = plan.work["probe"] / e2e["probe_s"]
    e2e["failed_fraction"] = failed / attempted if attempted else 1.0
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    runs = " ".join(f"{r['run_s']:.3f}" for r in plain)
    print(f"  (setup median of {len(setup_times)}: {' '.join(f'{t:.3f}' for t in setup_times)}; "
          f"others median of {len(plain)} untraced iterations, run_s {runs})")

    layers: dict[str, float] = {}
    if traced_runs:
        for name in traced_runs[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced_runs)
        if plain:
            layers["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced_runs) - e2e["run_s"]
        counts = [n for n in layers if unit_of(n) in ("count", "GFLOP", "MB", "B")]
        for r in traced_runs[1:]:
            moved = [n for n in counts if r["layers"][n] != traced_runs[0]["layers"][n]]
            if moved:
                problems.append(f"operation counts differ between traced iterations: {moved}")
        for r in traced_runs:
            problems += r["span_problems"]
            if r["untraced"]:
                problems.append(f"could not trace {r['untraced']}")
        for name, value in layers.items():
            print(f"layer {name} {value:.6g} {unit_of(name)}")
        coverage = statistics.median(r["coverage"] for r in traced_runs)
        print(f"trace coverage {coverage:.4f} of run_s is inside top-level layer spans "
              f"(median of {len(traced_runs)} traced iterations; spans in {work}/spans*.json)")
        steps = int(layers.get("optim.steps", 0))
        if steps:
            print(f"  optim.step_ms percentiles over {steps} steps per traced iteration")
        for name, base, what in BASELINE.get(args.workload, []):
            ours = layers.get(name, 0.0)
            print(f"baseline {what}: ROADMAP {base:g} ms, here {ours:.4g} ms ({ours / base - 1:+.1%})")

    print(f"artifacts digest {digests[0][:16] if digests else 'none'}  "
          f"identical in {len(digests) - mismatched}/{len(digests)} iterations")
    correct = not problems and failed == 0 and bool(plain or traced_runs)
    print(f"check {'PASS' if correct else 'FAIL'}" + "".join(f"\n  {p}" for p in problems))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"bench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
