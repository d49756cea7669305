"""The benchmark's tracer still finds and calls every sentnet name it wraps,
and its set-up can still write a source checkpoint.

bench/tracing.py wraps package functions by name from outside the package,
and bench/workloads.py builds the probe-small and reference-finetune source
checkpoints through `harness._arch_spec`. The benchmark's own tests are not
part of this suite, so a rename or a signature change under src/ would
otherwise pass here and only show in a benchmark run: as a "could not
trace" line, a traced run that fails, or a set-up that fails on every
workload that starts from a source network.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from sentnet.checkpoint import load_checkpoint
from sentnet.network import parameter_shapes, reference_spec_small

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json
import sys
from pathlib import Path
import tracing
import workloads
tracer = tracing.Tracer()
tracing.install(tracer)
workloads._source_checkpoint(Path(sys.argv[1]) / "s.nsrg", "small", 4, 0)
print(json.dumps(tracer.untraced))
"""


def test_every_traced_name_exists(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path)],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
    load_checkpoint(tmp_path / "s.nsrg").validate_against(parameter_shapes(reference_spec_small(4)))


@pytest.mark.parametrize("workload", ["quickstart-small", "probe-small", "reference-finetune"])
def test_traced_tiny_run_passes(workload, tmp_path):
    """One traced benchmark run at tiny size, from a copy of bench/ over this src/.

    The copy keeps the run's work directory out of the checkout. Traced and
    untraced iterations alternate, so reference-finetune covers both ways a
    `reference` step takes its FC gradients: the tracer's rebuilt pairs have
    no param_pullback, so backward_walk takes each whole from the full
    pullback, which fills it from the row blocks; the package's own pairs
    give the row blocks one at a time.
    """
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1", "--tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=175,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    assert "check PASS" in lines, done.stdout[-3000:]
    assert not any("could not trace" in line for line in lines)
