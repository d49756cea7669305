"""The benchmark's tracer still finds every sentnet name it wraps, and its
set-up can still write a source checkpoint.

bench/tracing.py wraps package functions by name from outside the package,
and bench/workloads.py builds the probe-small and reference-finetune source
checkpoints through `harness._arch_spec`. The benchmark's own tests are not
part of this suite, so a rename under src/ would otherwise pass here and
only show in a benchmark run: as a "could not trace" line, or as a set-up
that fails on every workload that starts from a source network.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
