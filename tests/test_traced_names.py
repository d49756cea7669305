"""The benchmark's tracer still finds every sentnet name it wraps.

bench/tracing.py wraps package functions by name from outside the package,
and its own tests are not part of this suite, so a rename under src/ would
otherwise pass here and only show as a "could not trace" line in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """
import json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
print(json.dumps(tracer.untraced))
"""


def test_every_traced_name_exists():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])}
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == []
