"""The benchmark under `perfbench/` resolves library names by home module
and wraps layer entry points by module attribute; this guard fails when a
refactor moves or renames one of them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# run in a child interpreter: `load_topaq` re-imports `topaq`, which would
# leave this process's tests holding stale module references
CHILD = """
import sys
sys.path.insert(0, "perfbench")
import run, tracing
tq = run.load_topaq()
tracer = tracing.Tracer()
tracer.install(tq)
tracer.uninstall()
missing = [name for name, home in run.HOME.items() if not hasattr(tq.modules[home], name)]
assert not missing, missing
print("bound", len(run.HOME))
"""


def test_benchmark_binds_and_traces():
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().startswith("bound ")
