"""The benchmark under `perfbench/` resolves library names by home module
and wraps layer entry points by module attribute; these guards fail when a
refactor moves or renames one of them, or when the benchmark's answers stop
matching its references."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_benchmark(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11", "--seconds", "0",
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["first-n", "switch-times", "oracle-crosscheck"])
def test_benchmark_answers_are_correct(workload):
    # one untimed pass: every verdict checked and every witness replayed exactly
    result = run_benchmark(workload, 0)
    assert result["correct"] is True and result["failed"] == 0


def test_traced_benchmark_answers_are_correct():
    # traced and untraced passes alternate; a tracer counter that no longer
    # fits the layer it wraps fails the queries it traces, and the exact
    # counts fail any change to the region graph or the strip. The observer
    # counts are those of the tick constructions and unfoldings the engine
    # builds, which emit only the locations a run reaches: a query that
    # bypasses `observers.tick_construction` moves them
    result = run_benchmark("first-n", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["regions.states"]["value"] == 880
    assert metrics["regions.edges"]["value"] == 1584
    assert metrics["nfa.strip_states"]["value"] == 660
    assert metrics["observers.locations"]["value"] == 90
    assert metrics["observers.clocks"]["value"] == 34


def test_traced_switch_time_counts():
    # the static switch-time reduction, on the same tick construction and wrap-around
    # observation clocks: the exact counts fail any change to its region
    # graph or the strip
    result = run_benchmark("switch-times", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["regions.states"]["value"] == 594
    assert metrics["regions.edges"]["value"] == 1402
    assert metrics["nfa.strip_states"]["value"] == 341
    assert metrics["observers.locations"]["value"] == 56
    assert metrics["observers.clocks"]["value"] == 8


def test_traced_small_model_counts():
    # the weak/full engines build the memo automaton of the reached part of
    # each model and the existence check the reachable location pairs of its
    # product, with the constants of the whole constructions: the exact
    # counts are those of the whole constructions' region builds, and fail
    # any change to the regions they give
    result = run_benchmark("small-models", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["regions.states"]["value"] == 18683
    assert metrics["regions.edges"]["value"] == 27066
    assert metrics["nfa.strip_states"]["value"] == 10794


def test_traced_oracle_counts():
    # the traces the oracle collects, the runs it enumerates and the queries
    # it leaves open on the criterion-5 corpus and fig1: a change to the
    # enumeration or to the trace sets moves one of them
    result = run_benchmark("oracle-crosscheck", 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["oracle.traces"]["value"] == 13170
    assert metrics["ta.runs"]["value"] == 13752
    assert metrics["oracle.inconclusive"]["value"] == 2
