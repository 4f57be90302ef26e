"""Two runs of the benchmark with the same seed give identical answers
(verdicts, witnesses, sides, refusals) and identical layer counts.

    python3 -m pytest perfbench/test_determinism.py

Each workload is run twice, traced, in fresh interpreters (so with
different string-hash seeds), at the shortest run length: one untraced and
one traced pass. Takes a few minutes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 11

# the counts a count-based claim may cite; each workload must produce some
CITED = ("regions.states", "nfa.strip_states", "observers.locations", "observers.clocks", "oracle.traces")


def run_once(workload: str, records) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--records", str(records)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    with open(records, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["first-n", "switch-times", "small-models", "oracle-crosscheck"])
def test_same_seed_same_answers_and_counts(workload, tmp_path):
    first = run_once(workload, tmp_path / "first.json")
    second = run_once(workload, tmp_path / "second.json")
    assert sorted(first) == sorted(second)
    for qid in first:
        assert first[qid]["answer"] == second[qid]["answer"], qid
        assert first[qid]["counts"] == second[qid]["counts"], qid
    assert any(rec["counts"][name] for rec in first.values() for name in CITED)
