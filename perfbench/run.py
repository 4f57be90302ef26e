"""Opacity-query benchmark for topaq.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library is imported from the
checkout's `src/`, one query is sent after another (a closed loop with one
client), and every answer is checked against an independent reference.
One pass sends every query of the workload once, in a new order drawn
from the seed; a further pass starts only while it can be expected to end
within `--seconds` of the first one's start (answer checking and repeated
set-ups included), so a run's length does not depend on the speed of the
code under test. Query times are
reported in reference units (`speed.py`: wall time over the time of a fixed
kernel sampled during the query), averaged over the passes; set-up is
repeated between passes and its median reported in seconds.

With `--trace 0` the end-to-end metrics are reported. With `--trace 1`,
untraced and traced passes alternate and the per-layer metrics of the
traced passes are reported; the spans of the last traced pass are written
to `.perfbench/` in the checkout. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from typing import NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
from speed import Speedometer  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up is repeated in fresh interpreters, one after each of the first
# passes, until there are SETUPS samples, and their median is reported: the
# samples are spread over the run, so one burst of interference from other
# processes moves few of them, and the repetitions leave the measuring
# process's memory as one set-up leaves it
SETUPS = 7
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import run; "
    "t0 = time.perf_counter(); run.setup(sys.argv[2], None); "
    "print(time.perf_counter() - t0)"
)
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)

# the library names the workloads use, by home module; resolved at call time
# so that installed trace wrappers are the ones called
HOME = {
    "parse_model": "model",
    "check_bounded": "deciders",
    "check_exists": "deciders",
    "check_opacity": "deciders",
    "accepts_word": "deciders",
    "FirstN": "observers",
    "Dynamic": "observers",
    "Static": "observers",
    "unfold_free": "observers",
    "unfold_first_n": "observers",
    "build_priv": "constructions",
    "build_pub": "constructions",
    "oracle_check": "oracle",
    "discrete_state_count": "oracle",
}
MODULES = ("constructions", "deciders", "model", "nfa", "observers", "oracle", "regions", "ta")


class SetupError(Exception):
    pass


class Topaq:
    """Late-bound view of one import of the library."""

    def __init__(self, modules: dict):
        self.modules = modules
        # resource caps: a query that hits one is refused, not failed
        self.REFUSALS = (
            modules["regions"].RegionCapExceeded,
            modules["nfa"].InclusionCapExceeded,
            modules["observers"].ObservationCapExceeded,
            modules["ta"].BoundExhausted,
        )

    def __getattr__(self, name):
        if name not in HOME:
            raise AttributeError(name)
        return getattr(self.modules[HOME[name]], name)


def load_topaq() -> Topaq:
    """Import the library from the checkout's sources, afresh each time."""
    if not os.path.isfile(os.path.join(SRC, "topaq", "__init__.py")):
        raise SetupError(f"no topaq sources under {SRC}")
    for name in [n for n in sys.modules if n == "topaq" or n.startswith("topaq.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("topaq")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SetupError(f"topaq was imported from {pkg.__file__}, not from {SRC}")
    return Topaq({name: importlib.import_module(f"topaq.{name}") for name in MODULES})


# ---------------------------------------------------------------------------
# One pass: every query once, timed one by one


class Outcome(NamedTuple):
    status: str  # holds | violated | inconclusive | refused | error
    witness: Optional[str] = None
    side: Optional[str] = None
    error: Optional[str] = None


def outcome_of(verdict) -> Outcome:
    status = getattr(verdict, "status", None)  # oracle verdicts are tri-state already
    if status is None:
        status = {True: "holds", False: "violated", None: "inconclusive"}[verdict.holds]
    witness = None if verdict.witness is None else str(verdict.witness)
    return Outcome(status, witness, verdict.side)


def run_pass(tq: Topaq, queries, tracer: Optional[Tracer], checker) -> list[tuple[float, float]]:
    """Sends every query once; returns when each query started and ended.
    Each answer is handed to the checker after its query's clock has stopped.

    Garbage left by one query is collected before the next is timed, so a
    query's time does not depend on which queries ran before it. Whatever
    survived earlier passes is frozen first, which keeps these collections
    short."""
    gc.collect()
    gc.freeze()
    spans = []
    for q in queries:
        gc.collect()
        if tracer is not None:
            tracer.query = q.qid
        verdict = None
        t0 = time.perf_counter()
        try:
            verdict = q.call()
            t1 = time.perf_counter()
            outcome = outcome_of(verdict)
        except tq.REFUSALS as exc:
            t1 = time.perf_counter()
            outcome = Outcome("refused", error=type(exc).__name__)
        except Exception as exc:  # every other exception is a failed query
            t1 = time.perf_counter()
            outcome = Outcome("error", error=f"{type(exc).__name__}: {exc}")
            checker.report(traceback.format_exc())
        if tracer is not None:
            tracer.query = None
        spans.append((t0, t1))
        checker.observe(q, outcome, verdict)
    return spans


# ---------------------------------------------------------------------------
# Answer checking, outside the timed region


class Checker:
    """An answer with a witness is checked by replaying the witness exactly
    with `accepts_word`, which proves the verdict; an answer without one is
    compared with the query's independent reference, where one is
    definitive. An answer that differs from the first pass's answer to the
    same query also fails."""

    def __init__(self, tq: Topaq):
        self.tq = tq
        self.first: dict[str, Outcome] = {}
        self.replayed: dict[tuple, Optional[str]] = {}
        self.stats = {"verdicts_referenced": 0, "witnesses_replayed": 0, "unreferenced": 0}
        self.attempted = 0
        self.decided = 0
        self.failures: list[str] = []
        self.refusals: set[str] = set()
        self.tracebacks = 0

    def report(self, text: str) -> None:
        """Print the first few tracebacks of failed queries to stderr."""
        self.tracebacks += 1
        if self.tracebacks <= 3:
            print(text, file=sys.stderr)

    def observe(self, q, outcome: Outcome, verdict) -> None:
        self.attempted += 1
        self.decided += outcome.status in ("holds", "violated")
        if outcome.status == "refused":
            self.refusals.add(outcome.error)
        with warnings.catch_warnings():
            # references and replays rebuild automata whose warnings
            # (e.g. an empty public-run language) the query already gave
            warnings.simplefilter("ignore")
            reason = self.failure(q, outcome, verdict)
        if reason is not None:
            self.failures.append(f"{q.qid}: {reason}")

    def failure(self, q, outcome: Outcome, verdict) -> Optional[str]:
        if q.qid in self.first and self.first[q.qid] != outcome:
            return f"answer differs from the first pass: {outcome} vs {self.first[q.qid]}"
        self.first.setdefault(q.qid, outcome)
        if outcome.status == "error":
            return outcome.error
        if outcome.status not in ("holds", "violated"):
            return None  # refused or inconclusive: not decided, not wrong
        if outcome.witness is None:
            try:
                expected = q.expected
            except Exception as exc:  # a reference that cannot run checks nothing
                return f"reference raised {type(exc).__name__}: {exc}"
            if expected is None:
                self.stats["unreferenced"] += 1
                return None
            self.stats["verdicts_referenced"] += 1
            if outcome.status != expected:
                return f"verdict {outcome.status}, reference says {expected}"
            return None
        key = (q.qid, outcome.witness, outcome.side)
        if key not in self.replayed:
            self.replayed[key] = self._replay(q, verdict.witness, outcome.side)
        self.stats["witnesses_replayed"] += 1
        return self.replayed[key]

    def _replay(self, q, word, side: str) -> Optional[str]:
        sides = q.replay()
        if sides is None:
            return f"witness {word} ({side}) where no witness is a right answer"
        priv, pub = sides
        try:
            in_priv = self.tq.accepts_word(priv, word)
            in_pub = self.tq.accepts_word(pub, word)
        except Exception as exc:
            return f"replay of {word} raised {type(exc).__name__}: {exc}"
        want = {"priv-not-pub": (True, False), "pub-not-priv": (False, True),
                "intersection": (True, True)}.get(side)
        if (in_priv, in_pub) != want:
            return (f"witness {word} ({side}) replays as private={in_priv}, public={in_pub}")
        return None


# ---------------------------------------------------------------------------
# Metrics


def tail(times: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of the
    ladder with at least 10 samples beyond it, or the maximum when the pass
    is too small for any."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, pass_times, pass_refs, speedometer: Speedometer,
               checker: Checker) -> tuple[dict, list[str]]:
    """Query times in reference units (`speed.py`): each query's wall time
    over the mean reference-kernel time around it, averaged over the passes.
    The same times in seconds are printed beside them."""
    per_query = [statistics.fmean(rs) for rs in zip(*pass_refs)]
    per_query_s = [statistics.fmean(ts) for ts in zip(*pass_times)]
    pct, value, beyond = tail(per_query)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_ref": metric(sum(per_query), "ref"),
        "query_p50_ref": metric(statistics.median(per_query), "ref"),
        "query_tail_ref": metric(value, "ref"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "decided_ratio": metric(checker.decided / checker.attempted, "ratio"),
    }
    notes = [
        f"query times are means over {len(pass_times)} passes of "
        f"{', '.join(f'{sum(t):.3f}' for t in pass_times)} s",
        f"in seconds: wall {sum(per_query_s):.6g} s, p50 {statistics.median(per_query_s):.6g} s, "
        f"p{pct:g} {tail(per_query_s)[1]:.6g} s",
        f"1 ref = {speedometer.mean() * 1e3:.4g} ms, the mean of {len(speedometer.durations)} "
        f"reference-kernel samples",
        f"query_tail_ref is p{pct:g} of {len(per_query)} queries ({beyond} beyond it)",
        f"setup_s is the median of {len(setup_times)} set-ups, "
        f"{len(setup_times) - 1} of them in fresh interpreters",
    ]
    return metrics, notes


def per_layer(tracer: Tracer, qids, wall: float) -> dict:
    times = tracer.self_times(qids)
    counts = {name: sum(tracer.counts.get((q, name), 0) for q in qids) for name in COUNT_METRICS}
    bound = sum(tracer.region_bound.get(q, 0) for q in qids)
    out = dict(times)
    out.update(counts)
    out["regions.bound_ratio"] = counts["regions.states"] / bound if bound else 0.0
    out["unattributed_s"] = wall - tracer.covered(qids)
    return out


LAYER_UNITS = {name: "s" for name in TIME_METRICS.values()}
LAYER_UNITS.update({name: "count" for name in COUNT_METRICS})
LAYER_UNITS.update({"regions.bound_ratio": "ratio", "unattributed_s": "s", "trace_overhead_s": "s"})


# ---------------------------------------------------------------------------


def setup(name: str, tracer: Optional[Tracer]):
    """Import, model parsing and corpus generation: everything set-up_s covers."""
    t0 = time.perf_counter()
    tq = load_topaq()
    if tracer is not None:
        tracer.forget()
        tracer.install(tq)
        tracer.query = "setup"
    queries = WORKLOADS[name](tq, ROOT)
    if tracer is not None:
        tracer.query = None
    return time.perf_counter() - t0, tq, queries


def setup_sample(name: str) -> float:
    """The set-up time of a fresh interpreter, timed after the benchmark's
    own modules are imported."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, HERE, name],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--records", help="write every query's answer and layer counts to this JSON file")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    try:
        return measure(args, tracer)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(args, tracer: Optional[Tracer]) -> int:
    trace = tracer is not None
    elapsed, tq, queries = setup(args.workload, tracer)
    # a traced run reports no setup_s, only the parse time of its set-up
    setup_times = [elapsed]
    if tracer is not None:
        parse_s = tracer.self_times()["model.parse_s"]
        tracer.reset()
    qids = {q.qid for q in queries}
    checker = Checker(tq)

    pass_times, pass_refs, traced_times, layer_passes, counts = [], [], [], [], {}
    speedometer = Speedometer()
    # every pass sends the queries in a new order drawn from the seed: a
    # short query runs slower after some queries than after others, and one
    # order for every pass would make that a property of the seed
    rng, order = random.Random(args.seed), list(range(len(queries)))
    deadline = time.perf_counter() + args.seconds
    while True:
        rng.shuffle(order)
        sent = [queries[i] for i in order]
        traced = trace and len(pass_times) > len(traced_times)  # alternate, untraced first
        if traced:
            tracer.install(tq)
            tracer.reset()
            spans = run_pass(tq, sent, tracer, checker)
        else:
            if trace:
                tracer.uninstall()
            with speedometer:
                spans = run_pass(tq, sent, None, checker)
        spans = [span for _, span in sorted(zip(order, spans))]  # back in workload order
        if traced:
            times = [t1 - t0 for t0, t1 in spans]
        else:
            times = [speedometer.net(t0, t1) for t0, t1 in spans]
            pass_refs.append([t / speedometer.local_mean(t0, t1) for t, (t0, t1) in zip(times, spans)])
        wall = sum(times)
        if traced:
            traced_times.append(times)
            layer_passes.append(per_layer(tracer, qids, wall))
            counts = {q.qid: tracer.query_counts(q.qid) for q in queries}
        else:
            pass_times.append(times)
        if not trace and len(setup_times) < SETUPS:
            setup_times.append(setup_sample(args.workload))
        # a pass starts only if it can be expected to end by the deadline,
        # going by this pass's query time (the first pass's answer checking
        # is mostly not repeated); a traced run ends on an untraced pass, so
        # that the first pass's one-time costs do not stand alone on the
        # untraced side
        expected = sum(t1 - t0 for t0, t1 in spans)
        if time.perf_counter() + expected > deadline and (not trace or (traced_times and not traced)):
            break
    while not trace and len(setup_times) < SETUPS:
        setup_times.append(setup_sample(args.workload))

    attempted, failed = checker.attempted, len(checker.failures)
    if trace:
        # median_low keeps counts whole: they repeat exactly from pass to pass
        metrics = {name: statistics.median_low(p[name] for p in layer_passes) for name in layer_passes[0]}
        metrics["model.parse_s"] = parse_s
        metrics["trace_overhead_s"] = (sum(statistics.median(ts) for ts in zip(*traced_times))
                                       - sum(statistics.median(ts) for ts in zip(*pass_times)))
        metrics = {name: metric(metrics[name], LAYER_UNITS[name]) for name in sorted(metrics)}
        notes = [f"{len(traced_times)} traced and {len(pass_times)} untraced passes"]
        _write_spans(tracer, args.workload, args.seed)
    else:
        metrics, notes = end_to_end(setup_times, pass_times, pass_refs, speedometer, checker)

    print(f"workload {args.workload}, seed {args.seed}: {len(queries)} queries per pass, "
          f"{len(pass_times) + len(traced_times)} passes, closed loop, one client")
    print(f"  failed_ratio = {failed / attempted} ({failed} of {attempted} attempted); "
          f"refusals: {', '.join(sorted(checker.refusals)) or 'none'}")
    print(f"  checked: {checker.stats['verdicts_referenced']} verdicts against a reference, "
          f"{checker.stats['witnesses_replayed']} witnesses replayed, "
          f"{checker.stats['unreferenced']} decided answers without witness or definitive reference")
    for line in checker.failures[:20]:
        print(f"  FAILED {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for line in notes:
        print(f"  ({line})")
    if args.records:
        records = {q.qid: {"answer": list(checker.first[q.qid]), "counts": counts.get(q.qid)}
                   for q in queries}
        with open(args.records, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _write_spans(tracer: Tracer, workload: str, seed: int) -> None:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, qid in tracer.rows():
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent if parent >= 0 else None, "query": qid}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
