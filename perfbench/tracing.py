"""Layer spans recorded from outside the library.

`Tracer.install` replaces the public functions each layer of `topaq`
exposes with wrappers that record a span (name, start, end, parent span,
query id) around the call, plus the work counts of that layer. Every module
binding of a wrapped function is replaced, so calls made through
`from .x import f` names are traced too. `uninstall` restores the originals.

Spans stay in memory; the run writes them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# span name -> per-layer time metric fed by the span's self time
TIME_METRICS = {
    "regions": "regions.self_s",
    "nfa.closure": "nfa.closure_s",
    "nfa.inclusion": "nfa.inclusion_s",
    "nfa.convert": "nfa.convert_s",
    "nfa.strip": "nfa.strip_s",
    "constructions": "constructions.self_s",
    "observers": "observers.self_s",
    "deciders": "deciders.self_s",
    "oracle": "oracle.self_s",
    "oracle.membership": "oracle.membership_s",
    "ta.enumerate": "ta.enumerate_s",
    "model.parse": "model.parse_s",
}

COUNT_METRICS = (
    "regions.states",
    "regions.edges",
    "nfa.strip_states",
    "nfa.inclusion_calls",
    "nfa.counterexample_len",
    "constructions.calls",
    "observers.locations",
    "observers.clocks",
    "oracle.traces",
    "oracle.inconclusive",
    "ta.runs",
)

# bookkeeping done by the wrappers themselves, kept out of every layer
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        # spans as parallel flat columns, which the garbage collector need not
        # traverse one by one; parent -1 marks a top-level span
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.queries: list = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (query id, name) -> count
        self.region_bound: dict[str, int] = defaultdict(int)  # query id -> sum of region bounds
        self.query = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._region_state_bound = None

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.queries.append(self.query)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def rows(self):
        """(name, start, end, parent index or -1, query id) per span."""
        return zip(self.names, self.starts, self.ends, self.parents, self.queries)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[(self.query, name)] += value

    def call(self, name: str, fn, args, kwargs, counter=None):
        if self.query is None:  # outside set-up and queries: answer checking
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(index)
        if counter is not None:
            book = self.open(BOOKKEEPING)
            try:
                counter(self, args, kwargs, result)
            finally:
                self.close(book)
        return result

    # -- wrappers ---------------------------------------------------------------

    def install(self, tq) -> None:
        """Wrap the layer entry points of the freshly imported `topaq`."""
        if self._patched:
            return
        m = tq.modules
        self._region_state_bound = m["regions"].region_state_bound
        targets = [
            (m["constructions"], "build_priv", "constructions", _count_calls),
            (m["constructions"], "build_pub", "constructions", _count_calls),
            (m["constructions"], "build_memo", "constructions", _count_calls),
            (m["constructions"], "product", "constructions", _count_calls),
            (m["regions"], "augment_ticks", "constructions", _count_calls),
            (m["regions"], "force_integer_actions", "constructions", _count_calls),
            (m["observers"], "tick_construction", "observers", _count_observer),
            (m["observers"], "unfold_free", "observers", _count_observer),
            (m["observers"], "unfold_tau", "observers", _count_observer),
            (m["regions"], "build_region_automaton", "regions", _count_regions),
            (m["nfa"], "from_region_automaton", "nfa.convert", None),
            (m["nfa"], "strip_ticks_before_suffix", "nfa.strip", _count_strip),
            (m["nfa"], "strip_trailing_letter", "nfa.strip", _count_strip),
            (m["deciders"], "check_exists", "deciders", None),
            (m["deciders"], "check_opacity", "deciders", None),
            (m["deciders"], "check_bounded", "deciders", None),
            (m["deciders"], "decode_ticked_tokens", "deciders", None),
            (m["regions"], "tick_decode", "deciders", None),
            (m["regions"], "concretize_region_path", "deciders", None),
            (m["oracle"], "oracle_check", "oracle", _count_oracle_check),
            (m["oracle"], "trace_sets", "oracle", _count_traces),
            (m["oracle"], "can_produce", "oracle.membership", None),
            (m["ta"], "enumerate_runs", "ta.enumerate", _count_runs),
            (m["model"], "parse_model", "model.parse", None),
        ]
        for module, attr, name, counter in targets:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), counter))
        inclusion = m["nfa"].check_inclusion
        self._patch(m["nfa"], "check_inclusion", self._wrap_inclusion(inclusion))

    def forget(self) -> None:
        """Drop the wrappers of a previous import without restoring them."""
        self._patched.clear()

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr: str, wrapper) -> None:
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "topaq" and not name.startswith("topaq."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return wrapper

    def _wrap_inclusion(self, fn):
        """Closure tables are built lazily by the first `start()`/`step()`
        and cached on the NFA, so building them in their own span first
        leaves the total work unchanged and the inclusion span pure search."""

        @functools.wraps(fn)
        def wrapper(a, b, *args, **kwargs):
            if self.query is None:
                return fn(a, b, *args, **kwargs)
            index = self.open("nfa.closure")
            try:
                a.start()
                b.start()
            finally:
                self.close(index)
            return self.call("nfa.inclusion", fn, (a, b) + args, kwargs, _count_inclusion)

        return wrapper

    # -- aggregation ------------------------------------------------------------

    def reset(self) -> None:
        for column in (self.names, self.queries):
            column.clear()
        for column in (self.starts, self.ends, self.parents):
            del column[:]
        self.counts.clear()
        self.region_bound.clear()

    def self_times(self, queries=None) -> dict[str, float]:
        """Per-metric self time (span minus its children) over the spans of
        the given query ids (all spans when None)."""
        child = [0.0] * len(self.names)
        for _, start, end, parent, _ in self.rows():
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for i, (name, start, end, _, qid) in enumerate(self.rows()):
            if name in TIME_METRICS and (queries is None or qid in queries):
                out[TIME_METRICS[name]] += end - start - child[i]
        return out

    def covered(self, queries) -> float:
        """Total duration of the top-level spans of the given queries."""
        return sum(end - start for _, start, end, parent, qid in self.rows()
                   if parent < 0 and qid in queries)

    def query_counts(self, qid) -> dict[str, int]:
        return {name: self.counts.get((qid, name), 0) for name in COUNT_METRICS}


# ---------------------------------------------------------------------------
# Work counts, taken after the layer call returns


def _count_calls(tracer, args, kwargs, result):
    tracer.count("constructions.calls")


def _count_observer(tracer, args, kwargs, result):
    tracer.count("observers.locations", len(result.locations))
    tracer.count("observers.clocks", len(result.clocks))


def _count_regions(tracer, args, kwargs, result):
    tracer.count("regions.states", len(result.states))
    tracer.count("regions.edges", sum(len(out) for out in result.edges.values()))
    tracer.region_bound[tracer.query] += tracer._region_state_bound(args[0] if args else kwargs["ta"])


def _count_strip(tracer, args, kwargs, result):
    tracer.count("nfa.strip_states", result.n_states)


def _count_inclusion(tracer, args, kwargs, result):
    tracer.count("nfa.inclusion_calls")
    if not result.holds:
        tracer.count("nfa.counterexample_len", len(result.counterexample))


def _count_oracle_check(tracer, args, kwargs, result):
    if result.status == "inconclusive":
        tracer.count("oracle.inconclusive")


def _count_traces(tracer, args, kwargs, result):
    t_priv, t_pub, _ = result
    tracer.count("oracle.traces", len(t_priv) + len(t_pub))


def _count_runs(tracer, args, kwargs, result):
    tracer.count("ta.runs", len(result.runs))
