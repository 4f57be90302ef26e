"""Reference searches over exact Fraction runs, for differential tests.

`reference_enumerate_runs` is the recursive depth-first enumerator and
`reference_can_produce` the breadth-first membership search, both stepping
with `ta.step` on Fraction valuations. `topaq.ta.enumerate_runs` and
`topaq.oracle.can_produce` must agree with them exactly: the same runs in
the same order (`grid_runs` maps a reference run to what the library
gives for it), the same `explored` count and the same cap behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from topaq.ta import (
    EPSILON,
    BoundExhausted,
    Configuration,
    Edge,
    EnumerationResult,
    StepError,
    TimedAutomaton,
    TimedWord,
    step,
)


@dataclass(frozen=True)
class Run:
    """Alternating configurations and (delay, edge) steps, ending at the
    first final location."""

    initial: Configuration
    steps: tuple[tuple[Fraction, Edge, Configuration], ...] = ()

    def configurations(self) -> list[Configuration]:
        return [self.initial] + [cfg for _, _, cfg in self.steps]

    def visits(self, locations: frozenset[str]) -> bool:
        return any(c.location in locations for c in self.configurations())


def edges_from(ta: TimedAutomaton, location: str) -> tuple[Edge, ...]:
    """The edges of `ta` leaving `location`, in `ta.edges` order."""
    return tuple(e for e in ta.edges if e.source == location)


def trace_of(run: Run) -> TimedWord:
    """The timed word of a run: observable letters at their absolute times."""
    letters = []
    elapsed = Fraction(0)
    for d, e, _ in run.steps:
        elapsed += d
        if e.action is not EPSILON:
            letters.append((e.action, elapsed))
    return TimedWord(tuple(letters))


def grid_runs(ta: TimedAutomaton, runs, granularity: Fraction) -> tuple:
    """Each run as `enumerate_runs` gives it: (its trace in 1/q units for
    the granularity p/q, whether it visits a private location)."""
    q = Fraction(granularity).denominator
    return tuple((tuple((a, int(t * q)) for a, t in trace_of(r)), r.visits(ta.private)) for r in runs)


def reference_enumerate_runs(
    ta: TimedAutomaton,
    horizon: Fraction,
    max_steps: int,
    granularity: Fraction,
    node_cap: int = 2_000_000,
    dedup: bool = True,
) -> EnumerationResult:
    """Recursive enumeration: one call per run step (so deep budgets overflow
    the interpreter stack). Its `runs` are `Run`s, and with dedup=False it
    cuts no revisited node, so it gives every run within the bounds."""
    horizon = Fraction(horizon)
    granularity = Fraction(granularity)
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    if ta.time_domain == "discrete" and granularity != 1:
        raise ValueError("discrete time requires granularity 1")

    init = ta.initial_configuration()
    if not ta.invariant_of(init.location).holds(init.valuation):
        return EnumerationResult((), True, 0)

    runs: list[Run] = []
    explored = 0
    complete = True
    seen: dict[tuple, int] = {}

    edges_by_source: dict[str, list] = {}
    for e in ta.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    def visit(cfg, elapsed, steps_used, prefix, trace, is_private):
        nonlocal explored, complete
        if cfg.location in ta.final:
            runs.append(Run(init, tuple(prefix)))
            return
        if steps_used >= max_steps:
            return
        if dedup:
            key = (cfg.key(), is_private, elapsed, trace)
            best = seen.get(key)
            if best is not None and best <= steps_used:
                return
            seen[key] = steps_used
        budget = horizon - elapsed
        k = 0
        while k * granularity <= budget:
            d = k * granularity
            for e in edges_by_source.get(cfg.location, ()):
                if explored >= node_cap:
                    complete = False
                    return
                explored += 1
                try:
                    nxt = step(ta, cfg, d, e)
                except StepError:
                    continue
                ntrace = trace if e.action is EPSILON else trace + ((e.action, elapsed + d),)
                visit(
                    nxt,
                    elapsed + d,
                    steps_used + 1,
                    prefix + [(d, e, nxt)],
                    ntrace,
                    is_private or nxt.location in ta.private,
                )
                if not complete:
                    return
            k += 1

    visit(init, Fraction(0), 0, [], (), init.location in ta.private)
    return EnumerationResult(tuple(runs), complete, explored)


def reference_can_produce(
    ta: TimedAutomaton,
    w: TimedWord,
    want_private: bool,
    horizon: Fraction,
    granularity: Fraction,
    node_cap: int = 500_000,
) -> bool:
    """Breadth-first membership search with a full edge scan per delay."""
    horizon, granularity = Fraction(horizon), Fraction(granularity)
    init = ta.initial_configuration()
    if not ta.invariant_of(init.location).holds(init.valuation):
        return False
    if not want_private and init.location in ta.private:
        return False
    stamps = w.timestamps()
    letters = w.untimed()
    n = len(letters)

    start = (init, init.location in ta.private, Fraction(0), 0)
    seen = {(init.key(), start[1], start[2], 0)}
    queue = deque([start])
    explored = 0
    while queue:
        cfg, flag, elapsed, i = queue.popleft()
        if cfg.location in ta.final:
            if i == n and (flag if want_private else True):
                return True
            continue
        budget = horizon - elapsed
        k = 0
        while k * granularity <= budget:
            d = k * granularity
            k += 1
            now = elapsed + d
            for e in edges_from(ta, cfg.location):
                if e.action is EPSILON:
                    ni = i
                elif i < n and e.action == letters[i] and now == stamps[i]:
                    ni = i + 1
                else:
                    continue
                if not want_private and e.target in ta.private:
                    continue
                try:
                    nxt = step(ta, cfg, d, e)
                except StepError:
                    continue
                nflag = flag or nxt.location in ta.private
                key = (nxt.key(), nflag, now, ni)
                if key in seen:
                    continue
                explored += 1
                if explored > node_cap:
                    raise BoundExhausted("membership search cap exceeded")
                seen.add(key)
                queue.append((nxt, nflag, now, ni))
    return False
