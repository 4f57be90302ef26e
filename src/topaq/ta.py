"""Timed-automaton data model and concrete operational semantics.

Clocks are exact rationals (fractions.Fraction); no floats anywhere, so
region-boundary comparisons are always exact.
"""

from __future__ import annotations

import functools
import gc
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Optional

EPSILON = None  # unobservable action on an edge

CMP_OPS = ("<", "<=", "=", ">=", ">")


class StepError(Exception):
    """A delay+discrete step is not enabled; message names the failing constraint."""


class BoundExhausted(Exception):
    """The membership search (`oracle.can_produce`) hit its node cap. The
    run enumeration never raises it: it returns complete=False instead."""


def collector_off(fn):
    """`fn` with CPython's cyclic garbage collector off while it runs. A
    query allocates millions of containers and frees them all by reference
    counting, as it makes no reference cycles, so the collector's passes
    over them find nothing. The previous setting is restored in a
    `finally`, after a return or an exception alike: a caller who turned
    the collector off keeps it off, and a nested call changes nothing."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return call


@dataclass(frozen=True)
class ClockConstraint:
    """A single inequality `clock cmp bound` with an integer bound."""

    clock: str
    cmp: str
    bound: int

    def __post_init__(self):
        if self.cmp not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.cmp!r}")

    def holds(self, value: Fraction) -> bool:
        if self.cmp == "<":
            return value < self.bound
        if self.cmp == "<=":
            return value <= self.bound
        if self.cmp == "=":
            return value == self.bound
        if self.cmp == ">=":
            return value >= self.bound
        return value > self.bound

    def interval(self, unit: int, low: float = -math.inf, high: float = math.inf) -> tuple[float, float]:
        """The inclusive range of ints n at which the constraint holds, for
        n in 1/`unit` time units (`x < b` is n <= b*unit - 1, exact on ints),
        with `low` or `high` at an open end. At unit 2 the same range holds
        on region codes (`regions` module docstring)."""
        b, cmp = self.bound * unit, self.cmp
        if cmp == "<":
            return low, b - 1
        if cmp == "<=":
            return low, b
        if cmp == "=":
            return b, b
        return (b, high) if cmp == ">=" else (b + 1, high)

    def __str__(self):
        return f"{self.clock} {self.cmp} {self.bound}"


@dataclass(frozen=True)
class Guard:
    """Conjunction of clock constraints; the empty conjunction is `true`."""

    conjuncts: tuple[ClockConstraint, ...] = ()

    @staticmethod
    def true() -> "Guard":
        return Guard(())

    @staticmethod
    def of(*constraints: ClockConstraint) -> "Guard":
        return Guard(tuple(constraints))

    def holds(self, valuation: Mapping[str, Fraction]) -> bool:
        return all(c.holds(valuation[c.clock]) for c in self.conjuncts)

    def failing(self, valuation: Mapping[str, Fraction]) -> Optional[ClockConstraint]:
        for c in self.conjuncts:
            if not c.holds(valuation[c.clock]):
                return c
        return None

    def conjoin(self, other: "Guard") -> "Guard":
        return Guard(self.conjuncts + other.conjuncts)

    def __str__(self):
        if not self.conjuncts:
            return "true"
        return " && ".join(str(c) for c in self.conjuncts)


_TRUE = Guard()


@dataclass(frozen=True)
class Edge:
    source: str
    guard: Guard
    action: Optional[str]  # EPSILON (None) for unobservable
    resets: frozenset[str]
    target: str

    def __str__(self):
        act = self.action if self.action is not None else "eps"
        rst = ",".join(sorted(self.resets))
        parts = [f"{self.source} -> {self.target}", f"act {act}"]
        if self.guard.conjuncts:
            parts.append(f"when {self.guard}")
        if rst:
            parts.append(f"reset {rst}")
        return "; ".join(parts)


def edge(source, target, action=EPSILON, guard=Guard.true(), resets=()) -> Edge:
    """Convenience constructor used heavily by constructions and tests."""
    return Edge(source, guard, action, frozenset(resets), target)


@dataclass(frozen=True, eq=False)
class TimedAutomaton:
    """A timed automaton with private and final location sets.

    Runs end at the *first* final location reached; this matters for every
    language-level construction in this package.
    """

    actions: frozenset[str]
    locations: frozenset[str]
    init: str
    private: frozenset[str]
    final: frozenset[str]
    clocks: frozenset[str]
    invariant: Mapping[str, Guard]
    edges: tuple[Edge, ...]
    time_domain: str = "dense"  # "dense" | "discrete"
    name: str = "ta"

    def __post_init__(self):
        if self.time_domain not in ("dense", "discrete"):
            raise ValueError(f"bad time domain {self.time_domain!r}")

    def invariant_of(self, location: str) -> Guard:
        return self.invariant.get(location, _TRUE)

    def max_constants(self) -> dict[str, int]:
        """M(x): the greatest constant x is compared against; 0 if unused.

        Negative bounds are clamped to 0 so M(x) is always a natural number.
        """
        m = {x: 0 for x in self.clocks}
        constraints: list[ClockConstraint] = []
        for g in self.invariant.values():
            constraints.extend(g.conjuncts)
        for e in self.edges:
            constraints.extend(e.guard.conjuncts)
        for c in constraints:
            if c.clock in m:
                m[c.clock] = max(m[c.clock], c.bound)
        return m

    def zero_valuation(self) -> dict[str, Fraction]:
        return {x: Fraction(0) for x in self.clocks}

    def initial_configuration(self) -> "Configuration":
        return Configuration(self.init, self.zero_valuation())

    def has_epsilon_edges(self) -> bool:
        return any(e.action is EPSILON for e in self.edges)


def make_ta(
    *,
    actions: Iterable[str],
    locations: Iterable[str],
    init: str,
    final: Iterable[str],
    edges: Iterable[Edge],
    private: Iterable[str] = (),
    clocks: Iterable[str] = (),
    invariant: Optional[Mapping[str, Guard]] = None,
    time_domain: str = "dense",
    name: str = "ta",
) -> TimedAutomaton:
    locations = frozenset(locations)
    inv = {loc: Guard.true() for loc in locations}
    if invariant:
        inv.update(invariant)
    return TimedAutomaton(
        actions=frozenset(actions),
        locations=locations,
        init=init,
        private=frozenset(private),
        final=frozenset(final),
        clocks=frozenset(clocks),
        invariant=inv,
        edges=tuple(edges),
        time_domain=time_domain,
        name=name,
    )


@dataclass(frozen=True)
class Configuration:
    location: str
    valuation: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "valuation", dict(self.valuation))

    def key(self):
        return (self.location, tuple(sorted(self.valuation.items())))

    def __eq__(self, other):
        return isinstance(other, Configuration) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True)
class TimedWord:
    """Observable letters with nondecreasing rational timestamps."""

    letters: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        stamps = [t for _, t in self.letters]
        if any(t < 0 for t in stamps):
            raise ValueError("negative timestamp")
        if any(a > b for a, b in zip(stamps, stamps[1:])):
            raise ValueError("timestamps must be nondecreasing")

    @staticmethod
    def of(*pairs) -> "TimedWord":
        return TimedWord(tuple((a, Fraction(t)) for a, t in pairs))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def untimed(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.letters)

    def timestamps(self) -> tuple[Fraction, ...]:
        return tuple(t for _, t in self.letters)

    def prefix(self, n: int) -> "TimedWord":
        return TimedWord(self.letters[:n])

    def scaled(self, factor: Fraction) -> "TimedWord":
        return TimedWord(tuple((a, t * factor) for a, t in self.letters))

    def sort_key(self):
        return (len(self.letters), self.untimed(), self.timestamps())

    def __str__(self):
        if not self.letters:
            return "ε"
        return " ".join(f"({a}, {t})" for a, t in self.letters)


@dataclass(frozen=True)
class Verdict:
    """The answer to an opacity question, from any engine.

    `holds` is True or False when decided, and None when a bounded search
    found no violation but cannot conclude (the oracle on dense time).
    `side` says which inclusion failed ("priv-not-pub", "pub-not-priv") or,
    for existential opacity, that the witness lies in both trace sets
    ("intersection"); `diagnostics` holds the oracle's search bounds.
    """

    holds: Optional[bool]
    witness: Optional[TimedWord] = None
    side: Optional[str] = None
    note: str = ""
    diagnostics: dict = field(default_factory=dict, hash=False)

    @property
    def status(self) -> str:
        return {True: "holds", False: "violated", None: "inconclusive"}[self.holds]


# the trace of a run on the time grid of a granularity p/q: (letter,
# absolute time in 1/q units) pairs; `grid_word` decodes one
GridTrace = tuple[tuple[str, int], ...]


def grid_word(trace: GridTrace, q: int) -> TimedWord:
    """The timed word of a grid trace whose times count 1/q units."""
    return TimedWord(tuple((a, Fraction(u, q)) for a, u in trace))


@dataclass(frozen=True)
class EnumerationResult:
    """The runs found within the bounds, one (grid trace, visits a private
    location) pair each, the trace in 1/q units for the granularity p/q;
    `complete` is False when a node cap cut the search short (a
    bound-exhausted result, distinct from `no runs`)."""

    runs: tuple[tuple[GridTrace, bool], ...]
    complete: bool
    explored: int


def is_count(n) -> bool:
    """Is `n` a nonnegative int? A bool is an int to Python, but no count."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


class BadOracleBound(ValueError):
    """A bound of the brute-force search (`oracle.oracle_check` and the
    grid searches under it) is out of range."""

    def __init__(self, name: str, value, want: str):
        super().__init__(f"{name} must be {want}, got {value}")


def check_granularity(ta: TimedAutomaton, granularity) -> Fraction:
    """`granularity` as a Fraction, if a grid search on `ta` can use it: it
    must be positive, and 1 in discrete time; otherwise `BadOracleBound`."""
    g = Fraction(granularity)
    if g <= 0:
        raise BadOracleBound("granularity", granularity, "positive")
    if ta.time_domain == "discrete" and g != 1:
        raise BadOracleBound("granularity", granularity, "1 in discrete time")
    return g


def check_node_cap(node_cap) -> None:
    if not is_count(node_cap):
        raise ValueError(f"node cap must be a nonnegative integer, not {node_cap!r}")


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"{self.severity}: {self.message}"


def validate(ta: TimedAutomaton) -> list[Diagnostic]:
    """Well-formedness check; empty list iff every structural invariant holds."""
    out: list[Diagnostic] = []
    err = lambda m: out.append(Diagnostic("error", m))
    warn = lambda m: out.append(Diagnostic("warning", m))

    if ta.init not in ta.locations:
        err(f"initial location {ta.init!r} not in the location set")
    for loc in sorted(ta.private - ta.locations):
        err(f"private location {loc!r} not in the location set")
    for loc in sorted(ta.final - ta.locations):
        err(f"final location {loc!r} not in the location set")
    for loc in sorted(ta.locations):
        if loc not in ta.invariant:
            err(f"invariant missing for location {loc!r}")
    for loc in sorted(set(ta.invariant) - ta.locations):
        err(f"invariant given for unknown location {loc!r}")
    for loc, g in sorted(ta.invariant.items()):
        for c in g.conjuncts:
            if c.clock not in ta.clocks:
                err(f"invariant of {loc!r} uses unknown clock {c.clock!r}")
    for i, e in enumerate(ta.edges):
        where = f"edge #{i} ({e.source} -> {e.target})"
        if e.source not in ta.locations:
            err(f"{where}: source not in the location set")
        if e.target not in ta.locations:
            err(f"{where}: target not in the location set")
        for x in sorted(e.resets - ta.clocks):
            err(f"{where}: resets unknown clock {x!r}")
        for c in e.guard.conjuncts:
            if c.clock not in ta.clocks:
                err(f"{where}: guard uses unknown clock {c.clock!r}")
        if e.action is not EPSILON and e.action not in ta.actions:
            err(f"{where}: action {e.action!r} not in the alphabet")

    # Clocks are nonnegative, so negative bounds make a constraint vacuous or
    # unsatisfiable depending on the operator; flag both as warnings.
    all_constraints = [(f"invariant of {loc!r}", c) for loc, g in sorted(ta.invariant.items()) for c in g.conjuncts]
    all_constraints += [(f"guard of edge #{i}", c) for i, e in enumerate(ta.edges) for c in e.guard.conjuncts]
    for where, c in all_constraints:
        if c.bound < 0:
            kind = "vacuous" if c.cmp in (">", ">=") else "unsatisfiable"
            warn(f"{where}: {c} is {kind} (clocks are nonnegative)")

    if not validate_errors(out) and not ta.invariant_of(ta.init).holds(ta.zero_valuation()):
        warn("initial configuration violates the initial location's invariant; the language is empty")
    return out


def validate_errors(diags: list[Diagnostic]) -> list[Diagnostic]:
    return [d for d in diags if d.severity == "error"]


def step(ta: TimedAutomaton, cfg: Configuration, delay: Fraction, e: Edge) -> Configuration:
    """One combined delay+discrete step.

    Invariant satisfaction over the delay is checked at the endpoints only,
    which is sound because constraint sets are convex.
    """
    delay = Fraction(delay)
    if delay < 0:
        raise StepError("negative delay")
    if e.source != cfg.location:
        raise StepError(f"edge source {e.source!r} does not match location {cfg.location!r}")
    inv = ta.invariant_of(cfg.location)
    if not inv.holds(cfg.valuation):
        raise StepError(f"invariant violated during delay: {inv.failing(cfg.valuation)}")
    delayed = {x: v + delay for x, v in cfg.valuation.items()}
    bad = inv.failing(delayed)
    if bad is not None:
        raise StepError(f"invariant violated during delay: {bad}")
    bad = e.guard.failing(delayed)
    if bad is not None:
        raise StepError(f"guard unsatisfied: {bad}")
    after = {x: (Fraction(0) if x in e.resets else v) for x, v in delayed.items()}
    bad = ta.invariant_of(e.target).failing(after)
    if bad is not None:
        raise StepError(f"target invariant violated: {bad}")
    return Configuration(e.target, after)


class TimeGrid:
    """`ta` compiled onto the time grid of one granularity p/q, up to a
    horizon.

    Every time value reachable with delays that are multiples of p/q is a
    whole number of 1/q units, so the searches over the grid run on ints:
    valuations are int tuples in sorted clock order, and each clock
    constraint becomes an inclusive interval of units
    (`ClockConstraint.interval`). Per source location, `moves` keeps each
    edge, in declaration order, as (guard, target invariant, reset mask or
    None, target, action, target is private).

    `successors` works out the moves out of a (location, valuation) node
    once per grid, up to the horizon, and keeps them in a table, so a
    search that reaches the same node again, with whatever time is left,
    reads them back.
    """

    def __init__(self, ta: TimedAutomaton, granularity: Fraction, horizon: Fraction):
        self.p, self.q = granularity.numerator, granularity.denominator
        self.horizon = horizon.numerator * self.q // horizon.denominator  # in whole 1/q units
        self.clocks = tuple(sorted(ta.clocks))
        self.zero = (0,) * len(self.clocks)
        index = {x: i for i, x in enumerate(self.clocks)}
        locations = ta.locations | {ta.init} | {loc for e in ta.edges for loc in (e.source, e.target)}
        self.invariants = {loc: self._compile(ta.invariant_of(loc), index) for loc in locations}
        moves: dict[str, list] = {}
        for e in ta.edges:
            mask = tuple(x in e.resets for x in self.clocks) if e.resets & ta.clocks else None
            moves.setdefault(e.source, []).append(
                (self._compile(e.guard, index), self.invariants[e.target], mask, e.target, e.action,
                 e.target in ta.private))
        self.moves = {loc: tuple(ms) for loc, ms in moves.items()}
        self._table: dict[tuple, tuple] = {}

    def _compile(self, guard: Guard, index: Mapping[str, int]) -> tuple[tuple[int, float, float], ...]:
        out = []
        for c in guard.conjuncts:
            lo, hi = c.interval(self.q)
            out.append((index[c.clock], lo, hi))
        return tuple(out)

    def units(self, t: Fraction) -> Optional[int]:
        """`t` in 1/q units, or None when `t` is not on the 1/q grid."""
        u = Fraction(t) * self.q
        return u.numerator if u.denominator == 1 else None

    def successors(self, location: str, valuation: tuple[int, ...], left: int):
        """The attempts out of the node (location, valuation) with `left`
        units of time left: an iterator over the successful ones, and the
        number of all of them, failed ones included.

        An attempt is a (delay, edge) pair, taken delays ascending and edges
        in declaration order, so the attempt with delay d and the i-th of
        the `width` edges out of `location` has the ordinal
        (d // p) * width + i, and the node makes (left // p + 1) * width
        attempts. A successful one comes as (ordinal, delay, move,
        valuation after the step). The checks are those of `step`: the
        source invariant before and after the delay, the guard, and the
        target invariant after the resets."""
        k = left // self.p  # the node's delays are 0, p, ..., k * p
        if k < 0:
            return iter(()), 0
        key = (location, valuation)
        found = self._table.get(key)
        if found is None:
            moves = self.moves.get(location)
            if moves is None:
                return iter(()), 0
            found = self._table[key] = self._successors(location, valuation, moves)
        width, rows, ends = found
        return islice(rows, ends[k]), (k + 1) * width

    def _successors(self, location, valuation, moves):
        """(width, rows, ends): the node's successful attempts up to the
        horizon as rows, and ends[k] the number of them with a delay of at
        most k * p units."""
        width = len(moves)
        rows = []
        ends = []
        inv = self.invariants[location]
        if _holds(inv, valuation):
            for d in range(0, self.horizon + 1, self.p):
                delayed = tuple([v + d for v in valuation]) if d else valuation
                # an invariant is a box, so once a delay leaves it, every
                # longer one does too
                if not _holds(inv, delayed):
                    break
                first = len(ends) * width
                for i, move in enumerate(moves):
                    if _holds(move[0], delayed):
                        mask = move[2]
                        after = delayed if mask is None else tuple([0 if r else v for r, v in zip(mask, delayed)])
                        if _holds(move[1], after):
                            rows.append((first + i, d, move, after))
                ends.append(len(rows))
        ends.extend([len(rows)] * (self.horizon // self.p + 1 - len(ends)))
        return width, tuple(rows), tuple(ends)


def _holds(constraints, valuation) -> bool:
    for i, lo, hi in constraints:
        if not lo <= valuation[i] <= hi:
            return False
    return True


def enumerate_runs(
    ta: TimedAutomaton,
    horizon: Fraction,
    max_steps: int,
    granularity: Fraction,
    node_cap: int = 2_000_000,
) -> EnumerationResult:
    """The runs whose delays are multiples of `granularity`, with total
    duration <= horizon and <= max_steps transitions, in deterministic
    (depth-first, delays ascending, edges in declaration order) order, each
    as its grid trace and whether it visits a private location.

    `explored` counts (delay, edge) attempts, failed ones included; the
    search stops, with complete=False, at the first attempt once
    `node_cap` attempts were made. A granularity the grid cannot use
    raises `BadOracleBound` (`check_granularity`), and a `node_cap` that is
    not a nonnegative int `ValueError`.

    Branches that revisit an already-expanded search node (location,
    valuation, private flag, elapsed time, trace, remaining budget no
    better than before) are cut, so the runs found form a representative
    subset of all runs with the same (trace, private) pairs.

    The search runs on a `TimeGrid` (time in whole units of 1/q for a
    granularity p/q) with an explicit stack of frames, one per depth, so a
    deep step budget does not recurse. A frame resumes the successful
    attempts of its node, read from the grid's successor table, and counts
    the failed ones between them from their ordinals.
    """
    horizon = Fraction(horizon)
    granularity = check_granularity(ta, granularity)
    check_node_cap(node_cap)
    if not ta.invariant_of(ta.init).holds(ta.zero_valuation()):
        return EnumerationResult((), True, 0)
    priv0 = ta.init in ta.private
    if ta.init in ta.final:
        return EnumerationResult((((), priv0),), True, 0)
    if max_steps <= 0:
        return EnumerationResult((), True, 0)

    grid = TimeGrid(ta, granularity, horizon)
    final = ta.final
    runs: list[tuple[GridTrace, bool]] = []
    explored = 0
    complete = True
    # search node (location, valuation, private flag, elapsed units, trace)
    # -> the fewest steps it was reached with
    seen = {(ta.init, grid.zero, priv0, 0, ()): 0}
    # frames[i] resumes the attempts out of the node at depth i as [its
    # successful attempts, its attempt count, the ordinal of the last
    # attempt made, elapsed units, private flag, trace]
    frames = [[*grid.successors(ta.init, grid.zero, grid.horizon), -1, 0, priv0, ()]]
    while frames:
        top = frames[-1]
        rows, total, last, elapsed, private, trace = top
        depth = len(frames)  # steps used by a successor
        for o, d, move, after in rows:
            # the attempts after the last one made fail, up to this one;
            # the cap stops the search at the first attempt it meets
            if explored + o - last > node_cap:
                complete = False
                break
            explored += o - last
            last = o
            _, _, _, target, action, target_private = move
            done = target in final
            if not done and depth >= max_steps:
                continue
            now = elapsed + d
            ntrace = trace if action is EPSILON else trace + ((action, now),)
            nprivate = private or target_private
            if done:
                runs.append((ntrace, nprivate))
                continue
            key = (target, after, nprivate, now, ntrace)
            best = seen.get(key)
            if best is not None and best <= depth:
                continue
            seen[key] = depth
            top[2] = last
            frames.append([*grid.successors(target, after, grid.horizon - now), -1, now, nprivate, ntrace])
            break
        else:
            # the node's attempts after the last one made all fail
            if explored + total - 1 - last > node_cap:
                complete = False
            else:
                explored += total - 1 - last
                frames.pop()
                continue
        if not complete:
            explored = node_cap
            break
    return EnumerationResult(tuple(runs), complete, explored)
