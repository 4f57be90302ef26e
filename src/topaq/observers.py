"""Attacker models: time-selection functions and their projections, the
first-N unfolding, the tick construction with its observation clocks and
its one region build (`tick_regions`, which ticks by wrap-around delays),
simple-time-sequence normalization, the switch-time unfolding, and the free
unfolding for dynamic attackers."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .constructions import copy_locations, relax_finals
from .regions import RegionAutomaton, build_region_automaton, fresh_name, reserve_letters, TICK_LETTER
from .ta import (
    EPSILON,
    ClockConstraint,
    Edge,
    Guard,
    TimedAutomaton,
    TimedWord,
    is_count,
)
from .words import _frac, _ipart

DEFAULT_OBSERVATION_CAP = 8


class ObservationCapExceeded(Exception):
    def __init__(self, n: int, cap: int):
        super().__init__(f"observation bound {n} exceeds the configured cap {cap}")


def _check_observations(n: int) -> None:
    """The one observation-cap check, made by every unfolding against the
    attacker before it builds anything, so every bounded question passes
    it, existential opacity included."""
    if n > DEFAULT_OBSERVATION_CAP:
        raise ObservationCapExceeded(n, DEFAULT_OBSERVATION_CAP)


def _check_count(n) -> None:
    if not is_count(n):
        raise ValueError(f"observation count must be a nonnegative integer, not {n!r}")


@dataclass(frozen=True)
class FirstN:
    n: int

    def __post_init__(self):
        _check_count(self.n)


@dataclass(frozen=True)
class Static:
    times: tuple[Fraction, ...]

    def __post_init__(self):
        times = tuple(Fraction(t) for t in self.times)
        if any(t < 0 for t in times):
            raise ValueError("switch-on times must be nonnegative")
        if any(a > b for a, b in zip(times, times[1:])):
            raise ValueError("switch-on times must be nondecreasing")
        object.__setattr__(self, "times", times)


@dataclass(frozen=True)
class Dynamic:
    n: int

    def __post_init__(self):
        _check_count(self.n)


TimeSelection = Union[FirstN, Static, Dynamic]


def project(w: TimedWord, sel: Union[FirstN, Static]) -> TimedWord:
    """The attacker's view of `w`.

    FirstN keeps the first N letters. Static keeps, for each armed switch-on
    time, the first letter at or after it; switch-on times whose window
    closes before any letter arrives are skipped. Dynamic selections have no
    executable projection (they exist only through the free unfolding).
    """
    if isinstance(sel, FirstN):
        return w.prefix(sel.n)
    if not isinstance(sel, Static):
        raise TypeError("projection is defined for first-N and static selections only")
    tau = sel.times
    n = len(tau)
    kept = []
    ind = 0  # index of the armed switch-on time; n means exhausted
    for a, t in w:
        if ind < n and t >= tau[ind]:
            kept.append((a, t))
            ind += 1
            while ind < n and tau[ind] < t:
                ind += 1
    return TimedWord(tuple(kept))


def unfold_first_n(ta: TimedAutomaton, n: int) -> TimedAutomaton:
    """N+1 copies of `ta`; silent edges stay in-copy, observable edges
    advance the copy until the last one, where they turn silent (the attacker
    has spent the budget, the run continues unobserved). Finals and privates
    are every copy's finals and privates, so exactly the complete runs
    accept: traces(result) = first-N projections of traces(ta)."""
    _check_count(n)
    _check_observations(n)
    edges = []
    for i in range(n + 1):
        for e in ta.edges:
            if e.action is EPSILON or i == n:
                edges.append(Edge(f"{e.source}~{i}", e.guard, EPSILON, e.resets, f"{e.target}~{i}"))
            else:
                edges.append(Edge(f"{e.source}~{i}", e.guard, e.action, e.resets, f"{e.target}~{i + 1}"))
    return copy_locations(ta, [str(i) for i in range(n + 1)], lambda l, c: ta.invariant_of(l),
                          edges, f"{ta.name}~unfold{n}")


def observation_clocks(ta: TimedAutomaton, n: int) -> tuple[str, ...]:
    """The N+1 observation clocks of `ta`'s tick construction, tick clock
    first: `tk0` ... `tkN`, each renamed away from `ta`'s clocks and the
    observation clocks before it: the wrap-around clocks of its region
    build. Every path to that build starts here, so the construction's
    refusals come before any build: a bad count, more observations than
    the cap, and a model letter `t` or `f{...}` (a tick or an f-letter)."""
    reserve_letters(ta.actions, [TICK_LETTER, *(a for a in ta.actions if a.startswith("f{"))],
                    "tick construction")
    _check_count(n)
    _check_observations(n)
    taken = set(ta.clocks)
    obs = []
    for i in range(n + 1):
        c = fresh_name(f"tk{i}", taken)
        obs.append(c)
        taken.add(c)
    return tuple(obs)


def tick_construction(ta: TimedAutomaton, n: int, *, relaxed: Optional[TimedAutomaton] = None) -> TimedAutomaton:
    """Dense-time automaton whose region build (`tick_regions`) encodes the
    first-N projected traces of `ta` as ticked words, cut where a run stops.

    It is the part of the N-unfolding of `ta` that the location graph
    reaches from the initial location in copy 0: `ta` is final-relaxed
    once (a run ends the moment it reaches a final location, so exits from
    finals are dead and their invariants only matter at entry), and a
    breadth-first worklist emits each reached `location~copy` with the
    relaxed edges from its location, in `ta.edges` order, so the region
    build numbers its states as on the whole unfolding. Each observed edge
    resets the clock of its observation, which records the timestamp's
    fractional part; the tick clock reads `t` each time its delay wraps.
    The finals and the last copy's locations are final with no out-edge:
    the stop region fixes the rest of the ticked word, the f-letters of the
    observation clocks' fractional groups, which the bounded engine
    attaches (`deciders._first_n_stop`). A caller that has `relax_finals(ta)`
    passes it as `relaxed`.
    """
    obs = observation_clocks(ta, n)
    if relaxed is None:
        relaxed = relax_finals(ta)
    out: dict[str, list[Edge]] = {}
    for e in relaxed.edges:
        out.setdefault(e.source, []).append(e)
    work = [(ta.init, 0)]
    reached = {work[0]: f"{ta.init}~0"}  # (location, copy) -> its name
    edges, final = [], set()
    for loc, i in work:  # breadth-first: the loop reads the pairs it appends
        source = reached[loc, i]
        if i == n or loc in relaxed.final:
            final.add(source)
            continue
        for e in out.get(loc, ()):
            j = i if e.action is EPSILON else i + 1
            target = reached.get((e.target, j))
            if target is None:
                target = reached[e.target, j] = f"{e.target}~{j}"
                work.append((e.target, j))
            edges.append(Edge(source, e.guard, e.action, e.resets if j == i else e.resets | {obs[j]}, target))
    return TimedAutomaton(
        actions=ta.actions | {TICK_LETTER},
        locations=frozenset(reached.values()),
        init=reached[work[0]],
        private=frozenset(name for (loc, _), name in reached.items() if loc in relaxed.private),
        final=frozenset(final),
        clocks=ta.clocks | frozenset(obs),
        invariant={name: relaxed.invariant_of(loc) for (loc, _), name in reached.items()},
        edges=tuple(edges),
        time_domain="dense",
        name=f"{ta.name}~tick{n}",
    )


def tick_regions(ta: TimedAutomaton, n: int, cap: Optional[int] = None, stop: Optional[Callable] = None,
                 *, relaxed: Optional[TimedAutomaton] = None) -> RegionAutomaton:
    """The region build of `tick_construction(ta, n)`, the one the bounded
    engine (with a stop rule `stop`, `deciders._first_n_stop`) and
    `topaq export --what tick` make: its `observation_clocks` are the
    wrap-around clocks, and the model clocks take the constants of the
    final-relaxed `ta`, those of the whole N-unfolding. The unreached part
    of the unfolding can hold a clock's largest constant, and without it
    the build's regions would be coarser than those the stop rule looks
    up. At n = 0 the build is the initial region alone, every code 0.
    `relaxed`, when given, is `relax_finals(ta)`."""
    if relaxed is None:
        relaxed = relax_finals(ta)
    return build_region_automaton(tick_construction(ta, n, relaxed=relaxed), cap, stop,
                                  wrap=observation_clocks(ta, n), constants=relaxed.max_constants())


def normalize_sequence(tau: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical simple time sequence equivalent to `tau`: integral parts are
    kept, the i-th smallest nonzero fractional part becomes i/(k+1) where k
    counts the distinct nonzero fractional parts. Idempotent, and equivalent
    inputs map to the same output."""
    tau = [Fraction(t) for t in tau]
    if any(a > b for a, b in zip(tau, tau[1:])):
        raise ValueError("time sequence must be nondecreasing")
    fracs = sorted({_frac(t) for t in tau} - {Fraction(0)})
    nf = len(fracs)
    rank = {f: i + 1 for i, f in enumerate(fracs)}
    rank[Fraction(0)] = 0
    return tuple(_ipart(t) + Fraction(rank[_frac(t)], nf + 1) for t in tau)


def switch_scale(tau: Sequence[Fraction]) -> int:
    """The factor `unfold_tau` scales constants by: one plus the number of
    distinct nonzero fractional parts of `tau`. It makes every time of a
    simple sequence an integer, and a witness on the unfolding maps back by
    its inverse."""
    return len({_frac(t) for t in tau} - {Fraction(0)}) + 1


def scale_guard(g: Guard, factor: int) -> Guard:
    return Guard(tuple(ClockConstraint(c.clock, c.cmp, c.bound * factor) for c in g.conjuncts))


def _on(loc: str, i: int) -> str:
    return f"{loc}~on{i}"


def _off(loc: str, j: int) -> str:
    return f"{loc}~off{j}"


def _switch_copies(n: int) -> list[str]:
    """The copies of the switch-slot unfoldings: the sensor off before each
    of the n slots and after the last, and on in each slot."""
    return [f"off{j}" for j in range(n + 1)] + [f"on{i}" for i in range(n)]


def unfold_tau(ta: TimedAutomaton, tau: Sequence[Fraction]) -> TimedAutomaton:
    """Unfolding against a simple switch-time sequence: sensor-off copies
    (everything silent) alternate with sensor-on copies, and a fresh global
    clock fires each switch-on at its sequence time. All constants are
    scaled by `switch_scale(tau)`, so the result has integer constants and
    its traces are the projected traces at that same scale.

    Copies are indexed by switch slots, not observation counts: an armed
    sensor stays armed until a letter arrives, and the letter's timestamp
    decides through window guards how many later switch times it burns
    (the next armed slot is the first one at or after the letter). An eager
    slot-skip edge would instead race against observations landing exactly
    at a switch time and observe words the projection never produces.
    """
    tau = tuple(Fraction(t) for t in tau)
    if tuple(normalize_sequence(tau)) != tau:
        raise ValueError("switch-time sequence must be simple (use normalize_sequence)")
    n = len(tau)
    _check_observations(n)
    factor = switch_scale(tau)
    scaled = [int(t * factor) for t in tau]

    z = fresh_name("zobs", ta.clocks)
    base = {l: scale_guard(ta.invariant_of(l), factor) for l in ta.locations}
    limit = {f"off{j}": Guard.of(ClockConstraint(z, "<=", scaled[j])) for j in range(n)}

    def window(k: int, j: int) -> Guard:
        # observed from slot j at time t: the next armed slot is k, i.e.
        # tau[k-1] < t (slots j+1..k-1 burned) and t <= tau[k] (slot k keeps)
        conj = []
        if k > j + 1:
            conj.append(ClockConstraint(z, ">", scaled[k - 1]))
        if k < n:
            conj.append(ClockConstraint(z, "<=", scaled[k]))
        return Guard(tuple(conj))

    edges = []
    for e in ta.edges:
        g = scale_guard(e.guard, factor)
        for j in range(n + 1):
            if e.action is EPSILON or j == n:
                gj = g
            else:
                # a letter at exactly the switch time is observed, so its
                # silenced variant must fire strictly before it
                gj = g.conjoin(Guard.of(ClockConstraint(z, "<", scaled[j])))
            edges.append(Edge(_off(e.source, j), gj, EPSILON, e.resets, _off(e.target, j)))
        if e.action is EPSILON:
            for i in range(n):
                edges.append(Edge(_on(e.source, i), g, EPSILON, e.resets, _on(e.target, i)))
        else:
            for i in range(n):
                for k in range(i + 1, n + 1):
                    edges.append(
                        Edge(_on(e.source, i), g.conjoin(window(k, i)), e.action, e.resets, _off(e.target, k))
                    )
    for l in sorted(ta.locations):
        for i in range(n):
            at = Guard.of(ClockConstraint(z, "=", scaled[i]))
            edges.append(Edge(_off(l, i), at, EPSILON, frozenset(), _on(l, i)))

    return copy_locations(ta, _switch_copies(n), lambda l, c: base[l].conjoin(limit.get(c, Guard.true())),
                          edges, f"{ta.name}~tau{n}", clocks=frozenset({z}))


def unfold_free(ta: TimedAutomaton, n: int) -> TimedAutomaton:
    """Unfolding for the dynamic attacker: arming the sensor becomes an
    observable o_i letter allowed at any time, so every possible choice of
    switch-on times is represented; runs carry at most 2N observable letters.
    """
    _check_count(n)
    _check_observations(2 * n)
    obs_letters = tuple(f"o{i}" for i in range(n))
    reserve_letters(ta.actions, obs_letters, "dynamic attacker's unfolding")
    edges = []
    for e in ta.edges:
        for j in range(n + 1):
            edges.append(Edge(_off(e.source, j), e.guard, EPSILON, e.resets, _off(e.target, j)))
        if e.action is EPSILON:
            for i in range(n):
                edges.append(Edge(_on(e.source, i), e.guard, EPSILON, e.resets, _on(e.target, i)))
        else:
            for i in range(n):
                edges.append(Edge(_on(e.source, i), e.guard, e.action, e.resets, _off(e.target, i + 1)))
    for l in sorted(ta.locations):
        for i in range(n):
            edges.append(Edge(_off(l, i), Guard.true(), obs_letters[i], frozenset(), _on(l, i)))
        for i in range(n - 1):
            edges.append(Edge(_on(l, i), Guard.true(), obs_letters[i], frozenset(), _on(l, i + 1)))
    return copy_locations(ta, _switch_copies(n), lambda l, c: ta.invariant_of(l), edges,
                          f"{ta.name}~free{n}", actions=frozenset(obs_letters))
