"""Attacker models: time-selection functions and their projections, the
first-N unfolding, the tick construction, simple-time-sequence normalization,
the switch-time unfolding, and the free unfolding for dynamic attackers."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

from .constructions import copy_locations, relax_finals
from .regions import fresh_name, reserve_letters, TICK_LETTER
from .ta import (
    EPSILON,
    ClockConstraint,
    Edge,
    Guard,
    TimedAutomaton,
    TimedWord,
    is_count,
)
from .words import _frac, _ipart, render_group

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


def _subsets(items: Sequence[str]) -> list[frozenset[str]]:
    """Every subset of `items`, the empty one first."""
    return [frozenset(x for i, x in enumerate(items) if mask >> i & 1) for mask in range(1 << len(items))]


def _group_guard(at_one: frozenset[str], inside: Sequence[str]) -> Guard:
    """The clocks `at_one` at 1, the other clocks of `inside` strictly
    between 0 and 1."""
    conj = [ClockConstraint(c, "=", 1) for c in sorted(at_one)]
    for c in inside:
        if c not in at_one:
            conj.append(ClockConstraint(c, ">", 0))
            conj.append(ClockConstraint(c, "<", 1))
    return Guard(tuple(conj))


def _ticked_unfolding(ta: TimedAutomaton, n: int, stop: bool) -> tuple[TimedAutomaton, list[str]]:
    """The final-relaxed N-unfolding of `ta` with one clock per observation
    that records its timestamp's fractional part and a global tick clock,
    and those observation clocks, tick clock first. A model letter `t` or
    `f{...}` would read as a tick or an f-letter, so it is refused.

    Without `stop`, the gadget form: the tick clock emits `t` each time
    unit by a tick loop on every location but the finals, every model edge
    needs the observation clocks below 1, and silent reset loops take each
    of them back to 0 as it reaches 1.

    With `stop`, the unfolding's finals and the last copy's locations have
    no out-edge and are final, and the form keeps only the model edges and
    their observation resets: no tick loop, no reset loop and no guard on
    an observation clock. It is built with the observation clocks as
    wrap-around clocks (`regions.build_region_automaton`), whose delay goes
    from the last fraction straight to 0 and reads `t` when it wraps the
    tick clock, as the gadget's loops would fire at once."""
    reserve_letters(ta.actions, [TICK_LETTER, *(a for a in ta.actions if a.startswith("f{"))],
                    "tick construction")
    unfolded = relax_finals(unfold_first_n(ta, n))
    taken = set(unfolded.clocks)
    obs = []
    for i in range(n + 1):
        c = fresh_name(f"tk{i}", taken)
        obs.append(c)
        taken.add(c)
    below1 = Guard(tuple(ClockConstraint(c, "<", 1) for c in obs))
    dead = unfolded.final | {l for l in unfolded.locations if l.endswith(f"~{n}")} if stop else frozenset()

    edges = []
    # original edges with their observation resets (the relaxed unfolding
    # has no exits from final locations)
    for e in unfolded.edges:
        if e.source in dead:
            continue
        resets = e.resets
        if e.action is not EPSILON:
            copy_index = int(e.target.rsplit("~", 1)[1])
            resets = resets | {obs[copy_index]}
        edges.append(Edge(e.source, e.guard if stop else e.guard.conjoin(below1), e.action, resets, e.target))
    if not stop:
        # tick loops (not on unfolding finals) and silent observation-clock
        # resets, their guards built once and shared by every location
        x0, rest = obs[0], obs[1:]
        tick, tick_reset = Guard.of(ClockConstraint(x0, "=", 1)), frozenset({x0})
        resets = [(_group_guard(subset, rest), subset) for subset in _subsets(rest)[1:]]
        for loc in sorted(unfolded.locations):
            if loc not in unfolded.final:
                edges.append(Edge(loc, tick, TICK_LETTER, tick_reset, loc))
            edges += [Edge(loc, guard, EPSILON, subset, loc) for guard, subset in resets]
    return replace(unfolded, actions=unfolded.actions | {TICK_LETTER}, final=unfolded.final | dead,
                   clocks=unfolded.clocks | frozenset(obs), edges=tuple(edges),
                   time_domain="dense", name=f"{ta.name}~tick{n}"), obs


def last_observation_ticks(ta: TimedAutomaton, n: int) -> tuple[TimedAutomaton, list[str]]:
    """The tick construction of `ta` cut where a run stops, and its
    observation clocks, tick clock first, which its region build takes as
    wrap-around clocks (`_ticked_unfolding`): no end gadget, no tick or
    reset loop, and the unfolding's finals and the last copy's locations
    final with no out-edges. The stop region fixes the rest of the ticked
    word, which the bounded engine attaches (`deciders._first_n_languages`)."""
    return _ticked_unfolding(ta, n, stop=True)


def tick_construction(ta: TimedAutomaton, n: int) -> TimedAutomaton:
    """Dense-time gadget whose region automaton's untimed language encodes
    the first-N projected traces of `ta` as ticked words: the reference
    form, which `topaq export --what tick` shows, of the bounded engine's
    `last_observation_ticks`. An end gadget reached from the final
    locations of `_ticked_unfolding` emits the fractional groups of the
    observation clocks as f-letters, one full time unit long.

    The unfolding is final-relaxed first: a run ends the moment it reaches a
    final location, so exits from finals are dead and their invariants only
    matter at entry; the relaxation is what lets the gadget spend its extra
    time units there.
    """
    unfolded, obs = _ticked_unfolding(ta, n, stop=False)
    x0, rest = obs[0], obs[1:]
    g0 = fresh_name("gadget0", unfolded.locations)
    g1 = fresh_name("gadget1", unfolded.locations)
    finals = sorted(unfolded.final)
    # end gadget: first the group synchronized with the tick clock, then each
    # later fractional group as it reaches 1, closing after one full unit
    edges = list(unfolded.edges)
    f_letters = set()
    index_of = {c: i for i, c in enumerate(obs)}
    for subset in _subsets(rest):
        group = subset | {x0}
        letter = render_group(frozenset(index_of[c] for c in group))
        f_letters.add(letter)
        for lf in finals:
            edges.append(Edge(lf, _group_guard(group, obs), letter, group, g0))
        edges.append(Edge(g0, _group_guard(group, obs), EPSILON, frozenset(), g1))
    for subset in _subsets(rest)[1:]:
        letter = render_group(frozenset(index_of[c] for c in subset))
        f_letters.add(letter)
        edges.append(Edge(g0, _group_guard(subset, obs), letter, subset, g0))

    inv = {**unfolded.invariant, g0: Guard.true(), g1: Guard.true()}
    return replace(unfolded, actions=unfolded.actions | f_letters, locations=unfolded.locations | {g0, g1},
                   final=frozenset({g1}), invariant=inv, edges=tuple(edges))


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
