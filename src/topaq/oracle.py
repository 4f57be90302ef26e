"""Independent brute-force ground truth: bounded run enumeration and direct
evaluation of the opacity definitions on the enumerated trace sets."""

from __future__ import annotations

import functools
from collections import deque
from fractions import Fraction
from typing import Optional, Union

from .observers import Dynamic, FirstN, Static, project
from .ta import (
    EPSILON,
    BadOracleBound,
    BoundExhausted,
    GridTrace,
    TimedAutomaton,
    TimedWord,
    TimeGrid,
    Verdict,
    check_granularity,
    check_node_cap,
    collector_off,
    enumerate_runs,
    grid_word,
    is_count,
)


def default_granularity(ta: TimedAutomaton, obs: int = 0) -> Fraction:
    """1/(|X| + N + 2) for dense time: enough distinct fractional values to
    populate every fractional-ordering pattern at this clock count. This is a
    documented heuristic for desk-scale models, not a completeness theorem."""
    if ta.time_domain == "discrete":
        return Fraction(1)
    return Fraction(1, len(ta.clocks) + obs + 2)


def default_horizon(ta: TimedAutomaton) -> Fraction:
    maxc = ta.max_constants()
    return Fraction(max(maxc.values(), default=0) + len(ta.locations) + 1)


def discrete_state_count(ta: TimedAutomaton) -> int:
    """|L| * prod(M(x)+2): the discrete-time region count."""
    maxc = ta.max_constants()
    n = len(ta.locations)
    for x in ta.clocks:
        n *= maxc[x] + 2
    return n


def trace_sets(
    ta: TimedAutomaton,
    horizon: Fraction,
    max_steps: int,
    granularity: Fraction,
    node_cap: int = 2_000_000,
) -> tuple[frozenset[GridTrace], frozenset[GridTrace], bool]:
    """(private traces, public traces, complete?) over the enumerated runs.
    The traces are grid traces in 1/q units for the granularity p/q, as the
    enumeration gives them; `grid_word` decodes one."""
    result = enumerate_runs(ta, horizon, max_steps, granularity, node_cap=node_cap)
    private = frozenset(t for t, p in result.runs if p)
    public = frozenset(t for t, p in result.runs if not p)
    return private, public, result.complete


def can_produce(
    ta: TimedAutomaton,
    w: TimedWord,
    want_private: bool,
    horizon: Fraction,
    granularity: Fraction,
    node_cap: int = 500_000,
) -> bool:
    """Is `w` the trace of a private (resp. public) run whose delays lie on
    the granularity grid within the horizon?

    A saturating search with no step budget: states deduplicate on
    (configuration, privacy flag, elapsed time, letters matched), so silent
    cycles cannot blow it up. Used to confirm that a violation candidate
    really has no matching run on the other side at the stated grid. A
    granularity the grid cannot use raises `BadOracleBound`
    (`check_granularity`), and a `node_cap` that is not a nonnegative int
    `ValueError`.
    """
    granularity = check_granularity(ta, granularity)
    check_node_cap(node_cap)
    init = ta.init
    if not ta.invariant_of(init).holds(ta.zero_valuation()):
        return False
    if not want_private and init in ta.private:
        return False
    grid = TimeGrid(ta, granularity, Fraction(horizon))
    stamps = [grid.units(t) for t in w.timestamps()]  # None never matches
    letters = w.untimed()
    n = len(letters)

    # (location, valuation, privacy flag, elapsed units, letters matched)
    start = (init, grid.zero, init in ta.private, 0, 0)
    seen = {start}
    queue = deque([start])
    explored = 0
    while queue:
        location, valuation, flag, elapsed, i = queue.popleft()
        if location in ta.final:
            if i == n and (flag if want_private else True):
                return True
            continue  # runs end at the first final location
        rows, _ = grid.successors(location, valuation, grid.horizon - elapsed)
        for _, d, move, after in rows:
            _, _, _, target, action, target_private = move
            now = elapsed + d
            if action is EPSILON:
                ni = i
            elif i < n and action == letters[i] and now == stamps[i]:
                ni = i + 1
            else:
                continue
            if not want_private and target_private:
                continue
            key = (target, after, flag or target_private, now, ni)
            if key in seen:
                continue
            explored += 1
            if explored > node_cap:
                raise BoundExhausted("membership search cap exceeded")
            seen.add(key)
            queue.append(key)
    return False


def _check_bounds(ta: TimedAutomaton, horizon, max_steps, granularity, node_cap) -> None:
    """Reject explicit bounds the enumeration cannot use (None: the default)."""
    if granularity is not None:
        check_granularity(ta, granularity)
    if max_steps is not None and (not is_count(max_steps) or max_steps < 1):
        raise BadOracleBound("max_steps", max_steps, "a positive integer")
    if horizon is not None and Fraction(horizon) < 0:
        raise BadOracleBound("horizon", horizon, "non-negative")
    if not is_count(node_cap):
        raise BadOracleBound("node_cap", node_cap, "a nonnegative integer")


@collector_off
def oracle_check(
    ta: TimedAutomaton,
    query: str,
    sel: Optional[Union[FirstN, Static]] = None,
    horizon: Optional[Fraction] = None,
    max_steps: Optional[int] = None,
    granularity: Optional[Fraction] = None,
    node_cap: int = 2_000_000,
) -> Verdict:
    """Evaluate an opacity definition literally over enumerated runs.

    A violation is reported only after the candidate trace is confirmed to
    have no matching run on the other side at the stated grid (the bounded
    enumeration may cut long matching runs, the saturating membership search
    does not). The absence of a violation is definitive only for discrete
    time with the enumeration complete, the horizon at least the maximum
    constant plus |L|+1, and the step budget at least the discrete region
    count (a longer run revisits a region and the silent cycle between the
    repeats can be cut without changing its trace); otherwise the verdict is
    inconclusive. An explicit bound out of range (a granularity that is
    not positive, or not 1 in discrete time, a step budget that is not an
    integer of at least 1, a negative horizon, or a node cap that is not a
    nonnegative integer) raises `BadOracleBound`.
    """
    if query not in ("exists", "weak", "full"):
        raise ValueError("query must be exists|weak|full")
    _check_bounds(ta, horizon, max_steps, granularity, node_cap)
    if isinstance(sel, Dynamic):
        raise ValueError(
            "the dynamic selection has no executable projection; use the free unfolding reduction instead"
        )
    obs = sel.n if isinstance(sel, FirstN) else len(sel.times) if isinstance(sel, Static) else 0
    if granularity is None:
        granularity = default_granularity(ta, obs)
    cover = default_horizon(ta)
    # only a discrete search can be definitive, and only with this many steps
    states = discrete_state_count(ta) if ta.time_domain == "discrete" else None
    if horizon is None:
        horizon = cover
    if max_steps is None:
        # the discrete definitive cover needs the full region count; dense
        # searches are inconclusive-unless-violated anyway, so stay small
        max_steps = 8 if states is None else min(states, 24)
    horizon, granularity = Fraction(horizon), Fraction(granularity)
    q = granularity.denominator  # grid traces count time in 1/q units

    def projected(traces) -> set[GridTrace]:
        """The attacker's views of grid traces, as grid traces (a projection
        keeps the stamps of the letters it keeps, so they stay on the grid)."""
        return {tuple((a, int(t * q)) for a, t in project(grid_word(u, q), sel)) for u in traces}

    t_priv, t_pub, complete = trace_sets(ta, horizon, max_steps, granularity, node_cap)
    if sel is not None:
        t_priv, t_pub = projected(t_priv), projected(t_pub)

    definitive = complete and states is not None and horizon >= cover and max_steps >= states
    diag = {
        "horizon": str(horizon),
        "granularity": str(granularity),
        "max_steps": max_steps,
        "complete": complete,
        "private_traces": len(t_priv),
        "public_traces": len(t_pub),
        "definitive_cover": definitive,
    }
    if definitive:
        diag["note"] = (
            "definitive: discrete time, enumeration complete, horizon covers max constant + |L| + 1, "
            "steps cover the discrete region count (silent cycles between region repeats are cuttable)"
        )

    def verdict(holds, witness=None, side=None) -> Verdict:
        return Verdict(holds, None if witness is None else grid_word(witness, q), side, note=diag.get("note", ""),
                       diagnostics=diag)

    def order(t: GridTrace):
        """The grid image of `TimedWord.sort_key`."""
        return len(t), tuple(a for a, _ in t), tuple(u for _, u in t)

    if query == "exists":
        common = t_priv & t_pub
        if common:
            return verdict(True, min(common, key=order), "intersection")
        return verdict(False if definitive else None)

    unconfirmed = False

    @functools.cache
    def boosted() -> Optional[dict[bool, set[GridTrace]]]:
        """The projected traces by privacy at a boosted step budget, or None
        when that enumeration is incomplete."""
        b_priv, b_pub, b_complete = trace_sets(ta, horizon, max_steps + 4, granularity, node_cap)
        if not b_complete:
            return None
        return {True: projected(b_priv), False: projected(b_pub)}

    def matched_elsewhere(t: GridTrace, matched_private: bool) -> Optional[bool]:
        """True/False when decided; None when the recheck ran out of budget."""
        if sel is None:
            try:
                return can_produce(ta, grid_word(t, q), matched_private, horizon, granularity)
            except BoundExhausted:
                return None
        # projections cannot be replayed directly; recheck against the other
        # side's projected set at a boosted step budget instead
        table = boosted()
        return None if table is None else t in table[matched_private]

    def confirmed_witness(candidates: set[GridTrace], matched_private: bool) -> Optional[GridTrace]:
        """The canonical (greatest of the shortest) candidate confirmed to
        have no matching run on the other side."""
        nonlocal unconfirmed
        by_len: dict[int, list[GridTrace]] = {}
        for t in candidates:
            by_len.setdefault(len(t), []).append(t)
        for length in sorted(by_len):
            # the order is total on distinct traces; sort a group only once reached
            for t in sorted(by_len[length], key=order, reverse=True):
                matched = matched_elsewhere(t, matched_private)
                if matched is False:
                    return t
                if matched is None:
                    unconfirmed = True
        return None

    missing_pub = t_priv - t_pub
    if missing_pub:
        t = confirmed_witness(missing_pub, matched_private=False)
        if t is not None:
            return verdict(False, t, "priv-not-pub")
    if query == "full":
        missing_priv = t_pub - t_priv
        if missing_priv:
            t = confirmed_witness(missing_priv, matched_private=True)
            if t is not None:
                return verdict(False, t, "pub-not-priv")
    if unconfirmed:
        diag["note"] = "violation candidates could not be confirmed within the resource caps"
        return verdict(None)
    return verdict(True if definitive else None)
