"""Reference region constructions on `Region`/`ClockRegion` objects, for
differential tests.

- The region of a concrete valuation (`clock_region_of`), and the
  operations on region objects: guard truth, resets and the dense and
  discrete delay successors.
- The clock regions of the compiled builder as they were before they were
  packed (`TupleClockRegions`): a (codes, ranks) pair of tuples, interned
  by a dict and moved on by a per-clock successor. The packed successor
  of `regions._Compiled` must agree with it clock region for clock region.
- The object breadth-first search that `topaq.regions` ran before its
  compiled integer builder, with the matching graph of silent and letter
  edges. `build_region_automaton` must agree with it: the same numbered
  states, the same edges in the same order, the same finals, the same edge
  arrays (read back per state by `graph_of`) and an identical NFA.
- The macro-state search that decided observable event-recording automata
  before that engine joined the region-to-inclusion pipeline, on region
  objects (`reference_check_oera`). A node pairs the clock region that
  every run on a trace shares with the set of locations the runs reach.
  `deciders._check_oera` must give the same verdict, witness, side and
  note; the reference's witness is its parent chain read as the engine's
  delay-letter word and decoded by the engine's decoder.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Mapping, Optional, Sequence

from reference_enumeration import edges_from
from topaq.constructions import S_TAG, build_memo
from topaq.deciders import DELAY_LETTER, decode_delay_tokens
from topaq.nfa import NFA, silent_free
from topaq.regions import (
    ClockRegion,
    RAEdge,
    Region,
    RegionAutomaton,
    RegionCapExceeded,
    TICK_LETTER,
    _state_bound,
    region_cap,
)
from topaq.ta import EPSILON, ClockConstraint, Edge, Guard, TimedAutomaton, TimedWord, Verdict


def clock_region_of(valuation: Mapping[str, Fraction], maxc: Mapping[str, int]) -> ClockRegion:
    """The clock region of a concrete valuation."""
    ipart = []
    above = set()
    by_frac: dict[Fraction, set[str]] = {}
    for x in sorted(valuation):
        v = Fraction(valuation[x])
        if v > maxc[x]:
            above.add(x)
            continue
        k = v.numerator // v.denominator
        ipart.append((x, k))
        by_frac.setdefault(v - k, set()).add(x)
    fracs = sorted(by_frac)
    blocks = tuple(frozenset(by_frac[f]) for f in fracs)
    zero_first = bool(fracs) and fracs[0] == 0
    return ClockRegion(tuple(ipart), frozenset(above), blocks, zero_first)


def is_unbounded(cr: ClockRegion) -> bool:
    return not cr.ipart


def satisfies(cr: ClockRegion, constraint: ClockConstraint) -> bool:
    """Uniform truth over the region; needs bound <= M(clock), which holds
    for every constraint of the automaton the region was built for."""
    x, cmp, d = constraint.clock, constraint.cmp, constraint.bound
    if x in cr.above:
        return cmp in (">", ">=")
    k = dict(cr.ipart)[x]
    if cr.frac_is_zero(x):
        return constraint.holds(k)
    # value ranges over the open interval (k, k+1)
    if cmp in ("<", "<="):
        return k + 1 <= d
    if cmp in (">", ">="):
        return d <= k
    return False  # "=": never uniform on an open interval


def satisfies_guard(cr: ClockRegion, guard: Guard) -> bool:
    return all(satisfies(cr, c) for c in guard.conjuncts)


def reset(cr: ClockRegion, clocks: frozenset[str]) -> ClockRegion:
    if not clocks:
        return cr
    ip = dict(cr.ipart)
    for x in clocks:
        ip[x] = 0
    old_zero = cr.blocks[0] if cr.zero_first else frozenset()
    zero = frozenset(old_zero | clocks)
    frac_blocks = []
    for b in cr.blocks[1 if cr.zero_first else 0:]:
        kept = b - clocks
        if kept:
            frac_blocks.append(frozenset(kept))
    return ClockRegion(tuple(sorted(ip.items())), cr.above - clocks, (zero,) + tuple(frac_blocks), True)


def dense_delay_successor(cr: ClockRegion, maxc: Mapping[str, int],
                          wrap: Collection[str] = ()) -> Optional[ClockRegion]:
    """The adjacent time-successor region, or None for unbounded regions; a
    wrap-around clock of `wrap` that reaches 1 is at 0 instead."""
    if is_unbounded(cr):
        return None
    ip = dict(cr.ipart)
    if cr.zero_first:
        # the zero-fraction block moves into the open: clocks at their maximum
        # constant go above, the rest become the new smallest fractional block
        zero = cr.blocks[0]
        going_above = frozenset(x for x in zero if ip[x] == maxc[x])
        staying = zero - going_above
        nip = tuple(sorted((x, k) for x, k in ip.items() if x not in going_above))
        nblocks = ((frozenset(staying),) if staying else ()) + cr.blocks[1:]
        return ClockRegion(nip, cr.above | going_above, nblocks, False)
    # no zero block: the largest fractional block reaches the next integer,
    # which is at most M for each of its clocks (a clock in (k, k+1) has k < M)
    last = cr.blocks[-1]
    nip = dict(ip)
    for x in last:
        nip[x] = 0 if x in wrap else nip[x] + 1
    return ClockRegion(tuple(sorted(nip.items())), cr.above, (last,) + cr.blocks[:-1], True)


def discrete_delay_successor(cr: ClockRegion, maxc: Mapping[str, int]) -> Optional[ClockRegion]:
    """One time unit in discrete time: every clock value advances by 1."""
    if is_unbounded(cr):
        return None
    nip = {}
    above = set(cr.above)
    for x, k in cr.ipart:
        if k + 1 > maxc[x]:
            above.add(x)
        else:
            nip[x] = k + 1
    blocks = (frozenset(nip),) if nip else ()
    return ClockRegion(tuple(sorted(nip.items())), frozenset(above), blocks, bool(nip))


class TupleClockRegions:
    """The clock regions of `regions._Compiled` for `ta` as tuples: codes
    and fractional ranks per clock in sorted order (the `regions` module
    docstring), interned with the guards they satisfy, and moved on by
    `after` under a reset of `resets` (clock indices) or, for None, by the
    delay. Only the guard rows come from the compiled automaton `code`,
    each with its clock index in place of its field's shift."""

    def __init__(self, ta: TimedAutomaton, maxc: Mapping[str, int], wrap: Sequence[str], code):
        clocks = tuple(sorted(ta.clocks))
        self.tops = tuple(2 * maxc[x] + 1 for x in clocks)
        self.steps = tuple(-1 if x in wrap else 1 for x in clocks)
        self.discrete = ta.time_domain == "discrete"
        self.tick = clocks.index(wrap[0]) if wrap else -1
        self.tick_guard, self.full = code.tick_guard, code.full
        self.rows = [(shift // code.width, cuts, masks) for shift, cuts, masks in code.rows]
        self.clock_regions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self.sat: list[int] = []
        self._ids: dict[tuple, int] = {}

    def intern(self, codes: tuple[int, ...], ranks: tuple[int, ...]) -> int:
        key = (codes, ranks)
        cr = self._ids.get(key)
        if cr is None:
            cr = self._ids[key] = len(self.clock_regions)
            self.clock_regions.append(key)
            sat = self.full
            for i, cuts, masks in self.rows:
                sat &= masks[bisect_right(cuts, codes[i]) - 1]
            if self.tick >= 0:
                # the delay wraps the tick clock when it is in the largest
                # class and no clock has a zero fraction
                t = self.tick
                ticks = codes[t] == 1 and ranks[t] == max(ranks) and all(c & 1 for c in codes)
                sat &= ~(1 << self.tick_guard + ticks)
            self.sat.append(sat)
        return cr

    def after(self, cr: int, resets: Optional[Sequence[int]]) -> int:
        codes, ranks = self.clock_regions[cr]
        if resets is not None:
            codes, ranks = list(codes), list(ranks)
            emptied = any(ranks[i] for i in resets)
            for i in resets:
                codes[i] = ranks[i] = 0
            if emptied:  # renumber the classes left 1, 2, ...
                order = {r: k for k, r in enumerate(sorted(set(ranks)))}
                ranks = [order[r] for r in ranks]
            return self.intern(tuple(codes), tuple(ranks))
        tops = self.tops
        if codes == tops:
            return cr
        if self.discrete:
            return self.intern(tuple(min(c + 2, t) for c, t in zip(codes, tops)), ranks)
        if any(not c & 1 for c in codes):
            # the zero-fraction clocks move into the open: those at their
            # maximum constant go above, the rest make the new smallest class
            stay = any(not c & 1 and c + 1 < t for c, t in zip(codes, tops))
            return self.intern(tuple(c | 1 for c in codes), tuple(
                r + stay if r else int(not c & 1 and c + 1 < t) for c, r, t in zip(codes, ranks, tops)))
        # the largest class reaches the next integer; a wrap-around clock goes back to 0
        last = max(ranks)
        return self.intern(tuple(c + s if r == last else c for c, r, s in zip(codes, ranks, self.steps)),
                           tuple(0 if r == last else r for r in ranks))


@dataclass
class ReferenceRegions:
    alphabet: frozenset[str]
    states: tuple[Region, ...]
    initial: Optional[Region]
    finals: frozenset[Region]
    edges: dict[Region, tuple[RAEdge, ...]]
    max_constants: dict[str, int]
    time_domain: str

    def out_edges(self, r: Region) -> tuple[RAEdge, ...]:
        return self.edges.get(r, ())


def reference_region_automaton(ta: TimedAutomaton, cap: Optional[int] = None,
                               wrap: Sequence[str] = (),
                               constants: Optional[Mapping[str, int]] = None) -> ReferenceRegions:
    """Reachable region automaton of `ta` by breadth-first search over
    region objects: edges in declaration order, then the delay edge. The
    clocks of `wrap`, tick clock first, wrap around with maximum constant
    1 (`dense_delay_successor`), and the delay that wraps the tick clock
    reads `t`. The other clocks take the maximum constants `constants`,
    by default `ta.max_constants()`."""
    cap = region_cap(cap)
    maxc = {**(ta.max_constants() if constants is None else constants), **dict.fromkeys(wrap, 1)}
    if ta.time_domain == "discrete":
        successor = discrete_delay_successor
    else:
        successor = functools.partial(dense_delay_successor, wrap=frozenset(wrap))

    init_cr = clock_region_of(ta.zero_valuation(), maxc)
    if not satisfies_guard(init_cr, ta.invariant_of(ta.init)):
        return ReferenceRegions(ta.actions, (), None, frozenset(), {}, maxc, ta.time_domain)
    initial = Region(ta.init, init_cr)

    edges_by_source: dict[str, list[Edge]] = {}
    for e in ta.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    states: list[Region] = [initial]
    seen = {initial}
    edges: dict[Region, tuple[RAEdge, ...]] = {}
    queue = deque([initial])
    while queue:
        r = queue.popleft()
        if r.location in ta.final:
            edges[r] = ()
            continue
        out: list[RAEdge] = []
        for e in edges_by_source.get(r.location, ()):
            if not satisfies_guard(r.clock_region, e.guard):
                continue
            cr2 = reset(r.clock_region, e.resets)
            if not satisfies_guard(cr2, ta.invariant_of(e.target)):
                continue
            out.append(RAEdge(e.action, Region(e.target, cr2), "action", e))
        succ = successor(r.clock_region, maxc)
        if succ is None:
            out.append(RAEdge(None, r, "delay", None))  # unbounded self-loop
        elif satisfies_guard(succ, ta.invariant_of(r.location)):
            ticks = bool(wrap) and not r.clock_region.zero_first and wrap[0] in r.clock_region.blocks[-1]
            out.append(RAEdge(TICK_LETTER if ticks else None, Region(r.location, succ), "delay", None))
        edges[r] = tuple(out)
        for ra_edge in out:
            tgt = ra_edge.target
            if tgt not in seen:
                if len(seen) >= cap:
                    raise RegionCapExceeded(cap)
                seen.add(tgt)
                states.append(tgt)
                queue.append(tgt)

    finals = frozenset(r for r in states if r.location in ta.final)
    if len(states) > _state_bound(len(ta.locations), maxc.values()):
        raise RuntimeError(f"{len(states)} reachable regions exceed the theoretical bound")
    return ReferenceRegions(ta.actions, tuple(states), initial, finals, edges, maxc, ta.time_domain)


def reference_graph(ra: ReferenceRegions):
    """(letters, initial, finals, eps, trans) of a reference region
    automaton, numbering region i as state i: delay edges and ε-labelled
    action edges are silent (`eps`), the others letter edges (`trans`)."""
    index = {r: i for i, r in enumerate(ra.states)}
    eps: list[frozenset[int]] = []
    trans: list[dict[str, frozenset[int]]] = []
    letters = set()
    for r in ra.states:
        silent = []
        moves: dict[str, list[int]] = {}
        for e in ra.out_edges(r):
            if e.label is None:
                silent.append(index[e.target])
            else:
                moves.setdefault(e.label, []).append(index[e.target])
        eps.append(frozenset(silent))
        trans.append({a: frozenset(v) for a, v in moves.items()})
        letters.update(moves)
    initial = frozenset([index[ra.initial]]) if ra.initial is not None else frozenset()
    return tuple(sorted(letters)), initial, frozenset(index[r] for r in ra.finals), eps, trans


def graph_of(ra: RegionAutomaton, delay: Optional[str] = None):
    """(letters, initial, finals, eps, trans) of a region automaton in the
    shape of `reference_graph`, read from its edge arrays through the
    decoded edges: silent successors from the unlabelled edges, letter
    successors from the others; with `delay`, an unlabelled delay edge
    reads it."""
    eps: list[frozenset[int]] = []
    trans: list[dict[str, frozenset[int]]] = []
    letters = set()
    for i in range(ra.n_states):
        silent = []
        moves: dict[str, list[int]] = {}
        for k in ra.edge_ids(i):
            e = ra.edge(k)
            label = delay if e.kind == "delay" and e.label is None else e.label
            if label is None:
                silent.append(ra.edge_target[k])
            else:
                moves.setdefault(label, []).append(ra.edge_target[k])
        eps.append(frozenset(silent))
        trans.append({a: frozenset(v) for a, v in moves.items()})
        letters.update(moves)
    initial = frozenset([0]) if ra.n_states else frozenset()
    return tuple(sorted(letters)), initial, ra.final_ids, eps, trans


def reference_nfa(ra: ReferenceRegions) -> NFA:
    """Silent-free NFA of a reference region automaton."""
    return silent_free(*reference_graph(ra))


def reference_check_oera(ta: TimedAutomaton, mode: str, cap: Optional[int] = None) -> Verdict:
    """Macro-state search on the memo automaton, over region objects.

    In an observable ERA every run with the same timed trace carries the same
    clock valuation, so a macro-state pairs one shared clock region with the
    set of (still running) locations reachable on that trace. A trace is
    accepted privately/publicly according to the copy tags of the final
    locations its runs can end in; it violates weak opacity when a
    visited-copy final is reachable but no not-yet-copy final is, and full
    opacity also checks the mirror image.

    Acceptance evidence is per trace, so the violation test runs on every
    arrival (entry hits plus the silent/delay closure of the target node),
    while node deduplication only limits expansion.
    """
    memo = build_memo(ta)
    maxc = memo.max_constants()
    successor = discrete_delay_successor if memo.time_domain == "discrete" else dense_delay_successor
    limit = region_cap(cap)

    clock_of = {}
    for e in memo.edges:
        if e.action is not EPSILON:
            (clock_of[e.action],) = e.resets

    def tag(loc: str) -> Optional[str]:
        if loc in memo.final:
            return "S" if loc.endswith(S_TAG) else "nS"
        return None

    def eps_close(cr, locs):
        """Silent closure at a fixed clock region; returns the closed set of
        non-final locations plus the final tags hit on the way."""
        alive = set()
        tags = set()
        todo = list(locs)
        seen = set(todo)
        while todo:
            loc = todo.pop()
            t = tag(loc)
            if t:
                tags.add(t)
                continue  # runs end at the first final location
            alive.add(loc)
            for e in edges_from(memo, loc):
                if e.action is EPSILON and e.target not in seen:
                    if satisfies_guard(cr, e.guard) and satisfies_guard(cr, memo.invariant_of(e.target)):
                        seen.add(e.target)
                        todo.append(e.target)
        return frozenset(alive), frozenset(tags)

    def survivors(cr, locs):
        return frozenset(l for l in locs if satisfies_guard(cr, memo.invariant_of(l)))

    closure_memo: dict[tuple, frozenset] = {}

    def closure_tags(node) -> frozenset:
        """Final tags reachable from the node via delays and silent moves."""
        if node in closure_memo:
            return closure_memo[node]
        tags = set()
        seen = {node}
        todo = [node]
        while todo:
            c, ls = todo.pop()
            ls2, tg = eps_close(c, ls)
            tags |= tg
            succ = successor(c, maxc)
            if succ is None:
                continue
            ls3 = survivors(succ, ls2)
            if not ls3:
                continue
            nxt = (succ, ls3)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
        result = frozenset(tags)
        closure_memo[node] = result
        return result

    def violation(tags: frozenset) -> Optional[str]:
        if "S" in tags and "nS" not in tags:
            return "priv-not-pub"
        if mode == "full" and "nS" in tags and "S" not in tags:
            return "pub-not-priv"
        return None

    init_cr = clock_region_of(memo.zero_valuation(), maxc)
    if not satisfies_guard(init_cr, memo.invariant_of(memo.init)):
        return Verdict(True, note="empty language")
    start_locs, seed_tags = eps_close(init_cr, [memo.init])
    start = (init_cr, start_locs)
    side = violation(seed_tags | closure_tags(start))
    if side is not None:
        return Verdict(False, witness=TimedWord(()), side=side)

    parents: dict[tuple, Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        cr, locs = node
        # delay successor: no new trace, so no violation check needed here
        succ = successor(cr, maxc)
        if succ is not None:
            closed, _ = eps_close(succ, survivors(succ, locs))
            nxt = (succ, closed)
            if closed and nxt not in parents:
                parents[nxt] = (node, "delay", None)
                queue.append(nxt)
        for letter in sorted(a for a in memo.actions if a in clock_of):
            targets = set()
            direct_tags = set()
            for loc in locs:
                for e in edges_from(memo, loc):
                    if e.action != letter or not satisfies_guard(cr, e.guard):
                        continue
                    cr2 = reset(cr, e.resets)
                    if not satisfies_guard(cr2, memo.invariant_of(e.target)):
                        continue
                    t = tag(e.target)
                    if t:
                        direct_tags.add(t)
                    else:
                        targets.add(e.target)
            if not targets and not direct_tags:
                continue
            cr2 = reset(cr, frozenset({clock_of[letter]}))
            closed, _ = eps_close(cr2, targets)
            nxt = (cr2, closed)
            side = violation(frozenset(direct_tags) | closure_tags(nxt))
            if side is not None:
                tokens = [letter]
                while parents[node] is not None:
                    node, kind, via = parents[node]
                    tokens.append(DELAY_LETTER if kind == "delay" else via)
                return Verdict(False, witness=decode_delay_tokens(memo, reversed(tokens)), side=side)
            if closed and nxt not in parents:
                if len(parents) >= limit:
                    raise RegionCapExceeded(limit)
                parents[nxt] = (node, "letter", letter)
                queue.append(nxt)
    return Verdict(True)
