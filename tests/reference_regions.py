"""Reference region construction on `Region`/`ClockRegion` objects, for
differential tests.

This is the object breadth-first search that `topaq.regions` ran before
its compiled integer builder, with the matching graph of silent and
letter edges. `build_region_automaton` must agree with it: the same
numbered states, the same edges in the same order, the same finals, the
same edge arrays and an identical NFA.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from topaq.nfa import NFA, silent_free
from topaq.regions import (
    RAEdge,
    Region,
    RegionCapExceeded,
    clock_region_of,
    dense_delay_successor,
    discrete_delay_successor,
    region_cap,
    region_state_bound,
)
from topaq.ta import Edge, TimedAutomaton


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


def reference_region_automaton(ta: TimedAutomaton, cap: Optional[int] = None) -> ReferenceRegions:
    """Reachable region automaton of `ta` by breadth-first search over
    region objects: edges in declaration order, then the delay edge."""
    cap = region_cap(cap)
    maxc = ta.max_constants()
    successor = discrete_delay_successor if ta.time_domain == "discrete" else dense_delay_successor

    init_cr = clock_region_of(ta.zero_valuation(), maxc)
    if not init_cr.satisfies_guard(ta.invariant_of(ta.init)):
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
            if not r.clock_region.satisfies_guard(e.guard):
                continue
            cr2 = r.clock_region.reset(e.resets)
            if not cr2.satisfies_guard(ta.invariant_of(e.target)):
                continue
            out.append(RAEdge(e.action, Region(e.target, cr2), "action", e))
        succ = successor(r.clock_region, maxc)
        if succ is None:
            out.append(RAEdge(None, r, "delay", None))  # unbounded self-loop
        elif succ.satisfies_guard(ta.invariant_of(r.location)):
            out.append(RAEdge(None, Region(r.location, succ), "delay", None))
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
    if len(states) > region_state_bound(ta):
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


def reference_nfa(ra: ReferenceRegions) -> NFA:
    """Silent-free NFA of a reference region automaton."""
    return silent_free(*reference_graph(ra))
