"""Structural transformations of timed automata: the location-copy builder
(`copy_locations`) and the public/private/memo automata, the synchronized
product, and the opacity inter-reduction gadgets.

All derived location names carry provenance tags so counterexamples stay
readable. Every construction respects the run semantics (runs end at the
first final location); the product in particular prunes exits from final
locations and transfers final invariants onto incoming edges first, since a
factor's run ends, and stops constraining time, the moment it accepts.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .regions import fresh_name
from .ta import (
    EPSILON,
    ClockConstraint,
    Edge,
    Guard,
    TimedAutomaton,
)

S_TAG = "~S"       # already visited the private set
NS_TAG = "~nS"     # not yet visited
MEMO_TAGS = (S_TAG, NS_TAG)  # the final classes of the memo automaton: private, public


def prune_final_exits(ta: TimedAutomaton) -> TimedAutomaton:
    """Drop edges leaving final locations: runs end at the first final
    location, so these edges are dead. Constructions that re-map the final
    set (the private-runs copy in particular) rely on this normalization,
    since a location that stops being final would otherwise let runs continue
    where the original automaton ended them."""
    edges = tuple(e for e in ta.edges if e.source not in ta.final)
    if len(edges) == len(ta.edges):
        return ta
    return replace(ta, edges=edges)


def copy_locations(
    ta: TimedAutomaton,
    copies: Sequence[str],
    invariant: Callable[[str, str], Guard],
    edges: Iterable[Edge],
    name: str,
    actions: frozenset[str] = frozenset(),
    clocks: frozenset[str] = frozenset(),
) -> TimedAutomaton:
    """The automaton on one copy `loc~c` of every location of `ta` per copy
    name `c`, starting in the first copy: `invariant(loc, c)` is the
    invariant of `loc~c`, every copy's finals and privates are final and
    private, and `actions` and `clocks` join those of `ta`."""
    cp = lambda locs: frozenset(f"{l}~{c}" for l in locs for c in copies)
    return TimedAutomaton(
        actions=ta.actions | actions,
        locations=cp(ta.locations),
        init=f"{ta.init}~{copies[0]}",
        private=cp(ta.private),
        final=cp(ta.final),
        clocks=ta.clocks | clocks,
        invariant={f"{l}~{c}": invariant(l, c) for l in ta.locations for c in copies},
        edges=tuple(edges),
        time_domain=ta.time_domain,
        name=name,
    )


def build_pub(ta: TimedAutomaton) -> TimedAutomaton:
    """Automaton of the public runs: private locations removed outright.
    Warns when the initial location is private, as the language is then
    empty; the deciders, whose answer says so, build it with `_public_runs`."""
    if ta.init in ta.private:
        warnings.warn("initial location is private: the public-run language is empty")
    return _public_runs(ta)


def _public_runs(ta: TimedAutomaton) -> TimedAutomaton:
    """`build_pub` without the warning."""
    if ta.init in ta.private:
        sink = fresh_name("pub_sink", ta.locations)
        return TimedAutomaton(
            actions=ta.actions,
            locations=frozenset({sink}),
            init=sink,
            private=frozenset(),
            final=frozenset(),
            clocks=ta.clocks,
            invariant={sink: Guard.true()},
            edges=(),
            time_domain=ta.time_domain,
            name=f"{ta.name}_pub",
        )
    keep = ta.locations - ta.private
    edges = tuple(e for e in ta.edges if e.source in keep and e.target in keep)
    return TimedAutomaton(
        actions=ta.actions,
        locations=keep,
        init=ta.init,
        private=frozenset(),
        final=ta.final - ta.private,
        clocks=ta.clocks,
        invariant={loc: ta.invariant_of(loc) for loc in keep},
        edges=edges,
        time_domain=ta.time_domain,
        name=f"{ta.name}_pub",
    )


def build_priv(ta: TimedAutomaton) -> TimedAutomaton:
    """Automaton of the private runs: the memo automaton (`build_memo`) with
    only the visited copy's finals."""
    return _visit_copies(ta, (S_TAG,), f"{ta.name}_priv")


def build_memo(ta: TimedAutomaton) -> TimedAutomaton:
    """Same language as `ta`, with the visited-private bit stored in the
    location: a not-yet copy `loc~nS` and a visited copy `loc~S` of every
    location, with entries into private locations redirected from the
    not-yet copy to the visited copy, and both copies' finals.

    A private initial location starts directly in the visited copy (every run
    is private then); otherwise the not-yet copy's initial is used. The
    private locations are the visited copy's."""
    return _visit_copies(ta, MEMO_TAGS, f"{ta.name}_memo")


def _visit_copies(ta: TimedAutomaton, final_tags: Sequence[str], name: str) -> TimedAutomaton:
    """`build_memo` with the finals of the copies in `final_tags`."""
    ta = prune_final_exits(ta)
    copy = lambda e, source, target: Edge(e.source + source, e.guard, e.action, e.resets, e.target + target)
    edges = [copy(e, S_TAG, S_TAG) for e in ta.edges]
    edges += [copy(e, NS_TAG, NS_TAG) for e in ta.edges if e.target not in ta.private]
    edges += [copy(e, NS_TAG, S_TAG) for e in ta.edges if e.target in ta.private]
    memo = copy_locations(ta, ["nS", "S"], lambda l, c: ta.invariant_of(l), edges, name)
    return replace(memo, init=ta.init + S_TAG if ta.init in ta.private else memo.init,
                   private=frozenset(l + S_TAG for l in ta.private),
                   final=frozenset(l + tag for l in ta.final for tag in final_tags))


def relax_finals(ta: TimedAutomaton) -> TimedAutomaton:
    """Normalize for language-level composition under run semantics.

    Exits from final locations are dead (runs stop there) and are dropped.
    Final-location invariants only matter at entry, so they move onto every
    incoming edge (with reset clocks substituted by zero) and the final
    locations themselves become invariant-free.
    """
    edges = []
    for e in ta.edges:
        if e.source in ta.final:
            continue
        if e.target in ta.final:
            conj = []
            dead = False
            for c in ta.invariant_of(e.target).conjuncts:
                if c.clock in e.resets:
                    if not c.holds(Fraction(0)):
                        dead = True
                        break
                else:
                    conj.append(c)
            if dead:
                continue
            e = Edge(e.source, e.guard.conjoin(Guard(tuple(conj))), e.action, e.resets, e.target)
        edges.append(e)
    inv = {loc: (Guard.true() if loc in ta.final else g) for loc, g in ta.invariant.items()}
    finals = ta.final
    if ta.init in ta.final and not ta.invariant_of(ta.init).holds(ta.zero_valuation()):
        # the zero-step run was never admissible, so nothing is accepted
        finals = frozenset()
        edges = []
    return replace(ta, final=finals, invariant=inv, edges=tuple(edges))


def rename_clocks(ta: TimedAutomaton, mapping: dict[str, str]) -> TimedAutomaton:
    remap = lambda g: Guard(tuple(ClockConstraint(mapping[c.clock], c.cmp, c.bound) for c in g.conjuncts))
    return replace(
        ta,
        clocks=frozenset(mapping[x] for x in ta.clocks),
        invariant={loc: remap(g) for loc, g in ta.invariant.items()},
        edges=tuple(
            Edge(e.source, remap(e.guard), e.action, frozenset(mapping[x] for x in e.resets), e.target)
            for e in ta.edges
        ),
    )


def product(ta1: TimedAutomaton, ta2: TimedAutomaton) -> TimedAutomaton:
    """Synchronized product recognizing the intersection of the two trace
    languages: shared letters synchronize (guards conjoined, resets unioned),
    silent edges interleave, invariants conjoin, finals pair up.

    The clocks of `ta2` are renamed fresh first, and both factors are
    final-relaxed so a factor that has already accepted can idle."""
    if ta1.time_domain != ta2.time_domain:
        raise ValueError("product factors must share a time domain")
    taken = set(ta1.clocks) | set(ta2.clocks)
    mapping = {}
    for x in sorted(ta2.clocks):
        nx = fresh_name(x + "'", taken)
        mapping[x] = nx
        taken.add(nx)
    a = relax_finals(ta1)
    b = relax_finals(rename_clocks(ta2, mapping))

    shared = a.actions & b.actions
    name = lambda l1, l2: f"({l1}|{l2})"
    locations = set()
    inv = {}
    for l1 in a.locations:
        for l2 in b.locations:
            loc = name(l1, l2)
            locations.add(loc)
            inv[loc] = a.invariant_of(l1).conjoin(b.invariant_of(l2))
    edges = []
    for e1 in a.edges:
        if e1.action is EPSILON:
            for l2 in sorted(b.locations):
                edges.append(Edge(name(e1.source, l2), e1.guard, EPSILON, e1.resets, name(e1.target, l2)))
    for e2 in b.edges:
        if e2.action is EPSILON:
            for l1 in sorted(a.locations):
                edges.append(Edge(name(l1, e2.source), e2.guard, EPSILON, e2.resets, name(l1, e2.target)))
    for e1 in a.edges:
        if e1.action in shared:
            for e2 in b.edges:
                if e2.action == e1.action:
                    edges.append(
                        Edge(
                            name(e1.source, e2.source),
                            e1.guard.conjoin(e2.guard),
                            e1.action,
                            e1.resets | e2.resets,
                            name(e1.target, e2.target),
                        )
                    )
    return TimedAutomaton(
        actions=a.actions | b.actions,
        locations=frozenset(locations),
        init=name(a.init, b.init),
        private=frozenset(),
        final=frozenset(name(l1, l2) for l1 in a.final for l2 in b.final),
        clocks=a.clocks | b.clocks,
        invariant=inv,
        edges=tuple(edges),
        time_domain=ta1.time_domain,
        name=f"({ta1.name}x{ta2.name})",
    )


def urgent_choice(
    part1: TimedAutomaton,
    part2: TimedAutomaton,
    public: Sequence[str],
    private: Sequence[str],
    name: str,
) -> TimedAutomaton:
    """The disjoint union of two parts (shared clocks allowed) under an
    urgent choice at time 0: the fresh initial location moves silently to
    each part location in `public`, or to the one fresh private location,
    which moves silently to each part location in `private`. Both fresh
    locations have the invariant x = 0 on the parts' least clock (a fresh
    clock `u` if they have none), so no time passes before the choice."""
    if part1.time_domain != part2.time_domain:
        raise ValueError("gadget parts must share a time domain")
    overlap = part1.locations & part2.locations
    if overlap:
        raise ValueError(f"gadget parts share locations: {sorted(overlap)[:3]}")
    locations = part1.locations | part2.locations
    clocks = part1.clocks | part2.clocks or frozenset({"u"})
    init, lpriv = fresh_name("init'", locations), fresh_name("priv'", locations)
    urgent = Guard.of(ClockConstraint(min(clocks), "=", 0))
    inv = {**part1.invariant, **part2.invariant, init: urgent, lpriv: urgent}
    choice = [Edge(init, Guard.true(), EPSILON, frozenset(), l) for l in public]
    choice.append(Edge(init, Guard.true(), EPSILON, frozenset(), lpriv))
    choice += [Edge(lpriv, Guard.true(), EPSILON, frozenset(), l) for l in private]
    return TimedAutomaton(
        actions=part1.actions | part2.actions,
        locations=locations | {init, lpriv},
        init=init,
        private=frozenset({lpriv}),
        final=part1.final | part2.final,
        clocks=clocks,
        invariant=inv,
        edges=tuple(choice) + part1.edges + part2.edges,
        time_domain=part1.time_domain,
        name=name,
    )


def swap_gadget(ta: TimedAutomaton) -> TimedAutomaton:
    """A TA whose private and public trace sets are those of `ta` swapped:
    the private-runs part sits behind the public branch, the public-runs
    part behind the private one. So full opacity of `ta` equals weak
    opacity of `ta` and of this gadget.
    """
    pub = build_pub(ta)
    priv = build_priv(ta)
    return urgent_choice(priv, pub, [priv.init], [pub.init], f"{ta.name}_swap")


def embed_gadget(ta: TimedAutomaton) -> TimedAutomaton:
    """A TA that is fully opaque iff `ta` is weakly opaque: the public-runs
    part sits behind the public branch, and both the private-runs and the
    public-runs part behind the private one. So its public traces are ta's
    public ones, its private traces the union of both sets."""
    pub = build_pub(ta)
    priv = build_priv(ta)
    return urgent_choice(priv, pub, [pub.init], [priv.init, pub.init], f"{ta.name}_embed")


def retag(ta: TimedAutomaton, tag: str) -> TimedAutomaton:
    """`ta` on the locations `loc~tag`."""
    ren = lambda l: f"{l}~{tag}"
    edges = [Edge(ren(e.source), e.guard, e.action, e.resets, ren(e.target)) for e in ta.edges]
    return copy_locations(ta, [tag], lambda l, c: ta.invariant_of(l), edges, ta.name)


def inclusion_gadget(a: TimedAutomaton, b: TimedAutomaton) -> TimedAutomaton:
    """A TA that is weakly opaque iff traces(a) ⊆ traces(b): `b` sits behind
    the public branch, `a` behind the private one."""
    pa = retag(strip_private(a), "A")
    pb = retag(strip_private(b), "B")
    return urgent_choice(pa, pb, [pb.init], [pa.init], f"incl({a.name},{b.name})")


def strip_private(ta: TimedAutomaton) -> TimedAutomaton:
    return replace(ta, private=frozenset())
