"""Finite-automaton machinery over region automata.

Everything downstream of the region construction is plain NFA work on
silent-free automata with states numbered 0..n-1 and state sets as
frozensets:

- Silent moves are read in one place, the conversion.
  `from_region_automaton` reads a region automaton's edge arrays into
  per-state silent and letter successors, which exist only for the
  conversion; a delay edge is silent, or reads a letter the caller names
  (the discrete engine's tick, the event-recording engine's delay letter),
  except that a delay wrapping the tick clock of a build with wrap-around
  clocks reads the tick `t` (the bounded attacker's ticks). `silent_free`
  turns that raw graph into an NFA whose states are the active states of
  the graph: a state is active if it has a letter edge or is final. Each
  letter edge lands on the closed set of its target, the active states it
  reaches silently, and the initial set is closed the same way. The
  future of a closed set (its letter steps and whether it accepts) depends
  only on its active members, so dropping the others changes no language,
  verdict or counterexample; it only makes the sets, and every macro-state
  built from them, smaller.
- A final state may carry an ending (`NFA.endings`): the suffix word it
  accepts with, which no edge reads. A word w + s is accepted when w
  reaches a final whose ending is s, so a language is the set of these
  words; without endings every final accepts with the empty word. The
  bounded attacker's stop regions keep their f-suffixes this way
  (`from_region_automaton` of a build with a stop rule), so the f-letters
  occur only in endings and every accepted word splits one way as w + s.
- One reachability routine, `_reach_table`, gives every state the kept
  part of its reflexive-transitive successor set by SCC condensation,
  each row built once and written in the numbering its caller reads. It
  serves the silent closure of `silent_free` (keeping active states, under
  their NFA numbers) and the tick jump of `strip_trailing_letter`
  (keeping finals).
- One tick-stripping construction, `strip_trailing_letter`, erases the
  maximal trailing run of a tick letter from the words the edges read,
  the run before the ending. Final states read no letter, and it keeps the
  states, their numbering, the finals and the endings: in one phase it
  reroutes the letters that enter a state, a non-tick letter also entering
  the finals the state reaches by ticks. `strip_ticks_before_suffix`
  names the same strip by what it erases: the ticks before the suffix.
- One NFA can carry several final classes (`final_classes`), such as the
  private and public languages of the memo automaton. `NFA.views` gives one
  NFA per class; the views share the transitions and the endings, and
  their active states are those final in any class.
- Language inclusion is between two views of one NFA: one breadth-first
  subset construction of that NFA, with a visited set of macro-states
  (frozensets). A macro-state M violates the inclusion when some final of
  the first view in M has an ending that no final of the second view in M
  has, and the counterexample is the shortlex-least w + s over the first
  word w to reach each violating M and its least violating ending s.
- Boolean reachability matrices for the witness verifier complete the
  module: row s of a matrix is the set of states s reaches, so a letter's
  matrix is a column of `NFA.trans`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Mapping, Optional, Sequence

from .regions import RegionAutomaton, TICK_LETTER


class InclusionCapExceeded(Exception):
    def __init__(self, cap: int, explored: int):
        super().__init__(f"inclusion search cap exceeded: {explored} states explored, above the cap of {cap}")
        self.cap = cap
        self.explored = explored


@dataclass
class NFA:
    alphabet: tuple[str, ...]  # sorted
    n_states: int
    initial: frozenset[int]
    finals: frozenset[int]
    trans: list[dict[str, frozenset[int]]]  # per-state successors per letter
    # the final sets of the views (`views`); empty for an NFA of one language
    final_classes: tuple[frozenset[int], ...] = ()
    # final state -> the suffix word it accepts with; empty: the empty word for every final
    endings: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    def views(self) -> list["NFA"]:
        """One NFA per final class, with that class as its final set. The
        views share this NFA's transitions and endings: a state final only
        in another class stays in the state sets, where it is not final, so
        it changes no language."""
        return [NFA(self.alphabet, self.n_states, self.initial, finals, self.trans, self.final_classes, self.endings)
                for finals in self.final_classes]

    def start(self) -> frozenset[int]:
        return self.initial


def _reach_table(succ: Sequence[Collection[int]], ids: Sequence[Optional[int]]) -> list[frozenset[int]]:
    """Kept part of the reflexive-transitive successor set of every state
    of the graph `succ` (state -> successor states), written in the
    caller's numbering: a state `v` is kept when `ids[v]` is not None, and
    its row holds `ids[v]` for every kept state `v` that the state reaches.

    Tarjan's algorithm finishes strongly connected components in reverse
    topological order, so a component's set is its kept members' ids plus
    the finished sets of the components its edges enter. A state without
    successors is finished when it is first seen. The members of one
    component share one frozenset, and so does a chain link (a state alone
    in its component, not kept, with one successor) with its successor.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    reach: list[Optional[frozenset[int]]] = [None] * n  # None until finished
    empty: frozenset[int] = frozenset()
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = counter
        counter += 1
        if not succ[root]:
            k = ids[root]
            reach[root] = empty if k is None else frozenset([k])
            continue
        low[root] = index[root]
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = counter
                    counter += 1
                    if not succ[w]:  # a sink is its own component
                        k = ids[w]
                        reach[w] = empty if k is None else frozenset([k])
                        continue
                    low[w] = index[w]
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if reach[w] is None and index[w] < low[v]:  # w is on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != index[v]:
                    continue
                if stack[-1] == v and ids[v] is None and len(succ[v]) == 1:
                    # a chain link: a singleton that is not kept and has one
                    # successor shares that successor's finished set
                    (w,) = succ[v]
                    if w != v:
                        stack.pop()
                        reach[v] = reach[w]
                        continue
                members = []
                while True:
                    w = stack.pop()
                    members.append(w)
                    if w == v:
                        break
                out = {k for k in map(ids.__getitem__, members) if k is not None}
                for m in members:
                    for w in succ[m]:
                        r = reach[w]  # None: w is a member of this component
                        if r is not None:
                            out |= r
                done = frozenset(out)
                for m in members:
                    reach[m] = done
    return reach


def _union(rows: Sequence[frozenset[int]] | Mapping[int, frozenset[int]], states: Collection[int]) -> frozenset[int]:
    """Union of the rows of `states`; a single state's row itself."""
    if len(states) == 1:
        (s,) = states
        return rows[s]
    return frozenset().union(*[rows[s] for s in states])


def silent_free(alphabet: tuple[str, ...], initial: Collection[int], finals: frozenset[int],
                eps: Sequence[Collection[int]], trans: Sequence[Mapping[str, Collection[int]]],
                final_classes: tuple[frozenset[int], ...] = (),
                endings: Mapping[int, tuple[str, ...]] = {}) -> NFA:
    """The NFA of the graph with per-state silent successors `eps` and
    letter successors `trans`, with the same languages and no silent moves.

    Its states are the active states of the graph (a letter edge, or final
    in `finals` or in a final class), numbered in increasing order of their
    graph ids. A letter edge s -a-> t becomes s -a-> closure(t), the active
    states t reaches silently, and the initial set is the closure of
    `initial`; the finals, every final class and the `endings` of the
    finals keep their members. A closed set holds the letter edges and the
    finals of every state it stands for, so each language is unchanged."""
    every = finals.union(*final_classes)
    active = [s for s, d in enumerate(trans) if d or s in every]
    new: list[Optional[int]] = [None] * len(trans)  # graph id -> NFA state, None if not active
    for i, s in enumerate(active):
        new[s] = i
    closure = _reach_table(eps, new)
    out = []
    for s in active:
        moves = {}
        for a, succs in trans[s].items():
            t = _union(closure, succs)
            if t:
                moves[a] = t
        out.append(moves)
    return NFA(
        alphabet=alphabet,
        n_states=len(active),
        initial=_union(closure, initial),
        finals=frozenset(new[s] for s in finals),
        trans=out,
        final_classes=tuple(frozenset(new[s] for s in c) for c in final_classes),
        endings={new[s]: word for s, word in endings.items()},
    )


def from_region_automaton(ra: RegionAutomaton, final_classes: tuple[frozenset[int], ...] = (),
                          delay: Optional[str] = None) -> NFA:
    """Silent-free NFA of a region automaton: `silent_free` of the graph in
    its edge arrays, where an edge is silent when its automaton edge is
    ε-labelled, or when it is a delay (`_edge_ta` -1) and `delay` is None;
    otherwise a -1 delay edge reads the letter `delay`. A delay that wraps
    the tick clock (`_edge_ta` -2, only in a build with wrap-around clocks)
    reads `TICK_LETTER`, which is where the bounded attacker's ticks come
    from. The alphabet is the set of letters on the lettered edges, `t`
    with them when a tick edge exists (`ra.letters`), and `delay` when it
    is given.
    Region i is state i of that graph, so `final_classes` are sets of
    region ids.

    A build with a stop rule (`ra.endings`) gives each final state its
    ending, a nonempty suffix word and its classes: the NFA keeps the
    finals of `final_classes`, each with its word as its ending
    (`NFA.endings`), and the classes say which views accept it."""
    labels = [e.action for e in ra._code.edges] + [TICK_LETTER, delay]  # [-2]: a tick, [-1]: another delay
    target, start, through = ra.edge_target, ra._edge_start, ra._edge_ta
    no_moves: dict[str, list[int]] = {}  # shared by the states without letter edges
    eps: list[Collection[int]] = []
    trans: list[dict[str, Collection[int]]] = []
    for i in range(ra.n_states):
        silent: list[int] = []
        moves: dict[str, list[int]] = {}
        for k in range(start[i], start[i + 1]):
            a = labels[through[k]]
            if a is None:
                silent.append(target[k])
            else:
                moves.setdefault(a, []).append(target[k])
        eps.append(silent)
        trans.append(moves or no_moves)
    initial = frozenset([0]) if ra.n_states else frozenset()
    letters = ra.letters if delay is None else tuple(sorted({*ra.letters, delay}))
    finals, endings = ra.final_ids, {}
    if ra.endings:
        finals = frozenset().union(*final_classes)
        endings = {i: ra.endings[i][0] for i in finals}
    return silent_free(letters, initial, finals, eps, trans, final_classes, endings)


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    counterexample: Optional[tuple[str, ...]] = None
    explored: int = 0  # states of the reached macro-states, counted toward `pair_cap`


def _shortlex(word: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    return len(word), word


def check_inclusion(a: NFA, b: NFA, pair_cap: int = 2_000_000) -> InclusionResult:
    """Does L(a) ⊆ L(b), for two views of one NFA (`NFA.views`)? On failure
    returns the shortlex-least counterexample: shortest, ties broken
    lexicographically by alphabet order. `ValueError` if `a` and `b` do not
    share their transitions.

    Breadth-first over words, in alphabet order, through the subset
    construction of the one NFA. Macro-states are reached in shortlex order
    of their words, so only the first word w to reach a macro-state M is
    searched on, whatever the numbering of the states or the iteration
    order of the sets. M violates the inclusion with an ending s when a
    final of `a` in M has the ending s and no final of `b` in M has it; the
    least such w + s over every M is the counterexample. An ending is read
    by no edge, so every accepted word splits one way as w + s, and the
    search stops once every word still to come is longer than the best
    candidate. A final without an ending has the empty one, so without
    endings the first violating M gives the counterexample and its level is
    the last searched. A macro-state's letter successors are computed in
    one pass over its members. The states of each newly reached macro-state
    count toward `pair_cap`.
    """
    if a.trans is not b.trans:
        raise ValueError("check_inclusion compares two views of one NFA")
    trans, endings = a.trans, a.endings
    shortest = min(map(len, endings.values()), default=0)  # the shortest ending
    came_from: dict[frozenset[int], Optional[tuple]] = {a.initial: None}  # macro-state -> (one before, letter)

    def word_to(states: frozenset[int]) -> tuple[str, ...]:
        word = []
        while came_from[states] is not None:
            states, letter = came_from[states]
            word.append(letter)
        return tuple(reversed(word))

    best: Optional[tuple[str, ...]] = None
    explored = depth = 0
    level = [a.initial]
    while level and (best is None or depth + shortest <= len(best)):
        following = []
        for states in level:
            if not a.finals.isdisjoint(states):
                left = {endings.get(s, ()) for s in a.finals.intersection(states)}
                left.difference_update([endings.get(s, ()) for s in b.finals.intersection(states)])
                if left:
                    found = word_to(states) + min(left, key=_shortlex)
                    if best is None or _shortlex(found) < _shortlex(best):
                        best = found
            if best is not None and depth + 1 + shortest > len(best):
                continue  # its successors' words are all longer than `best`
            parts: dict[str, list[frozenset[int]]] = {}
            for s in states:
                for letter, succs in trans[s].items():
                    parts.setdefault(letter, []).append(succs)
            for letter, sets in sorted(parts.items()):
                nxt = sets[0] if len(sets) == 1 else frozenset().union(*sets)
                if nxt in came_from:
                    continue
                came_from[nxt] = (states, letter)
                explored += len(nxt)
                if explored > pair_cap:
                    raise InclusionCapExceeded(pair_cap, explored)
                following.append(nxt)
        level = following
        depth += 1
    return InclusionResult(best is None, best, explored)


def strip_trailing_letter(m: NFA, tick: str = TICK_LETTER) -> NFA:
    """Language image under removal of the maximal trailing run of `tick`
    letters from the word the edges read, the run before the ending: a
    silent-free NFA on `m`'s own states and numbering, with `m`'s finals,
    final classes (`NFA.final_classes`) and endings.

    A final state, in any class, must read no letter, or `ValueError` is
    raised; the region build gives final regions no out-edges. The strip
    then only reroutes the letters that enter a state t:
    - a non-tick letter enters t, if t reads a letter, and `jump[t]`, the
      finals that t reaches by ticks (t itself included), so the tick run
      after the letter is skipped;
    - a tick enters t only if t reads a letter, as the erased run must be
      maximal: no word of the result ends in a tick.
    The initial set is rerouted like a non-tick letter. A jump onto a final
    of another class is a dead end in a view, so the views are the stripped
    languages of `m`'s views.
    """
    finals = m.finals.union(*m.final_classes)
    for s in finals:
        if m.trans[s]:
            raise ValueError(f"state {s} is final and reads a letter")
    jump = _reach_table([d.get(tick, ()) for d in m.trans], [s if s in finals else None for s in range(m.n_states)])
    reading = frozenset([s for s, d in enumerate(m.trans) if d])
    enter = [jump[s] | {s} if s in reading else jump[s] for s in range(m.n_states)]
    trans = []
    for d in m.trans:
        moves = {}
        for a, succs in d.items():
            t = succs & reading if a == tick else _union(enter, succs)
            if t:
                moves[a] = t
        trans.append(moves)
    return NFA(m.alphabet, m.n_states, _union(enter, m.initial), m.finals, trans, m.final_classes, m.endings)


def strip_ticks_before_suffix(m: NFA, tick: str = TICK_LETTER) -> NFA:
    """`strip_trailing_letter`, named by what it erases in an NFA with
    endings: the tick run before the suffix."""
    return strip_trailing_letter(m, tick)


# ---------------------------------------------------------------------------
# Boolean reachability matrices (row s: the set of states s reaches)


def mat_pow(m: list[frozenset[int]], k: int) -> list[frozenset[int]]:
    """m^k by repeated squaring; a product's row is the union of the rows
    of the other factor that the row names."""
    result = [frozenset([s]) for s in range(len(m))]  # identity
    while k:
        if k & 1:
            result = [_union(m, row) for row in result]
        m = [_union(m, row) for row in m]
        k >>= 1
    return result
