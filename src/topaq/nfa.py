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
  clocks reads the tick `t` (the bounded attacker's ticks);
  a final state of a build with a stop rule reads its ending's suffix
  word through a chain before it accepts (the bounded attacker's
  f-letters). `silent_free`
  turns that raw graph into an NFA whose states are the active states of
  the graph: a state is active if it has a letter edge or is final. Each
  letter edge lands on the closed set of its target, the active states it
  reaches silently, and the initial set is closed the same way. The
  future of a closed set (its letter steps and whether it accepts) depends
  only on its active members, so dropping the others changes no language,
  verdict or counterexample; it only makes the sets, and every macro-state
  and product pair built from them, smaller.
- One reachability routine, `_reach_table`, gives every state the kept
  part of its reflexive-transitive successor set by SCC condensation,
  each row built once and written in the numbering its caller reads. It
  serves the silent closure of `silent_free` (keeping active states, under
  their NFA numbers) and the tick jump of `strip_ticks_before_suffix`
  (keeping finals and suffix-ready states).
- One tick-stripping construction, `strip_ticks_before_suffix`, erases the
  run of a tick letter before the suffix block (the f-letters of the
  bounded attacker); `strip_trailing_letter` is its case without suffix
  letters. It takes a silent-free NFA in stop form, where finals and the
  states of the suffix block read suffix letters only, and keeps its
  states and numbering: in one phase it reroutes the letters that enter a
  state, a non-tick letter also entering what the state reaches by ticks.
- One NFA can carry several final classes (`final_classes`), such as the
  private and public languages of the memo automaton. `NFA.views` gives one
  NFA per class; the views share the transitions, and their active states
  are those final in any class.
- Language inclusion is one breadth-first subset construction over pairs
  of macro-states (frozensets), one of each automaton, with a visited set.
  The views of one NFA share their transitions and initial set, so a word
  reaches the same macro-state in both, and an inclusion between them
  determinizes that one NFA.
- Boolean reachability matrices for the witness verifier complete the
  module: row s of a matrix is the set of states s reaches, so a letter's
  matrix is a column of `NFA.trans`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
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

    def views(self) -> list["NFA"]:
        """One NFA per final class, with that class as its final set. The
        views share this NFA's transitions: a state final only in another
        class stays in the state sets, where it is not final, so it changes
        no language."""
        return [replace(self, finals=finals) for finals in self.final_classes]

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
                final_classes: tuple[frozenset[int], ...] = ()) -> NFA:
    """The NFA of the graph with per-state silent successors `eps` and
    letter successors `trans`, with the same languages and no silent moves.

    Its states are the active states of the graph (a letter edge, or final
    in `finals` or in a final class), numbered in increasing order of their
    graph ids. A letter edge s -a-> t becomes s -a-> closure(t), the active
    states t reaches silently, and the initial set is the closure of
    `initial`; the finals and every final class keep their members. A closed
    set holds the letter edges and the finals of every state it stands for,
    so each language is unchanged."""
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

    A build with a stop rule (`ra.endings`) gives each final state of the
    final classes a distinct ending, a nonempty suffix word and its
    classes: the state reads the word through a chain of fresh states whose
    last is final in those classes, and is no longer final itself. A chain
    state is keyed by the rest of the word it reads and the class set, as
    a final state is by its word, so words share their common tails;
    sharing a common prefix would accept the shorter word from the longer
    one's state."""
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
    letters = set(ra.letters) if delay is None else {*ra.letters, delay}
    finals = ra.final_ids
    if ra.endings:
        heads = {i: (ra.endings[i][0], tuple(k for k, c in enumerate(final_classes) if i in c))
                 for i in sorted(set().union(*final_classes))}
        chains = {key: i for i, key in heads.items()}  # (rest of a word, classes) -> state reading it
        ends: list[list[int]] = [[] for _ in final_classes]
        for i, (word, classes) in heads.items():
            letters.update(word)
            t = None  # the chain is made from its final end back to state i
            for position in range(len(word), 0, -1):
                key = (word[position:], classes)
                s = chains.get(key)
                if s is None:
                    s = chains[key] = len(trans)
                    eps.append(())
                    if t is None:
                        trans.append({})
                        for k in classes:
                            ends[k].append(s)
                    else:
                        trans.append({word[position]: (t,)})
                t = s
            trans[i] = {word[0]: (t,)}  # a final state has no out-edge of its own
        final_classes = tuple(frozenset(c) for c in ends)
        finals = frozenset().union(*final_classes)
    return silent_free(tuple(sorted(letters)), initial, finals, eps, trans, final_classes)


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    counterexample: Optional[tuple[str, ...]] = None
    explored: int = 0  # states of the reached macro-states of `a`, counted toward `pair_cap`


def check_inclusion(a: NFA, b: NFA, pair_cap: int = 2_000_000) -> InclusionResult:
    """Does L(a) ⊆ L(b)? On failure returns the shortlex-least
    counterexample: shortest, ties broken lexicographically by alphabet
    order.

    Breadth-first over words, in alphabet order, through the product of the
    subset constructions of `a` and `b`. A pair holds the macro-states that
    a word reaches in `a` and in `b`. Pairs are reached in shortlex order of
    their words, so only the first word to reach a pair is searched on, and
    the first pair with a final of `a` and no final of `b` gives the
    shortlex-least counterexample, whatever the numbering of the states or
    the iteration order of the sets. A macro-state's letter successors are
    computed in one pass over its members and memoized. The views of one
    NFA (`NFA.views`) share their transitions and initial set, so they share
    the memo, each pair is one macro-state taken twice, and the search
    determinizes one NFA. The states of each newly reached macro-state of
    `a` count toward `pair_cap`.
    """
    a_memo: dict[frozenset[int], dict[str, frozenset[int]]] = {}
    b_memo = a_memo if a.trans is b.trans else {}

    def moves(m: NFA, memo: dict, states: frozenset[int]) -> dict[str, frozenset[int]]:
        """Letter -> successors of `states`, in alphabet order."""
        out = memo.get(states)
        if out is None:
            parts: dict[str, list[frozenset[int]]] = {}
            for s in states:
                for letter, succs in m.trans[s].items():
                    parts.setdefault(letter, []).append(succs)
            out = memo[states] = {letter: sets[0] if len(sets) == 1 else frozenset().union(*sets)
                                  for letter, sets in sorted(parts.items())}
        return out

    empty: frozenset[int] = frozenset()
    pair = (a.initial, b.initial)
    came_from: dict[tuple, Optional[tuple]] = {pair: None}  # pair -> (pair before, letter)
    explored = 0
    queue = deque([pair])
    while queue:
        pair = queue.popleft()
        if not a.finals.isdisjoint(pair[0]) and b.finals.isdisjoint(pair[1]):
            word = []
            while came_from[pair] is not None:
                pair, letter = came_from[pair]
                word.append(letter)
            return InclusionResult(False, tuple(reversed(word)), explored)
        b_moves = moves(b, b_memo, pair[1])
        for letter, s in moves(a, a_memo, pair[0]).items():
            nxt = (s, b_moves.get(letter, empty))
            if not s or nxt in came_from:
                continue
            came_from[nxt] = (pair, letter)
            explored += len(s)
            if explored > pair_cap:
                raise InclusionCapExceeded(pair_cap, explored)
            queue.append(nxt)
    return InclusionResult(True, None, explored)


def strip_trailing_letter(m: NFA) -> NFA:
    """Language image under removal of a maximal trailing tick run: the
    case of `strip_ticks_before_suffix` without suffix letters."""
    return strip_ticks_before_suffix(m, frozenset())


def strip_ticks_before_suffix(m: NFA, suffix_letters: frozenset[str], tick: str = TICK_LETTER) -> NFA:
    """Language image under removal of the maximal run of `tick` letters
    separating the last non-suffix letter from the suffix block: a
    silent-free NFA on `m`'s own states and numbering, with `m`'s finals and
    final classes (`NFA.final_classes`).

    `m` must be in stop form, or `ValueError` is raised: a state that is
    final in any class, reads a suffix letter, or is entered by a suffix
    letter from such a state (a stop state) reads no other letter. The
    region build gives final regions no out-edges, and the suffix chains of
    `from_region_automaton` read only suffix letters. On stop form the
    strip only reroutes the letters that enter a state t:
    - a non-tick letter enters t, if t reads a non-suffix letter, and
      `jump[t]`, the stop states that are final or read a suffix letter
      and that t reaches by ticks (t itself included), so the tick run
      after the letter is skipped;
    - a tick enters t only if t reads a non-suffix letter, as the erased
      run must be maximal: no tick stands right before the suffix block;
    - a suffix letter keeps its targets.
    The initial set is rerouted like a non-tick letter. A jump onto a final
    of another class is a dead end in a view, so the views are the stripped
    languages of `m`'s views.
    """
    finals = m.finals.union(*m.final_classes)
    stop = set(finals).union([s for s, d in enumerate(m.trans) if not suffix_letters.isdisjoint(d)])
    todo = list(stop)
    while todo:
        s = todo.pop()
        if not suffix_letters.issuperset(m.trans[s]):
            raise ValueError(f"state {s} is final, reads a suffix letter or follows one, "
                             "and reads another letter: the NFA is not in stop form")
        for succs in m.trans[s].values():
            todo += succs - stop
            stop.update(succs)
    jump = _reach_table([d.get(tick, ()) for d in m.trans],
                        [s if s in stop and (s in finals or d) else None for s, d in enumerate(m.trans)])
    reading = frozenset([s for s, d in enumerate(m.trans) if d and s not in stop])
    enter = [jump[s] | {s} if s in reading else jump[s] for s in range(m.n_states)]
    trans = []
    for d in m.trans:
        moves = {}
        for a, succs in d.items():
            t = succs if a in suffix_letters else succs & reading if a == tick else _union(enter, succs)
            if t:
                moves[a] = t
        trans.append(moves)
    return replace(m, initial=_union(enter, m.initial), trans=trans)


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
