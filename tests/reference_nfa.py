"""Word-by-word simulation of `topaq.nfa.NFA`, for tests: the successor
set of a state set, membership of one word, and every accepted word up to
a length. The library decides languages only through `check_inclusion`.

Also the pipeline the library ran before endings were final labels, as a
reference for differential tests: the conversion that spells each ending
out as a chain of f-letter states (`chain_conversion`), the strip that
erases the ticks before that block of suffix letters (`suffix_strip`),
and the inclusion of two different NFAs through the product of their
subset constructions (`product_inclusion`). `spelled` turns an NFA with
endings into one that reads them, so its language can be compared with
those of the references.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from typing import Collection, Iterable, Optional

from topaq.nfa import NFA, InclusionCapExceeded, InclusionResult, _reach_table, _union, silent_free
from topaq.regions import TICK_LETTER, RegionAutomaton


def step(m: NFA, states: Iterable[int], letter: str) -> frozenset[int]:
    """Successors on `letter` of the states `states`."""
    out: set[int] = set()
    for q in states:
        succs = m.trans[q].get(letter)
        if succs:
            out |= succs
    return frozenset(out)


def accepts(m: NFA, word: Iterable[str]) -> bool:
    """Membership of `word` in an NFA without endings (`spelled`)."""
    assert not m.endings
    cur = m.initial
    for a in word:
        cur = step(m, cur, a)
        if not cur:
            return False
    return bool(cur & m.finals)


def language_upto(m: NFA, max_len: int, cap: int = 200_000) -> set[tuple[str, ...]]:
    """All accepted words of length <= max_len of an NFA without endings
    (`spelled`); more than `cap` live prefixes fail the calling test."""
    assert not m.endings
    out = set()
    frontier = {(): m.initial}
    count = 0
    for _ in range(max_len + 1):
        nxt = {}
        for word, states in sorted(frontier.items()):
            if states & m.finals:
                out.add(word)
            if len(word) == max_len:
                continue
            for a in m.alphabet:
                s2 = step(m, states, a)
                if s2:
                    nxt[word + (a,)] = s2
                    count += 1
                    assert count <= cap, f"more than {cap} prefixes up to length {max_len}"
        frontier = nxt
    return out


def spelled(m: NFA) -> NFA:
    """The language of `m`'s finals, with no endings: each final reads its
    ending's word, whose letters no edge of `m` reads, through a chain of
    fresh states, numbered after `m`'s, of which the last is final. The
    final classes are dropped."""
    trans = list(m.trans)
    finals = set()
    for s in sorted(m.finals):
        word = m.endings.get(s, ())
        if not word:
            finals.add(s)
            continue
        trans[s] = {**trans[s], word[0]: frozenset([len(trans)])}  # an ending's letters are read by no edge
        for letter in word[1:]:
            trans.append({letter: frozenset([len(trans) + 1])})
        finals.add(len(trans))
        trans.append({})
    letters = set(m.alphabet).union(*m.endings.values())
    return NFA(tuple(sorted(letters)), len(trans), m.initial, frozenset(finals), trans)


def chain_conversion(ra: RegionAutomaton, final_classes: tuple[frozenset[int], ...] = (),
                     delay: Optional[str] = None) -> NFA:
    """`nfa.from_region_automaton` with each ending of a build with a stop
    rule spelled out: the final state reads its ending's word through a
    chain of fresh states whose last is final in its classes, and is no
    longer final itself. A chain state is keyed by the rest of the word it
    reads and the class set, as a final state is by its word, so words
    share their common tails."""
    labels = [e.action for e in ra._code.edges] + [TICK_LETTER, delay]  # [-2]: a tick, [-1]: another delay
    target, start, through = ra.edge_target, ra._edge_start, ra._edge_ta
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
        trans.append(moves)
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
            trans[i] = {word[0]: (t,)}
        final_classes = tuple(frozenset(c) for c in ends)
        finals = frozenset().union(*final_classes)
    return silent_free(tuple(sorted(letters)), initial, finals, eps, trans, final_classes)


def suffix_strip(m: NFA, suffix_letters: frozenset[str], tick: str = TICK_LETTER) -> NFA:
    """Language image under removal of the maximal run of `tick` letters
    separating the last non-suffix letter from the block of suffix letters
    (the f-letters of `chain_conversion`), on `m`'s own states and
    numbering, with its finals and final classes.

    `m` must be in stop form, or `ValueError` is raised: a state that is
    final in any class, reads a suffix letter, or is entered by a suffix
    letter from such a state (a stop state) reads no other letter. The
    strip only reroutes the letters that enter a state t:
    - a non-tick letter enters t, if t reads a non-suffix letter, and
      `jump[t]`, the stop states that are final or read a suffix letter
      and that t reaches by ticks (t itself included);
    - a tick enters t only if t reads a non-suffix letter;
    - a suffix letter keeps its targets.
    The initial set is rerouted like a non-tick letter."""
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


def product_inclusion(a: NFA, b: NFA, pair_cap: int = 2_000_000) -> InclusionResult:
    """L(a) ⊆ L(b) for two NFAs without endings, with the shortlex-least
    counterexample: breadth-first over words, in alphabet order, through
    the product of the subset constructions of `a` and `b`. A pair holds
    the macro-states a word reaches in `a` and in `b`; only the first word
    to reach a pair is searched on, and the first pair with a final of `a`
    and none of `b` gives the counterexample. The states of each newly
    reached macro-state of `a` count toward `pair_cap`."""
    assert not a.endings and not b.endings
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
