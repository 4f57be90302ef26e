"""Word-by-word simulation of `topaq.nfa.NFA`, for tests: the successor
set of a state set, membership of one word, and every accepted word up to
a length. The library decides languages only through `check_inclusion`."""

from __future__ import annotations

from typing import Iterable

from topaq.nfa import NFA


def step(m: NFA, states: Iterable[int], letter: str) -> frozenset[int]:
    """Successors on `letter` of the states `states`."""
    out: set[int] = set()
    for q in states:
        succs = m.trans[q].get(letter)
        if succs:
            out |= succs
    return frozenset(out)


def accepts(m: NFA, word: Iterable[str]) -> bool:
    cur = m.initial
    for a in word:
        cur = step(m, cur, a)
        if not cur:
            return False
    return bool(cur & m.finals)


def language_upto(m: NFA, max_len: int, cap: int = 200_000) -> set[tuple[str, ...]]:
    """All accepted words of length <= max_len; more than `cap` live
    prefixes fail the calling test."""
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
