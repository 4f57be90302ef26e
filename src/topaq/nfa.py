"""Finite-automaton machinery over region automata.

Everything downstream of the region construction is plain NFA work on
states numbered 0..n-1, with state sets as frozensets:

- Closed state sets hold active states only: a state is active if it has a
  letter edge or is final. The future of a closed set (its letter steps and
  whether it accepts) depends only on its active members, so dropping the
  others changes no language, verdict or counterexample; it only makes the
  sets, and every macro-state and product pair built from them, smaller.
- One reachability routine, `_reach_table`, gives every state the kept
  part of its reflexive-transitive successor set by SCC condensation. It
  serves the silent closure of an NFA (keeping active states), the
  suffix jump of `strip_ticks_before_suffix` (keeping suffix-ready states)
  and the rows of `eps_closure_matrix`.
- `silent_free` eliminates silent moves: its NFA has the same languages
  on the active states only, with each letter edge landing on a closed set.
- One tick-stripping construction, `strip_ticks_before_suffix`, erases the
  tick run before the suffix block (the f-letters of the bounded
  attacker); `strip_trailing_letter`, for discrete time, is its case
  without suffix letters. It runs on `silent_free` of its input, so it
  doubles only the active states, and its suffix phase is built only for
  the states that phase can reach (without suffix letters it has none).
  Its only silent edges are its jumps, one step deep, so it writes its own
  closure table and no reachability pass runs over its result.
- Closed letter posts are built per state on first use (`NFA.post`) and
  cached on the NFA, so only states a query reaches pay for them.
- One NFA can carry several final classes (`final_classes`), such as the
  private and public languages of the memo automaton. `NFA.views` gives one
  NFA per class; the views share the transitions, the closure table and
  the post cache, whose active states are those final in any class.
- Language inclusion runs an antichain-pruned product against the
  determinized complement; the macro-states of the complement are interned
  once, and the antichain compares them as integer bitsets.
- Bitset-based boolean reachability matrices (rows as integers) for the
  witness verifier complete the module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence

from .regions import RegionAutomaton, TICK_LETTER


class InclusionCapExceeded(Exception):
    pass


class _Tables:
    """Caches filled on first use, shared by the views of one NFA."""

    __slots__ = ("closures", "posts")

    def __init__(self):
        self.closures: Optional[list[frozenset[int]]] = None
        self.posts: Optional[list[Optional[dict[str, list[int]]]]] = None


@dataclass
class NFA:
    alphabet: tuple[str, ...]  # sorted, silent moves excluded
    n_states: int
    initial: frozenset[int]
    finals: frozenset[int]
    eps: list[frozenset[int]]  # per-state silent successors
    trans: list[dict[str, frozenset[int]]]  # per-state lettered successors
    # the final sets of the views (`views`); empty for an NFA of one language
    final_classes: tuple[frozenset[int], ...] = ()
    _tables: _Tables = field(default_factory=_Tables, init=False, repr=False, compare=False)

    def closures(self) -> list[frozenset[int]]:
        """Per-state silent closure, active states only (states of one
        silent cycle share one set). A state final in any final class is
        active, so every view computes the same table."""
        t = self._tables
        if t.closures is None:
            finals = self.finals.union(*self.final_classes)
            t.closures = _reach_table(
                self.eps, [bool(d) or s in finals for s, d in enumerate(self.trans)])
        return t.closures

    def views(self) -> list["NFA"]:
        """One NFA per final class, with that class as its final set. The
        views share this NFA's transitions, closure table and post cache: a
        state final only in another view is one more member of the closed
        sets, with no letter edge and not final here, so it changes no
        language."""
        out = []
        for finals in self.final_classes:
            view = NFA(self.alphabet, self.n_states, self.initial, finals, self.eps, self.trans,
                       self.final_classes)
            view._tables = self._tables
            out.append(view)
        return out

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        """The active states silently reachable from `states` (each state
        included if it is active itself). Every closed set the NFA hands out
        (`start`, `step`, `post`) is of this form."""
        table = self.closures()
        out: set[int] = set()
        for s in states:
            if s not in out:  # else s is active and closure(s) is already inside `out`
                out |= table[s]
        return frozenset(out)

    def post(self, s: int) -> dict[str, list[int]]:
        """Closed letter successors of state `s`: per letter, the sorted
        closure of the letter-successors of closure(s). Built on first use."""
        posts = self._tables.posts
        if posts is None:
            posts = self._tables.posts = [None] * self.n_states
        p = posts[s]
        if p is None:
            moves: dict[str, set[int]] = {}
            for q in self.closures()[s]:
                for a, succs in self.trans[q].items():
                    moves.setdefault(a, set()).update(succs)
            p = posts[s] = {a: sorted(self.closure(raw)) for a, raw in moves.items()}
        return p

    def step(self, states: frozenset[int], letter: str) -> frozenset[int]:
        """Closed successors on `letter` of a closed state set (one returned
        by `start` or `step`)."""
        raw: set[int] = set()
        for q in states:
            succs = self.trans[q].get(letter)
            if succs:
                raw |= succs
        return self.closure(raw)

    def start(self) -> frozenset[int]:
        return self.closure(self.initial)

    def accepts(self, word: Iterable[str]) -> bool:
        cur = self.start()
        for a in word:
            if a not in self.trans_alphabet():
                return False
            cur = self.step(cur, a)
            if not cur:
                return False
        return bool(cur & self.finals)

    def trans_alphabet(self) -> frozenset[str]:
        return frozenset(self.alphabet)

    def language_upto(self, max_len: int, cap: int = 200_000) -> set[tuple[str, ...]]:
        """All accepted words of length <= max_len (for small-case oracles)."""
        out = set()
        frontier = {(): self.start()}
        count = 0
        for _ in range(max_len + 1):
            nxt = {}
            for word, states in sorted(frontier.items()):
                if states & self.finals:
                    out.add(word)
                if len(word) == max_len:
                    continue
                for a in self.alphabet:
                    s2 = self.step(states, a)
                    if s2:
                        nxt[word + (a,)] = s2
                        count += 1
                        if count > cap:
                            raise InclusionCapExceeded("language enumeration cap exceeded")
            frontier = nxt
        return out


def _reach_table(succ: Sequence[Collection[int]], keep: Sequence[bool]) -> list[frozenset[int]]:
    """Kept part of the reflexive-transitive successor set of every state
    of the graph `succ` (state -> successor states): the states `v` with
    `keep[v]` that the state reaches.

    Tarjan's algorithm finishes strongly connected components in reverse
    topological order, so a component's set is its kept members plus the
    finished sets of the components its edges enter. The members of one
    component share one frozenset, and so does a chain link (a state alone
    in its component, not kept, with one successor) with its successor.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    reach: list[Optional[frozenset[int]]] = [None] * n  # None until finished
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
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
                if stack[-1] == v and not keep[v] and len(succ[v]) == 1:
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
                out = {m for m in members if keep[m]}
                for m in members:
                    for w in succ[m]:
                        r = reach[w]  # None: w is a member of this component
                        # w in out: w is kept and reached, so r is already inside
                        if r is not None and w not in out:
                            out |= r
                done = frozenset(out)
                for m in members:
                    reach[m] = done
    return reach


def from_region_automaton(ra: RegionAutomaton) -> NFA:
    """NFA view of a region automaton, state i being region i: delay edges
    and ε-labelled action edges are silent, and the alphabet is the set of
    letters on real edges. The builder emits these arrays; this wraps them."""
    return NFA(
        alphabet=ra.letters,
        n_states=ra.n_states,
        initial=frozenset([0]) if ra.n_states else frozenset(),
        finals=ra.final_ids,
        eps=ra.eps,
        trans=ra.trans,
    )


def merge_alphabets(*nfas: NFA) -> tuple[str, ...]:
    letters = set()
    for m in nfas:
        letters |= set(m.alphabet)
    return tuple(sorted(letters))


@dataclass(frozen=True)
class InclusionResult:
    holds: bool
    counterexample: Optional[tuple[str, ...]] = None
    explored: int = 0  # product successors counted toward `pair_cap`


def check_inclusion(a: NFA, b: NFA, alphabet: Optional[tuple[str, ...]] = None,
                    pair_cap: int = 2_000_000) -> InclusionResult:
    """Does L(a) ⊆ L(b)? On failure returns the shortlex-least
    counterexample: shortest, ties broken lexicographically by alphabet
    order.

    Breadth-first, in alphabet order, over the on-the-fly product of the
    states of `a` with the determinized complement of `b`. Each state of
    `a` reads its successors from `a.post`, in sorted order. Each macro-state
    of `b` (a closed frozenset) gets an id the first time it appears, with
    its integer bitset stored once; `b` steps are memoized per
    (id, letter). Antichain subsumption ((s, T) is dominated by a recorded
    (s, T') with T' ⊆ T, tested on the bitsets as T' & T == T') prunes the
    search without changing the verdict or the counterexample, because a
    dominated pair is always reached after the pair that dominates it.
    The pairs are over active states only (closed sets hold no others, see
    the module docstring), and every product successor counts toward
    `pair_cap`.
    """
    alphabet = alphabet or merge_alphabets(a, b)
    ids: dict[frozenset[int], int] = {}  # b macro-state -> id
    macro: list[frozenset[int]] = []  # id -> b macro-state
    bits: list[int] = []  # id -> its bitset
    rejecting: list[bool] = []  # id -> holds no final of b
    b_step: dict[tuple[int, str], int] = {}

    def intern(t: frozenset[int]) -> int:
        i = ids.get(t)
        if i is None:
            i = ids[t] = len(macro)
            macro.append(t)
            bits.append(_bitset(t))
            rejecting.append(t.isdisjoint(b.finals))
        return i

    # antichain store: per a-state, the bitsets of the minimal b macro-states seen
    seen: dict[int, list[int]] = {}

    def admit(s: int, tb: int) -> bool:
        """Record (s, tb) unless a recorded pair dominates it."""
        bucket = seen.get(s)
        if bucket is None:
            seen[s] = [tb]
            return True
        for prev in bucket:
            if prev & tb == prev:
                return False
        bucket[:] = [prev for prev in bucket if prev & tb != tb]
        bucket.append(tb)
        return True

    queue = deque()
    b_start = intern(b.start())
    for s in sorted(a.start()):
        if admit(s, bits[b_start]):
            queue.append((s, b_start, ()))
    explored = 0
    while queue:
        s, t, word = queue.popleft()
        if s in a.finals and rejecting[t]:
            return InclusionResult(False, word, explored)
        post = a.post(s)
        for letter in alphabet:
            succs_a = post.get(letter)
            if not succs_a:
                continue
            key = (t, letter)
            t2 = b_step.get(key)
            if t2 is None:
                t2 = b_step[key] = intern(b.step(macro[t], letter))
            tb = bits[t2]
            for s2 in succs_a:
                explored += 1
                if explored > pair_cap:
                    raise InclusionCapExceeded("inclusion search cap exceeded")
                if admit(s2, tb):
                    queue.append((s2, t2, word + (letter,)))
    return InclusionResult(True, None, explored)


def regular_inclusion(ra1: RegionAutomaton, ra2: RegionAutomaton, pair_cap: int = 2_000_000):
    """Untimed language inclusion of two region automata over the same
    alphabet (silent edges closed away). On failure the result carries a
    shortest counterexample word, ties broken lexicographically.
    """
    if ra1.alphabet != ra2.alphabet:
        raise ValueError("region automata must share an alphabet")
    a = from_region_automaton(ra1)
    b = from_region_automaton(ra2)
    return check_inclusion(a, b, merge_alphabets(a, b), pair_cap=pair_cap)


def strip_trailing_letter(m: NFA, letter: str = TICK_LETTER) -> NFA:
    """Language image under removal of a maximal trailing `letter` run: the
    case of `strip_ticks_before_suffix` without suffix letters."""
    return strip_ticks_before_suffix(m, frozenset(), letter)


def silent_free(m: NFA) -> NFA:
    """The same-language NFA without silent edges whose states are the
    active states of `m` (a letter edge, or final in any class), numbered in
    increasing order of their `m` ids. A letter edge s -a-> t of `m` becomes
    s -a-> closure(t), the initial set is `m.start()`, and the finals and
    every final class keep their (active) members. Every set the result
    enters is a closed set of `m`, which holds the letter edges of all the
    states `m` reaches silently, so each language is unchanged."""
    table = m.closures()
    finals = m.finals.union(*m.final_classes)
    active = [s for s, d in enumerate(m.trans) if d or s in finals]
    new = dict(zip(active, range(len(active))))
    rows: dict[int, frozenset[int]] = {}  # id of a row of `table` -> the row renumbered
    for row in table:
        if id(row) not in rows:
            rows[id(row)] = frozenset([new[q] for q in row])
    closure = [rows[id(row)] for row in table]
    trans = []
    for s in active:
        moves = {}
        for a, succs in m.trans[s].items():
            t = closure[next(iter(succs))] if len(succs) == 1 else frozenset().union(*[closure[j] for j in succs])
            if t:
                moves[a] = t
        trans.append(moves)
    return NFA(
        alphabet=m.alphabet,
        n_states=len(active),
        initial=frozenset().union(*[closure[s] for s in m.initial]),
        finals=frozenset(new[s] for s in m.finals),
        eps=[frozenset()] * len(active),
        trans=trans,
        final_classes=tuple(frozenset(new[s] for s in c) for c in m.final_classes),
    )


def strip_ticks_before_suffix(m: NFA, suffix_letters: frozenset[str], letter: str = TICK_LETTER) -> NFA:
    """Language image under removal of the maximal `letter` run separating
    the last non-suffix letter from the suffix block.

    The construction runs on `silent_free(m)`, whose n states are the active
    states of `m`; below, state s means the s-th of them. Two prefix phases
    read tick and action letters (never suffix letters) and track whether
    the last letter read was a tick; a silent jump, allowed only when it was
    not, follows any path of `letter` edges into the suffix phase, which
    admits suffix letters only. The jump must swallow the whole separating
    run, because a leftover tick before the suffix block has nowhere to be
    read. It lands only on states with a suffix letter: the suffix phase of
    any other state it could reach has no letter to read, and a prefix
    state whose jump can reach a final is final itself (the empty suffix
    block).

    State numbering: 2s is state s in the prefix phase after a non-tick
    letter (or before any letter), 2s + 1 after a tick. The suffix phase
    exists only for the states it can reach, the states with a suffix
    letter and what they reach by suffix-letter moves; they are numbered
    from 2n on, in increasing order for the states with a suffix letter,
    then in the order a worklist finds the rest. So without suffix letters
    the result has 2n states.

    The jumps are the result's only silent edges, and a jump lands on a
    state with a letter edge, so every closure row is known here: the state
    itself if it is active, plus its jump landings. The result carries that
    table (`NFA.closures`), and no reachability pass runs over it.

    The final classes of `m` (`NFA.final_classes`) carry over: one jump
    table, which lands on the finals of every class, gives each class its
    image, and the result's views are the stripped languages of `m`'s
    views. A jump onto a final of another class is a dead end in a view.
    """
    m = silent_free(m)
    n = m.n_states
    finals = m.finals.union(*m.final_classes)
    ready = [not suffix_letters.isdisjoint(d) for d in m.trans]
    jump = _reach_table([d.get(letter, ()) for d in m.trans], [r or s in finals for s, r in enumerate(ready)])
    suffix = {s: 2 * n + k for k, s in enumerate([s for s in range(n) if ready[s]])}  # state -> suffix-phase id
    todo = list(suffix)
    while todo:
        s = todo.pop()
        for a, succs in m.trans[s].items():
            if a in suffix_letters:
                for j in succs:
                    if j not in suffix:
                        suffix[j] = 2 * n + len(suffix)
                        todo.append(j)

    def image(finals: frozenset[int]) -> frozenset[int]:
        return frozenset([2 * s for s in range(n) if not finals.isdisjoint(jump[s])]
                         + [suffix[s] for s in finals if s in suffix])

    stripped_finals = image(finals)
    empty = frozenset()
    eps = []
    trans: list[dict[str, frozenset[int]]] = []
    closures = []
    for s in range(n):
        moves = {}  # both prefix phases read the same letters into the same targets
        for a, succs in m.trans[s].items():
            if a not in suffix_letters:
                tick = a == letter
                moves[a] = frozenset([2 * j + tick for j in succs])
        landings = frozenset([suffix[j] for j in jump[s] if ready[j]])
        eps += (landings, empty)
        trans += (moves, moves)
        closures.append(landings | {2 * s} if moves or 2 * s in stripped_finals else landings)
        closures.append(frozenset([2 * s + 1]) if moves else empty)
    for s in suffix:  # in id order
        moves = {a: frozenset(suffix[j] for j in succs) for a, succs in m.trans[s].items() if a in suffix_letters}
        eps.append(empty)
        trans.append(moves)
        closures.append(frozenset([suffix[s]]) if moves or s in finals else empty)

    out = NFA(
        alphabet=m.alphabet,
        n_states=len(eps),
        initial=frozenset(2 * s for s in m.initial),
        finals=stripped_finals,
        eps=eps,
        trans=trans,
        final_classes=tuple(image(c) for c in m.final_classes),
    )
    out._tables.closures = closures
    return out


# ---------------------------------------------------------------------------
# Boolean reachability matrices (rows as integer bitsets)


def eps_closure_matrix(m: NFA) -> list[int]:
    """Rows of the silent closure, active states only (enough to sandwich
    letter matrices and test acceptance)."""
    return [_bitset(c) for c in m.closures()]


def letter_matrix(m: NFA, letter: str) -> list[int]:
    return [_bitset(m.trans[s].get(letter, frozenset())) for s in range(m.n_states)]


def mat_mul(a: list[int], b: list[int]) -> list[int]:
    out = []
    for row in a:
        acc = 0
        r = row
        while r:
            j = (r & -r).bit_length() - 1
            acc |= b[j]
            r &= r - 1
        out.append(acc)
    return out


def mat_pow(m: list[int], k: int) -> list[int]:
    """m^k by repeated squaring."""
    n = len(m)
    result = [1 << i for i in range(n)]  # identity
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def vec_mul(vec: int, m: list[int]) -> int:
    acc = 0
    v = vec
    while v:
        j = (v & -v).bit_length() - 1
        acc |= m[j]
        v &= v - 1
    return acc


def _bitset(states: Iterable[int]) -> int:
    """Integer with bit s set for each s in `states`, built through a byte
    buffer so the cost is linear in the set and its highest state."""
    states = list(states)
    buf = bytearray((max(states, default=-1) >> 3) + 1)
    for s in states:
        buf[s >> 3] |= 1 << (s & 7)
    return int.from_bytes(buf, "little")
