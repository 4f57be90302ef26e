import random
from collections import deque
from dataclasses import replace
from fractions import Fraction as F
from typing import NamedTuple

import pytest

from conftest import fig1_ta, late_guard_ta, oera_pair_ta
from reference_enumeration import reference_enumerate_runs
from reference_languages import reference_tick_construction
from reference_nfa import accepts, language_upto, product_inclusion, spelled, step, suffix_strip
from reference_regions import clock_region_of, graph_of
from topaq.constructions import MEMO_TAGS, build_memo, build_priv, build_pub
from topaq.deciders import DELAY_LETTER
from topaq.nfa import (
    NFA,
    InclusionCapExceeded,
    _reach_table,
    check_inclusion,
    from_region_automaton,
    silent_free,
    strip_ticks_before_suffix,
    strip_trailing_letter,
)
from topaq.observers import tick_construction, unfold_free
from topaq.regions import (
    TICK_LETTER,
    RegionCapExceeded,
    ReservedLetter,
    Region,
    augment_ticks,
    build_region_automaton,
    region_state_bound,
    tick_decode,
)
from topaq.ta import ClockConstraint, Configuration, Guard, TimedWord, edge, make_ta


def renamed(m: NFA, old: str, new: str) -> NFA:
    """`m` with the letter `old` renamed `new`."""
    name = {old: new}
    return replace(m, alphabet=tuple(sorted(name.get(a, a) for a in m.alphabet)),
                   trans=[{name.get(a, a): t for a, t in d.items()} for d in m.trans])


def tick_encode(word: TimedWord) -> tuple[str, ...]:
    """Untimed tick form of an integral-timestamp word: t^k1 a1 t^k2 a2 ..."""
    out: list[str] = []
    prev = 0
    for a, stamp in word:
        if stamp.denominator != 1:
            raise ValueError("tick encoding needs integral timestamps")
        out.extend([TICK_LETTER] * (int(stamp) - prev))
        out.append(a)
        prev = int(stamp)
    return tuple(out)


def region_of(cfg: Configuration, ta) -> Region:
    return Region(cfg.location, clock_region_of(cfg.valuation, ta.max_constants()))


class TestValuationEquiv:
    def test_same_interval_same_order(self):
        assert clock_region_of({"x": F(12, 10)}, {"x": 3}) == clock_region_of({"x": F(17, 10)}, {"x": 3})

    def test_reflexive(self):
        mu = {"x": F(1), "y": F(1, 3)}
        assert clock_region_of(mu, {"x": 2, "y": 2}) == clock_region_of(mu, {"x": 2, "y": 2})

    def test_zero_vs_nonzero_fraction(self):
        assert clock_region_of({"x": F(1)}, {"x": 3}) != clock_region_of({"x": F(3, 2)}, {"x": 3})

    def test_fraction_order_matters(self):
        m = {"x": 2, "y": 2}
        assert clock_region_of({"x": F(1, 4), "y": F(1, 2)}, m) == clock_region_of({"x": F(1, 3), "y": F(2, 3)}, m)
        assert clock_region_of({"x": F(1, 4), "y": F(1, 2)}, m) != clock_region_of({"x": F(2, 3), "y": F(1, 3)}, m)

    def test_above_maximum_merged(self):
        assert clock_region_of({"x": F(5, 2)}, {"x": 2}) == clock_region_of({"x": F(7)}, {"x": 2})


class TestRegionOf:
    def test_discrete_initial_region(self, discrete_example):
        ticked = augment_ticks(discrete_example)
        r = region_of(Configuration("l0", {"x": F(0), "z": F(0)}), ticked)
        assert r.location == "l0"
        assert r.clock_region.describe(ticked.max_constants()) == "x=0, z=0"

    def test_above_maximum(self, discrete_example):
        r = region_of(Configuration("l0", {"x": F(23, 10)}), discrete_example)
        assert r.clock_region.describe(discrete_example.max_constants()) == "x>2"

    def test_equivalent_valuations_same_region(self, fig1):
        a = region_of(Configuration("l0", {"x": F(11, 10)}), fig1)
        b = region_of(Configuration("l0", {"x": F(19, 10)}), fig1)
        assert a == b


class TestBuildRegionAutomaton:
    def test_discrete_example_exact_regions(self, discrete_example):
        ra = build_region_automaton(augment_ticks(discrete_example))
        maxc = ra.max_constants
        described = {(r.location, r.clock_region.describe(maxc)) for r in ra.states}
        assert described == {
            ("l0", "x=0, z=0"),
            ("l0", "x=1, z=1"),
            ("l0", "x=1, z=0"),
            ("l0", "x=2, z=1"),
            ("l0", "x=2, z=0"),
            ("l0", "z=1, x>2"),
            ("l0", "z=0, x>2"),
            ("lf", "z=0, x>2"),
        }
        assert len(ra.finals) == 1

    def test_discrete_example_language(self, discrete_example):
        ra = build_region_automaton(augment_ticks(discrete_example))
        words = language_upto(from_region_automaton(ra), 6)
        assert words == {("t",) * k + ("a",) for k in (3, 4, 5)}

    def test_no_edges_just_delay_closure(self):
        ta = make_ta(actions=set(), locations={"l0"}, init="l0", final=set(), clocks={"x"}, edges=[])
        ra = build_region_automaton(ta)
        # x never constrained: zero region and its open successor (unbounded)
        assert len(ra.states) == 2

    def test_state_count_bound_holds(self, fig1, discrete_example):
        for ta in (fig1, fig1_ta("discrete"), augment_ticks(late_guard_ta())):
            ra = build_region_automaton(ta)
            assert len(ra.states) <= region_state_bound(ta)

    def test_cap_raises(self, fig1):
        with pytest.raises(RegionCapExceeded):
            build_region_automaton(fig1, cap=2)

    def test_final_regions_have_no_exits(self, fig1):
        ra = build_region_automaton(fig1)
        for r in ra.finals:
            assert ra.out_edges(r) == ()

    def test_soundness_runs_map_to_region_paths(self, fig1):
        ra = build_region_automaton(fig1)
        runs = reference_enumerate_runs(fig1, F(3), 4, F(1, 2), dedup=False).runs
        for run in runs[:80]:
            current = ra.initial
            for delay, e, after in run.steps:
                target = region_of(after, fig1)
                # follow delay edges until the action edge for `e` is enabled
                for _ in range(64):
                    hit = [
                        x for x in ra.out_edges(current) if x.kind == "action" and x.ta_edge == e and x.target == target
                    ]
                    if hit:
                        current = hit[0].target
                        break
                    delays = [x for x in ra.out_edges(current) if x.kind == "delay" and x.target != current]
                    assert delays, f"no path for {e} from {current}"
                    current = delays[0].target
                else:
                    pytest.fail("delay chain too long")
            assert current in ra.finals


class TestAugmentTicks:
    def test_structure(self, discrete_example):
        ticked = augment_ticks(discrete_example)
        assert "t" in ticked.actions
        z = next(iter(ticked.clocks - discrete_example.clocks))
        loops = [e for e in ticked.edges if e.action == "t"]
        assert len(loops) == len(discrete_example.locations)
        assert all(e.source == e.target and e.resets == {z} for e in loops)
        others = [e for e in ticked.edges if e.action != "t"]
        assert all(any(c.clock == z and c.cmp == "=" and c.bound == 0 for c in e.guard.conjuncts) for e in others)
        assert all(
            any(c.clock == z and c.cmp == "<=" and c.bound == 1 for c in ticked.invariant_of(l).conjuncts)
            for l in ticked.locations
        )

    def test_requires_discrete(self, fig1):
        with pytest.raises(ValueError):
            augment_ticks(fig1)

    def test_reserved_letters_raise_one_exception(self, fig1):
        """Each construction that adds a letter refuses a model that uses it,
        with one exception naming the letters."""
        ticked = replace(fig1, actions=fig1.actions | {"t"})
        armed = replace(fig1, actions=fig1.actions | {"o0", "o1"})
        cases = [
            (lambda: augment_ticks(replace(ticked, time_domain="discrete")), ("t",),
             "the model uses the letter 't', which the tick augmentation reserves"),
            (lambda: tick_construction(ticked, 1), ("t",),
             "the model uses the letter 't', which the tick construction reserves"),
            (lambda: unfold_free(armed, 2), ("o0", "o1"),
             "the model uses the letters 'o0', 'o1', which the dynamic attacker's unfolding reserves"),
        ]
        for build, letters, message in cases:
            with pytest.raises(ReservedLetter) as info:
                build()
            assert (info.value.letters, str(info.value)) == (letters, message)
        assert unfold_free(armed, 0).actions == armed.actions  # no arming letter, no clash

    def test_word_to_ticks_bijection(self):
        w = TimedWord.of(("a", 4))
        assert tick_encode(w) == ("t", "t", "t", "t", "a")
        assert tick_decode(("t", "t", "t", "t", "a")) == w

    def test_time_zero_word_has_no_leading_ticks(self):
        assert tick_encode(TimedWord.of(("a", 0))) == ("a",)

    def test_decode_ignores_trailing_ticks(self):
        assert tick_decode(("t", "a", "t", "t")) == TimedWord.of(("a", 1))


def merge_alphabets(a: NFA, b: NFA) -> tuple[str, ...]:
    return tuple(sorted({*a.alphabet, *b.alphabet}))


def naive_inclusion(a: NFA, b: NFA, alphabet=None) -> bool:
    """Reference subset-construction inclusion check."""
    alphabet = alphabet or merge_alphabets(a, b)
    start = (a.start(), b.start())
    seen = {start}
    todo = [start]
    while todo:
        sa, sb = todo.pop()
        if (sa & a.finals) and not (sb & b.finals):
            return False
        for letter in alphabet:
            nxt = (step(a, sa, letter), step(b, sb, letter))
            if nxt[0] and nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return True


def shortlex_counterexample(a: NFA, b: NFA):
    """Shortlex-least word of L(a) minus L(b), or None: breadth-first over
    pairs of subsets in alphabet order, each word held whole in the queue."""
    alphabet = merge_alphabets(a, b)
    start = (a.start(), b.start())
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (sa, sb), word = queue.popleft()
        if (sa & a.finals) and not (sb & b.finals):
            return word
        for letter in alphabet:
            nxt = (step(a, sa, letter), step(b, sb, letter))
            if nxt[0] and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (letter,)))
    return None


class Graph(NamedTuple):
    """A raw automaton with silent edges: the arguments of `silent_free`."""

    alphabet: tuple[str, ...]
    initial: frozenset[int]
    finals: frozenset[int]
    eps: list[frozenset[int]]  # per-state silent successors
    trans: list[dict[str, frozenset[int]]]  # per-state lettered successors
    final_classes: tuple[frozenset[int], ...] = ()


def naive_closure(g: Graph, s: int) -> frozenset:
    seen = {s}
    todo = [s]
    while todo:
        for t in g.eps[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return frozenset(seen)


def naive_silent_free(g: Graph) -> NFA:
    """Reference for `silent_free`: every state kept under its own number,
    each silent closure found by DFS."""
    closure = [naive_closure(g, s) for s in range(len(g.trans))]

    def close(states):
        return frozenset().union(*[closure[s] for s in states])

    return NFA(g.alphabet, len(g.trans), close(g.initial), g.finals,
               [{a: close(succs) for a, succs in d.items()} for d in g.trans], g.final_classes)


def dense_strip_ticks_before_suffix(g: Graph, suffix_letters, letter) -> NFA:
    """Reference for `strip_ticks_before_suffix` of `silent_free(*g)`: the
    same three phases on the raw graph, with the prefix-to-suffix jump going
    to every state reachable through `letter` and silent edges (found by
    DFS), not only to suffix-ready ones, converted by `silent_free`."""

    def idx(s, phase):
        return 3 * s + phase

    n = len(g.trans)
    eps, trans = [], []
    for s in range(n):
        jump = {s}
        todo = [s]
        while todo:
            q = todo.pop()
            for t in g.eps[q] | g.trans[q].get(letter, frozenset()):
                if t not in jump:
                    jump.add(t)
                    todo.append(t)
        for phase in (0, 1):
            e = {idx(j, phase) for j in g.eps[s]}
            if phase == 0:
                e |= {idx(j, 2) for j in jump}
            eps.append(frozenset(e))
            trans.append({a: frozenset(idx(j, 1 if a == letter else 0) for j in succs)
                          for a, succs in g.trans[s].items() if a not in suffix_letters})
        eps.append(frozenset(idx(j, 2) for j in g.eps[s]))
        trans.append({a: frozenset(idx(j, 2) for j in succs)
                      for a, succs in g.trans[s].items() if a in suffix_letters})
    return silent_free(g.alphabet, frozenset(idx(s, 0) for s in g.initial),
                       frozenset(idx(s, 2) for s in g.finals), eps, trans)


def random_nfa(rng, n_states=5, letters=("a", "b")) -> NFA:
    trans = []
    eps = []
    for _ in range(n_states):
        d = {}
        for a in letters:
            if rng.random() < 0.6:
                d[a] = frozenset(rng.sample(range(n_states), rng.randint(1, 2)))
        trans.append(d)
        eps.append(frozenset(rng.sample(range(n_states), 1)) if rng.random() < 0.25 else frozenset())
    finals = frozenset(s for s in range(n_states) if rng.random() < 0.35)
    return silent_free(tuple(letters), frozenset({0}), finals, eps, trans)


def cyclic_graph(rng, n_states, letters=("a", "b", "c")) -> Graph:
    """Random graph whose silent edges form cycles and multi-state strongly
    connected components: up to three silent successors per state, plus a
    silent ring through a random subset of states."""
    states = range(n_states)
    eps = [set(rng.sample(states, rng.randint(0, min(3, n_states)))) for _ in states]
    ring = rng.sample(states, rng.randint(2, n_states))
    for p, q in zip(ring, ring[1:] + ring[:1]):
        eps[p].add(q)
    trans = []
    for _ in states:
        d = {}
        for a in letters:
            if rng.random() < 0.4:
                d[a] = frozenset(rng.sample(states, rng.randint(1, 2)))
        trans.append(d)
    finals = frozenset(s for s in states if rng.random() < 0.2)
    initial = frozenset(rng.sample(states, rng.randint(1, 2)))
    return Graph(tuple(letters), initial, finals, [frozenset(e) for e in eps], trans)


def with_two_classes(rng, g: Graph) -> Graph:
    """`g` with its finals split at random into two final classes."""
    split = [rng.random() < 0.5 for _ in g.trans]
    return g._replace(final_classes=(frozenset(s for s in g.finals if split[s]),
                                     frozenset(s for s in g.finals if not split[s])))


def stop_form(g: Graph, suffix_letters) -> Graph:
    """`g` in the stop form `strip_ticks_before_suffix` takes: its suffix
    states keep only their suffix letters. The suffix states are the
    finals, the states with a suffix letter, and everything those reach by
    silent edges or suffix letters."""
    stop = set(g.finals).union(*g.final_classes)
    stop.update(s for s, d in enumerate(g.trans) if not suffix_letters.isdisjoint(d))
    todo = list(stop)
    while todo:
        s = todo.pop()
        nxt = g.eps[s].union(*[t for a, t in g.trans[s].items() if a in suffix_letters])
        todo += nxt - stop
        stop.update(nxt)
    return g._replace(trans=[{a: t for a, t in d.items() if a in suffix_letters} if s in stop else d
                             for s, d in enumerate(g.trans)])


def renumbered(m: NFA, perm: list[int]) -> NFA:
    """`m` with state s renamed perm[s]."""

    def image(states):
        return frozenset(perm[s] for s in states)

    trans: list = [None] * m.n_states
    for s, d in enumerate(m.trans):
        trans[perm[s]] = {a: image(succs) for a, succs in d.items()}
    return NFA(m.alphabet, m.n_states, image(m.initial), image(m.finals), trans,
               tuple(image(c) for c in m.final_classes), {perm[s]: word for s, word in m.endings.items()})


def strip(m: NFA, suffix_letters: frozenset[str], tick: str = TICK_LETTER) -> NFA:
    """The library's strip, or the reference's (`suffix_strip`) for an NFA
    that reads suffix letters."""
    return suffix_strip(m, suffix_letters, tick) if suffix_letters else strip_trailing_letter(m, tick)


ENDINGS = ((), ("f{1}",), ("f{2}",), ("f{1}", "f{2}"), ("f{2}", "f{1}"), ("f{1}", "f{1}"))


def labelled_views(rng, n_states: int) -> tuple[NFA, NFA]:
    """The two views of a random silent-free NFA with two final classes,
    whose finals carry random endings over letters no edge reads (in a
    third of the cases none, so every ending is the empty word)."""
    m = silent_free(*with_two_classes(rng, cyclic_graph(rng, n_states)))
    if rng.random() < 2 / 3:
        m = replace(m, endings={s: rng.choice(ENDINGS) for s in m.finals})
    return tuple(m.views())


class TestRegularInclusion:
    def make_word_nfa(self, word, alphabet):
        n = len(word) + 1
        trans = [({word[i]: frozenset({i + 1})} if i < len(word) else {}) for i in range(n)]
        return NFA(tuple(sorted(alphabet)), n, frozenset({0}), frozenset({len(word)}), trans)

    def test_equal_languages(self):
        m = self.make_word_nfa(("t", "a"), {"a", "t"})
        assert check_inclusion(m, m).holds

    def test_counterexample_is_shortest(self):
        m1 = self.make_word_nfa(("t", "t", "t", "t", "a"), {"a", "t"})
        m2 = self.make_word_nfa(("t", "t", "t", "a"), {"a", "t"})
        res = product_inclusion(m1, m2)
        assert not res.holds
        assert res.counterexample == ("t", "t", "t", "t", "a")

    def test_empty_language_included_in_anything(self):
        empty = NFA(("a",), 1, frozenset({0}), frozenset(), [{}])
        m = self.make_word_nfa(("a",), {"a"})
        assert product_inclusion(empty, m).holds

    def test_agrees_with_naive_subset_construction(self):
        rng = random.Random(1234)
        for _ in range(120):
            a, b = random_nfa(rng), random_nfa(rng)
            res = product_inclusion(a, b)
            assert res.holds == naive_inclusion(a, b)
            if not res.holds:
                assert accepts(a, res.counterexample)
                assert not accepts(b, res.counterexample)

    def test_silent_cycles_agree_with_references(self):
        rng = random.Random(20241018)
        violated = 0
        for _ in range(150):
            ga, gb = cyclic_graph(rng, rng.randint(2, 9)), cyclic_graph(rng, rng.randint(2, 9))
            for g in (ga, gb):
                states = range(len(g.trans))
                assert _reach_table(g.eps, list(states)) == [naive_closure(g, s) for s in states]
                # the silent-free states are the active ones (a letter edge or
                # final) in increasing order, and its sets are their closures
                active = [s for s in states if g.trans[s] or s in g.finals]
                m, ref = silent_free(*g), naive_silent_free(g)
                assert m.n_states == len(active)
                cur, want = m.start(), ref.start()
                for letter in rng.choices(g.alphabet, k=3):
                    assert {active[i] for i in cur} == want.intersection(active)
                    cur, want = step(m, cur, letter), step(ref, want, letter)
                assert {active[i] for i in cur} == want.intersection(active)
            a, b = silent_free(*ga), silent_free(*gb)
            res = product_inclusion(a, b)
            assert res.holds == naive_inclusion(a, b)
            assert res.counterexample == shortlex_counterexample(naive_silent_free(ga), naive_silent_free(gb))
            violated += not res.holds
        assert 20 <= violated <= 130  # both outcomes are exercised

    def test_reach_table_keeps_some_states_under_new_ids(self):
        # random graphs with cycles, sinks, self-loops and chain links; some
        # states kept, under ids in a shuffled order (id 0 included, which is
        # falsy): each row is the ids of the kept states the state reaches
        rng = random.Random(20261030)
        links = 0
        for _ in range(200):
            n = rng.randint(1, 12)
            succ = []
            for _ in range(n):
                kind = rng.random()
                if kind < 0.25:
                    succ.append([])  # a sink
                elif kind < 0.35:
                    succ.append([len(succ)])  # a self-loop only
                elif kind < 0.6:
                    succ.append([rng.randrange(n)])  # a chain link, unless it is kept
                else:
                    succ.append(rng.sample(range(n), rng.randint(1, min(3, n))))
            kept = [s for s in range(n) if rng.random() < 0.5]
            ids = [None] * n
            for k, s in enumerate(rng.sample(kept, len(kept))):
                ids[s] = k
            g = Graph((), frozenset(), frozenset(), [frozenset(d) for d in succ], [{} for _ in succ])
            closure = [naive_closure(g, s) for s in range(n)]
            rows = _reach_table(succ, ids)
            assert rows == [frozenset(ids[t] for t in closure[s] if ids[t] is not None) for s in range(n)]
            for s in range(n):
                for t in closure[s]:
                    if s in closure[t]:  # one component: one shared set
                        assert rows[s] is rows[t]
                if ids[s] is None and len(succ[s]) == 1 and s not in closure[succ[s][0]]:
                    assert rows[s] is rows[succ[s][0]]  # a chain link shares its successor's set
                    links += 1
        assert links >= 100

    def test_answers_do_not_depend_on_state_numbering(self):
        # one queue entry per macro-state, reached in shortlex order of
        # words: the verdict, the counterexample and the explored count are
        # the same under any renumbering of the states
        rng = random.Random(20261022)
        violated = 0
        for _ in range(150):
            a, b = labelled_views(rng, rng.randint(2, 9))
            res = check_inclusion(a, b)
            for _ in range(3):
                ra, rb = renumbered(replace(a, final_classes=(a.finals, b.finals)),
                                    rng.sample(range(a.n_states), a.n_states)).views()
                got = check_inclusion(ra, rb)
                assert (got.holds, got.counterexample, got.explored) == (res.holds, res.counterexample, res.explored)
            violated += not res.holds
        assert violated >= 20

    def test_labelled_views_agree_with_the_spelled_product(self):
        # the one-NFA search over endings against the product inclusion of
        # the two views with their endings spelled out, and against the
        # test's own breadth-first search: the same verdict and the same
        # shortlex-least counterexample
        rng = random.Random(20261101)
        outcomes = set()
        for _ in range(400):
            a, b = labelled_views(rng, rng.randint(2, 9))
            got = check_inclusion(a, b)
            sa, sb = spelled(a), spelled(b)
            want = product_inclusion(sa, sb)
            assert (got.holds, got.counterexample) == (want.holds, want.counterexample)
            assert got.counterexample == shortlex_counterexample(sa, sb)
            outcomes.add((bool(a.endings), got.holds))
        assert len(outcomes) == 4  # with and without endings, both verdicts

    def test_inclusion_refuses_nfas_that_are_not_views_of_one(self):
        a, b = random_nfa(random.Random(3)), random_nfa(random.Random(4))
        for x, y in ((a, b), (a, replace(a, trans=list(a.trans)))):
            with pytest.raises(ValueError, match="two views of one NFA"):
                check_inclusion(x, y)

    def test_strip_ticks_before_suffix_matches_dense_jump(self):
        rng = random.Random(20261018)
        suffixes = (frozenset(), frozenset({"f{1}"}), frozenset({"f{1}", "f{2}"}))
        nonempty = dict.fromkeys(suffixes, 0)
        for _ in range(120):
            suffix = rng.choice(suffixes)
            g = stop_form(cyclic_graph(rng, rng.randint(2, 8), letters=("a", "f{1}", "f{2}", "t")), suffix)
            m = silent_free(*g)
            # without suffix letters the library's `strip_trailing_letter`,
            # which `strip_ticks_before_suffix` names too; with them the
            # reference's strip before the suffix block
            stripped = strip(m, suffix)
            assert stripped.n_states == m.n_states
            if not suffix:
                assert strip_ticks_before_suffix(m) == stripped
            words = language_upto(stripped, 6)
            assert words == language_upto(dense_strip_ticks_before_suffix(g, suffix, "t"), 6)
            nonempty[suffix] += bool(words)
        assert min(nonempty.values()) >= 10

    @pytest.mark.parametrize("label", ["first:1", "dynamic:1", "discrete-memo", "oera-memo"])
    def test_fig1_tick_strips_match_dense_jump(self, label):
        # the strip of a conversion, read through its views, against the
        # dense reference on the raw region graph per class: the engines'
        # memo automata with two final classes and delays read as `t`
        # (discrete) or `DELAY_LETTER`, and the gadget form of each side
        # with f-letters and silent delays
        if label in ("discrete-memo", "oera-memo"):
            memo, delay = ((build_memo(fig1_ta("discrete")), TICK_LETTER) if label == "discrete-memo"
                           else (build_memo(oera_pair_ta()), DELAY_LETTER))
            ra = build_region_automaton(memo)
            cases = [(ra, tuple(frozenset(i for i in ra.final_ids if ra.location_of(i).endswith(tag))
                                for tag in MEMO_TAGS))]
        else:
            kind, n = label.split(":")
            ta, n = (fig1_ta(), int(n)) if kind == "first" else (unfold_free(fig1_ta(), int(n)), 2 * int(n))
            parts = [build_region_automaton(reference_tick_construction(part, n))
                     for part in (build_priv(ta), build_pub(ta))]
            cases, delay = [(ra, (ra.final_ids,)) for ra in parts], None
        for ra, classes in cases:
            m = from_region_automaton(ra, classes, delay)
            suffix = frozenset(a for a in m.alphabet if a.startswith("f{"))
            tick = TICK_LETTER if delay is None else delay
            views = strip(m, suffix, tick).views()
            for view, finals in zip(views, classes):
                letters, initial, _, eps, trans = graph_of(ra, delay)
                g = Graph(letters, initial, finals, eps, trans)
                words = language_upto(view, 7)
                assert words and words == language_upto(dense_strip_ticks_before_suffix(g, suffix, tick), 7)

    @pytest.mark.parametrize("trans", [
        [{"a": frozenset({1})}, {"a": frozenset({1})}],
        [{"a": frozenset({1}), "f{1}": frozenset({1})}, {}],
        [{"f{1}": frozenset({1})}, {"a": frozenset({0})}],
    ], ids=["final-reads-a-letter", "reads-f-and-a", "f-into-a-reader"])
    def test_strip_refuses_an_nfa_not_in_stop_form(self, trans):
        # the reference's stop form; the library's strip refuses only a final
        # that reads a letter
        m = NFA(("a", "f{1}"), 2, frozenset({0}), frozenset({1}), trans)
        with pytest.raises(ValueError, match="stop form"):
            suffix_strip(m, frozenset({"f{1}"}))
        if trans[1]:
            with pytest.raises(ValueError, match="state 1 is final and reads a letter"):
                strip_trailing_letter(m)

    @pytest.mark.parametrize("subject", ["fig1-first:2", "discrete-memo"])
    def test_strip_erases_the_tick_letter_it_is_given(self, subject):
        # the views of the first:2 tick construction of each side of fig1
        # (silent delays, `t` ticks) and of a discrete memo automaton (delays
        # read as `t`) whose private runs wait two ticks after their letter,
        # with `t` renamed: stripping on the new letter gives the renamed
        # language
        if subject == "fig1-first:2":
            parts = [build_region_automaton(reference_tick_construction(part, 2))
                     for part in (build_priv(fig1_ta()), build_pub(fig1_ta()))]
            cases = [from_region_automaton(ra, (ra.final_ids,)) for ra in parts]
        else:
            late_exit = make_ta(actions={"a"}, locations={"l0", "l1", "lf"}, init="l0", private={"l1"},
                                final={"lf"}, clocks={"x"}, time_domain="discrete",
                                edges=[edge("l0", "l1", "a", resets={"x"}),
                                       edge("l1", "lf", None, Guard.of(ClockConstraint("x", "=", 2)))])
            ra = build_region_automaton(build_memo(late_exit))
            classes = tuple(frozenset(i for i in ra.final_ids if ra.location_of(i).endswith(tag))
                            for tag in MEMO_TAGS)
            cases = [from_region_automaton(ra, classes, TICK_LETTER)]
        for m in cases:
            suffix = frozenset(a for a in m.alphabet if a.startswith("f{"))
            expected = strip(m, suffix).views()
            for new in ("w", ""):  # "" is falsy: a test `tick or ...` would miss it
                stripped = strip(renamed(m, TICK_LETTER, new), suffix, new).views()
                for got, want in zip(stripped, (renamed(v, TICK_LETTER, new) for v in expected)):
                    assert product_inclusion(got, want).holds and product_inclusion(want, got).holds
                # stripping on the old letter erases nothing
                unstripped = strip(renamed(m, TICK_LETTER, new), suffix).views()
                assert any(not product_inclusion(got, renamed(want, TICK_LETTER, new)).holds
                           for got, want in zip(unstripped, expected))

    def test_final_class_views_match_separate_strips(self):
        # one strip of an NFA with two final classes, read through its views,
        # against one strip per class: same languages and same inclusion
        # answers, although the views share one set of transitions
        rng = random.Random(20261019)
        differ = 0
        for _ in range(120):
            suffix = rng.choice((frozenset(), frozenset({"f{1}"})))
            g = with_two_classes(rng, stop_form(cyclic_graph(rng, rng.randint(2, 8), letters=("a", "f{1}", "t")),
                                                suffix))
            m = silent_free(*g)
            stripped = strip(m, suffix)
            assert stripped.n_states == m.n_states
            views = stripped.views()
            alone = [strip(silent_free(*g._replace(finals=c, final_classes=())), suffix) for c in g.final_classes]
            for view, single in zip(views, alone):
                assert language_upto(view, 6) == language_upto(single, 6)
            for x, y in ((0, 1), (1, 0)):
                got, want = check_inclusion(views[x], views[y]), product_inclusion(alone[x], alone[y])
                assert (got.holds, got.counterexample) == (want.holds, want.counterexample)
                # the views share one memo: check it against the test reference too
                assert got.counterexample == shortlex_counterexample(views[x], views[y])
            differ += language_upto(views[0], 6) != language_upto(views[1], 6)
        assert differ >= 30

    def test_silent_free_keeps_every_class_language(self):
        rng = random.Random(20261020)
        differ = 0
        for _ in range(150):
            g = with_two_classes(rng, cyclic_graph(rng, rng.randint(2, 9)))
            free, ref = silent_free(*g), naive_silent_free(g)
            active = [s for s in range(len(g.trans)) if g.trans[s] or s in g.finals]
            assert free.n_states == len(active)
            views, free_views = ref.views(), free.views()
            for x, y in zip(views, free_views):
                assert product_inclusion(x, y).holds and product_inclusion(y, x).holds
                assert language_upto(x, 6) == language_upto(y, 6)
            # the shortlex-least counterexample is a property of the languages
            got, want = check_inclusion(free_views[0], free_views[1]), check_inclusion(views[0], views[1])
            assert (got.holds, got.counterexample) == (want.holds, want.counterexample)
            differ += not want.holds
        assert differ >= 30

    def test_explored_is_what_the_cap_counts(self):
        rng = random.Random(99)
        for _ in range(60):
            a, b = labelled_views(rng, rng.randint(2, 7))
            res = check_inclusion(a, b)
            assert check_inclusion(a, b, pair_cap=res.explored) == res
            if res.explored:
                with pytest.raises(InclusionCapExceeded) as refused:
                    check_inclusion(a, b, pair_cap=res.explored - 1)
                assert (refused.value.cap, refused.value.explored) == (res.explored - 1, res.explored)

    def test_region_automaton_level_inclusion(self, discrete_example):
        from topaq.ta import ClockConstraint, Guard, edge as mk_edge

        tight = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", final={"lf"}, clocks={"x"},
            edges=[mk_edge("l0", "lf", "a", Guard.of(ClockConstraint("x", ">", 2), ClockConstraint("x", "<=", 3)))],
            time_domain="discrete", name="tight",
        )
        ra_loose = build_region_automaton(augment_ticks(discrete_example))
        ra_tight = build_region_automaton(augment_ticks(tight))
        res = product_inclusion(from_region_automaton(ra_tight), from_region_automaton(ra_loose))
        assert res.holds
        res = product_inclusion(from_region_automaton(ra_loose), from_region_automaton(ra_tight))
        assert not res.holds
        assert res.counterexample == ("t", "t", "t", "t", "a")

    def test_counterexample_lexicographic_tiebreak(self):
        # against the view of an empty final class
        def against_empty(m):
            return check_inclusion(*replace(m, final_classes=(m.finals, frozenset())).views())

        # both `ab` and `aa` distinguish; `aa` sorts first
        a = NFA(("a", "b"), 3, frozenset({0}), frozenset({2}),
                [{"a": frozenset({1})}, {"a": frozenset({2}), "b": frozenset({2})}, {}])
        assert against_empty(a).counterexample == ("a", "a")
        # `xb` and `xa` reach the final from two states of one set: `xa`
        a = NFA(("a", "b", "x"), 4, frozenset({0}), frozenset({3}),
                [{"x": frozenset({1, 2})}, {"b": frozenset({3})}, {"a": frozenset({3})}, {}])
        assert against_empty(a).counterexample == ("x", "a")
        # with endings: `a` + `f{2}` is shorter than `x` + `f{1} f{1}`, and
        # `x` + `f{1}` sorts before `x` + `f{2}`
        a = replace(a, finals=frozenset({1, 2, 3}), trans=[{"x": frozenset({1, 2}), "a": frozenset({3})}, {}, {}, {}],
                    endings={1: ("f{1}", "f{1}"), 2: ("f{2}",), 3: ("f{2}",)})
        assert against_empty(a).counterexample == ("a", "f{2}")
        a = replace(a, endings={1: ("f{2}",), 2: ("f{1}",), 3: ("f{1}", "f{1}")})
        assert against_empty(a).counterexample == ("x", "f{1}")
