import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import fig1_ta, random_oera, trace_words
from reference_languages import reference_bounded, reference_tick_construction, reference_unfolded_tick_construction
from reference_nfa import language_upto
from reference_regions import graph_of
from topaq.constructions import MEMO_TAGS, build_memo, build_priv, build_pub, relax_finals
from topaq.model import parse_model, print_model
from topaq.nfa import NFA, _reach_table, from_region_automaton, strip_ticks_before_suffix
from topaq.observers import (
    Dynamic,
    FirstN,
    ObservationCapExceeded,
    Static,
    normalize_sequence,
    observation_clocks,
    project,
    tick_construction,
    tick_regions,
    unfold_first_n,
    unfold_free,
    unfold_tau,
)
from topaq.regions import build_region_automaton
from topaq.ta import ClockConstraint, Guard, TimedWord, edge, enumerate_runs, make_ta
from topaq.words import ticked_word


def tw(*pairs):
    return TimedWord.of(*pairs)


LONG = tw(
    ("a", F(12, 10)), ("b", F(15, 10)), ("c", 2), ("d", F(23, 10)),
    ("a", F(25, 10)), ("c", F(25, 10)), ("c", 4), ("d", 5),
)


def unfold_first_n_of_fig1(n):
    return unfold_first_n(fig1_ta(), n)


def unfold_free_of_fig1(n):
    return unfold_free(fig1_ta(), n)


@pytest.mark.parametrize("kind", [FirstN, Dynamic, unfold_first_n_of_fig1, unfold_free_of_fig1])
@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, -1, "2", None])
def test_observation_count_must_be_a_nonnegative_int(kind, n):
    # a bool would be decided as 0 or 1 observations; a float failed deep
    # inside the unfolding with a TypeError
    with pytest.raises(ValueError, match="nonnegative integer"):
        kind(n)


class TestProject:
    def test_first_n_prefix(self):
        w = tw(("a", F(12, 10)), ("b", F(14, 10)), ("b", F(15, 10)), ("a", F(21, 10)))
        assert project(w, FirstN(2)) == tw(("a", F(12, 10)), ("b", F(14, 10)))
        assert project(w, FirstN(0)) == TimedWord(())
        assert project(w, FirstN(9)) == w

    def test_static_worked_example(self):
        got = project(LONG, Static((F(0), F(5, 2), F(3))))
        assert got == tw(("a", F(12, 10)), ("a", F(25, 10)), ("c", 4))

    def test_static_second_worked_example(self):
        got = project(LONG, Static((F(7, 10), F(1), F(6))))
        assert got == tw(("a", F(12, 10)))

    def test_static_boundary_letter_is_observed(self):
        # a letter exactly at the armed switch time is kept by that slot
        w = tw(("a", F(1, 2)), ("b", 1))
        assert project(w, Static((F(0), F(1, 2)))) == w

    def test_dynamic_has_no_projection(self):
        with pytest.raises(TypeError):
            project(LONG, Dynamic(2))

    def test_first_n_is_prefix_operator(self):
        rng = random.Random(3)
        for _ in range(50):
            stamps = sorted(F(rng.randint(0, 8), 2) for _ in range(rng.randint(0, 5)))
            w = TimedWord(tuple(("a", t) for t in stamps))
            n = rng.randint(0, 4)
            p = project(w, FirstN(n))
            assert len(p) <= n
            assert w.letters[: len(p)] == p.letters

    def test_static_observed_after_switch_on(self):
        rng = random.Random(4)
        for _ in range(50):
            stamps = sorted(F(rng.randint(0, 8), 2) for _ in range(rng.randint(0, 5)))
            w = TimedWord(tuple(("a", t) for t in stamps))
            tau = tuple(sorted(F(rng.randint(0, 6), 2) for _ in range(2)))
            p = project(w, Static(tau))
            assert len(p) <= len(tau)
            for i, (_, t) in enumerate(p):
                assert t >= tau[i] or any(t >= s for s in tau[: i + 1])


class TestUnfoldFirstN:
    def test_traces_are_projections(self, fig1):
        p, q, c1 = trace_words(fig1, F(3), 5, F(1, 2))
        assert c1
        u = unfold_first_n(fig1, 1)
        pu, qu, c2 = trace_words(u, F(3), 6, F(1, 2))
        assert c2
        assert pu | qu == {project(w, FirstN(1)) for w in p | q}
        assert pu == {project(w, FirstN(1)) for w in p}

    def test_one_observation_no_two_letter_words(self, fig1):
        u = unfold_first_n(fig1, 1)
        pu, qu, _ = trace_words(u, F(4), 6, F(1, 2))
        assert all(len(w) <= 1 for w in pu | qu)
        assert tw(("a", 3)) in pu | qu
        assert tw(("b", 3)) in pu | qu

    def test_zero_observations(self, fig1):
        u = unfold_first_n(fig1, 0)
        pu, qu, _ = trace_words(u, F(3), 5, F(1, 2))
        assert pu | qu == {TimedWord(())}

    def test_copies_and_privates(self, fig1):
        u = unfold_first_n(fig1, 2)
        assert len(u.locations) == 3 * len(fig1.locations)
        assert {f"l2~{i}" for i in range(3)} <= u.private


class TestTickConstruction:
    # the gadget form of the tests' reference, whose plain region build
    # spells out each ticked word to its end
    def stripped(self, part, n, maxlen=9):
        tk = reference_tick_construction(part, n)
        m = from_region_automaton(build_region_automaton(tk))
        suffix = frozenset(a for a in m.alphabet if a.startswith("f{"))
        return language_upto(strip_ticks_before_suffix(m, suffix), maxlen)

    def test_private_side_language(self, fig1):
        p, _, complete = trace_words(fig1, F(3), 5, F(1, 2))
        assert complete
        expected = {ticked_word(project(w, FirstN(1)), 1).tokens() for w in p}
        assert self.stripped(build_priv(fig1), 1) == expected

    def test_public_side_language(self, fig1):
        _, q, _ = trace_words(fig1, F(3), 5, F(1, 2))
        expected = {ticked_word(project(w, FirstN(1)), 1).tokens() for w in q}
        assert self.stripped(build_pub(fig1), 1) == expected

    def test_contains_paper_witness_encoding(self, fig1):
        words = self.stripped(build_priv(fig1), 1)
        assert ticked_word(tw(("b", F(3, 2))), 1).tokens() == ("t", "b", "f{0}", "f{1}")
        assert ("t", "b", "f{0}", "f{1}") in words

    def test_empty_language_gives_empty_tick_language(self):
        from topaq.ta import make_ta

        dead = make_ta(actions={"a"}, locations={"s"}, init="s", final=set(), clocks=set(), edges=[])
        assert self.stripped(dead, 1, 6) == set()

    def test_observation_cap(self, fig1):
        with pytest.raises(ObservationCapExceeded):
            tick_construction(fig1, 9)

    @pytest.mark.parametrize("n", [9, 10**9])
    def test_observation_cap_comes_before_any_build(self, fig1, n, monkeypatch):
        # the engine and the export refuse too many observations before they
        # name a clock or build a region: a region cap of 1 would stop any
        # build, and a billion observation clocks would not fit in memory
        import topaq.observers as observers
        from topaq.deciders import check_bounded

        monkeypatch.setattr(observers, "fresh_name", lambda *args: pytest.fail("named a clock"))
        for call in (lambda: check_bounded(fig1, FirstN(n), "weak", cap=1), lambda: tick_regions(fig1, n, cap=1)):
            with pytest.raises(ObservationCapExceeded):
                call()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gadget_emits_the_suffix_read_off_the_ranks(self, fig1, n):
        # every region where a run of the gadget form enters an unfolding
        # final (a final region of the engine's cut form) leads through the
        # gadget to exactly one word, and that word is the suffix the engine
        # reads off the observation clocks' ranks
        from topaq.deciders import _suffix_word

        memo = build_memo(fig1)
        ticked = reference_tick_construction(memo, n)
        ra = build_region_automaton(ticked)
        column = {x: j for j, x in enumerate(sorted(ticked.clocks))}
        observed = [column[f"tk{i}"] for i in range(n + 1)]
        at_final = [ra.location_of(i).rsplit("~", 1)[0] in memo.final for i in range(ra.n_states)]
        entries = {0} if at_final[0] else set()
        for i in range(ra.n_states):
            entries.update(j for j in map(ra.edge_target.__getitem__, ra.edge_ids(i))
                           if at_final[j] and ra.location_of(j) != ra.location_of(i))
        assert len(entries) > 10
        for r in entries:
            ends, todo, seen = set(), [(r, ())], set()
            while todo:
                i, word = todo.pop()
                if i in ra.final_ids:
                    ends.add(word)
                for k in ra.edge_ids(i):
                    a = ra.edge(k).label
                    assert a is None or a.startswith("f{")
                    step = (ra.edge_target[k], word if a is None else word + (a,))
                    if step not in seen:
                        seen.add(step)
                        todo.append(step)
            (word,) = ends
            assert word == _suffix_word(tuple(ra.clock_codes(r)[1][j] for j in observed))

    def test_decode_and_replay(self, fig1):
        # every stripped word decodes to a projected trace accepted by the part
        from topaq.deciders import accepts_word, decode_ticked_tokens

        part = build_priv(fig1)
        for tokens in sorted(self.stripped(part, 1)):
            word = decode_ticked_tokens(tokens)
            assert accepts_word(unfold_first_n(part, 1), word)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stop_form_builds_only_live_regions(fig1, n):
    """The bounded engine's stop form, built as the engine builds it with
    its observation clocks wrapping around, has no transient region: every
    observation clock is at code 0 or 1 (0 or a fraction), a delay edge is
    a tick (-2) exactly when the tick clock goes from code 1 to code 0, and
    every region reaches a final region."""
    memo = build_memo(fig1)
    ticked, obs = tick_construction(memo, n), observation_clocks(memo, n)
    ra = tick_regions(memo, n)
    clocks = sorted(ticked.clocks)
    observed = [clocks.index(c) for c in obs]
    tick = observed[0]
    for i in range(ra.n_states):
        codes = ra.clock_codes(i)[0]
        assert all(codes[j] in (0, 1) for j in observed)
        for k in ra.edge_ids(i):
            if ra.edge(k).kind == "delay":
                wraps = (codes[tick], ra.clock_codes(ra.edge_target[k])[0][tick]) == (1, 0)
                assert (ra._edge_ta[k] == -2) == wraps
    assert -2 in ra._edge_ta and "t" in ra.letters
    succ = [[ra.edge_target[k] for k in ra.edge_ids(i)] for i in range(ra.n_states)]
    reach = _reach_table(succ, [i if i in ra.final_ids else None for i in range(ra.n_states)])
    assert all(reach)


def test_stop_form_has_no_loops_or_invariants(fig1):
    # the wrap-around observation clocks replace the tick loops, the silent
    # reset loops and the invariants that kept each observation clock at most 1
    memo = build_memo(fig1)
    ticked, obs = tick_construction(memo, 3), observation_clocks(memo, 3)
    for e in ticked.edges:
        # a model edge: an observed one resets one observation clock
        assert e.action != "t"
        assert len(e.resets & set(obs)) == (e.action is not None)
        assert not any(c.clock in obs for c in e.guard.conjuncts)
    assert not any(c.clock in obs for g in ticked.invariant.values() for c in g.conjuncts)


@pytest.mark.parametrize("mode", ["weak", "full"])
def test_observation_clocks_avoid_a_model_clock(fig1, mode):
    """fig1 with its clock renamed `tk0`: the observation clocks are renamed
    away from it, the tick construction adds exactly them, tick clock first
    (the one no observation resets), and the bounded answers and witnesses
    are fig1's."""
    from topaq.deciders import check_bounded

    clash = parse_model(re.sub(r"\bx\b", "tk0", print_model(fig1)))
    assert clash.clocks == {"tk0"}
    assert observation_clocks(clash, 3) == ("tk00", "tk1", "tk2", "tk3")
    for n in range(4):
        obs = observation_clocks(clash, n)
        ticked = tick_construction(clash, n)
        assert ticked.clocks - clash.clocks == set(obs)
        assert {c for e in ticked.edges for c in e.resets} & set(obs) == set(obs[1:])
    for sel in [FirstN(1), FirstN(2), FirstN(3), Dynamic(1), Static((F(0), F(1, 2), F(3, 2)))]:
        assert check_bounded(clash, sel, mode) == check_bounded(fig1, sel, mode), sel


@pytest.mark.parametrize("sel, endings",
                         [(FirstN(0), 1), (FirstN(1), 6), (FirstN(2), 18), (FirstN(3), 76), (FirstN(4), 375),
                          (Dynamic(1), 18), (Static((F(0), F(1, 2), F(3, 2))), 78)],
                         ids=[f"first:{n}" for n in range(5)] + ["dynamic:1", "static:0,1/2,3/2"])
def test_stop_rule_builds_one_state_per_ending(fig1, sel, endings):
    """The bounded engine's build gives each ending of a final region one
    state: the final states' endings are pairwise distinct, each names a
    class, and they are the endings of the final regions of the build
    without the rule; their number is pinned. Every state still reaches a
    final one."""
    from topaq.deciders import _attacker, _first_n_stop, dense_time

    automaton, n, _, _ = _attacker(fig1, sel)
    memo = build_memo(dense_time(automaton))
    stop = _first_n_stop(memo, n, None)
    ra = tick_regions(memo, n, None, stop)
    assert set(ra.endings) == ra.final_ids
    assert len(set(ra.endings.values())) == len(ra.endings) == endings
    assert all(classes for _, classes in ra.endings.values())
    plain = tick_regions(memo, n)
    assert set(ra.endings.values()) == {stop(plain.location_of(i), *plain.clock_codes(i))
                                        for i in plain.final_ids} - {None}
    succ = [[ra.edge_target[k] for k in ra.edge_ids(i)] for i in range(ra.n_states)]
    assert all(_reach_table(succ, [i if i in ra.final_ids else None for i in range(ra.n_states)]))


MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.ta"))
BOUNDED = [FirstN(n) for n in range(5)] + [Dynamic(1), Dynamic(2), Static((F(0), F(1, 2), F(3, 2)))]


def assert_builds_the_unfolding(ta, sel):
    """The bounded engine's region build of `sel`'s reduction of `ta`
    (`tick_regions` with its stop rule) is the same build on the whole
    unfolding, with the observation clocks and the final-relaxed memo
    automaton's constants: the same states, edge arrays and endings. An
    edge is compared by the automaton edge it takes, as the whole unfolding
    numbers the unreached edges too. Its model clocks take the constants of
    the class table's build (`deciders._reachable_classes`), so the stop
    rule's keys are that table's."""
    from topaq.deciders import _attacker, _first_n_stop, dense_time

    automaton, n, _, _ = _attacker(ta, sel)
    memo = build_memo(dense_time(automaton))
    stop = _first_n_stop(memo, n, None)
    whole = reference_unfolded_tick_construction(memo, n)
    assert tick_construction(memo, n).locations <= whole.locations
    got = tick_regions(memo, n, None, stop)
    want = build_region_automaton(whole, None, stop, wrap=observation_clocks(memo, n),
                                  constants=relax_finals(memo).max_constants())
    assert got.edge_target == want.edge_target
    assert got._edge_start == want._edge_start
    assert ([k if k < 0 else got._code.edges[k] for k in got._edge_ta]
            == [k if k < 0 else want._code.edges[k] for k in want._edge_ta])
    assert got.endings == want.endings
    assert ({x: got.max_constants[x] for x in memo.clocks}
            == build_region_automaton(relax_finals(memo)).max_constants)
    assert ([(got.location_of(i), got.clock_codes(i)) for i in range(got.n_states)]
            == [(want.location_of(i), want.clock_codes(i)) for i in range(want.n_states)])
    return got


@pytest.mark.parametrize("sel", BOUNDED, ids=str)
@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_tick_construction_builds_as_the_whole_unfolding(path, sel):
    assert_builds_the_unfolding(parse_model(path.read_text()), sel)


def naive_conversion(ra, final_classes) -> NFA:
    """Reference for `from_region_automaton(ra, final_classes)` of a build
    with a stop rule, read from the decoded edges (`graph_of`). Each final
    state of the classes reads its ending's word through a chain of fresh
    states, keyed by the rest of the word and the classes and numbered after
    the regions in order of first use: final states in increasing order,
    each chain from its accepting end. Then every silent closure is found by
    DFS, and the states with a letter edge or final are renumbered in
    increasing order."""
    letters, initial, finals, eps, trans = graph_of(ra)
    letters, eps, trans = set(letters), list(eps), list(trans)
    if ra.endings:
        chain = {}  # (rest of a word, classes) -> state
        heads = {}  # final state -> (word, classes)
        for i in sorted(set().union(*final_classes)):
            word, classes = heads[i] = ra.endings[i][0], tuple(k for k, c in enumerate(final_classes) if i in c)
            letters.update(word)
            for size in range(len(word)):
                chain.setdefault((word[len(word) - size:], classes), ra.n_states + len(chain))
        ends = [set() for _ in final_classes]
        for (rest, classes), s in chain.items():
            eps.append(frozenset())
            trans.append({rest[0]: frozenset([chain[rest[1:], classes]])} if rest else {})
            for k in classes if not rest else ():
                ends[k].add(s)
        for i, (word, classes) in heads.items():
            trans[i] = {word[0]: frozenset([chain[word[1:], classes]])}
        final_classes = tuple(map(frozenset, ends))
        finals = frozenset().union(*final_classes)

    def closure(s):
        seen, todo = {s}, [s]
        while todo:
            for t in eps[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    every = finals.union(*final_classes)
    active = [s for s, d in enumerate(trans) if d or s in every]
    new = {s: k for k, s in enumerate(active)}

    def close(states):
        return frozenset(new[q] for s in states for q in closure(s) if q in new)

    moves = [{a: close(t) for a, t in trans[s].items() if close(t)} for s in active]
    return NFA(tuple(sorted(letters)), len(active), close(initial), frozenset(map(new.get, finals)), moves,
               tuple(frozenset(map(new.get, c)) for c in final_classes))


def naive_strip(m: NFA, suffix_letters, tick: str = "t") -> NFA:
    """Reference for `strip_ticks_before_suffix(m, suffix_letters, tick)` on
    an NFA in stop form: every tick run found by DFS; a non-tick letter
    enters a state that reads a non-suffix letter and the stop states that
    are final or read a letter and that the state reaches by ticks, a tick
    enters only a state that reads a non-suffix letter, and a suffix letter
    keeps its targets."""
    finals = m.finals.union(*m.final_classes)
    stop = set(finals) | {s for s, d in enumerate(m.trans) if not suffix_letters.isdisjoint(d)}
    todo = list(stop)
    while todo:
        for t in set().union(*m.trans[todo.pop()].values()) - stop:
            stop.add(t)
            todo.append(t)
    reading = {s for s, d in enumerate(m.trans) if d and s not in stop}

    def enter(s):
        seen, todo = {s}, [s]
        while todo:
            for t in m.trans[todo.pop()].get(tick, ()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return {q for q in seen if q in stop and (q in finals or m.trans[q])} | ({s} & reading)

    def reroute(a, succs):
        if a in suffix_letters:
            return succs
        return frozenset(succs & reading if a == tick else set().union(*map(enter, succs)))

    trans = [{a: reroute(a, t) for a, t in d.items() if reroute(a, t)} for d in m.trans]
    return replace(m, initial=frozenset().union(*map(enter, m.initial)), trans=trans)


@pytest.mark.parametrize("sel", BOUNDED, ids=str)
@pytest.mark.parametrize("path", MODELS, ids=lambda p: p.stem)
def test_conversion_and_strip_are_the_naive_ones(path, sel):
    """The bounded engine's conversion and strip of its stop-rule build
    (`deciders._ticked_language`) are, state for state, the naive
    conversion and the naive strip of the naive NFA."""
    from topaq.deciders import _attacker, _first_n_stop, dense_time

    automaton, n, _, _ = _attacker(parse_model(path.read_text()), sel)
    memo = build_memo(dense_time(automaton))
    ra = tick_regions(memo, n, None, _first_n_stop(memo, n, None))
    classes = tuple(frozenset(i for i, (_, found) in ra.endings.items() if k in found)
                    for k in range(len(MEMO_TAGS)))
    suffix = frozenset().union(*(word for word, _ in ra.endings.values()))
    m, ref = from_region_automaton(ra, classes), naive_conversion(ra, classes)
    assert m == ref
    assert strip_ticks_before_suffix(m, suffix) == naive_strip(ref, suffix)


@pytest.mark.parametrize("n", [1, 2])
def test_oera_corpus_builds_as_the_whole_unfolding(n):
    rng = random.Random(20261020)
    for _ in range(40):
        assert_builds_the_unfolding(random_oera(rng), FirstN(n))


@pytest.mark.parametrize("mode", ["weak", "full"])
def test_constants_of_the_unreached_unfolding(mode):
    """x's largest constant, 5, sits only on an edge after the first
    observation, which the tick construction of first:1 does not reach: its
    own constant for x is 3. The build takes 5 (`tick_regions`), as the
    whole unfolding does, so the stop rule finds every region it looks up
    and the answer is the reference's."""
    from topaq.deciders import check_bounded

    ta = make_ta(actions={"a", "b"}, locations={"l0", "l1", "l2", "l3"}, init="l0", clocks={"x"},
                 private={"l2"}, final={"l2", "l3"},
                 edges=[edge("l0", "l1", "a"), edge("l1", "l2", "b", Guard.of(ClockConstraint("x", ">", 5))),
                        edge("l0", "l3", "a", Guard.of(ClockConstraint("x", "<", 3)))])
    memo = build_memo(ta)
    assert tick_construction(memo, 1).max_constants()["x"] == 3
    assert tick_regions(memo, 1).max_constants["x"] == 5
    ra = assert_builds_the_unfolding(ta, FirstN(1))
    assert ra.max_constants["x"] == 5
    verdict = check_bounded(ta, FirstN(1), mode)
    assert verdict == reference_bounded(ta, FirstN(1), mode)
    assert (verdict.holds, verdict.side, verdict.witness) == (False, "priv-not-pub", tw(("a", 3)))


class TestNormalizeSequence:
    def test_value_examples(self):
        assert normalize_sequence((F(3, 10), F(17, 10), F(23, 10))) == (F(1, 3), F(5, 3), F(7, 3))
        assert normalize_sequence((F(0), F(1), F(2))) == (F(0), F(1), F(2))
        assert normalize_sequence((F(1, 2), F(1, 2))) == (F(1, 2), F(1, 2))

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(60):
            tau = tuple(sorted(F(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 4))))
            once = normalize_sequence(tau)
            assert normalize_sequence(once) == once

    def test_equivalent_sequences_normalize_identically(self):
        from topaq.words import seq_equiv

        rng = random.Random(6)
        for _ in range(80):
            tau = tuple(sorted(F(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 3))))
            sig = tuple(sorted(F(rng.randint(0, 6), rng.randint(1, 5)) for _ in range(len(tau))))
            if seq_equiv(tau, sig):
                assert normalize_sequence(tau) == normalize_sequence(sig)
            assert seq_equiv(tau, normalize_sequence(tau))


class TestUnfoldTau:
    def test_figure_shape(self, loop_deadline):
        tau = normalize_sequence((F(0), F(1, 2)))
        u = unfold_tau(loop_deadline, tau)
        assert len(u.locations) == 10  # 2N+1 copies of 2 locations
        assert sum(1 for l in u.locations if l.endswith("~off2")) == 2

    def test_empty_sequence(self, loop_deadline):
        u = unfold_tau(loop_deadline, ())
        p, q, _ = trace_words(u, F(2), 4, F(1, 2))
        assert p | q == {TimedWord(())}

    def test_traces_equal_scaled_projections(self, loop_deadline):
        rng = random.Random(11)
        for _ in range(6):
            raw = tuple(sorted(F(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(rng.randint(1, 2))))
            tau = normalize_sequence(raw)
            factor = len({t - t.numerator // t.denominator for t in tau} - {F(0)}) + 1
            p, q, c1 = trace_words(loop_deadline, F(2), 4, F(1, 2))
            proj = {project(w, Static(tau)).scaled(F(factor)) for w in p | q}
            pu, qu, c2 = trace_words(unfold_tau(loop_deadline, tau), F(2) * factor, 6, F(factor, 2))
            assert c1 and c2
            assert pu | qu == proj

    def test_requires_simple_sequence(self, loop_deadline):
        with pytest.raises(ValueError):
            unfold_tau(loop_deadline, (F(1, 3),))


# the exact unfoldings of loop_deadline, pinned
FIRST_N_LOOP_DEADLINE = """\
ta loop-deadline~unfold1 {
  time: dense;
  clocks: x;
  actions: a, b;
  init: li~0;
  final: lf~0, lf~1;
  loc lf~0 { }
  loc lf~1 { }
  loc li~0 { }
  loc li~1 { }
  edge li~0 -> li~1 { act: a; }
  edge li~0 -> lf~1 { when: x = 1; act: b; }
  edge li~1 -> li~1 { act: eps; }
  edge li~1 -> lf~1 { when: x = 1; act: eps; }
}
"""

TAU_LOOP_DEADLINE = """\
ta loop-deadline~tau2 {
  time: dense;
  clocks: x, zobs;
  actions: a, b;
  init: li~off0;
  final: lf~off0, lf~off1, lf~off2, lf~on0, lf~on1;
  loc lf~off0 { inv: zobs <= 0; }
  loc lf~off1 { inv: zobs <= 1; }
  loc lf~off2 { }
  loc lf~on0 { }
  loc lf~on1 { }
  loc li~off0 { inv: zobs <= 0; }
  loc li~off1 { inv: zobs <= 1; }
  loc li~off2 { }
  loc li~on0 { }
  loc li~on1 { }
  edge li~off0 -> li~off0 { when: zobs < 0; act: eps; }
  edge li~off1 -> li~off1 { when: zobs < 1; act: eps; }
  edge li~off2 -> li~off2 { act: eps; }
  edge li~on0 -> li~off1 { when: zobs <= 1; act: a; }
  edge li~on0 -> li~off2 { when: zobs > 1; act: a; }
  edge li~on1 -> li~off2 { act: a; }
  edge li~off0 -> lf~off0 { when: x = 2 && zobs < 0; act: eps; }
  edge li~off1 -> lf~off1 { when: x = 2 && zobs < 1; act: eps; }
  edge li~off2 -> lf~off2 { when: x = 2; act: eps; }
  edge li~on0 -> lf~off1 { when: x = 2 && zobs <= 1; act: b; }
  edge li~on0 -> lf~off2 { when: x = 2 && zobs > 1; act: b; }
  edge li~on1 -> lf~off2 { when: x = 2; act: b; }
  edge lf~off0 -> lf~on0 { when: zobs = 0; act: eps; }
  edge lf~off1 -> lf~on1 { when: zobs = 1; act: eps; }
  edge li~off0 -> li~on0 { when: zobs = 0; act: eps; }
  edge li~off1 -> li~on1 { when: zobs = 1; act: eps; }
}
"""

FREE_LOOP_DEADLINE = """\
ta loop-deadline~free1 {
  time: dense;
  clocks: x;
  actions: a, b, o0;
  init: li~off0;
  final: lf~off0, lf~off1, lf~on0;
  loc lf~off0 { }
  loc lf~off1 { }
  loc lf~on0 { }
  loc li~off0 { }
  loc li~off1 { }
  loc li~on0 { }
  edge li~off0 -> li~off0 { act: eps; }
  edge li~off1 -> li~off1 { act: eps; }
  edge li~on0 -> li~off1 { act: a; }
  edge li~off0 -> lf~off0 { when: x = 1; act: eps; }
  edge li~off1 -> lf~off1 { when: x = 1; act: eps; }
  edge li~on0 -> lf~off1 { when: x = 1; act: b; }
  edge lf~off0 -> lf~on0 { act: o0; }
  edge li~off0 -> li~on0 { act: o0; }
}
"""


def test_unfoldings_pinned(loop_deadline):
    assert print_model(unfold_first_n(loop_deadline, 1)) == FIRST_N_LOOP_DEADLINE
    assert print_model(unfold_tau(loop_deadline, (F(0), F(1, 2)))) == TAU_LOOP_DEADLINE
    assert print_model(unfold_free(loop_deadline, 1)) == FREE_LOOP_DEADLINE


UNFOLD_CHILD = """\
from fractions import Fraction
from conftest import loop_and_deadline_ta
from topaq.model import print_model
from topaq.observers import unfold_free, unfold_tau
ta = loop_and_deadline_ta()
print(print_model(unfold_tau(ta, (Fraction(0), Fraction(1, 2)))) + print_model(unfold_free(ta, 2)))
"""


def test_unfoldings_do_not_follow_the_hash_seed():
    """The switch-slot unfoldings add their per-location edges in sorted
    location order, so two interpreters with different string hash seeds
    print the same automaton."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))
    outputs = [subprocess.run([sys.executable, "-c", UNFOLD_CHILD], env=dict(os.environ, PYTHONPATH=path,
                              PYTHONHASHSEED=seed), capture_output=True, text=True, timeout=60, check=True).stdout
               for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith(TAU_LOOP_DEADLINE)


class TestUnfoldFree:
    def test_figure_shape(self, loop_deadline):
        u = unfold_free(loop_deadline, 2)
        assert len(u.locations) == 10
        assert u.actions == {"a", "b", "o0", "o1"}
        arming = [e for e in u.edges if e.action and e.action.startswith("o")]
        assert all(e.guard.conjuncts == () for e in arming)

    def test_zero_budget(self, loop_deadline):
        u = unfold_free(loop_deadline, 0)
        p, q, _ = trace_words(u, F(2), 4, F(1, 2))
        assert p | q == {TimedWord(())}

    def test_observable_letters_capped_at_two_n(self, loop_deadline):
        u = unfold_free(loop_deadline, 2)
        res = enumerate_runs(u, F(2), 7, F(1, 2))
        assert res.complete
        lengths = {len(trace) for trace, _ in res.runs}
        assert max(lengths) == 4
