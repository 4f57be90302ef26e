import warnings
from fractions import Fraction as F
from pathlib import Path

from conftest import late_guard_ta, single_word_ta, trace_words
from topaq.constructions import (
    build_memo,
    build_priv,
    build_pub,
    embed_gadget,
    inclusion_gadget,
    product,
    prune_final_exits,
    swap_gadget,
)
from topaq.model import parse_model, print_model
from topaq.ta import TimedWord, make_ta, edge, Guard, ClockConstraint


def all_traces(ta, horizon=F(3), steps=6, g=F(1, 2)):
    p, q, complete = trace_words(ta, horizon, steps, g)
    assert complete
    return p, q


def window(words, n):
    return {w for w in words if len(w) <= n}


class TestBuildPub:
    def test_fig1_shape(self, fig1):
        pub = build_pub(fig1)
        assert pub.locations == {"l0", "l1"}
        assert pub.final == {"l1"}
        assert pub.private == frozenset()
        assert len(pub.edges) == 2
        assert {e.action for e in pub.edges} == {"a", "b"}
        assert pub.invariant_of("l0") == fig1.invariant_of("l0")

    def test_no_private_is_isomorphic_copy(self, fig1):
        plain = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            final=fig1.final, clocks=fig1.clocks, invariant=dict(fig1.invariant),
            edges=fig1.edges,
        )
        pub = build_pub(plain)
        assert pub.locations == plain.locations
        assert pub.edges == plain.edges

    def test_private_init_yields_empty_language(self, fig1):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", private={"l0"},
            final={"lf"}, clocks=set(), edges=[edge("l0", "lf", "a")],
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pub = build_pub(ta)
        assert any("private" in str(w.message) for w in caught)
        _, q = all_traces(pub, F(2), 3, F(1))
        assert q == set()

    def test_language_is_public_traces(self, fig1):
        _, q_ta = all_traces(fig1)
        p_pub, q_pub = all_traces(build_pub(fig1))
        assert p_pub == set()
        assert q_pub == q_ta

    def test_only_path_through_private_gives_empty_language(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lp", "lf"}, init="l0", private={"lp"},
            final={"lf"}, clocks=set(),
            edges=[edge("l0", "lp", "a"), edge("lp", "lf", "a")],
        )
        p, q = all_traces(build_pub(ta), F(2), 4, F(1))
        assert p == q == set()


class TestBuildPriv:
    def test_fig1_shape(self, fig1):
        pv = build_priv(fig1)
        assert len(pv.locations) == 6
        assert pv.init == "l0~nS"
        assert pv.final == {"l1~S"}
        assert pv.private == {"l2~S"}
        # the silent entry into the private location is redirected
        assert any(e.source == "l0~nS" and e.target == "l2~S" for e in pv.edges)
        assert not any(e.target == "l2~nS" for e in pv.edges)

    def test_language_is_private_traces(self, fig1):
        p_ta, _ = all_traces(fig1)
        p_pv, q_pv = all_traces(build_priv(fig1))
        assert p_pv | q_pv == p_ta

    def test_union_covers_whole_language(self, fig1):
        p_ta, q_ta = all_traces(fig1)
        p_pv, q_pv = all_traces(build_priv(fig1))
        p_pb, q_pb = all_traces(build_pub(fig1))
        assert (p_pv | q_pv) | (p_pb | q_pb) == p_ta | q_ta

    def test_no_private_gives_empty_language(self, fig1):
        plain = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            final=fig1.final, clocks=fig1.clocks, invariant=dict(fig1.invariant),
            edges=fig1.edges,
        )
        p, q = all_traces(build_priv(plain))
        assert p == q == set()

    def test_private_init_starts_in_visited_copy(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", private={"l0"},
            final={"lf"}, clocks=set(), edges=[edge("l0", "lf", "a")],
        )
        pv = build_priv(ta)
        assert pv.init == "l0~S"
        p, q = all_traces(pv, F(1), 2, F(1))
        assert p == {TimedWord.of(("a", 0)), TimedWord.of(("a", 1))}

    def test_intermediate_finals_still_end_runs(self):
        # l0 is final: the only run is empty and public; the continuation
        # through the private location must not be counted
        ta = make_ta(
            actions={"a"}, locations={"l0", "lp"}, init="l0", private={"lp"},
            final={"l0", "lp"}, clocks=set(), edges=[edge("l0", "lp", "a")],
        )
        p, q = all_traces(build_priv(ta), F(1), 2, F(1))
        assert p == q == set()


class TestBuildMemo:
    def test_both_final_copies_present(self, fig1):
        memo = build_memo(fig1)
        assert memo.final == {"l1~S", "l1~nS"}
        assert memo.private == {"l2~S"}
        assert len(memo.locations) == 6

    def test_language_equals_original(self, fig1):
        p_ta, q_ta = all_traces(fig1)
        p_m, q_m = all_traces(build_memo(fig1))
        assert p_m == p_ta
        assert q_m == q_ta

    def test_no_private_behaves_as_original(self, fig1):
        plain = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            final=fig1.final, clocks=fig1.clocks, invariant=dict(fig1.invariant),
            edges=fig1.edges,
        )
        p_m, q_m = all_traces(build_memo(plain))
        _, q_ta = all_traces(plain)
        assert p_m == set()
        assert q_m == q_ta


class TestProduct:
    def test_priv_pub_intersection_reaches_final(self, fig1):
        prod = product(build_priv(fig1), build_pub(fig1))
        p, q = all_traces(prod, F(3), 8, F(1, 2))
        assert TimedWord.of(("b", F(3, 2))) in q

    def test_self_product_language_preserved(self, fig1):
        prod = product(fig1, fig1)
        p1, q1 = all_traces(fig1)
        pp, qq = all_traces(prod, F(3), 10, F(1, 2))
        lang = {w for w in p1 | q1 if len(w) <= 3}
        assert {w for w in pp | qq if len(w) <= 3} == lang

    def test_product_with_empty_is_empty(self, fig1):
        dead = make_ta(actions={"a", "b"}, locations={"s"}, init="s", final=set(), clocks=set(), edges=[])
        p, q = all_traces(product(fig1, dead), F(3), 6, F(1, 2))
        assert p == q == set()

    def test_idle_after_one_side_accepts(self):
        # left accepts (a,1) with a tight invariant; right needs a at 1 and
        # silent cleanup afterwards: the pair is still in the intersection
        left = make_ta(
            actions={"a"}, locations={"s", "f"}, init="s", final={"f"}, clocks={"c"},
            invariant={"f": Guard.of(ClockConstraint("c", "<=", 1))},
            edges=[edge("s", "f", "a", Guard.of(ClockConstraint("c", "=", 1)))],
        )
        right = make_ta(
            actions={"a"}, locations={"s", "m", "f"}, init="s", final={"f"}, clocks={"c"},
            edges=[
                edge("s", "m", "a", Guard.of(ClockConstraint("c", "=", 1))),
                edge("m", "f", None, Guard.of(ClockConstraint("c", "=", 2))),
            ],
        )
        p, q = all_traces(product(left, right), F(3), 5, F(1))
        assert TimedWord.of(("a", 1)) in q


class TestGadgets:
    def test_swap_exchanges_trace_sets(self, fig1):
        p, q = trace_words(fig1, F(3), 6, F(1, 2))[:2]
        pb, qb, complete = trace_words(swap_gadget(fig1), F(3), 7, F(1, 2))
        assert complete
        assert qb == p
        assert window(pb, 5) == window(q, 5)

    def test_swap_old_public_trace_is_private(self, fig1):
        pb, _, _ = trace_words(swap_gadget(fig1), F(3), 7, F(1, 2))
        assert TimedWord.of(("b", F(5, 2))) in pb

    def test_swap_on_empty_language(self):
        dead = make_ta(actions={"a"}, locations={"s"}, init="s", final=set(), clocks=set(), edges=[])
        pb, qb, _ = trace_words(swap_gadget(dead), F(2), 4, F(1))
        assert pb == qb == set()

    def test_embed_identities(self, fig1):
        p, q = trace_words(fig1, F(3), 6, F(1, 2))[:2]
        pe, qe, complete = trace_words(embed_gadget(fig1), F(3), 8, F(1, 2))
        assert complete
        assert window(qe, 5) == window(q, 5)
        assert window(pe, 5) == window(p | q, 5)

    def test_embed_without_private(self, fig1):
        plain = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            final=fig1.final, clocks=fig1.clocks, invariant=dict(fig1.invariant),
            edges=fig1.edges,
        )
        _, q = trace_words(plain, F(3), 6, F(1, 2))[:2]
        pe, qe, _ = trace_words(embed_gadget(plain), F(3), 8, F(1, 2))
        assert window(pe, 5) == window(qe, 5) == window(q, 5)

    def test_inclusion_gadget_splits_languages(self):
        a = single_word_ta("a", 1)
        b = single_word_ta("a", 2)
        gad = inclusion_gadget(a, b)
        p, q, _ = trace_words(gad, F(3), 4, F(1))
        assert p == {TimedWord.of(("a", 1))}
        assert q == {TimedWord.of(("a", 2))}

    def test_gadgets_add_urgency_clock_when_clockless(self):
        ta = make_ta(
            actions={"a"}, locations={"s", "p", "f"}, init="s", private={"p"},
            final={"f"}, clocks=set(), edges=[edge("s", "p", "a"), edge("p", "f", "a")],
        )
        assert swap_gadget(ta).clocks == {"u"}
        assert embed_gadget(ta).clocks == {"u"}


# the exact gadgets, pinned: the part order, the urgency on both entry
# locations and the public entries before the private one
SWAP_LATE_GUARD = """\
ta late-guard_swap {
  time: discrete;
  clocks: x;
  actions: a;
  init: init';
  private: priv';
  final: lf~S;
  loc init' { inv: x = 0; }
  loc l0 { }
  loc l0~S { }
  loc l0~nS { }
  loc lf~S { }
  loc lf~nS { }
  loc priv' { inv: x = 0; }
  edge init' -> l0~nS { act: eps; }
  edge init' -> priv' { act: eps; }
  edge priv' -> l0 { act: eps; }
  edge l0~S -> lf~S { when: x > 2; act: a; }
  edge l0~nS -> lf~S { when: x > 2; act: a; }
}
"""

EMBED_LATE_GUARD = """\
ta late-guard_embed {
  time: discrete;
  clocks: x;
  actions: a;
  init: init';
  private: priv';
  final: lf~S;
  loc init' { inv: x = 0; }
  loc l0 { }
  loc l0~S { }
  loc l0~nS { }
  loc lf~S { }
  loc lf~nS { }
  loc priv' { inv: x = 0; }
  edge init' -> l0 { act: eps; }
  edge init' -> priv' { act: eps; }
  edge priv' -> l0~nS { act: eps; }
  edge priv' -> l0 { act: eps; }
  edge l0~S -> lf~S { when: x > 2; act: a; }
  edge l0~nS -> lf~S { when: x > 2; act: a; }
}
"""

INCLUSION_A1_A2 = """\
ta incl(one-a1,one-a2) {
  time: dense;
  clocks: c;
  actions: a;
  init: init';
  private: priv';
  final: f~A, f~B;
  loc f~A { }
  loc f~B { }
  loc init' { inv: c = 0; }
  loc priv' { inv: c = 0; }
  loc s~A { }
  loc s~B { }
  edge init' -> s~B { act: eps; }
  edge init' -> priv' { act: eps; }
  edge priv' -> s~A { act: eps; }
  edge s~A -> f~A { when: c = 1; act: a; }
  edge s~B -> f~B { when: c = 2; act: a; }
}
"""


def test_gadgets_pinned():
    assert print_model(swap_gadget(late_guard_ta())) == SWAP_LATE_GUARD
    assert print_model(embed_gadget(late_guard_ta())) == EMBED_LATE_GUARD
    assert print_model(inclusion_gadget(single_word_ta("a", 1), single_word_ta("a", 2))) == INCLUSION_A1_A2


def test_memo_and_priv_pinned():
    """The memo and private-runs automata of every model in `models/`,
    printed: the copy names, the edge order (visited copy, not-yet copy,
    then the entries into the private set) and the finals of each."""
    root = Path(__file__).resolve().parent
    prints = []
    for path in sorted((root.parent / "models").glob("*.ta")):
        ta = parse_model(path.read_text())
        prints += [print_model(build_memo(ta)), print_model(build_priv(ta))]
    assert "".join(prints) == (root / "memo_priv_pinned.txt").read_text()


class TestPruneFinalExits:
    def test_drops_dead_edges_only(self, fig1):
        extended = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            private=fig1.private, final=fig1.final, clocks=fig1.clocks,
            invariant=dict(fig1.invariant),
            edges=fig1.edges + (edge("l1", "l0", "a"),),
        )
        pruned = prune_final_exits(extended)
        assert pruned.edges == fig1.edges
        assert prune_final_exits(fig1) is fig1
