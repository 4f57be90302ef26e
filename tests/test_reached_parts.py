"""The weak/full engines build the memo automaton of the part of a model
its initial location reaches (`deciders._reached_memo`), and the existence
check the location pairs of the product its initial pair reaches
(`constructions.product`). Both build their regions with the constants of
the whole construction. Against the whole constructions: the same
constants, the same numbered region states and edges, and the same
verdicts, witnesses, sides and notes. Class membership and the reserved
letters are still read off the whole model, so a trimmed edge never turns a
refusal into an answer."""

import random
import warnings
from fractions import Fraction

import pytest

from conftest import plant_shared_trace, random_discrete_ta, random_oera
from topaq import deciders
from topaq.constructions import _product, _public_runs, build_memo, build_priv, relax_finals, rename_clocks
from topaq.deciders import UndecidableClass, _reached_memo, check_exists, check_opacity, is_oera
from topaq.regions import ReservedLetter, build_region_automaton, concretize_region_path, fresh_name
from topaq.ta import EPSILON, ClockConstraint, Edge, Guard, TimedAutomaton, TimedWord, edge, make_ta


def whole_product(ta1: TimedAutomaton, ta2: TimedAutomaton) -> TimedAutomaton:
    """The product on every location pair, its edges in the order of the
    factors' edges: the silent edges of `ta1`, those of `ta2`, then the
    synchronized pairs."""
    taken = set(ta1.clocks) | set(ta2.clocks)
    mapping = {}
    for x in sorted(ta2.clocks):
        mapping[x] = fresh_name(x + "'", taken)
        taken.add(mapping[x])
    a, b = relax_finals(ta1), relax_finals(rename_clocks(ta2, mapping))
    name = lambda l1, l2: f"({l1}|{l2})"
    edges = [Edge(name(e.source, l2), e.guard, EPSILON, e.resets, name(e.target, l2))
             for e in a.edges if e.action is EPSILON for l2 in sorted(b.locations)]
    edges += [Edge(name(l1, e.source), e.guard, EPSILON, e.resets, name(l1, e.target))
              for e in b.edges if e.action is EPSILON for l1 in sorted(a.locations)]
    edges += [Edge(name(e1.source, e2.source), e1.guard.conjoin(e2.guard), e1.action, e1.resets | e2.resets,
                   name(e1.target, e2.target))
              for e1 in a.edges if e1.action in a.actions & b.actions for e2 in b.edges if e2.action == e1.action]
    return TimedAutomaton(
        actions=a.actions | b.actions,
        locations=frozenset(name(l1, l2) for l1 in a.locations for l2 in b.locations),
        init=name(a.init, b.init),
        private=frozenset(),
        final=frozenset(name(l1, l2) for l1 in a.final for l2 in b.final),
        clocks=a.clocks | b.clocks,
        invariant={name(l1, l2): a.invariant_of(l1).conjoin(b.invariant_of(l2))
                   for l1 in a.locations for l2 in b.locations},
        edges=tuple(edges),
        time_domain=ta1.time_domain,
        name=f"({ta1.name}x{ta2.name})",
    )


def whole_memo(ta):
    memo = build_memo(ta)
    return memo, memo.max_constants()


def whole_pair(ta1, ta2):
    prod = whole_product(ta1, ta2)
    return prod, prod.max_constants()


def far_discrete_ta():
    """Discrete time: the largest constant of `x`, 7, sits only on an edge
    out of `u`, which the initial location never reaches."""
    x = lambda cmp, bound: Guard.of(ClockConstraint("x", cmp, bound))
    return make_ta(
        actions={"a", "b"}, locations={"l0", "lp", "lf", "u"}, init="l0", private={"lp"}, final={"lf"},
        clocks={"x"}, time_domain="discrete", name="far-discrete",
        edges=[edge("l0", "lp", "a", x("<=", 1)), edge("lp", "lf", "b", x(">=", 1)),
               edge("l0", "lf", "b", x(">=", 2)), edge("u", "lf", "a", x(">=", 7))],
    )


def far_oera_ta():
    """An observable ERA whose largest constants, 9, sit only on edges out
    of the unreachable location `u`. The reached part guards no `xb`, so
    with its own constants the delays of its witness, after `a` at 1/2,
    would leave `xb` out, and `b` would read 2 instead of 7/4."""
    g = lambda clock, cmp, bound: Guard.of(ClockConstraint(clock, cmp, bound))
    return make_ta(
        actions={"a", "b"}, locations={"l0", "l1", "l2", "u"}, init="l0", private={"l1"}, final={"l2"},
        clocks={"xa", "xb"}, name="far-oera",
        edges=[edge("l0", "l1", "a", g("xa", ">", 0).conjoin(g("xa", "<", 1)), {"xa"}),
               edge("l1", "l2", "b", g("xa", ">", 1), {"xb"}), edge("l0", "l2", "b", resets={"xb"}),
               edge("u", "l0", "a", g("xa", ">=", 9), {"xa"}), edge("u", "l2", "b", g("xb", ">=", 9), {"xb"})],
    )


def corpus():
    rng = random.Random(3131)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = [random_discrete_ta(rng) for _ in range(150)] + [random_oera(rng) for _ in range(150)]
        # a shared trace, so that the existence check has witnesses to decode
        models += [plant_shared_trace(rng, make(rng)) for make in (random_discrete_ta, random_oera) for _ in range(30)]
    return models + [far_discrete_ta(), far_oera_ta()]


CORPUS = corpus()


def graph(ra):
    """The numbered region states, final ids and decoded edges of a build."""
    return ra.states, ra.final_ids, [ra.edge(k) for k in range(len(ra.edge_target))], list(ra._edge_start)


def outcome(check, *args):
    try:
        v = check(*args)
    except (UndecidableClass, ReservedLetter) as exc:
        return type(exc).__name__
    return v.holds, v.witness, v.side, v.note


def test_the_far_constants_change_the_regions():
    # the hand-made models would read other regions with the trimmed
    # model's own constants: the whole model's constants are what keeps them
    for ta in (far_discrete_ta(), far_oera_ta()):
        memo, constants = _reached_memo(ta)
        assert memo.max_constants() != constants
        assert build_region_automaton(memo).n_states != build_region_automaton(memo, constants=constants).n_states
        assert len(memo.locations) < len(build_memo(ta).locations)
    witness = check_opacity(far_oera_ta(), "weak").witness
    assert witness == TimedWord.of(("a", Fraction(1, 2)), ("b", Fraction(7, 4)))


def test_reached_memo_builds_the_whole_memo_regions():
    for i, ta in enumerate(CORPUS):
        memo, constants = _reached_memo(ta)
        whole, whole_constants = whole_memo(ta)
        assert constants == whole_constants, i
        assert memo.actions == whole.actions, i
        ra = build_region_automaton(memo, constants=constants)
        assert ra.max_constants == whole_constants, i
        assert graph(ra) == graph(build_region_automaton(whole)), i


def test_reachable_product_builds_the_whole_product_regions():
    witnesses = 0
    for i, ta in enumerate(CORPUS):
        priv, pub = build_priv(ta), _public_runs(ta)
        prod, constants = _product(priv, pub)
        whole, whole_constants = whole_pair(priv, pub)
        assert constants == whole_constants, i
        assert prod.locations <= whole.locations and prod.init == whole.init, i
        ra, ra_whole = build_region_automaton(prod, constants=constants), build_region_automaton(whole)
        assert graph(ra) == graph(ra_whole), i
        path = ra.shortest_accepting_path()
        assert path == ra_whole.shortest_accepting_path(), i
        if path is not None:
            witnesses += 1
            assert concretize_region_path(prod, path, ra.max_constants) == concretize_region_path(whole, path), i
    assert witnesses > 20


def test_trimmed_answers_are_the_whole_constructions_answers(monkeypatch):
    answers = lambda ta: [outcome(check_exists, ta)] + [outcome(check_opacity, ta, m) for m in ("weak", "full")]
    trimmed = [answers(ta) for ta in CORPUS]
    monkeypatch.setattr(deciders, "_reached_memo", whole_memo)
    monkeypatch.setattr(deciders, "_product", whole_pair)
    for i, ta in enumerate(CORPUS):
        assert trimmed[i] == answers(ta), i
    assert sum(a[0] is False for row in trimmed for a in row[1:]) > 50  # violated, with a witness


def test_class_is_read_off_the_whole_model():
    # the unreachable a-edge resets no clock: without it the model is an
    # observable ERA, with it a one-clock automaton, which is refused
    x = frozenset({"x"})
    reached = [edge("l0", "lp", "a", Guard.of(ClockConstraint("x", "<", 1)), x),
               edge("lp", "lf", "a", resets=x), edge("l0", "lf", "a", resets=x)]
    build = lambda edges: make_ta(actions={"a"}, locations={"l0", "lp", "lf", "u"}, init="l0", private={"lp"},
                                  final={"lf"}, clocks=x, edges=edges, name="almost-oera")
    trimmed, ta = build(reached), build(reached + [edge("u", "lf", "a")])
    assert is_oera(trimmed) and not is_oera(ta)
    assert check_opacity(trimmed, "weak").holds is False
    for engine in ("auto", "oera"):
        with pytest.raises(UndecidableClass):
            check_opacity(ta, "weak", engine=engine)


def test_reserved_letter_is_read_off_the_whole_model():
    # the only t-edge leaves a location the initial one never reaches
    build = lambda actions, edges: make_ta(actions=actions, locations={"l0", "lf", "u"}, init="l0",
                                           private={"lf"}, final={"lf"}, edges=edges, time_domain="discrete")
    reached = [edge("l0", "lf", "a")]
    assert check_opacity(build({"a"}, reached), "weak").holds is False
    for mode in ("weak", "full"):
        with pytest.raises(ReservedLetter):
            check_opacity(build({"a", "t"}, reached + [edge("u", "lf", "t")]), mode)
