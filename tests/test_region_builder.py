"""The compiled region builder against the object search of
`reference_regions`: the same numbered states, edges and finals, the same
edge arrays and NFA, the same exports, shortest accepting paths and cap
behaviour. The event-recording engine against the macro-state search of
its object reference: the same verdicts, witnesses, sides and notes, and a
cap refusal exactly where the memo automaton's region build exceeds the
cap."""

import random
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import fig1_ta, oera_pair_ta, random_blocking_oera, random_discrete_ta, random_oera
from reference_languages import reference_tick_construction
from reference_regions import (
    graph_of,
    reference_check_oera,
    reference_graph,
    reference_nfa,
    reference_region_automaton,
)
from topaq.constructions import build_memo, build_priv, build_pub, product, relax_finals
from topaq.deciders import _attacker, check_opacity, dense_time, is_oera
from topaq.export import region_automaton_to_dot, region_automaton_to_json
from topaq.model import parse_model
from topaq.nfa import from_region_automaton
from topaq.observers import Dynamic, FirstN, Static, observation_clocks, tick_construction
from topaq.oracle import discrete_state_count
from topaq.regions import BadRegionCap, RegionCapExceeded, augment_ticks, build_region_automaton
from topaq.ta import ClockConstraint, Guard, edge, make_ta, validate, validate_errors

MODELS = sorted((Path(__file__).resolve().parent.parent / "models").glob("*.ta"))


def reference_path(ref):
    """Shortest accepting path of a reference automaton, by the same
    breadth-first search over region objects."""
    if ref.initial is None:
        return None
    parent = {ref.initial: None}
    queue = [ref.initial]
    for r in queue:
        if r in ref.finals:
            path = []
            while parent[r] is not None:
                r, e = parent[r]
                path.append(e)
            return list(reversed(path))
        for e in ref.out_edges(r):
            if e.target not in parent:
                parent[e.target] = (r, e)
                queue.append(e.target)
    return None


def assert_same(ta, wrap=(), constants=None):
    ra = build_region_automaton(ta, wrap=wrap, constants=constants)
    ref = reference_region_automaton(ta, wrap=wrap, constants=constants)
    assert ra.states == ref.states
    assert ra.initial == ref.initial
    assert ra.finals == ref.finals
    assert ra.edges == ref.edges
    for r in ref.states:
        assert ra.out_edges(r) == ref.out_edges(r)
    letters, initial, finals, eps, trans = reference_graph(ref)
    assert graph_of(ra) == (letters, initial, finals, eps, trans)
    assert ra.letters == letters
    assert from_region_automaton(ra) == reference_nfa(ref)
    assert ra.shortest_accepting_path() == reference_path(ref)
    return ra, ref


def ticked_memo(ta, sel):
    """The tick construction a bounded query builds for `sel`, its
    wrap-around observation clocks and its model clocks' constants, those
    of the final-relaxed memo automaton."""
    base, n, _, _ = _attacker(ta, sel)
    memo = build_memo(dense_time(base))
    return tick_construction(memo, n), observation_clocks(memo, n), relax_finals(memo).max_constants()


@pytest.mark.parametrize("sel", [FirstN(1), FirstN(2), FirstN(3), Dynamic(1), Static((F(0), F(1, 2), F(3, 2)))],
                         ids=["first:1", "first:2", "first:3", "dynamic:1", "static:0,1/2,3/2"])
def test_fig1_tick_constructions(sel):
    assert_same(*ticked_memo(fig1_ta(), sel))


def criterion5_corpus(count):
    rng = random.Random(20240601)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while len(out) < count:
            ta = random_discrete_ta(rng)
            if not validate_errors(validate(ta)) and discrete_state_count(ta) <= 36:
                out.append(ta)
    return out


def test_criterion5_corpus():
    for ta in criterion5_corpus(100):
        assert_same(augment_ticks(build_memo(ta)))
        assert_same(product(build_priv(ta), quiet_pub(ta)))


def quiet_pub(ta):
    """`build_pub` without its warning on a private initial location."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_pub(ta)


def test_random_oeras():
    rng = random.Random(8080)
    for _ in range(60):
        ta = random_oera(rng)
        assert_same(ta)
        assert_same(product(build_priv(ta), quiet_pub(ta)))
        assert_same(build_memo(ta))


def oera_outcome(engine, ta, mode, cap=None):
    """(holds, witness, side, note) of an event-recording check, or
    ("cap", cap) when it refuses at the region cap."""
    try:
        v = engine(ta, mode, cap)
    except RegionCapExceeded as exc:
        return "cap", exc.cap
    return v.holds, v.witness, v.side, v.note


def compiled_oera(ta, mode, cap=None):
    return check_opacity(ta, mode, engine="oera", cap=cap)


def assert_same_oera(ta):
    """Both engines, weak and full, give the same outcome; returns the full one."""
    assert is_oera(ta)
    for mode in ("weak", "full"):
        got = oera_outcome(compiled_oera, ta, mode)
        assert got == oera_outcome(reference_check_oera, ta, mode), (ta, mode)
    return got


def test_oera_engine_matches_object_reference():
    rng = random.Random(20261105)
    sides = []
    for _ in range(320):
        ta = random_oera(rng)
        sides.append(assert_same_oera(ta)[2])
        sides.append(assert_same_oera(replace(ta, time_domain="discrete"))[2])
    # holding, and violated on either side
    assert min(sides.count(side) for side in (None, "priv-not-pub", "pub-not-priv")) >= 50


def test_oera_engine_matches_object_reference_on_blocked_entries():
    rng = random.Random(20261018)
    sides = []
    for _ in range(150):
        ta = random_blocking_oera(rng)
        sides.append(assert_same_oera(ta)[2])
        sides.append(assert_same_oera(replace(ta, time_domain="discrete"))[2])
    assert min(sides.count(side) for side in (None, "priv-not-pub", "pub-not-priv")) >= 30


def test_oera_hand_cases_match_object_reference():
    pair = parse_model(next(p for p in MODELS if p.name == "oera-pair.ta").read_text())
    holds, witness, side, _ = assert_same_oera(pair)
    assert (holds, side) == (False, "priv-not-pub") and witness is not None
    # the initial invariant fails
    empty = make_ta(actions={"a"}, locations={"p", "q"}, init="p", final={"q"}, clocks={"xa"},
                    invariant={"p": Guard.of(ClockConstraint("xa", ">", 0))},
                    edges=[edge("p", "q", "a", resets={"xa"})])
    assert assert_same_oera(empty) == (True, None, None, "empty language")
    # the private a-edge's guard holds, but its target's invariant fails after the reset
    blocked = make_ta(actions={"a", "b"}, locations={"p", "q", "r"}, init="p", private={"q"}, final={"q", "r"},
                      clocks={"xa", "xb"}, invariant={"q": Guard.of(ClockConstraint("xb", "<=", 1))},
                      edges=[edge("p", "q", "a", Guard.of(ClockConstraint("xb", ">=", 2)), {"xa"}),
                             edge("p", "r", "b", resets={"xb"})])
    assert assert_same_oera(blocked)[2] == "pub-not-priv"
    assert check_opacity(blocked, "weak").holds


def random_opaque_oera(rng):
    """An opaque observable ERA: a private and a public copy of one letter
    chain from the initial location to the final one, with the same guards
    (and the same self-loop, if any), so every trace has a run through each
    copy. No violation ends the macro-state search early: it expands every
    node along the chain before it answers."""
    n = rng.randint(2, 4)
    letters, clocks = ["a", "b"], ["xa", "xb"]

    def guard():
        return Guard.of(ClockConstraint(rng.choice(clocks), rng.choice(["<", "<=", ">=", ">"]), rng.randint(0, 2))) \
            if rng.random() < 0.6 else Guard.true()

    chain = [(rng.choice(letters), guard()) for _ in range(n)]
    loop = (rng.randrange(n), rng.choice(letters), guard()) if rng.random() < 0.5 else None
    edges = []
    for copy in ("p", "q"):
        locs = ["l0"] + [f"{copy}{i}" for i in range(1, n)] + ["lf"]
        for (a, g), src, dst in zip(chain, locs, locs[1:]):
            edges.append(edge(src, dst, a, g, {f"x{a}"}))
        if loop is not None:
            i, a, g = loop
            edges.append(edge(locs[i], locs[i], a, g, {f"x{a}"}))
    return make_ta(actions=letters, locations=["l0", "lf"] + [f"{c}{i}" for c in "pq" for i in range(1, n)],
                   init="l0", edges=edges, clocks=clocks, private={f"p{i}" for i in range(1, n)}, final={"lf"},
                   name="opaque")


def test_oera_cap_is_the_memo_region_cap():
    """The event-recording engine refuses at cap c exactly when the memo
    automaton has more than c regions, and otherwise answers as the
    macro-state search of the reference does."""
    rng = random.Random(20261106)
    chains = random.Random(20261019)
    subjects = [oera_pair_ta(True), oera_pair_ta(False)] + [random_oera(rng) for _ in range(150)]
    subjects += [random_opaque_oera(chains) for _ in range(40)]
    refused = 0
    for ta in subjects:
        n = build_region_automaton(build_memo(ta)).n_states
        for mode in ("weak", "full"):
            expected = oera_outcome(reference_check_oera, ta, mode)
            for cap in range(1, n + 2):
                got = oera_outcome(compiled_oera, ta, mode, cap)
                assert got == (("cap", cap) if cap < n else expected), (ta, mode, cap)
                refused += cap < n
            if ta.name == "opaque":
                assert expected[0] is True
    # measured when written: the memo automata have 2,259 regions in all
    assert refused == 2 * (2259 - len(subjects))


@pytest.mark.parametrize("path", MODELS, ids=[p.stem for p in MODELS])
def test_models_and_their_exports(path):
    ta = parse_model(path.read_text())
    base = dense_time(ta)
    subjects = [(ta,), (augment_ticks(ta),)] if ta.time_domain == "discrete" else [(ta,)]
    # the tick export (`topaq export --what tick`) and the gadget form
    subjects += [(tick_construction(base, 1), observation_clocks(base, 1), relax_finals(base).max_constants()),
                 (reference_tick_construction(base, 1),)]
    for subject in subjects:
        ra, ref = assert_same(*subject)
        assert region_automaton_to_json(ra) == region_automaton_to_json(ref)
        assert region_automaton_to_dot(ra) == region_automaton_to_dot(ref)


def test_zero_clock_automaton():
    ta = make_ta(actions={"a"}, locations={"p", "q"}, init="p", final={"q"},
                 edges=[edge("p", "p", "a"), edge("p", "q", None)])
    ra, _ = assert_same(ta)
    assert len(ra.states) == 2  # the single clock region of no clocks


def test_initial_invariant_fails():
    ta = make_ta(actions={"a"}, locations={"p", "q"}, init="p", final={"q"}, clocks={"x"},
                 invariant={"p": Guard.of(ClockConstraint("x", ">", 0))}, edges=[edge("p", "q", "a")])
    ra, _ = assert_same(ta)
    assert ra.states == () and ra.initial is None and ra.edges == {}


def test_cap_fires_at_the_same_state():
    ta, obs, constants = ticked_memo(fig1_ta(), FirstN(1))
    n = len(reference_region_automaton(ta, wrap=obs, constants=constants).states)
    for cap in (2, n - 1):
        for build in (build_region_automaton, reference_region_automaton):
            with pytest.raises(RegionCapExceeded):
                build(ta, cap, wrap=obs, constants=constants)
    assert len(build_region_automaton(ta, n, wrap=obs, constants=constants).states) == n


def test_cap_refusal_names_its_source(monkeypatch):
    # an explicit cap wins over the environment variable, so the refusal
    # names the argument; without one it names the variable
    monkeypatch.setenv("TOPAQ_REGION_CAP", "1000000")
    with pytest.raises(RegionCapExceeded) as refused:
        check_opacity(fig1_ta("discrete"), "weak", cap=2)
    assert (str(refused.value), refused.value.cap) == \
        ("region construction exceeded the cap of 2 states (set by the cap argument)", 2)
    monkeypatch.setenv("TOPAQ_REGION_CAP", "3")
    with pytest.raises(RegionCapExceeded) as refused:
        check_opacity(fig1_ta("discrete"), "weak")
    assert (str(refused.value), refused.value.cap) == \
        ("region construction exceeded the cap of 3 states (override with TOPAQ_REGION_CAP)", 3)


@pytest.mark.parametrize("cap", [0, -5, 1.5, True])
def test_explicit_cap_must_be_a_positive_int(cap):
    with pytest.raises(BadRegionCap, match="^cap must be a positive integer"):
        check_opacity(fig1_ta("discrete"), "weak", cap=cap)
    with pytest.raises(BadRegionCap, match="^cap must be a positive integer"):
        check_opacity(oera_pair_ta(True), "weak", engine="oera", cap=cap)
    with pytest.raises(BadRegionCap):
        build_region_automaton(fig1_ta(), cap)
