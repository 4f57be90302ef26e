"""Cross-module invariants that tie the abstraction layers together."""

import random
import warnings
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import random_blocking_oera, random_dense_automaton, random_discrete_ta, random_oera, trace_words
from reference_nfa import language_upto, spelled
from topaq.constructions import build_priv, build_pub, prune_final_exits
from topaq.deciders import _first_n_languages, accepts_word, check_bounded, check_exists, check_opacity
from topaq.nfa import from_region_automaton
from topaq.observers import FirstN, project
from topaq.oracle import discrete_state_count, oracle_check
from topaq.regions import augment_ticks, build_region_automaton, tick_decode
from topaq.ta import EPSILON, validate, validate_errors


def test_discrete_tick_words_decode_to_accepted_traces(fig1_discrete):
    """Every word of the ticked region automaton reconstructs a timed word of
    the original discrete automaton."""
    ra = build_region_automaton(augment_ticks(fig1_discrete))
    words = language_upto(from_region_automaton(ra), 6)
    assert words
    p, q, complete = trace_words(fig1_discrete, F(5), 6, F(1))
    assert complete
    for word in words:
        decoded = tick_decode(word)
        assert decoded in p | q
        assert accepts_word(fig1_discrete, decoded)


def test_exists_follows_from_weak_with_nonempty_private(fig1_discrete):
    # non-vacuous on the worked example, implication-checked on the sweep
    assert check_opacity(fig1_discrete, "weak").holds
    assert check_exists(fig1_discrete).holds is True

    rng = random.Random(5150)
    trials = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while trials < 60:
            ta = random_discrete_ta(rng)
            if validate_errors(validate(ta)) or discrete_state_count(ta) > 36:
                continue
            trials += 1
            p, _, complete = trace_words(ta, F(6), 8, F(1), node_cap=50_000)
            if not complete or not p:
                continue
            if check_opacity(ta, "weak").holds:
                assert check_exists(ta).holds is True


def test_bounded_comparison_languages_are_n_bounded(fig1):
    # the engine's private and public languages, their endings spelled out
    for n in (0, 1, 2):
        for view in _first_n_languages(fig1, n, None):
            words = language_upto(spelled(view), 7)
            assert words
            for word in words:
                assert sum(1 for tok in word if tok in "ab") <= n


def test_observed_projections_respect_switch_times(fig1):
    # every projected trace the pipeline compares comes from a real trace
    p, q, complete = trace_words(fig1, F(3), 5, F(1, 2))
    assert complete
    for w in p | q:
        proj = project(w, FirstN(1))
        assert proj.letters == w.letters[: len(proj)]


def test_exists_decider_never_contradicts_oracle():
    rng = random.Random(909090)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        trial = 0
        while checked < 40 and trial < 200:
            trial += 1
            ta = random_discrete_ta(rng)
            if validate_errors(validate(ta)) or discrete_state_count(ta) > 36:
                continue
            o = oracle_check(ta, "exists", max_steps=discrete_state_count(ta), node_cap=40_000)
            if o.status == "inconclusive":
                continue
            checked += 1
            assert check_exists(ta).holds == (o.status == "holds")
    assert checked >= 40


def test_oracle_never_contradicts_deciders_on_corpus(fig1_discrete, oera_guarded):
    o = oracle_check(fig1_discrete, "weak", max_steps=discrete_state_count(fig1_discrete))
    assert (o.status == "holds") == check_opacity(fig1_discrete, "weak").holds
    o = oracle_check(oera_guarded, "weak", granularity=F(1, 2), horizon=F(3), max_steps=3)
    d = check_opacity(oera_guarded, "weak")
    assert o.status == "violated" and d.holds is False


def test_bounded_pipeline_never_contradicts_oracle_first_n():
    from topaq.deciders import check_bounded

    rng = random.Random(606060)
    agree = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(30):
            ta = random_dense_automaton(rng)
            if validate_errors(validate(ta)):
                continue
            n = rng.randint(0, 2)
            for mode in ("weak", "full"):
                o = oracle_check(ta, mode, FirstN(n), granularity=F(1, 3), max_steps=5, node_cap=60_000)
                d = check_bounded(ta, FirstN(n), mode)
                if o.status == "violated":
                    assert d.holds is False, (n, mode, o.witness)
                    agree += 1
                elif o.status == "holds":
                    assert d.holds is not False, (n, mode, d.witness)
    assert agree > 5  # the sweep must exercise real violations


def test_bounded_pipeline_never_contradicts_oracle_static():
    from topaq.deciders import check_bounded
    from topaq.observers import Static

    rng = random.Random(717171)
    agree = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(16):
            ta = random_dense_automaton(rng)
            if validate_errors(validate(ta)):
                continue
            tau = tuple(sorted(F(rng.randint(0, 3), rng.choice([1, 2])) for _ in range(rng.randint(1, 2))))
            for mode in ("weak", "full"):
                o = oracle_check(ta, mode, Static(tau), granularity=F(1, 4), max_steps=5, node_cap=60_000)
                d = check_bounded(ta, Static(tau), mode)
                if o.status == "violated":
                    assert d.holds is False, (tau, mode, o.witness)
                    agree += 1
                elif o.status == "holds":
                    assert d.holds is not False, (tau, mode, d.witness)
    assert agree > 3


def letter_bound(ta):
    """The most letters a run of `ta` reads, from its location graph: the
    longest letter count on a path from the initial location, exits from
    finals dropped; None if a cycle is reachable (conservatively, even a
    silent one)."""
    succ: dict[str, list] = {}
    for e in prune_final_exits(ta).edges:
        succ.setdefault(e.source, []).append((e.target, e.action is not EPSILON))
    longest: dict[str, int] = {}
    on_path = set()

    class Cycle(Exception):
        pass

    def visit(loc):
        if loc in on_path:
            raise Cycle
        if loc not in longest:
            on_path.add(loc)
            longest[loc] = max((lettered + visit(t) for t, lettered in succ.get(loc, ())), default=0)
            on_path.discard(loc)
        return longest[loc]

    try:
        return visit(ta.init)
    except Cycle:
        return None


def replays(ta, verdict) -> bool:
    """The witness is accepted on its side and rejected on the other."""
    expected = (True, False) if verdict.side == "priv-not-pub" else (False, True)
    return (accepts_word(build_priv(ta), verdict.witness), accepts_word(build_pub(ta), verdict.witness)) == expected


def corpus(name):
    if name == "discrete":
        rng = random.Random(7)
        return [random_discrete_ta(rng) for _ in range(400)]
    rng = random.Random(11)
    make = random_oera if name == "oera" else random_blocking_oera
    models = [make(rng) for _ in range(150)]
    return models + [replace(ta, time_domain="discrete") for ta in models]


# the trace-bounded subjects of each corpus; of the queries both engines
# find violated, 300 of 300, 196 of 196 and 207 of 228 had equal witnesses
# when this was written (the 21 others are dense blocking models)
SUBJECTS = {"discrete": 299, "oera": 208, "blocking": 262}


@pytest.mark.parametrize("name", list(SUBJECTS))
def test_bounded_engine_is_exact_on_trace_bounded_models(name):
    """Where no run reads more than L letters, the first-L attacker sees
    every trace whole, so `check_bounded` with FirstN(L) and the exact
    engine of `check_opacity` answer alike: the same verdict and side, and
    each witness replays on its side only. The witnesses may differ, as
    the engines order their words differently."""
    subjects = equal = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ta in corpus(name):
            bound = letter_bound(ta)
            if bound is None or bound > 4:
                continue
            subjects += 1
            for mode in ("weak", "full"):
                bounded, exact = check_bounded(ta, FirstN(bound), mode), check_opacity(ta, mode)
                assert (bounded.holds, bounded.side) == (exact.holds, exact.side), (ta, mode)
                for verdict in (bounded, exact):
                    assert verdict.witness is None or replays(ta, verdict), (ta, mode, verdict)
                equal += bounded.witness is not None and bounded.witness == exact.witness
    assert subjects == SUBJECTS[name]
    print(f"{name}: {equal} equal witnesses")
