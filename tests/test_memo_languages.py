"""The weak/full engines read the private and the public language off one
memo automaton with two final classes. Differential tests against the
separate builds of `reference_languages.py`: each view equals the language
built on its own, and `decide` gives the reference's status, side and
witness."""

import random
import warnings
from dataclasses import replace
from fractions import Fraction as F

import pytest

from conftest import (
    fig1_ta,
    late_guard_ta,
    loop_and_deadline_ta,
    oera_pair_ta,
    random_blocking_oera,
    random_discrete_ta,
    random_oera,
)
from reference_languages import (
    reference_bounded,
    reference_discrete,
    reference_discrete_languages,
    reference_first_n_languages,
)
from topaq.deciders import _attacker, _discrete_languages, _first_n_languages, decide
from topaq.nfa import check_inclusion
from topaq.observers import Dynamic, FirstN, Static
from topaq.oracle import discrete_state_count
from topaq.ta import validate, validate_errors

SWITCH_TIMES = (F(0), F(1, 2), F(3, 2))
LADDER = {
    "first:0": FirstN(0),
    "first:1": FirstN(1),
    "first:2": FirstN(2),
    "first:3": FirstN(3),
    "first:4": FirstN(4),
    "dynamic:1": Dynamic(1),
    "dynamic:2": Dynamic(2),
    "static:0,1/2,3/2": Static(SWITCH_TIMES),
}


def assert_same_language(view, reference):
    forward = check_inclusion(view, reference)
    assert forward.holds, forward.counterexample
    backward = check_inclusion(reference, view)
    assert backward.holds, backward.counterexample


@pytest.mark.parametrize("label", list(LADDER))
def test_fig1_ladder_views_and_verdicts(label):
    fig1 = fig1_ta()
    sel = LADDER[label]
    ta, n, _, _ = _attacker(fig1, sel)
    references = reference_first_n_languages(ta, n)
    for view, reference in zip(_first_n_languages(ta, n, None), references):
        assert_same_language(view, reference)
    for mode in ("weak", "full"):
        assert decide(fig1, mode, sel) == reference_bounded(fig1, sel, mode, references)


def criterion5_corpus(count):
    rng = random.Random(20240601)
    out = []
    while len(out) < count:
        ta = random_discrete_ta(rng)
        if not validate_errors(validate(ta)) and discrete_state_count(ta) <= 36:
            out.append(ta)
    return out


def test_discrete_corpus_views_and_verdicts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty public languages of private-initial models
        corpus = criterion5_corpus(200)
        violated = 0
        for ta in corpus:
            for view, reference in zip(_discrete_languages(ta, None), reference_discrete_languages(ta)):
                assert_same_language(view, reference)
            for mode in ("weak", "full"):
                verdict = decide(ta, mode)
                assert verdict == reference_discrete(ta, mode), (ta, mode)
                violated += verdict.holds is False
    assert violated > 0  # the corpus exercises witnesses, not only `holds`


def first_n_corpus():
    """The random observable ERAs, blocking observable ERAs and discrete
    automata of `conftest`, the discrete ones also read in dense time, and
    three fixtures."""
    rng = random.Random(20261019)
    out = [late_guard_ta(), loop_and_deadline_ta(), oera_pair_ta()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # vacuous-guard warnings
        for make in (random_oera, random_blocking_oera, random_discrete_ta):
            made = 0
            while made < 50:
                ta = make(rng)
                if validate_errors(validate(ta)):
                    continue
                made += 1
                out.append(ta)
                if ta.time_domain == "discrete":
                    out.append(replace(ta, time_domain="dense"))
    return out


@pytest.mark.parametrize("n", [0, 1, 2])
def test_corpus_first_n_views(n):
    # the engine's views, cut at the last observation, against the full tick
    # construction of build_priv and build_pub
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # build_pub of private-initial models
        for ta in first_n_corpus():
            for view, reference in zip(_first_n_languages(ta, n, None), reference_first_n_languages(ta, n)):
                assert_same_language(view, reference)


def test_discrete_corpus_first_n_views_and_verdicts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ta in criterion5_corpus(40):
            references = reference_first_n_languages(ta, 1)
            for view, reference in zip(_first_n_languages(ta, 1, None), references):
                assert_same_language(view, reference)
            for mode in ("weak", "full"):
                assert decide(ta, mode, FirstN(1)) == reference_bounded(ta, FirstN(1), mode, references)
