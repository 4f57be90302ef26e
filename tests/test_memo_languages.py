"""The weak/full engines read the private and the public language off one
memo automaton with two final classes. Differential tests against the
separate builds of `reference_languages.py`: each view equals the language
built on its own, and `decide` gives the reference's status, side and
witness."""

import random
import warnings
from fractions import Fraction as F

import pytest

from conftest import fig1_ta, random_discrete_ta
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
    "first:1": FirstN(1),
    "first:2": FirstN(2),
    "first:3": FirstN(3),
    "dynamic:1": Dynamic(1),
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


def test_discrete_corpus_first_n_views_and_verdicts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for ta in criterion5_corpus(40):
            references = reference_first_n_languages(ta, 1)
            for view, reference in zip(_first_n_languages(ta, 1, None), references):
                assert_same_language(view, reference)
            for mode in ("weak", "full"):
                assert decide(ta, mode, FirstN(1)) == reference_bounded(ta, FirstN(1), mode, references)
