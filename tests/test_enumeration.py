"""The grid searches (`enumerate_runs`, `can_produce`) against the Fraction
reference searches in `reference_enumeration.py`."""

import random
import warnings
from fractions import Fraction as F

import pytest

from conftest import fig1_ta, late_guard_ta, trace_words
from reference_enumeration import grid_runs, reference_can_produce, reference_enumerate_runs
from test_acceptance import random_discrete_ta
from topaq.oracle import can_produce, default_horizon, discrete_state_count
from topaq.ta import (
    BadOracleBound,
    BoundExhausted,
    TimedWord,
    enumerate_runs,
    validate,
    validate_errors,
)

CRITERION5_SEED = 20240601


def criterion5_corpus(count=60):
    """The first `count` models of the criterion-5 generator and seed that
    pass its size filter (discrete state count at most 36)."""
    rng = random.Random(CRITERION5_SEED)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        while len(out) < count:
            ta = random_discrete_ta(rng)
            if not validate_errors(validate(ta)) and discrete_state_count(ta) <= 36:
                out.append(ta)
    return out


CORPUS = criterion5_corpus()
# later draws of the same generator: most of CORPUS makes no attempt at the
# oracle's settings (it starts in a final location or has no enabled edge)
LATER_DRAWS = criterion5_corpus(110)[60:]


def enumeration_cases():
    """(automaton, horizon, max_steps, granularity, node_cap)."""
    for ta in CORPUS + LATER_DRAWS:
        steps = discrete_state_count(ta)
        horizon = default_horizon(ta)
        yield ta, horizon, steps, F(1), 40_000  # the oracle's settings
        for cap in (1, 50, 300):
            yield ta, horizon, steps, F(1), cap
    # the only private location is the final one, entered by the last step
    yield late_guard_ta(), F(4), 3, F(1), 2_000_000
    fig1 = fig1_ta()
    # a negative horizon leaves no time for a step
    for horizon in (F(-1, 2), F(-3)):
        yield fig1, horizon, 4, F(1, 2), 2_000_000
    for granularity in (F(1, 2), F(1, 3), F(2, 3), F(3, 4)):
        for horizon in (F(4), F(7, 2), F(9, 4)):
            for cap in (1, 50, 300, 2_000_000):
                yield fig1, horizon, 4, granularity, cap


def test_enumeration_equals_reference():
    """The same runs, each as (grid trace, visits a private location), the
    same attempt count and the same cap behaviour as the reference."""
    outcomes = set()
    attempting = set()  # the models that make an attempt at the oracle's settings
    for ta, horizon, steps, granularity, cap in enumeration_cases():
        got = enumerate_runs(ta, horizon, steps, granularity, node_cap=cap)
        want = reference_enumerate_runs(ta, horizon, steps, granularity, node_cap=cap)
        case = (ta.name, horizon, granularity, cap)
        assert got.explored == want.explored, case
        assert got.complete == want.complete, case
        assert got.runs == grid_runs(ta, want.runs, granularity), case
        outcomes.add((cap, got.complete))
        if cap == 40_000 and got.explored:
            attempting.add(id(ta))
    # every cap cuts some cases short and not others
    assert outcomes >= {(cap, done) for cap in (50, 300) for done in (True, False)}
    assert (1, False) in outcomes
    assert len(attempting) >= 40


def cap_sweep_cases():
    """(name, automaton, horizon, max_steps, granularity): `fig1`, the
    first three criterion-5 models whose enumeration makes an attempt (the
    first six of the corpus start in a final location or make none), and
    model 13, the first where the search cuts a revisited node."""
    yield "fig1", fig1_ta(), F(3), 3, F(1, 2)
    for n in (6, 7, 8, 13):
        ta = CORPUS[n]
        yield f"criterion5-{n}", ta, default_horizon(ta), discrete_state_count(ta), F(1)


def test_every_cap_stops_where_the_reference_stops():
    """Every cap from 0 to one past the uncapped attempt count: the search
    counts failed attempts in batches, so each cap must still stop it at
    the same attempt as the reference, with the same runs. A cap equal to
    the attempt count leaves the search complete, also where the search
    ends on a batch of failed attempts, which then lands exactly on it."""
    closing = set()  # cases whose last attempt fails, after some run was found
    for name, ta, horizon, steps, granularity in cap_sweep_cases():
        uncapped = enumerate_runs(ta, horizon, steps, granularity)
        assert uncapped.complete and uncapped.explored > 0, name
        for cap in range(uncapped.explored + 2):
            got = enumerate_runs(ta, horizon, steps, granularity, node_cap=cap)
            want = reference_enumerate_runs(ta, horizon, steps, granularity, node_cap=cap)
            case = (name, cap)
            assert (got.explored, got.complete) == (want.explored, want.complete), case
            assert got.runs == grid_runs(ta, want.runs, granularity), case
            assert got.complete == (cap >= uncapped.explored), case
        before = enumerate_runs(ta, horizon, steps, granularity, node_cap=uncapped.explored - 1)
        if uncapped.runs and before.runs == uncapped.runs:
            closing.add(name)
    assert "criterion5-13" in closing


@pytest.mark.parametrize("cap", [-3, True, 1.5, None])
def test_bad_node_cap_refused(fig1, cap):
    """A node cap that is not a nonnegative int, or is a bool, is refused
    before either search starts; cap 0 is a cap."""
    with pytest.raises(ValueError, match="node cap must be a nonnegative integer"):
        enumerate_runs(fig1, F(3), 3, F(1, 2), node_cap=cap)
    with pytest.raises(ValueError, match="node cap must be a nonnegative integer"):
        can_produce(fig1, TimedWord(), False, F(3), F(1, 2), node_cap=cap)
    assert enumerate_runs(fig1, F(3), 3, F(1, 2), node_cap=0).explored == 0
    with pytest.raises(BoundExhausted):
        can_produce(fig1, TimedWord.of(("b", 3)), False, F(3), F(1, 2), node_cap=0)


@pytest.mark.parametrize("granularity, want", [(F(0), "positive"), (F(-1, 2), "positive")],
                         ids=["zero", "negative"])
def test_bad_granularity_refused(fig1, granularity, want):
    """A granularity that is not positive is refused before either search
    builds its grid: at 0 the membership search divided by zero, and at
    -1/2 it answered False for a word a public run produces at 1/2."""
    word = TimedWord.of(("b", 3))
    assert can_produce(fig1, word, False, F(3), F(1, 2))
    with pytest.raises(BadOracleBound, match=f"^granularity must be {want}, got {granularity}$"):
        enumerate_runs(fig1, F(3), 3, granularity)
    with pytest.raises(BadOracleBound, match=f"^granularity must be {want}, got {granularity}$"):
        can_produce(fig1, word, False, F(3), granularity)


def test_discrete_time_grid_takes_granularity_one_only(fig1_discrete):
    with pytest.raises(BadOracleBound, match="^granularity must be 1 in discrete time, got 1/2$"):
        enumerate_runs(fig1_discrete, F(3), 3, F(1, 2))
    with pytest.raises(BadOracleBound, match="^granularity must be 1 in discrete time, got 1/2$"):
        can_produce(fig1_discrete, TimedWord.of(("b", 3)), False, F(3), F(1, 2))
    assert can_produce(fig1_discrete, TimedWord.of(("b", 3)), False, F(3), F(1))


def shifted(w, offset):
    return TimedWord(tuple((a, t + offset) for a, t in w.letters))


def membership_cases():
    """(automaton, word, want_private, horizon, granularity, node_cap): each
    trace the oracle enumerates on the corpus, as is and with its stamps
    moved off the grid, on the side the oracle asks about (the one it is
    missing from), and on the other side for the first ten models; on `fig1`
    at granularity 1/2, both sides of every trace with stamps moved off and
    along the grid. A small cap pins the point where the search gives up."""
    for n, ta in enumerate(CORPUS):
        horizon = default_horizon(ta)
        t_priv, t_pub, _ = trace_words(ta, horizon, discrete_state_count(ta), F(1), 40_000)
        for w in sorted(t_priv | t_pub, key=lambda u: u.sort_key()):
            for want_private, t in ((False, t_pub), (True, t_priv)):
                if w not in t:
                    yield ta, w, want_private, horizon, F(1), 500_000
                    yield ta, shifted(w, F(1, 2)), want_private, horizon, F(1), 500_000
                elif n < 10:
                    yield ta, w, want_private, horizon, F(1), 500_000
    fig1 = fig1_ta()
    for horizon in (F(-1, 2), F(-3)):  # no time for a step
        for w in (TimedWord(), TimedWord.of(("b", 0))):
            yield fig1, w, False, horizon, F(1, 2), 500_000
    t_priv, t_pub, _ = trace_words(fig1, F(4), 3, F(1, 2))
    for w in sorted(t_priv | t_pub, key=lambda u: u.sort_key()):
        for v in (w, shifted(w, F(1, 4)), shifted(w, F(1, 2))):
            for want_private in (False, True):
                for cap in (500_000, 3):
                    yield fig1, v, want_private, F(4), F(1, 2), cap


def produce(search, ta, w, want_private, horizon, granularity, node_cap):
    try:
        return search(ta, w, want_private, horizon, granularity, node_cap=node_cap)
    except BoundExhausted:
        return "cap"


def test_can_produce_equals_reference():
    answers = []
    for ta, w, want_private, horizon, granularity, cap in membership_cases():
        got = produce(can_produce, ta, w, want_private, horizon, granularity, cap)
        want = produce(reference_can_produce, ta, w, want_private, horizon, granularity, cap)
        assert got == want, (ta.name, str(w), want_private, cap)
        answers.append(got)
    assert set(answers) == {True, False, "cap"}
    assert len(answers) > 5000


def test_deep_budget_does_not_recurse(fig1_discrete):
    res = enumerate_runs(fig1_discrete, F(6), 3000, F(1), node_cap=4000)
    assert not res.complete
    assert res.explored == 4000
    # all 3,000 steps of the deepest run are observable
    assert max(len(trace) for trace, _ in res.runs) == 3000
