from fractions import Fraction as F

import pytest

from reference_enumeration import Run, grid_runs, reference_enumerate_runs, trace_of
from topaq.ta import (
    ClockConstraint,
    Configuration,
    Guard,
    StepError,
    TimedWord,
    edge,
    enumerate_runs,
    grid_word,
    make_ta,
    step,
    validate,
)


@pytest.fixture
def eps_edge(fig1):
    return next(e for e in fig1.edges if e.action is None)


def cfg(loc, x):
    return Configuration(loc, {"x": F(x)})


class TestValidate:
    def test_fig1_is_clean(self, fig1):
        assert validate(fig1) == []

    def test_unknown_location_in_edge(self, fig1):
        bad = make_ta(
            actions={"a"}, locations={"l0"}, init="l0", final=set(),
            edges=[edge("l0", "nowhere", "a")], clocks={"x"},
        )
        diags = [d for d in validate(bad) if d.severity == "error"]
        assert len(diags) == 1
        assert "nowhere" in diags[0].message

    def test_unknown_reset_clock(self):
        bad = make_ta(
            actions={"a"}, locations={"l0"}, init="l0", final=set(),
            edges=[edge("l0", "l0", "a", resets={"y"})], clocks={"x"},
        )
        diags = [d for d in validate(bad) if d.severity == "error"]
        assert len(diags) == 1
        assert "y" in diags[0].message

    def test_negative_bound_warns(self):
        ta = make_ta(
            actions={"a"}, locations={"l0"}, init="l0", final={"l0"}, clocks={"x"},
            invariant={"l0": Guard.of(ClockConstraint("x", ">=", -1))}, edges=[],
        )
        diags = validate(ta)
        assert diags and all(d.severity == "warning" for d in diags)


class TestStep:
    def test_delay_into_private(self, fig1, eps_edge):
        out = step(fig1, cfg("l0", 0), F(3, 2), eps_edge)
        assert out.location == "l2" and out.valuation["x"] == F(3, 2)

    def test_zero_delay_self_loop(self, fig1):
        loop = next(e for e in fig1.edges if e.action == "a")
        out = step(fig1, cfg("l0", 0), F(0), loop)
        assert out == cfg("l0", 0)

    def test_target_invariant_violated(self, fig1, eps_edge):
        with pytest.raises(StepError, match="target invariant violated"):
            step(fig1, cfg("l0", 0), F(5, 2), eps_edge)

    def test_guard_unsatisfied(self, fig1, eps_edge):
        with pytest.raises(StepError, match="guard unsatisfied"):
            step(fig1, cfg("l0", 0), F(1, 2), eps_edge)

    def test_invariant_violated_during_delay(self, fig1):
        loop = next(e for e in fig1.edges if e.action == "a")
        with pytest.raises(StepError, match="invariant violated during delay"):
            step(fig1, cfg("l0", 0), F(4), loop)


class TestEnumerateRuns:
    def test_contains_private_witness_trace(self, fig1):
        res = enumerate_runs(fig1, F(3), 4, F(1, 2))
        assert res.complete
        assert (("b", 3),) in {t for t, _ in res.runs}
        assert ((("b", 3),), True) in res.runs

    def test_unreachable_final_gives_no_runs(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", final={"lf"},
            clocks=set(), edges=[],
        )
        assert enumerate_runs(ta, F(5), 5, F(1)).runs == ()

    def test_discrete_example_traces(self, discrete_example):
        res = enumerate_runs(discrete_example, F(4), 6, F(1))
        traces = {grid_word(t, 1) for t, _ in res.runs}
        assert TimedWord.of(("a", 3)) in traces
        assert TimedWord.of(("a", 4)) in traces
        assert all(t.timestamps()[0] > 2 for t in traces)

    def test_discrete_requires_unit_granularity(self, discrete_example):
        with pytest.raises(ValueError):
            enumerate_runs(discrete_example, F(4), 4, F(1, 2))

    def test_traces_nondecreasing(self, fig1):
        res = enumerate_runs(fig1, F(3), 4, F(1, 2))
        for trace, _ in res.runs:
            stamps = [u for _, u in trace]
            assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    def test_monotone_in_bounds(self, fig1):
        small = set(enumerate_runs(fig1, F(2), 3, F(1)).runs)
        bigger = set(enumerate_runs(fig1, F(3), 4, F(1)).runs)
        assert small <= bigger

    def test_bound_exhausted_is_flagged(self, fig1):
        res = enumerate_runs(fig1, F(3), 6, F(1, 2), node_cap=50)
        assert not res.complete

    def test_dedup_preserves_trace_sets(self, fig1):
        # the search cuts revisited nodes (the silent reset loop's); all
        # runs, none cut, have the same (trace, private) pairs
        loop = make_ta(
            actions={"b"}, locations={"l0", "l1", "l2"}, init="l0", private={"l2"}, final={"l1"},
            clocks={"x"}, edges=[edge("l0", "l0", resets={"x"}), edge("l0", "l2"), edge("l0", "l1", "b"),
                                 edge("l2", "l1", "b")],
        )
        for ta in (fig1, loop):
            every = reference_enumerate_runs(ta, F(2), 4, F(1), dedup=False)
            cut = enumerate_runs(ta, F(2), 4, F(1))
            assert set(cut.runs) == set(grid_runs(ta, every.runs, F(1)))
        assert len(cut.runs) < len(every.runs)


class TestTraceOf:
    def test_prefix_sums_and_epsilon_dropped(self, fig1):
        eps = next(e for e in fig1.edges if e.action is None)
        b_edge = next(e for e in fig1.edges if e.action == "b" and e.source == "l2")
        c0 = fig1.initial_configuration()
        c1 = step(fig1, c0, F(3, 2), eps)
        c2 = step(fig1, c1, F(0), b_edge)
        run = Run(c0, ((F(3, 2), eps, c1), (F(0), b_edge, c2)))
        assert trace_of(run) == TimedWord.of(("b", F(3, 2)))

    def test_epsilon_only_run_is_empty_word(self, fig1):
        assert trace_of(Run(fig1.initial_configuration(), ())) == TimedWord(())

    def test_identity_on_observables(self, fig1):
        a = next(e for e in fig1.edges if e.action == "a")
        b = next(e for e in fig1.edges if e.action == "b" and e.source == "l0")
        c0 = fig1.initial_configuration()
        c1 = step(fig1, c0, F(1), a)
        c2 = step(fig1, c1, F(1), a)
        c3 = step(fig1, c2, F(0), b)
        run = Run(c0, ((F(1), a, c1), (F(1), a, c2), (F(0), b, c3)))
        assert trace_of(run) == TimedWord.of(("a", 1), ("a", 2), ("b", 2))
