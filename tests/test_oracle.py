from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import fig1_ta, trace_words
from test_enumeration import CORPUS
from topaq.constructions import build_priv, build_pub
from topaq.deciders import accepts_word
from topaq.observers import Dynamic, FirstN, Static
from topaq.oracle import (
    BadOracleBound,
    can_produce,
    default_granularity,
    discrete_state_count,
    oracle_check,
)
from topaq.ta import ClockConstraint, Guard, TimedWord, edge, make_ta


def tw(*pairs):
    return TimedWord.of(*pairs)


class TestOracleExamples:
    def test_fig1_exists_holds(self, fig1):
        v = oracle_check(fig1, "exists", horizon=F(4), granularity=F(1, 2))
        assert v.status == "holds"
        assert tw(("b", F(3, 2))) in trace_words(fig1, F(4), 4, F(1, 2))[0]
        assert accepts_word(build_priv(fig1), v.witness)
        assert accepts_word(build_pub(fig1), v.witness)

    def test_fig1_full_violated_with_late_witness(self, fig1):
        v = oracle_check(fig1, "full", horizon=F(4), granularity=F(1, 2))
        assert v.status == "violated" and v.side == "pub-not-priv"
        assert F(2) < v.witness.timestamps()[0] <= F(3)
        # the paper's example member is in the enumerated difference
        p, q, _ = trace_words(fig1, F(4), 4, F(1, 2))
        assert tw(("b", F(5, 2))) in q - p

    def test_fig1_weak_no_violation(self, fig1):
        v = oracle_check(fig1, "weak", horizon=F(4), granularity=F(1, 2))
        assert v.status == "inconclusive"  # dense time is never definitive-holds

    def test_empty_language_weak_holds_discrete(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", final={"lf"},
            clocks=set(), edges=[], time_domain="discrete",
        )
        v = oracle_check(ta, "weak", max_steps=discrete_state_count(ta))
        assert v.status == "holds"

    def test_discrete_definitive_note_logged(self, fig1_discrete):
        v = oracle_check(fig1_discrete, "weak", max_steps=discrete_state_count(fig1_discrete))
        assert v.status == "holds"
        assert v.diagnostics["definitive_cover"] is True
        assert "definitive" in v.diagnostics["note"]


class TestOracleRobustness:
    def test_deterministic(self, fig1):
        a = oracle_check(fig1, "full", horizon=F(4), granularity=F(1, 2))
        b = oracle_check(fig1, "full", horizon=F(4), granularity=F(1, 2))
        assert (a.status, a.witness, a.side) == (b.status, b.witness, b.side)

    def test_witness_genuinely_separates(self, fig1):
        v = oracle_check(fig1, "full", horizon=F(4), granularity=F(1, 2))
        assert accepts_word(build_pub(fig1), v.witness)
        assert not accepts_word(build_priv(fig1), v.witness)

    def test_step_truncation_does_not_fake_violations(self, fig1):
        # at 4 steps the enumeration misses long private matches; the
        # membership recheck must keep weak opacity unviolated
        v = oracle_check(fig1, "weak", horizon=F(3), max_steps=4, granularity=F(1, 2))
        assert v.status != "violated"

    def test_resource_exhaustion_is_inconclusive(self, fig1):
        v = oracle_check(fig1, "weak", horizon=F(3), max_steps=6, granularity=F(1, 4), node_cap=300)
        assert v.status == "inconclusive"
        assert v.diagnostics["complete"] is False

    def test_dynamic_selection_rejected(self, fig1):
        with pytest.raises(ValueError):
            oracle_check(fig1, "weak", Dynamic(1))

    @pytest.mark.parametrize("bounds", [
        {"granularity": F(0)}, {"granularity": F(-1, 2)}, {"max_steps": 0}, {"max_steps": -3}, {"max_steps": 1.5},
        {"max_steps": True}, {"horizon": F(-1)}, {"node_cap": -3}, {"node_cap": True},
    ], ids=["granularity-zero", "granularity-negative", "steps-zero", "steps-negative", "steps-fraction",
            "steps-bool", "horizon-negative", "cap-negative", "cap-bool"])
    def test_bad_bounds_rejected_before_the_search(self, fig1, bounds):
        with pytest.raises(BadOracleBound, match=next(iter(bounds))):
            oracle_check(fig1, "weak", **bounds)

    def test_discrete_time_takes_granularity_one_only(self, fig1_discrete):
        with pytest.raises(BadOracleBound, match="granularity must be 1 in discrete time"):
            oracle_check(fig1_discrete, "weak", granularity=F(1, 2))
        assert oracle_check(fig1_discrete, "weak", granularity=F(1), horizon=F(0), max_steps=1).status

    def test_default_granularity_heuristic(self, fig1, fig1_discrete):
        assert default_granularity(fig1, 0) == F(1, 3)
        assert default_granularity(fig1, 2) == F(1, 5)
        assert default_granularity(fig1_discrete) == 1


class TestProjectedQueries:
    def test_fig1_first1_weak_and_full(self, fig1):
        w = oracle_check(fig1, "weak", FirstN(1), horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert w.status != "violated"
        f = oracle_check(fig1, "full", FirstN(1), horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert f.status == "violated"
        # (b, 5/2) is among the projected public-only traces
        p, q, _ = trace_words(fig1, F(4), 4, F(1, 2))
        from topaq.observers import project

        proj_p = {project(x, FirstN(1)) for x in p}
        proj_q = {project(x, FirstN(1)) for x in q}
        assert tw(("b", F(5, 2))) in proj_q - proj_p

    def test_static_projection_query(self, fig1):
        v = oracle_check(fig1, "full", Static((F(0), F(3, 2))), horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert v.status == "violated"


class TestCanProduce:
    def test_membership_at_grid(self, fig1):
        assert can_produce(fig1, tw(("b", F(3, 2))), True, F(3), F(1, 2))
        assert can_produce(fig1, tw(("b", F(3, 2))), False, F(3), F(1, 2))
        assert not can_produce(fig1, tw(("b", F(5, 2))), True, F(4), F(1, 2))
        assert can_produce(fig1, tw(("b", F(5, 2))), False, F(4), F(1, 2))

    def test_long_silent_detours_found(self):
        # membership needs more steps than letters: a chain of silent moves
        ta = make_ta(
            actions={"a"}, locations={"l0", "m1", "m2", "lf"}, init="l0", final={"lf"},
            clocks=set(),
            edges=[edge("l0", "m1", None), edge("m1", "m2", None), edge("m2", "lf", "a")],
        )
        assert can_produce(ta, tw(("a", 0)), False, F(1), F(1))


def witness_order_ta(shared: bool):
    """Discrete time; the public runs give (a, 0), (a, 2) and (b, 1), the
    private runs (a, 2) and (b, 1) when `shared` and (a, 0) otherwise. The
    shared traces or the public-only ones are two candidates of one length
    whose letter order and time order disagree, which pins the witness
    order: letters first, then times."""
    at = lambda letter, t: (letter, Guard.of(ClockConstraint("x", "=", t)))
    private = [at("a", 2), at("b", 1)] if shared else [at("a", 0)]
    return make_ta(
        actions={"a", "b"}, locations={"l0", "p", "f"}, init="l0", private={"p"}, final={"f"}, clocks={"x"},
        edges=[edge("l0", "f", a, g) for a, g in (at("a", 0), at("a", 2), at("b", 1))] + [edge("l0", "p")]
        + [edge("p", "f", a, g) for a, g in private],
        time_domain="discrete", name="witness-order",
    )


def pinned_oracle_lines():
    """One line per query: its name, then the verdict's status, witness,
    side and diagnostics. The criterion-5 corpus runs at its acceptance
    settings (steps = discrete state count, node cap 40,000); `fig1` at
    horizon 4 and granularity 1/2, also under a first-N and a static
    selection (the projected path and its boosted recheck); the two
    `witness_order_ta` models at the oracle's defaults."""
    queries = []
    for i, ta in enumerate(CORPUS):
        for query in ("exists", "weak", "full"):
            queries.append((f"criterion5-{i}/{query}", ta, query, None,
                            {"max_steps": discrete_state_count(ta), "node_cap": 40_000}))
    fig1 = fig1_ta()
    grid = {"horizon": F(4), "granularity": F(1, 2)}
    for query in ("exists", "weak", "full"):
        queries.append((f"fig1/{query}", fig1, query, None, grid))
    queries.append(("fig1/full/first:2", fig1, "full", FirstN(2), {**grid, "max_steps": 4}))
    queries.append(("fig1/full/static:0,3/2", fig1, "full", Static((F(0), F(3, 2))), {**grid, "max_steps": 4}))
    for shared in (False, True):
        for query in ("exists", "weak", "full"):
            queries.append((f"witness-order/{'shared' if shared else 'apart'}/{query}", witness_order_ta(shared),
                            query, None, {}))
    lines = []
    for name, ta, query, sel, bounds in queries:
        v = oracle_check(ta, query, sel, **bounds)
        diag = ", ".join(f"{k}={v.diagnostics[k]}" for k in sorted(v.diagnostics))
        lines.append(f"{name} | {v.status} | {v.witness if v.witness is not None else '-'} | {v.side} | {diag}\n")
    return lines


def test_oracle_answers_pinned():
    """Every answer of the oracle on the queries of `pinned_oracle_lines`,
    as recorded in `oracle_pinned.txt`: how the oracle represents traces
    may change, its verdicts, witnesses and diagnostics may not."""
    pinned = (Path(__file__).resolve().parent / "oracle_pinned.txt").read_text()
    assert "".join(pinned_oracle_lines()) == pinned
