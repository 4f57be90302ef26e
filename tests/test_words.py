import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topaq.deciders import accepts_word
from topaq.ta import ClockConstraint, StepError, TimedWord, step
from topaq.words import (
    class_recognizer,
    distort,
    seq_equiv,
    ticked_word,
    word_equiv,
)


def simulate_chain(ta, w: TimedWord) -> bool:
    """Membership of `w` in a deterministic chain TA (one edge per step)."""
    cfg = ta.initial_configuration()
    elapsed = F(0)
    edges = list(ta.edges)
    if len(w) != len(edges):
        return False
    for (letter, stamp), e in zip(w, edges):
        if e.action != letter:
            return False
        try:
            cfg = step(ta, cfg, stamp - elapsed, e)
        except (StepError, ValueError):
            return False
        elapsed = stamp
    return cfg.location in ta.final


def tw(*pairs):
    return TimedWord.of(*pairs)


class TestWordEquiv:
    def test_same_pattern(self):
        assert word_equiv(tw(("a", F(12, 10)), ("b", F(15, 10))), tw(("a", F(13, 10)), ("b", F(16, 10))))

    def test_reflexive(self):
        w = tw(("a", F(1, 3)), ("b", 2))
        assert word_equiv(w, w)

    def test_zero_vs_nonzero_fraction(self):
        assert not word_equiv(tw(("a", 1)), tw(("a", F(3, 2))))

    def test_untimed_mismatch(self):
        assert not word_equiv(tw(("a", 1)), tw(("b", 1)))

    def test_different_lengths_never_equivalent(self):
        assert not word_equiv(tw(("a", 1)), tw(("a", 1), ("a", 1)))

    def test_integral_part_mismatch(self):
        assert not word_equiv(tw(("a", F(3, 2))), tw(("a", F(5, 2))))


timestamps = st.lists(
    st.tuples(st.sampled_from("ab"), st.fractions(min_value=0, max_value=4, max_denominator=6)),
    min_size=0,
    max_size=5,
)


def sorted_word(pairs):
    stamps = sorted(t for _, t in pairs)
    return TimedWord(tuple((a, t) for (a, _), t in zip(pairs, stamps)))


class TestTickedWord:
    def test_worked_table_example(self):
        w = tw(("a", F(12, 10)), ("b", F(15, 10)), ("c", 2), ("d", F(23, 10)))
        assert ticked_word(w, 4).render() == "t a b t c d f{0,3} f{1} f{4} f{2}"

    def test_empty_word_budget_zero(self):
        assert ticked_word(TimedWord(()), 0).render() == "f{0}"

    def test_single_late_letter(self):
        assert ticked_word(tw(("a", F(5, 2))), 1).render() == "t t a f{0} f{1}"

    def test_padding_joins_zero_group(self):
        assert ticked_word(tw(("a", F(1, 2))), 3).render() == "a f{0,2,3} f{1}"

    def test_length_over_budget_rejected(self):
        with pytest.raises(ValueError):
            ticked_word(tw(("a", 0), ("a", 0)), 1)

    @settings(max_examples=300, deadline=None)
    @given(timestamps, timestamps)
    def test_bijection_with_equivalence(self, p1, p2):
        w, v = sorted_word(p1), sorted_word(p2)
        n = max(len(w), len(v))
        assert (ticked_word(w, n) == ticked_word(v, n)) == word_equiv(w, v)


class TestDistort:
    F_GRID = [F(0), F(3, 10), F(5, 10), F(6, 10), F(1)]
    G_GRID = [F(0), F(1, 10), F(4, 10), F(9, 10), F(1)]

    def test_worked_grid_point(self):
        out = distort(tw(("a", F(13, 10))), self.F_GRID, self.G_GRID)
        assert out.timestamps() == (F(11, 10),)

    def test_identity_grids(self):
        w = tw(("a", F(13, 10)), ("b", 2))
        grid = [F(0), F(3, 10), F(1)]
        assert distort(w, grid, grid) == w

    def test_preserves_equivalence_and_round_trips(self):
        rng = random.Random(9)
        grid_points = self.F_GRID
        for _ in range(100):
            stamps = sorted(
                rng.randint(0, 3) + rng.choice(grid_points[:-1]) for _ in range(rng.randint(1, 4))
            )
            w = TimedWord(tuple(("a", t) for t in stamps))
            out = distort(w, self.F_GRID, self.G_GRID)
            assert word_equiv(out, w)
            assert distort(out, self.G_GRID, self.F_GRID) == w

    def test_rejects_offgrid_fraction(self):
        with pytest.raises(ValueError):
            distort(tw(("a", F(1, 7))), self.F_GRID, self.G_GRID)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            distort(tw(("a", 0)), [F(0), F(1, 2)], [F(0), F(1)])


class TestClassRecognizer:
    WORD = tw(("a", F(3, 10)), ("b", 1), ("c", 1), ("d", F(11, 10)), ("e", F(37, 10)))

    def test_worked_example_structure(self):
        rec = class_recognizer(self.WORD)
        assert len(rec.locations) == 6
        assert len(rec.clocks) == 5
        guards = [e.guard for e in rec.edges]
        assert guards[0].conjuncts == (
            ClockConstraint("x0", ">", 0),
            ClockConstraint("x0", "<", 1),
        )
        assert guards[1].conjuncts == (
            ClockConstraint("x0", "=", 1),
            ClockConstraint("x1", ">", 0),
            ClockConstraint("x1", "<", 1),
        )
        assert ClockConstraint("x2", "=", 0) in guards[2].conjuncts
        assert ClockConstraint("x0", ">", 3) in guards[4].conjuncts
        assert ClockConstraint("x4", "<", 3) in guards[4].conjuncts
        # every bound is an integer by construction, so no scaling pass exists
        assert all(isinstance(c.bound, int) for g in guards for c in g.conjuncts)

    def test_accepts_its_own_word(self):
        assert simulate_chain(class_recognizer(self.WORD), self.WORD)

    def test_membership_iff_equivalent(self):
        rng = random.Random(77)
        rec = class_recognizer(self.WORD)
        grid = sorted({t - (t.numerator // t.denominator) for t in self.WORD.timestamps()} | {F(0)})
        for _ in range(60):
            stamps = sorted(rng.randint(0, 4) + rng.choice(grid) for _ in range(5))
            v = TimedWord(tuple((a, t) for (a, _), t in zip(self.WORD, stamps)))
            member = accepts_word(rec, v)
            assert member == word_equiv(v, self.WORD)
            assert member == simulate_chain(rec, v)

    def test_empty_word_recognizer(self):
        rec = class_recognizer(TimedWord(()))
        assert simulate_chain(rec, TimedWord(()))
        assert accepts_word(rec, TimedWord(()))


class TestSeqEquiv:
    def test_examples(self):
        assert seq_equiv((F(3, 10), F(17, 10)), (F(4, 10), F(18, 10)))
        assert not seq_equiv((F(3, 10), F(17, 10)), (F(7, 10), F(13, 10)))
        assert not seq_equiv((F(0),), (F(1, 2),))
