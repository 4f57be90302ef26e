import random
import warnings
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (fig1_ta, nfa_accepts_expanded, plant_shared_trace, random_discrete_ta, random_oera,
                      single_word_ta)
from reference_languages import language_inclusion_discrete, opacity_class, reference_tick_construction
from test_enumeration import CORPUS
from topaq.constructions import (
    _public_runs,
    build_priv,
    build_pub,
    embed_gadget,
    inclusion_gadget,
    strip_private,
    swap_gadget,
)
from topaq import cli
from topaq.model import parse_model
from topaq.deciders import (
    DELAY_LETTER,
    UndecidableClass,
    accepts_word,
    check_bounded,
    check_exists,
    check_opacity,
    decide,
    is_oera,
    parse_witness_description,
    verify_witness,
)
from topaq.nfa import from_region_automaton
from topaq.observers import (
    Dynamic,
    FirstN,
    Static,
    normalize_sequence,
    tick_regions,
    unfold_first_n,
    unfold_free,
    unfold_tau,
)
from topaq.oracle import BadOracleBound, discrete_state_count, oracle_check
from topaq.regions import BadRegionCap, ReservedLetter, build_region_automaton
from topaq.ta import ClockConstraint, Guard, TimedWord, Verdict, edge, make_ta, validate, validate_errors


def tw(*pairs):
    return TimedWord.of(*pairs)


def definitive_oracle(ta, mode):
    states = discrete_state_count(ta)
    if states > 36:
        return None
    v = oracle_check(ta, mode, max_steps=states, node_cap=40_000)
    return None if v.status == "inconclusive" else v


class TestIsOera:
    def test_hand_built_oera(self, oera_guarded):
        assert is_oera(oera_guarded)

    def test_fig1_is_not(self, fig1):
        assert not is_oera(fig1)

    def test_epsilon_edge_resetting_clock(self, oera_guarded):
        bad = make_ta(
            actions=oera_guarded.actions, locations=oera_guarded.locations,
            init=oera_guarded.init, private=oera_guarded.private,
            final=oera_guarded.final, clocks=oera_guarded.clocks,
            invariant=dict(oera_guarded.invariant),
            edges=oera_guarded.edges + (edge("l0", "l0", None, resets={"xa"}),),
        )
        assert not is_oera(bad)

    def test_unused_letters_pair_with_leftover_clocks(self):
        ta = make_ta(
            actions={"a", "b"}, locations={"s", "f"}, init="s", final={"f"},
            clocks={"xa", "xb"}, edges=[edge("s", "f", "a", resets={"xa"})],
        )
        assert is_oera(ta)


class TestOpacityClass:
    def test_ladder_order(self, fig1, oera_guarded):
        one_clock = make_ta(
            actions={"a", "b"}, locations={"s", "f"}, init="s", final={"f"},
            clocks={"x"}, edges=[edge("s", "f", "a"), edge("s", "f", "b")],
        )
        discrete_oera = make_ta(
            actions=oera_guarded.actions, locations=oera_guarded.locations, init=oera_guarded.init,
            private=oera_guarded.private, final=oera_guarded.final, clocks=oera_guarded.clocks,
            edges=oera_guarded.edges, time_domain="discrete",
        )
        classes = [opacity_class(ta) for ta in (fig1_ta("discrete"), discrete_oera, oera_guarded, one_clock, fig1)]
        # a discrete-time OERA takes the discrete engine: discrete time is the first rung
        assert classes == ["discrete", "discrete", "oera", "one-clock", "undecidable"]


class TestAcceptsWord:
    @pytest.mark.parametrize("domain", ["dense", "discrete"])
    def test_empty_word(self, domain):
        def ta(edges, invariant=None):
            return make_ta(actions={"a"}, locations={"s", "m", "f"}, init="s", final={"f"}, clocks={"x"},
                           edges=edges, invariant=invariant, time_domain=domain)

        wait = Guard.of(ClockConstraint("x", ">=", 2))
        silent = [edge("s", "m", None, wait), edge("m", "f")]
        # a final reached silently, after a wait, accepts the empty word
        assert accepts_word(ta(silent), TimedWord(()))
        # an invariant that forbids the wait cuts the silent path
        assert not accepts_word(ta(silent, {"s": Guard.of(ClockConstraint("x", "<=", 1))}), TimedWord(()))
        # every path to the final reads a letter
        assert not accepts_word(ta([edge("s", "m", None, wait), edge("m", "f", "a")]), TimedWord(()))
        assert accepts_word(ta([edge("s", "m", None, wait), edge("m", "f", "a")]), tw(("a", 2)))


class TestCheckExists:
    def test_fig1_holds_with_shared_witness(self, fig1):
        v = check_exists(fig1)
        assert v.holds is True
        assert accepts_word(build_priv(fig1), v.witness)
        assert accepts_word(build_pub(fig1), v.witness)

    def test_no_private_locations(self, fig1):
        plain = make_ta(
            actions=fig1.actions, locations=fig1.locations, init=fig1.init,
            final=fig1.final, clocks=fig1.clocks, invariant=dict(fig1.invariant),
            edges=fig1.edges,
        )
        assert check_exists(plain).holds is False

    def test_unreachable_finals(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lp", "lf"}, init="l0", private={"lp"},
            final={"lf"}, clocks=set(), edges=[edge("l0", "lp", "a")],
        )
        assert check_exists(ta).holds is False

    def test_discrete_witness_is_integral(self, fig1_discrete):
        v = check_exists(fig1_discrete)
        assert v.holds is True
        assert all(t.denominator == 1 for t in v.witness.timestamps())


@pytest.mark.parametrize("time_domain", ["dense", "discrete"])
def test_engines_do_not_warn_on_a_private_initial_location(time_domain):
    # the empty public language is the engines' expected answer, not a
    # mistake to warn about; `build_pub` called directly still warns
    ta = make_ta(actions={"a"}, locations={"l0", "lf"}, init="l0", private={"l0"}, final={"lf"},
                 clocks={"x"}, edges=[edge("l0", "lf", "a", resets={"x"})], time_domain=time_domain)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_exists(ta).holds is False
        assert check_opacity(ta, "weak").side == "priv-not-pub"  # discrete, or observable ERA
        for sel in (FirstN(0), FirstN(1)):
            assert check_bounded(ta, sel, "full").side == "priv-not-pub"


class TestCheckOpacityDiscrete:
    def test_fig1_discrete_weak_holds_full_violated(self, fig1_discrete):
        assert check_opacity(fig1_discrete, "weak").holds is True
        v = check_opacity(fig1_discrete, "full")
        assert v.holds is False and v.side == "pub-not-priv"
        assert accepts_word(build_pub(fig1_discrete), v.witness)
        assert not accepts_word(build_priv(fig1_discrete), v.witness)
        # the paper's example member is genuinely public-only too
        o = oracle_check(fig1_discrete, "full", max_steps=discrete_state_count(fig1_discrete))
        assert o.status == "violated" and o.witness == tw(("b", 3))

    def test_empty_sets_are_fully_opaque(self):
        ta = make_ta(
            actions={"a"}, locations={"l0", "lf"}, init="l0", final={"lf"},
            clocks=set(), edges=[], time_domain="discrete",
        )
        assert check_opacity(ta, "full").holds is True

    def test_dense_general_class_is_refused(self, fig1):
        with pytest.raises(UndecidableClass, match="undecidable"):
            check_opacity(fig1, "weak")

    def test_one_clock_without_silent_edges_refused_as_unimplemented(self):
        ta = make_ta(
            actions={"a", "b"}, locations={"s", "f"}, init="s", final={"f"},
            clocks={"x"}, edges=[edge("s", "f", "a"), edge("s", "f", "b")],
        )
        with pytest.raises(UndecidableClass, match="not primitive recursive"):
            check_opacity(ta, "weak")

    def test_oracle_engine_passthrough(self, fig1):
        v = decide(fig1, "weak", engine="oracle", horizon=F(4), granularity=F(1, 2))
        assert v.holds is not False  # no violation found (dense: inconclusive)
        v = decide(fig1, "full", engine="oracle", horizon=F(4), granularity=F(1, 2))
        assert v.holds is False
        assert F(2) < v.witness.timestamps()[0] <= F(3)

    def test_random_sweep_agrees_with_oracle(self):
        rng = random.Random(20240601)
        checked = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while checked < 40:
                ta = random_discrete_ta(rng)
                if validate_errors(validate(ta)):
                    continue
                o_w = definitive_oracle(ta, "weak")
                o_f = definitive_oracle(ta, "full")
                if o_w is None or o_f is None:
                    continue
                checked += 1
                assert check_opacity(ta, "weak").holds == (o_w.status == "holds")
                assert check_opacity(ta, "full").holds == (o_f.status == "holds")


class TestCheckOpacityOera:
    def test_guarded_pair_violated(self, oera_guarded):
        v = check_opacity(oera_guarded, "weak")
        assert v.holds is False and v.side == "priv-not-pub"
        (a, t1), (b, t2) = v.witness.letters
        assert (a, b) == ("a", "b") and t2 - t1 < 1
        assert accepts_word(build_priv(oera_guarded), v.witness)
        assert not accepts_word(build_pub(oera_guarded), v.witness)
        o = oracle_check(oera_guarded, "weak", granularity=F(1, 2), horizon=F(4), max_steps=4)
        assert o.status == "violated"

    def test_unguarded_pair_holds(self, oera_unguarded):
        assert check_opacity(oera_unguarded, "weak").holds is True
        assert check_opacity(oera_unguarded, "full").holds is True

    def test_discrete_time_oera(self):
        from conftest import oera_pair_ta

        base = oera_pair_ta(True)
        discrete = make_ta(
            actions=base.actions, locations=base.locations, init=base.init,
            private=base.private, final=base.final, clocks=base.clocks,
            invariant=dict(base.invariant), edges=base.edges, time_domain="discrete",
        )
        v = check_opacity(discrete, "weak", engine="oera")
        assert v.holds is False
        assert all(t.denominator == 1 for t in v.witness.timestamps())

    def test_engine_requires_oera(self, fig1):
        with pytest.raises(UndecidableClass):
            check_opacity(fig1, "weak", engine="oera")

    def test_full_checks_both_sides(self, oera_guarded):
        # swap private marking: now the public side is strictly larger
        flipped = make_ta(
            actions=oera_guarded.actions, locations=oera_guarded.locations,
            init=oera_guarded.init, private={"l2"}, final=oera_guarded.final,
            clocks=oera_guarded.clocks, invariant=dict(oera_guarded.invariant),
            edges=oera_guarded.edges,
        )
        assert check_opacity(flipped, "weak").holds is True
        v = check_opacity(flipped, "full")
        assert v.holds is False and v.side == "pub-not-priv"


def renamed_letter(ta, old, new):
    """`ta` with the letter `old` renamed `new`."""
    edges = tuple(replace(e, action=new) if e.action == old else e for e in ta.edges)
    return replace(ta, actions=(ta.actions - {old}) | {new}, edges=edges)


class TestEngineLetters:
    """The discrete engine reads a delay edge as the tick `t` and the
    event-recording engine as `DELAY_LETTER`; each refuses a model that uses
    its letter."""

    def test_oera_using_the_delay_letter_is_refused(self, oera_guarded, monkeypatch, capsys):
        ta = renamed_letter(oera_guarded, "a", DELAY_LETTER)
        assert is_oera(ta) and DELAY_LETTER == ""
        message = "the model uses the letter '', which the event-recording engine reserves"
        for mode in ("weak", "full"):
            with pytest.raises(ReservedLetter) as info:
                decide(ta, mode)
            assert (info.value.letters, str(info.value)) == ((DELAY_LETTER,), message)
        monkeypatch.setattr(cli, "_load", lambda path, scale: (ta, 1))
        assert cli.main(["check", "--mode", "weak", "reserved.ta"]) == 2
        assert capsys.readouterr() == (f"refused: {message}\n", "")

    def test_discrete_model_using_the_tick_letter_is_refused(self, fig1_discrete):
        ta = renamed_letter(fig1_discrete, "a", "t")
        for call in (lambda: check_opacity(ta, "full"), lambda: language_inclusion_discrete(ta, fig1_discrete),
                     lambda: language_inclusion_discrete(fig1_discrete, ta)):
            with pytest.raises(ReservedLetter) as info:
                call()
            assert str(info.value) == "the model uses the letter 't', which the tick augmentation reserves"

    def test_bounded_model_using_the_tick_letter_is_refused_before_any_build(self, fig1):
        # the tick construction's refusal comes before the class table's
        # region build, which a region cap of 1 would stop
        ta = renamed_letter(fig1, "a", "t")
        for call in (lambda: check_bounded(ta, FirstN(1), "weak", cap=1), lambda: tick_regions(ta, 1, cap=1)):
            with pytest.raises(ReservedLetter) as info:
                call()
            assert str(info.value) == "the model uses the letter 't', which the tick construction reserves"

    @pytest.mark.parametrize("letter", ["f{1}", "a"])
    def test_model_letter_like_an_f_letter_is_not_a_suffix(self, letter):
        # the private run reads its letter at 1, the public one at 2: weak
        # opacity is violated whatever the letter is called, and the strip
        # takes its suffix letters from the f-suffixes, never from the model
        at = {k: Guard.of(ClockConstraint("x", "=", k)) for k in (1, 2)}
        ta = make_ta(actions={letter}, locations={"l0", "lp", "lf"}, init="l0", private={"lp"}, final={"lf"},
                     clocks={"x"}, time_domain="discrete",
                     edges=[edge("l0", "lp", None), edge("lp", "lf", letter, at[1]), edge("l0", "lf", letter, at[2])])
        assert oracle_check(ta, "weak").status == "violated"
        v = check_opacity(ta, "weak")
        assert (v.holds, v.side, v.witness) == (False, "priv-not-pub", TimedWord.of((letter, 1)))
        if letter == "a":
            assert check_bounded(ta, FirstN(1), "weak").holds is False
            return
        # the tick construction would read it as an f-letter
        with pytest.raises(ReservedLetter) as info:
            check_bounded(ta, FirstN(1), "weak")
        assert str(info.value) == "the model uses the letter 'f{1}', which the tick construction reserves"

    def test_discrete_inclusion_requires_discrete_time(self, fig1, fig1_discrete):
        with pytest.raises(ValueError, match="requires a discrete-time automaton"):
            language_inclusion_discrete(fig1, fig1_discrete)

    def test_oera_witness_takes_a_delay_before_a_letter(self):
        # two shortest private-only traces: b then a at time 0, and a after a
        # delay; the delay letter sorts first, so the delay one is the witness
        after_zero = Guard.of(ClockConstraint("xa", ">", 0))
        ta = make_ta(actions={"a", "b"}, locations={"p", "s", "q", "r"}, init="p", private={"q"},
                     final={"q", "r"}, clocks={"xa", "xb"},
                     edges=[edge("p", "q", "a", after_zero, {"xa"}), edge("p", "s", "b", resets={"xb"}),
                            edge("s", "q", "a", resets={"xa"}),
                            edge("p", "r", "a", Guard.of(ClockConstraint("xa", "=", 0)), {"xa"})])
        v = check_opacity(ta, "weak")
        assert (v.holds, v.side, v.witness) == (False, "priv-not-pub", tw(("a", F(1, 2))))


@pytest.mark.parametrize("domain", ["dense", "discrete"])
def test_every_engine_notes_an_empty_language(domain):
    """The initial invariant fails, so the model has no run: every weak/full
    engine answers holds with the note `empty language`, and a bad cap is
    still refused."""
    ta = make_ta(actions={"a"}, locations={"p", "q"}, init="p", final={"q"}, clocks={"xa"},
                 invariant={"p": Guard.of(ClockConstraint("xa", ">", 0))},
                 edges=[edge("p", "q", "a", resets={"xa"})], time_domain=domain)
    engines = ["oera", "discrete"] if domain == "discrete" else ["oera"]
    for mode in ("weak", "full"):
        verdicts = [check_opacity(ta, mode, engine=engine) for engine in engines]
        verdicts += [check_bounded(ta, sel, mode) for sel in (FirstN(1), Dynamic(1))]
        for v in verdicts:
            assert (v.holds, v.witness, v.side, v.note) == (True, None, None, "empty language")
        with pytest.raises(BadRegionCap):
            check_opacity(ta, mode, engine="oera", cap=0)
        with pytest.raises(BadRegionCap):
            check_bounded(ta, FirstN(1), mode, cap=0)


class TestMetamorphic:
    def corpus(self):
        rng = random.Random(424242)
        out = [fig1_ta("discrete")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while len(out) < 14:
                ta = random_discrete_ta(rng)
                if not validate_errors(validate(ta)):
                    out.append(ta)
        return out

    def test_full_equals_weak_plus_swapped_weak(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ta in self.corpus():
                full = check_opacity(ta, "full").holds
                weak = check_opacity(ta, "weak").holds
                weak_swap = check_opacity(swap_gadget(ta), "weak").holds
                assert full == (weak and weak_swap)

    def test_weak_equals_embedded_full(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ta in self.corpus():
                assert check_opacity(ta, "weak").holds == check_opacity(embed_gadget(ta), "full").holds

    def test_inclusion_gadget_matches_language_inclusion(self):
        rng = random.Random(99)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            done = 0
            while done < 10:
                a, b = random_discrete_ta(rng), random_discrete_ta(rng)
                if validate_errors(validate(a)) or validate_errors(validate(b)):
                    continue
                done += 1
                inc, _ = language_inclusion_discrete(strip_private(a), strip_private(b))
                assert inc == check_opacity(inclusion_gadget(a, b), "weak").holds

    def test_inclusion_gadget_reflexive(self, fig1_discrete):
        assert check_opacity(inclusion_gadget(fig1_discrete, fig1_discrete), "weak").holds is True

    def test_inclusion_gadget_against_empty(self):
        a = single_word_ta("a", 1, "discrete")
        b = make_ta(actions={"a"}, locations={"s"}, init="s", final=set(), clocks=set(),
                    edges=[], time_domain="discrete")
        v = check_opacity(inclusion_gadget(a, b), "weak")
        assert v.holds is False
        assert v.witness == tw(("a", 1))


class TestCheckBounded:
    def test_fig1_first1(self, fig1):
        assert check_bounded(fig1, FirstN(1), "weak").holds is True
        v = check_bounded(fig1, FirstN(1), "full")
        assert (v.holds, v.side, str(v.witness)) == (False, "pub-not-priv", "(b, 0)")
        # the projected witness extends to a run of the public unfolding
        assert accepts_word(unfold_first_n(build_pub(fig1), 1), v.witness)
        assert not accepts_word(unfold_first_n(build_priv(fig1), 1), v.witness)

    @pytest.mark.parametrize(
        "sel, witness",
        [(FirstN(2), "(b, 0)"), (FirstN(3), "(b, 0)"), (Dynamic(1), "(o0, 0) (b, 0)"),
         (Dynamic(2), "(o0, 0) (b, 0)")],
        ids=["first2", "first3", "dynamic1", "dynamic2"],
    )
    def test_fig1_ladder_answers(self, fig1, sel, witness):
        assert check_bounded(fig1, sel, "weak").holds is True
        v = check_bounded(fig1, sel, "full")
        assert (v.holds, v.side, str(v.witness)) == (False, "pub-not-priv", witness)
        # the witness is a word of the public unfolding and not of the private one
        base, n = (fig1, sel.n) if isinstance(sel, FirstN) else (unfold_free(fig1, sel.n), 2 * sel.n)
        assert accepts_word(unfold_first_n(build_pub(base), n), v.witness)
        assert not accepts_word(unfold_first_n(build_priv(base), n), v.witness)

    @pytest.mark.parametrize("sel, calls", [
        (FirstN(1), [(True, None, 22), (False, ("b", "f{0,1}"), 8)]),
        (FirstN(2), [(True, None, 115), (False, ("b", "f{0,1,2}"), 30)]),
        (FirstN(3), [(True, None, 554), (False, ("b", "f{0,1,2,3}"), 34)]),
        (Dynamic(1), [(True, None, 108), (False, ("o0", "b", "f{0,1,2}"), 39)]),
        (Static((F(0), F(1, 2), F(3, 2))), [(True, None, 855), (False, ("a", "f{0,1,2,3}"), 8)]),
    ], ids=["first1", "first2", "first3", "dynamic1", "static"])
    def test_fig1_ladder_inclusion_calls(self, fig1, monkeypatch, sel, calls):
        """(holds, counterexample, explored) of every inclusion a fig1 ladder
        query runs: weak runs the first, full both. `explored` pins the
        subset construction of the one NFA: each macro-state is counted by
        its states once, when first reached, and a violated inclusion stops
        once every word still to come is longer than its counterexample,
        the word a macro-state's first word and an ending make."""
        from topaq import deciders, nfa

        seen = []

        def recording(*args, **kwargs):
            res = nfa.check_inclusion(*args, **kwargs)
            seen.append((res.holds, res.counterexample, res.explored))
            return res

        monkeypatch.setattr(deciders, "check_inclusion", recording)
        for mode, want in (("weak", calls[:1]), ("full", calls)):
            seen.clear()
            decide(fig1, mode, sel)
            assert seen == want

    def test_first0_weak_compares_empty_projections(self, fig1):
        assert check_bounded(fig1, FirstN(0), "weak").holds is True
        assert check_bounded(fig1, FirstN(0), "full").holds is True

    def test_first0_detects_empty_private_side(self):
        # private side empty, public side nonempty: weak holds, full fails on ε
        ta = make_ta(
            actions={"a"}, locations={"l0", "lp", "lf"}, init="l0", private={"lp"},
            final={"lf"}, clocks=set(), edges=[edge("l0", "lf", "a")],
        )
        assert check_bounded(ta, FirstN(0), "weak").holds is True
        v = check_bounded(ta, FirstN(0), "full")
        assert v.holds is False and v.witness == TimedWord(())

    def test_static_verdicts_invariant_under_normalization(self, fig1):
        rng = random.Random(31)
        for _ in range(8):
            raw = tuple(sorted(F(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(rng.randint(1, 2))))
            v1 = check_bounded(fig1, Static(raw), "weak").holds
            v2 = check_bounded(fig1, Static(normalize_sequence(raw)), "weak").holds
            assert v1 == v2

    def test_static_agrees_with_oracle_violation(self, fig1):
        sel = Static((F(0), F(3, 2)))
        o = oracle_check(fig1, "full", sel, horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert o.status == "violated"
        assert check_bounded(fig1, sel, "full").holds is False

    def test_dynamic_reduces_to_free_unfolding(self, fig1):
        direct = check_bounded(fig1, Dynamic(1), "weak")
        reduced = check_bounded(unfold_free(fig1, 1), FirstN(2), "weak")
        assert direct.holds == reduced.holds
        direct = check_bounded(fig1, Dynamic(1), "full")
        reduced = check_bounded(unfold_free(fig1, 1), FirstN(2), "full")
        assert direct.holds == reduced.holds

    def test_discrete_input_is_discretized(self, fig1_discrete):
        assert check_bounded(fig1_discrete, FirstN(1), "weak").holds is True
        v = check_bounded(fig1_discrete, FirstN(1), "full")
        assert v.holds is False
        assert all(t.denominator == 1 for t in v.witness.timestamps())


# the bounded attackers of `bounded_pinned.txt`
PINNED_SELECTIONS = ([(f"first:{n}", FirstN(n)) for n in range(1, 6)]
                     + [(f"dynamic:{n}", Dynamic(n)) for n in (1, 2)]
                     + [("static:0,1/2,3/2", Static((F(0), F(1, 2), F(3, 2))))])


def pinned_bounded_lines():
    """(holds, witness, side, note) of `check_bounded` on every model in
    `models/`, under each attacker of `PINNED_SELECTIONS`, weak and full."""
    lines = []
    for path in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.ta")):
        ta = parse_model(path.read_text())
        for label, sel in PINNED_SELECTIONS:
            for mode in ("weak", "full"):
                v = check_bounded(ta, sel, mode)
                witness = "-" if v.witness is None else v.witness
                lines.append(f"{path.stem}/{label}/{mode} | {v.holds} | {witness} | {v.side} | {v.note or '-'}\n")
    return lines


def test_bounded_answers_pinned():
    """Every answer of the bounded engine on the queries of
    `pinned_bounded_lines`, as recorded in `bounded_pinned.txt`: the
    automata the engine builds may change, its verdicts, witnesses, sides
    and notes may not."""
    pinned = (Path(__file__).resolve().parent / "bounded_pinned.txt").read_text()
    assert "".join(pinned_bounded_lines()) == pinned


EXISTS_OERA_SEED = 20261019


def pinned_exists_models():
    """(name, automaton) of every model in `models/` and its first-1 to
    first-3 and static 0,1/2,3/2 unfoldings, the criterion-5 discrete
    corpus and 60 random observable ERAs of a fixed seed."""
    models = []
    tau = normalize_sequence((F(0), F(1, 2), F(3, 2)))
    for path in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.ta")):
        ta = parse_model(path.read_text())
        models.append((path.stem, ta))
        models += [(f"{path.stem}/first:{n}", unfold_first_n(ta, n)) for n in (1, 2, 3)]
        models.append((f"{path.stem}/static:0,1/2,3/2", unfold_tau(ta, tau)))
    models += [(f"criterion5-{i}", ta) for i, ta in enumerate(CORPUS)]
    rng = random.Random(EXISTS_OERA_SEED)
    models += [(f"oera-{i}", random_oera(rng)) for i in range(60)]
    return models


def test_exists_answers_pinned():
    """Every answer of `check_exists` on `pinned_exists_models`, as recorded
    in `exists_pinned.txt`, and every witness a trace of both the private
    and the public runs."""
    lines = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # `build_pub` of a private initial location
        for name, ta in pinned_exists_models():
            v = check_exists(ta)
            if v.witness is not None:
                assert accepts_word(build_priv(ta), v.witness), name
                assert accepts_word(build_pub(ta), v.witness), name
            lines.append(f"{name} | {v.holds} | {'-' if v.witness is None else v.witness} | {v.side}\n")
    pinned = (Path(__file__).resolve().parent / "exists_pinned.txt").read_text()
    assert "".join(lines) == pinned


PLANTED_SEED = 20261020


def test_exists_on_planted_shared_traces():
    """`check_exists` on 60 models with a planted shared trace
    (`plant_shared_trace`), 30 discrete and 30 dense, where existential
    opacity holds in about two of three (38): every witness is a trace of both
    the private and the public runs, and the oracle finds a shared trace
    within its bounds exactly when the engine does."""
    rng = random.Random(PLANTED_SEED)
    held = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # vacuous guards of the random bases
        for i in range(60):
            if i < 30:
                ta = plant_shared_trace(rng, random_discrete_ta(rng))
                o = oracle_check(ta, "exists", horizon=F(3), max_steps=6)
            else:
                ta = plant_shared_trace(rng, random_oera(rng))
                o = oracle_check(ta, "exists", horizon=F(4), max_steps=4, granularity=F(1, 2))
            v = check_exists(ta)
            if v.holds:
                assert accepts_word(build_priv(ta), v.witness), i
                assert accepts_word(_public_runs(ta), v.witness), i
            assert (o.holds is True) == v.holds, i
            held += v.holds
    assert 20 <= held <= 50


class TestDecide:
    def test_exists_under_static_rescales_the_unfolding_witness(self, fig1):
        # the existential answer against switch times, computed the long way
        tau = normalize_sequence((F(0), F(3, 2)))
        factor = len({t - (t.numerator // t.denominator) for t in tau} - {F(0)}) + 1
        inner = check_exists(unfold_tau(fig1, tau))
        expected = Verdict(inner.holds, inner.witness.scaled(F(1, factor)), inner.side,
                           "witness uses the normalized switch-time sequence")
        assert decide(fig1, "exists", Static((F(0), F(3, 2)))) == expected

    def test_routes_to_the_deciders(self, fig1, fig1_discrete):
        assert decide(fig1, "exists") == check_exists(fig1)
        assert decide(fig1, "exists", FirstN(1)) == check_exists(unfold_first_n(fig1, 1))
        assert decide(fig1, "full", Dynamic(1)) == check_bounded(fig1, Dynamic(1), "full")
        assert decide(fig1_discrete, "full") == check_opacity(fig1_discrete, "full")
        bounds = dict(horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert decide(fig1, "full", FirstN(1), engine="oracle", **bounds) == oracle_check(
            fig1, "full", FirstN(1), **bounds)

    def test_refusals(self, fig1):
        with pytest.raises(UndecidableClass, match="^existential opacity against a dynamic attacker"):
            decide(fig1, "exists", Dynamic(1))
        with pytest.raises(UndecidableClass, match="^the dynamic attacker has no executable projection"):
            decide(fig1, "weak", Dynamic(1), engine="oracle")
        # a ladder engine decides unbounded weak/full opacity only, on any automaton
        engine_only = ("^the {} engine decides unbounded weak/full opacity only; "
                       "existential and bounded questions take engine auto or oracle$")
        with pytest.raises(UndecidableClass, match=engine_only.format("oera")):
            decide(fig1, "exists", engine="oera")
        with pytest.raises(UndecidableClass, match=engine_only.format("discrete")):
            decide(fig1, "weak", FirstN(1), engine="discrete")
        with pytest.raises(UndecidableClass, match=engine_only.format("discrete")):
            decide(fig1_ta("discrete"), "full", Static((F(0),)), engine="discrete")
        # the oracle's bounds need the oracle engine
        with pytest.raises(BadOracleBound, match="^horizon must be unset unless the engine is oracle, got -5$"):
            decide(fig1, "weak", FirstN(1), horizon=F(-5), granularity=F(0))
        with pytest.raises(BadOracleBound, match="^max_steps must be unset unless the engine is oracle, got 4$"):
            decide(fig1_ta("discrete"), "weak", max_steps=4)
        with pytest.raises(BadOracleBound, match="^granularity must be unset unless the engine is oracle, got 1/2$"):
            decide(fig1, "exists", granularity=F(1, 2))
        # a bool is an int to Python, but no step budget
        with pytest.raises(BadOracleBound, match="^max_steps must be a positive integer, got True$"):
            decide(fig1, "weak", engine="oracle", max_steps=True)
        # an unknown engine is a usage error wherever it is given
        for args in ((fig1, "exists"), (fig1, "weak", FirstN(1)), (fig1, "weak")):
            with pytest.raises(ValueError, match="^unknown engine 'sideways'$"):
                decide(*args, engine="sideways")
        with pytest.raises(ValueError, match="^unknown engine 'oracle'$"):
            check_opacity(fig1, "weak", engine="oracle")

    def test_every_engine_returns_one_verdict_type(self, fig1, fig1_discrete):
        bounds = dict(horizon=F(4), granularity=F(1, 2))
        verdicts = [
            check_exists(fig1),
            check_opacity(fig1_discrete, "weak"),
            decide(fig1, "full", engine="oracle", **bounds),
            check_bounded(fig1, FirstN(1), "full"),
            oracle_check(fig1, "full", **bounds),
        ]
        assert all(type(v) is Verdict for v in verdicts)
        assert [v.status for v in verdicts] == ["holds", "holds", "violated", "violated", "violated"]


class TestVerifyWitness:
    def interval_ta(self):
        return make_ta(
            actions={"a"}, locations={"s", "f"}, init="s", final={"f"}, clocks={"c"},
            edges=[edge("s", "f", "a", Guard.of(ClockConstraint("c", ">", 2), ClockConstraint("c", "<", 3)))],
        )

    def test_worked_example(self):
        ra = build_region_automaton(reference_tick_construction(self.interval_ta(), 1))
        acc, other = verify_witness(ra, None, "t^2 a f{0} f{1}")
        assert acc is True and other is None
        assert verify_witness(ra, None, "t^3 a f{0} f{1}")[0] is False
        assert verify_witness(ra, None, "t^2 a f{0,1}")[0] is False

    def test_two_automata(self, fig1):
        ra1 = build_region_automaton(reference_tick_construction(build_priv(fig1), 1))
        ra2 = build_region_automaton(reference_tick_construction(build_pub(fig1), 1))
        acc1, acc2 = verify_witness(ra1, ra2, "t b f{0} f{1}")
        assert acc1 is True and acc2 is True
        acc1, acc2 = verify_witness(ra1, ra2, "t^3 b f{0,1}")
        assert acc1 is False and acc2 is True

    def test_empty_description_on_epsilon_accepting_automaton(self):
        ta = make_ta(actions={"a"}, locations={"s"}, init="s", final={"s"}, clocks=set(), edges=[])
        ra = build_region_automaton(ta)
        assert verify_witness(ra, None, "")[0] is True

    def test_unknown_letter_is_an_error(self):
        ra = build_region_automaton(reference_tick_construction(self.interval_ta(), 1))
        with pytest.raises(ValueError):
            verify_witness(ra, None, "t z f{0}")

    def test_matches_expanded_simulation(self):
        rng = random.Random(7)
        ra = build_region_automaton(reference_tick_construction(self.interval_ta(), 1))
        m = from_region_automaton(ra)
        letters = [a for a in m.alphabet if a != "t"]
        for _ in range(60):
            tokens = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.5:
                    tokens.append(f"t^{rng.randint(0, 40)}")
                else:
                    tokens.append(rng.choice(letters))
            desc = " ".join(tokens)
            parsed = parse_witness_description(desc)
            assert verify_witness(ra, None, desc)[0] == nfa_accepts_expanded(m, parsed)

    def test_huge_exponent_runs(self):
        ra = build_region_automaton(reference_tick_construction(self.interval_ta(), 1))
        acc, _ = verify_witness(ra, None, f"t^{2**64} a f{{0}} f{{1}}")
        assert acc is False  # the guard caps waiting at 3 units
