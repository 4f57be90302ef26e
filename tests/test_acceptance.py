"""Acceptance suite: one test per exit criterion, each printing a pass line
with its runtime. Random sweeps are seeded and deterministic."""

import random
import time
import warnings
from fractions import Fraction as F

from conftest import fig1_ta, nfa_accepts_expanded, oera_pair_ta, random_discrete_ta
from reference_languages import language_inclusion_discrete, reference_tick_construction
from reference_nfa import language_upto
from reference_regions import graph_of
from topaq.constructions import (
    build_priv,
    build_pub,
    embed_gadget,
    inclusion_gadget,
    strip_private,
    swap_gadget,
)
from topaq.deciders import (
    accepts_word,
    check_bounded,
    check_exists,
    check_opacity,
    decide,
    parse_witness_description,
    verify_witness,
)
from topaq.nfa import _reach_table, from_region_automaton
from topaq.observers import (
    Dynamic,
    FirstN,
    Static,
    normalize_sequence,
    unfold_free,
)
from topaq.oracle import discrete_state_count, oracle_check
from topaq.regions import (
    augment_ticks,
    build_region_automaton,
    region_state_bound,
)
from topaq.ta import (
    ClockConstraint,
    Guard,
    TimedWord,
    edge,
    make_ta,
    validate,
    validate_errors,
)
from topaq.words import class_recognizer, ticked_word, word_equiv


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            print(f"PASS {self.name} [{elapsed:.2f}s / budget {self.seconds}s]")
            assert elapsed < self.seconds, f"{self.name} exceeded its {self.seconds}s budget"
        else:
            print(f"FAIL {self.name} [{elapsed:.2f}s]")
        return False


def random_word(rng, max_len=5, max_den=6, letters="ab"):
    n = rng.randint(0, max_len)
    t = F(0)
    out = []
    for _ in range(n):
        t += F(rng.randint(0, 3), rng.randint(1, max_den))
        out.append((rng.choice(letters), t))
    return TimedWord(tuple(out))


def equivalent_variant(rng, w):
    """A word equivalent to w: integral parts kept, fractions rescaled."""
    k = F(rng.randint(1, 4), 5)
    stamps = []
    for t in w.timestamps():
        ip = t.numerator // t.denominator
        stamps.append(ip + (t - ip) * k)
    if any(a > b for a, b in zip(stamps, stamps[1:])):
        return w
    return TimedWord(tuple((a, t) for (a, _), t in zip(w, stamps)))


def test_criterion_1_worked_example():
    with Budget("criterion 1 (worked example verdicts)", 1.0):
        fig1 = fig1_ta()
        assert check_exists(fig1).holds is True
        weak = decide(fig1, "weak", engine="oracle", horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert weak.holds is not False  # no violation found
        full = decide(fig1, "full", engine="oracle", horizon=F(4), granularity=F(1, 2), max_steps=4)
        assert full.holds is False
        assert accepts_word(build_pub(fig1), full.witness)
        assert not accepts_word(build_priv(fig1), full.witness)
        stamp = full.witness.timestamps()[0]
        assert F(2) < stamp <= F(3)


def test_criterion_2_ticked_word_table():
    with Budget("criterion 2 (ticked-word table, byte-exact)", 1.0):
        w = TimedWord.of(("a", F(12, 10)), ("b", F(15, 10)), ("c", 2), ("d", F(23, 10)))
        assert ticked_word(w, 4).render() == "t a b t c d f{0,3} f{1} f{4} f{2}"


def test_criterion_3_tick_bijection():
    with Budget("criterion 3 (tick bijection, 1000 pairs)", 5.0):
        rng = random.Random(3141592)
        counterexamples = 0
        for i in range(1000):
            w = random_word(rng)
            if i % 3 == 0:
                v = equivalent_variant(rng, w)
            elif i % 3 == 1:
                v = random_word(rng)
            else:
                v = TimedWord(w.letters[:-1]) if len(w) else random_word(rng)
            n = max(len(w), len(v))
            if (ticked_word(w, n) == ticked_word(v, n)) != word_equiv(w, v):
                counterexamples += 1
        assert counterexamples == 0


def test_criterion_4_class_recognizer():
    with Budget("criterion 4 (class recognizer, 50 x 200)", 60.0):
        rng = random.Random(2718281)
        disagreements = 0
        for _ in range(50):
            w = random_word(rng, max_len=4, letters="abc")
            rec = class_recognizer(w)
            grid = sorted({t - (t.numerator // t.denominator) for t in w.timestamps()} | {F(0), F(1, 5)})
            for i in range(200):
                if i % 2 == 0 and len(w):
                    stamps = sorted(rng.randint(0, 4) + rng.choice(grid) for _ in range(len(w)))
                    v = TimedWord(tuple((a, t) for (a, _), t in zip(w, stamps)))
                else:
                    v = random_word(rng, max_len=4, letters="abc")
                if accepts_word(rec, v) != word_equiv(v, w):
                    disagreements += 1
        assert disagreements == 0


def test_criterion_5_discrete_decider_vs_oracle():
    with Budget("criterion 5 (100 random discrete TAs vs oracle)", 120.0):
        rng = random.Random(20240601)
        checked = skipped = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while checked < 100:
                ta = random_discrete_ta(rng)
                if validate_errors(validate(ta)) or discrete_state_count(ta) > 36:
                    continue
                states = discrete_state_count(ta)
                o_weak = oracle_check(ta, "weak", max_steps=states, node_cap=40_000)
                o_full = oracle_check(ta, "full", max_steps=states, node_cap=40_000)
                if "inconclusive" in (o_weak.status, o_full.status):
                    skipped += 1
                    continue
                checked += 1
                assert check_opacity(ta, "weak", engine="discrete").holds == (o_weak.status == "holds")
                assert check_opacity(ta, "full", engine="discrete").holds == (o_full.status == "holds")
        print(f"  (100 definitive instances, {skipped} inconclusive skipped)")


def test_criterion_6_oera_decider():
    with Budget("criterion 6 (observable-ERA example)", 1.0):
        guarded = oera_pair_ta(True)
        v = check_opacity(guarded, "weak", engine="oera")
        assert v.holds is False
        (a, t1), (b, t2) = v.witness.letters
        assert (a, b) == ("a", "b")
        assert t2 - t1 < 1
        concur = oracle_check(guarded, "weak", horizon=F(3), granularity=F(1, 2), max_steps=3)
        assert concur.status == "violated"
        assert check_opacity(oera_pair_ta(False), "weak", engine="oera").holds is True


def test_criterion_7_bounded_attacker_pipeline():
    with Budget("criterion 7 (bounded attackers)", 60.0):
        fig1 = fig1_ta()
        assert check_bounded(fig1, FirstN(1), "weak").holds is True
        assert check_bounded(fig1, FirstN(1), "full").holds is False
        rng = random.Random(31415)
        for _ in range(20):
            tau = tuple(sorted(F(rng.randint(0, 4), rng.choice([1, 2])) for _ in range(rng.randint(1, 2))))
            raw = check_bounded(fig1, Static(tau), "weak").holds
            normed = check_bounded(fig1, Static(normalize_sequence(tau)), "weak").holds
            assert raw == normed
        direct = check_bounded(fig1, Dynamic(1), "weak")
        reduced = check_bounded(unfold_free(fig1, 1), FirstN(2), "weak")
        assert direct.holds == reduced.holds


def test_criterion_8_metamorphic_interreductions():
    with Budget("criterion 8 (inter-reduction identities)", 60.0):
        rng = random.Random(8888)
        corpus = [fig1_ta("discrete")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            while len(corpus) < 12:
                ta = random_discrete_ta(rng)
                if not validate_errors(validate(ta)):
                    corpus.append(ta)
            for ta in corpus:
                full = check_opacity(ta, "full").holds
                weak = check_opacity(ta, "weak").holds
                assert full == (weak and check_opacity(swap_gadget(ta), "weak").holds)
                assert weak == check_opacity(embed_gadget(ta), "full").holds
            done = 0
            while done < 8:
                a, b = random_discrete_ta(rng), random_discrete_ta(rng)
                if validate_errors(validate(a)) or validate_errors(validate(b)):
                    continue
                done += 1
                inc, _ = language_inclusion_discrete(strip_private(a), strip_private(b))
                assert inc == check_opacity(inclusion_gadget(a, b), "weak").holds


def test_criterion_9_region_count_bounds():
    with Budget("criterion 9 (region-count bounds)", 60.0):
        fig1 = fig1_ta()
        subjects = [
            fig1,
            fig1_ta("discrete"),
            augment_ticks(fig1_ta("discrete")),
            build_priv(fig1),
            oera_pair_ta(True),
        ]
        for ta in subjects:
            ra = build_region_automaton(ta)
            assert len(ra.states) <= region_state_bound(ta)
        # the construction itself re-asserts the bound on every build; now the
        # per-word bound for tick constructions on logged runs
        for base, n in [(build_priv(fig1), 1), (build_pub(fig1), 1)]:
            n_clocks = len(base.clocks)
            maxc = max(base.max_constants().values(), default=0)
            bound_b = (
                (n + 1) ** 3
                * len(base.locations)
                * (2 * n + 3)
                * (2 * maxc + 2) ** n_clocks
                * 2 ** n_clocks
                * (n + n_clocks + 1) ** n_clocks
            )
            ra = build_region_automaton(reference_tick_construction(base, n))
            m = from_region_automaton(ra)
            # the NFA's sets keep only active states; bound the full closures
            # of the region graph along the same words
            _, _, _, eps, trans = graph_of(ra)
            full = _reach_table(eps, list(range(ra.n_states)))
            for word in sorted(language_upto(m, 8))[:40]:
                visited = set()
                states = full[0]
                visited |= states
                for letter in word:
                    raw = [t for s in states for t in trans[s].get(letter, ())]
                    states = frozenset().union(*(full[t] for t in raw))
                    visited |= states
                assert len(visited) <= bound_b, f"word {word} visited {len(visited)} > B={bound_b}"


def test_criterion_10_witness_verifier():
    with Budget("criterion 10 (matrix witness verifier)", 30.0):
        rng = random.Random(1010)
        interval = make_ta(
            actions={"a"}, locations={"s", "f"}, init="s", final={"f"}, clocks={"c"},
            edges=[edge("s", "f", "a", Guard.of(ClockConstraint("c", ">", 2), ClockConstraint("c", "<", 3)))],
        )
        fig1 = fig1_ta()
        ras = [
            build_region_automaton(reference_tick_construction(interval, 1)),
            build_region_automaton(reference_tick_construction(build_priv(fig1), 1)),
            build_region_automaton(reference_tick_construction(build_pub(fig1), 1)),
        ]
        nfas = [from_region_automaton(ra) for ra in ras]
        for i in range(200):
            ra = ras[i % len(ras)]
            m = nfas[i % len(ras)]
            letters = [a for a in m.alphabet if a != "t"]
            tokens = []
            for _ in range(rng.randint(1, 6)):
                if rng.random() < 0.5:
                    tokens.append(f"t^{rng.randint(0, 2 ** 10)}")
                else:
                    tokens.append(rng.choice(letters))
            desc = " ".join(tokens)
            squared = verify_witness(ra, None, desc)[0]
            expanded = nfa_accepts_expanded(m, parse_witness_description(desc))
            assert squared == expanded
            # splitting an exponent must not change acceptance
            resplit = []
            for tok in tokens:
                if tok.startswith("t^"):
                    k = int(tok[2:])
                    j = rng.randint(0, k)
                    resplit.extend([f"t^{j}", f"t^{k - j}"])
                else:
                    resplit.append(tok)
            assert verify_witness(ra, None, " ".join(resplit))[0] == squared
