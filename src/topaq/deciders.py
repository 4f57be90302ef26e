"""Opacity decision procedures. `decide` is the one router: it checks the
question, picks the engine and reduces a bounded attacker (`_attacker`).
Below it: the existence check; one region-to-inclusion pipeline
(`_ticked_language`, on a region build its caller makes) under the
discrete-time and observable event-recording engines and the bounded
attacker, which differ only in what a delay edge reads and, for the bounded
attacker, in the build (`observers.tick_regions`) and the ending its stop
rule gives its stop regions (`_first_n_stop`); the class ladder that says
which automata the two engines decide and why the rest are refused
(`LADDER`); and the matrix-based witness verifier."""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from . import nfa as nfalib
from .constructions import MEMO_TAGS, _public_runs, build_memo, build_priv, product, relax_finals
from .nfa import NFA, check_inclusion, from_region_automaton
from .observers import (
    Dynamic,
    FirstN,
    Static,
    TimeSelection,
    _tick_columns,
    normalize_sequence,
    switch_scale,
    tick_regions,
    unfold_first_n,
    unfold_free,
    unfold_tau,
)
from .oracle import BadOracleBound, oracle_check
from .regions import (
    RegionAutomaton,
    TICK_LETTER,
    _canonical_delay,
    build_region_automaton,
    concretize_region_path,
    force_integer_actions,
    region_cap,
    reserve_letters,
    tick_decode,
)
from .ta import EPSILON, TimedAutomaton, TimedWord, Verdict, collector_off
from .words import class_recognizer, parse_group, render_group


NORMALIZED_NOTE = "witness uses the normalized switch-time sequence"
ARMING_NOTE = "witness includes the attacker's arming letters"
EMPTY_NOTE = "empty language"


class UndecidableClass(Exception):
    """No sound engine applies to this automaton class or question."""


@collector_off
def decide(
    ta: TimedAutomaton,
    mode: str,
    sel: Optional[TimeSelection] = None,
    engine: str = "auto",
    horizon: Optional[Fraction] = None,
    max_steps: Optional[int] = None,
    granularity: Optional[Fraction] = None,
) -> Verdict:
    """Existential, weak or full opacity (`mode`) against the attacker `sel`
    (None: unbounded; FirstN, Static or Dynamic: bounded).

    engine=oracle runs the bounded enumerative search with `horizon`,
    `max_steps` and `granularity` as its bounds; any other engine refuses
    them with `BadOracleBound`. Unbounded weak/full opacity goes through
    `check_opacity` with the given engine; existential opacity (region
    reachability) and a bounded attacker (`check_bounded`) take engine auto
    only, on the attacker's reduction (`_attacker`). Raises UndecidableClass
    where no procedure applies.

    The query runs with the cyclic garbage collector off (`collector_off`),
    as do the engines called on their own. The setting is global to the
    process, so another thread sees the collector off while a query runs.
    """
    if engine == "oracle":
        if isinstance(sel, Dynamic):
            raise UndecidableClass("the dynamic attacker has no executable projection; "
                                   "the oracle supports first:N and static:LIST only")
        return oracle_check(ta, mode, sel, horizon=horizon, max_steps=max_steps, granularity=granularity)
    for name, bound in (("horizon", horizon), ("max_steps", max_steps), ("granularity", granularity)):
        if bound is not None:
            raise BadOracleBound(name, bound, "unset unless the engine is oracle")
    if mode != "exists" and sel is None:
        return check_opacity(ta, mode, engine=engine)
    if engine != "auto":
        raise UndecidableClass(f"the {_engine_rung(engine).name} engine decides unbounded weak/full opacity "
                               "only; existential and bounded questions take engine auto or oracle")
    if mode != "exists":
        return check_bounded(ta, sel, mode)
    if sel is None:
        return check_exists(ta)
    if isinstance(sel, Dynamic):
        raise UndecidableClass("existential opacity against a dynamic attacker is not supported")
    automaton, n, scale, note = _attacker(ta, sel)
    # a switch-time unfolding observes at most n letters already
    return _noted(check_exists(unfold_first_n(automaton, n) if isinstance(sel, FirstN) else automaton),
                  scale, note)


def _attacker(ta: TimedAutomaton, sel: TimeSelection) -> tuple[TimedAutomaton, int, Fraction, Optional[str]]:
    """The one reduction of a bounded attacker to the first-N one: the
    automaton whose first-`n` projections are the traces `sel` observes of
    `ta`, that `n`, the factor that maps a witness on it back to `ta`'s time
    scale, and the note that says how to read that witness (None: as it is).

    First-N is `ta` itself. Static switch times: the unfolding of
    `dense_time(ta)` against the normalized sequence, with its constants
    scaled to integers. Dynamic: the free unfolding, where arming the
    sensor is a letter, so twice the observations. The unfoldings refuse
    more observations than the observation cap.
    """
    if isinstance(sel, FirstN):
        return ta, sel.n, Fraction(1), None
    if isinstance(sel, Static):
        tau = normalize_sequence(sel.times)
        return unfold_tau(dense_time(ta), tau), len(tau), Fraction(1, switch_scale(tau)), NORMALIZED_NOTE
    if isinstance(sel, Dynamic):
        return unfold_free(ta, sel.n), 2 * sel.n, Fraction(1), ARMING_NOTE
    raise TypeError(f"unsupported time selection {sel!r}")


def _noted(inner: Verdict, scale: Fraction, note: Optional[str]) -> Verdict:
    """`inner` with its witness mapped back by `scale` and read by `note`;
    a verdict without a witness, or a reduction without a note, is kept."""
    if note is None or inner.witness is None:
        return inner
    return Verdict(inner.holds, inner.witness.scaled(scale), inner.side, note)


def is_oera(ta: TimedAutomaton) -> bool:
    """Observable event-recording automaton: one clock per letter, every
    a-edge resets exactly a's clock, silent edges reset nothing."""
    if len(ta.clocks) != len(ta.actions):
        return False
    assigned: dict[str, str] = {}
    for e in ta.edges:
        if e.action is EPSILON:
            if e.resets:
                return False
            continue
        if len(e.resets) != 1:
            return False
        (clock,) = e.resets
        if assigned.setdefault(e.action, clock) != clock:
            return False
    if len(set(assigned.values())) != len(assigned):
        return False
    # letters without edges pair up with the leftover clocks
    return len(ta.actions - set(assigned)) == len(ta.clocks - set(assigned.values()))


@collector_off
def check_exists(ta: TimedAutomaton, cap: Optional[int] = None) -> Verdict:
    """Existential opacity: some trace produced by both a private and a
    public run, decided as final-region reachability in the product of the
    private-runs and public-runs automata."""
    prod = product(build_priv(ta), _public_runs(ta))
    path = build_region_automaton(prod, cap).shortest_accepting_path()
    if path is None:
        return Verdict(False, note="no trace is produced by both a private and a public run")
    return Verdict(True, witness=concretize_region_path(prod, path), side="intersection")


# ---------------------------------------------------------------------------
# The region-to-inclusion pipeline: discrete-time and event-recording engines

# the letter the event-recording engine reads a delay step as: it sorts before
# every model letter, so the shortlex order of its words takes a delay first
DELAY_LETTER = ""


def _ticked_language(ra: RegionAutomaton, tags: tuple[str, ...] = (), delay: Optional[str] = None) -> NFA:
    """Untimed language of the region automaton `ra`, whose delay edges
    are silent (`delay` None: a tick construction's build emits its own
    ticks `t`, by the wrap of its tick clock, `observers.tick_regions`) or
    read the letter `delay`, with the run of ticks (`t`, or `delay`)
    between the last observed letter and the f-letter suffix erased: they
    only encode unobserved waiting, which the trace does not record.
    Without f-letters the erased run is the trailing one.

    With `tags`, the final locations ending in the i-th tag make the i-th
    final class of the result, whose views (`NFA.views`) are the classes'
    languages: one region build, one conversion and one strip serve them
    all. For the bounded attacker, the build's stop rule gives instead
    each final state its ending (`ra.endings`): an f-suffix, whose letters
    are the strip's suffix letters, and the indices of its classes
    (`nfa.from_region_automaton`). Callers pass the build inline, so the
    `del` below frees it before the strip."""
    if ra.endings:
        classes = tuple(frozenset(i for i, (_, found) in ra.endings.items() if k in found)
                        for k in range(len(tags)))
        suffix = frozenset().union(*(word for word, _ in ra.endings.values()))
    else:  # a stop rule's build without endings has no final state either
        classes = tuple(frozenset(i for i in ra.final_ids if ra.location_of(i).endswith(tag)) for tag in tags)
        suffix = frozenset()
    m = from_region_automaton(ra, classes, delay)
    del ra  # its edge arrays and interning tables: the strip needs only `m`
    return nfalib.strip_ticks_before_suffix(m, suffix, TICK_LETTER if delay is None else delay)


def _tick_language(ta: TimedAutomaton, cap: Optional[int], tags: tuple[str, ...] = ()) -> NFA:
    """Ticked language of a discrete-time automaton: a delay edge of its
    region automaton is one time unit, read as a tick `t`."""
    if ta.time_domain != "discrete":
        raise ValueError("tick augmentation requires a discrete-time automaton")
    reserve_letters(ta.actions, [TICK_LETTER], "tick augmentation")
    return _ticked_language(build_region_automaton(ta, cap), tags, TICK_LETTER)


def _discrete_languages(ta: TimedAutomaton, cap: Optional[int]) -> list[NFA]:
    """[private, public] ticked languages of a discrete-time automaton: the
    two final classes of its memo automaton."""
    return _tick_language(build_memo(ta), cap, MEMO_TAGS).views()


def _check_discrete(ta: TimedAutomaton, mode: str, cap: Optional[int]) -> Verdict:
    priv, pub = _discrete_languages(ta, cap)
    return _compare(priv, pub, mode, tick_decode)


def _check_oera(ta: TimedAutomaton, mode: str, cap: Optional[int]) -> Verdict:
    """The private and public languages of the memo automaton's region
    words, with each delay step read as `DELAY_LETTER`, compared.

    In an observable ERA every run with the same timed trace carries the
    same clock valuation, so the region word of a trace (its letters and
    the delay steps between them) is the same on every run, and a trace is
    private or public exactly when its region word is. In full mode the
    shortlex-lesser of the two inclusions' counterexamples is reported:
    the first violation a breadth-first search over traces meets."""
    memo = build_memo(ta)
    reserve_letters(memo.actions, [DELAY_LETTER], "event-recording engine")
    priv, pub = _ticked_language(build_region_automaton(memo, cap), MEMO_TAGS, DELAY_LETTER).views()
    return _compare(priv, pub, mode, lambda tokens: decode_delay_tokens(memo, tokens), least=True)


def _compare(priv: NFA, pub: NFA, mode: str, decode, least: bool = False) -> Verdict:
    """Weak opacity as priv ⊆ pub, full also as pub ⊆ priv; a counterexample
    is decoded into the witness timed word. Full mode reports the first
    inclusion's counterexample, or with `least` the shortlex-lesser of
    both."""
    checks = [("priv-not-pub", priv, pub)]
    if mode == "full":
        checks.append(("pub-not-priv", pub, priv))
    found = []
    for side, a, b in checks:
        inc = check_inclusion(a, b)
        if not inc.holds:
            found.append((len(inc.counterexample), inc.counterexample, side))
            if not least:
                break
    if not found:
        return Verdict(True)
    _, word, side = min(found)
    return Verdict(False, witness=decode(word), side=side)


def decode_delay_tokens(ta: TimedAutomaton, tokens) -> TimedWord:
    """Timed word of a word of the observable ERA `ta` with delay steps
    (`DELAY_LETTER`): each delay step is one canonical delay
    (`_canonical_delay`) of the clocks, which every run on the word shares,
    and each letter is stamped with the time so far and resets its clock."""
    clock_of = {e.action: clock for e in ta.edges if e.action is not EPSILON for clock in e.resets}
    maxc = ta.max_constants()
    val = {x: Fraction(0) for x in ta.clocks}
    now = Fraction(0)
    letters = []
    for tok in tokens:
        if tok == DELAY_LETTER:
            d = _canonical_delay(val, maxc, ta.time_domain)
            now += d
            val = {x: v + d for x, v in val.items()}
        else:
            letters.append((tok, now))
            val[clock_of[tok]] = Fraction(0)
    return TimedWord(tuple(letters))


def language_inclusion_discrete(a: TimedAutomaton, b: TimedAutomaton, cap: Optional[int] = None):
    """Trace-language inclusion of two discrete-time TAs via their ticked
    region automata; returns (holds, counterexample timed word or None)."""
    inc = check_inclusion(_tick_language(a, cap), _tick_language(b, cap))
    return inc.holds, None if inc.holds else tick_decode(inc.counterexample)


# ---------------------------------------------------------------------------
# The class ladder for unbounded weak/full opacity


class Rung(NamedTuple):
    name: str
    member: Callable[[TimedAutomaton], bool]
    engine: Optional[Callable[[TimedAutomaton, str, Optional[int]], Verdict]]  # None: no exact engine
    label: Optional[str]  # the engine as `topaq classify` lists it
    refusal: str  # with an engine: why it refuses a non-member; without one: why members are refused


# `auto` takes the first class `ta` belongs to; the last one takes every automaton
LADDER = (
    Rung("discrete", lambda ta: ta.time_domain == "discrete", _check_discrete, "discrete-time engine",
         "the discrete engine requires a discrete-time automaton"),
    Rung("oera", is_oera, _check_oera, "observable-ERA engine",
         "the event-recording engine requires an observable ERA"),
    Rung("one-clock", lambda ta: len(ta.clocks) == 1 and not ta.has_epsilon_edges(), None, None,
         "weak/full opacity for one-clock automata without silent edges is decidable "
         "but not primitive recursive; no exact engine is implemented, use the bounded "
         "oracle engine for a semi-decision"),
    Rung("undecidable", lambda ta: True, None, None,
         "weak/full opacity is undecidable for general dense-time timed automata "
         "(already for one-clock automata with silent transitions, and from two "
         "clocks or one action onward); use a discrete-time model, an observable "
         "event-recording automaton, or the bounded oracle engine"),
)

# what `decide` answers on every automaton, as `topaq classify` lists it
GENERAL_DECIDERS = ["exists (region reachability)", "bounded attacker (first:N / static / dynamic)",
                    "oracle (bounded enumeration, semi-decision)"]


def _rung_of(ta: TimedAutomaton) -> Rung:
    return next(rung for rung in LADDER if rung.member(ta))


def _engine_rung(engine: str) -> Rung:
    for rung in LADDER:
        if rung.name == engine and rung.engine is not None:
            return rung
    raise ValueError(f"unknown engine {engine!r}")


def opacity_class(ta: TimedAutomaton) -> str:
    """The name of the first class of `LADDER` that `ta` belongs to."""
    return _rung_of(ta).name


def applicable(ta: TimedAutomaton) -> tuple[list[str], Optional[str]]:
    """The deciders that apply to `ta`, as `topaq classify` lists them, and
    why engine auto refuses unbounded weak/full opacity on it, or None."""
    engines = [f"weak/full ({rung.label})" for rung in LADDER if rung.engine is not None and rung.member(ta)]
    rung = _rung_of(ta)
    return GENERAL_DECIDERS + engines, None if rung.engine is not None else rung.refusal


@collector_off
def check_opacity(ta: TimedAutomaton, mode: str, engine: str = "auto", cap: Optional[int] = None) -> Verdict:
    """Weak or full opacity on the decidable classes of `LADDER`: engine auto
    runs the engine of `ta`'s class or refuses the class, an explicit engine
    (`discrete`, `oera`) refuses an automaton outside its class. Both
    engines compare the private and public languages of the memo
    automaton's region words, a delay edge read as a tick (`discrete`) or
    as `DELAY_LETTER` (`oera`); `cap` bounds that one region build. A
    model whose initial invariant fails has no run: it holds, with the note
    `EMPTY_NOTE`, as it does for `check_bounded`."""
    if mode not in ("weak", "full"):
        raise ValueError("mode must be 'weak' or 'full'")
    rung = _rung_of(ta) if engine == "auto" else _engine_rung(engine)
    if rung.engine is None or (engine != "auto" and not rung.member(ta)):
        raise UndecidableClass(rung.refusal)
    if _has_no_run(ta, cap):
        return Verdict(True, note=EMPTY_NOTE)
    return rung.engine(ta, mode, cap)


def _has_no_run(ta: TimedAutomaton, cap: Optional[int]) -> bool:
    """The initial configuration of `ta` violates the initial invariant, so
    its language is empty and every weak/full question holds. A bad `cap`
    is refused first, as the region build would refuse it."""
    region_cap(cap)
    return not ta.invariant_of(ta.init).holds(ta.zero_valuation())


# ---------------------------------------------------------------------------
# Bounded-attacker pipeline


@collector_off
def check_bounded(
    ta: TimedAutomaton,
    sel: TimeSelection,
    mode: str,
    cap: Optional[int] = None,
) -> Verdict:
    """Weak/full opacity against a bounded attacker: the private and public
    ticked languages of the attacker's first-N reduction (`_attacker`),
    read off one region build (`_first_n_languages`) and compared as
    untimed regular languages. For switch times the projection is the
    identity on the already bounded language of the unfolding.
    """
    if mode not in ("weak", "full"):
        raise ValueError("mode must be 'weak' or 'full'")
    automaton, n, scale, note = _attacker(ta, sel)
    if _has_no_run(ta, cap):
        return Verdict(True, note=EMPTY_NOTE)
    priv, pub = _first_n_languages(automaton, n, cap)
    return _noted(_compare(priv, pub, mode, decode_ticked_tokens), scale, note)


def _first_n_languages(ta: TimedAutomaton, n: int, cap: Optional[int]) -> list[NFA]:
    """[private, public] ticked first-N languages of `ta`, read off one
    region build of the `tick_construction` of its memo automaton
    (`tick_regions`) that stops where a run stops (`_first_n_stop`): the
    f-letters the ending of a stop region carries complete each ticked
    word."""
    memo = build_memo(dense_time(ta))
    return _ticked_language(tick_regions(memo, n, cap, _first_n_stop(memo, n, cap)), MEMO_TAGS).views()


def _first_n_stop(memo: TimedAutomaton, n: int, cap: Optional[int]) -> Callable:
    """The stop rule of `tick_regions(memo, n)`. The ending of a final
    region is the f-suffix of its observation clocks' fractional groups
    (`_suffix_word`) and the indices of the classes of `MEMO_TAGS` a run
    reaches from its location and model clocks (`_reachable_classes`), or
    None when it reaches none. The build's model clocks take the constants
    of the final-relaxed memo automaton that `_reachable_classes` builds,
    so their codes and ranks are keys of its table. The rule works out
    each clock region's model part and suffix word once, and each
    location's memo location once. `_tick_columns` refuses first."""
    model, observed = _tick_columns(memo, n)
    reachable = _reachable_classes(memo, cap)
    bases: dict[str, str] = {}  # location of the tick construction -> its memo location
    views: dict[tuple, tuple] = {}  # (codes, ranks) -> model codes, model ranks, suffix
    words: dict[tuple[int, ...], tuple[str, ...]] = {}  # observation ranks -> suffix

    def stop(location: str, codes: tuple[int, ...], ranks: tuple[int, ...]):
        base = bases.get(location)
        if base is None:
            base = bases[location] = location.rsplit("~", 1)[0]
        view = views.get((codes, ranks))
        if view is None:
            key = tuple(map(ranks.__getitem__, observed))
            word = words.get(key)
            if word is None:
                word = words[key] = _suffix_word(key)
            view = views[codes, ranks] = (tuple(map(codes.__getitem__, model)),
                                          _renumber(list(map(ranks.__getitem__, model))), word)
        found = reachable[base, view[0], view[1]]
        return (view[2], found) if found else None

    return stop


def _renumber(ranks: list[int]) -> tuple[int, ...]:
    """Fractional ranks of some clocks as a build on them alone ranks them:
    renumbered 1, 2, ... in order, 0 (a zero fraction) kept."""
    levels = sorted({0, *ranks})
    return tuple(map(levels.index, ranks))


def _suffix_word(ranks: tuple[int, ...]) -> tuple[str, ...]:
    """The f-suffix that completes the ticked word of a stop region whose
    observation clocks, tick clock first, have the fractional ranks `ranks`:
    their groups of equal fraction in the order they reach the next integer,
    decreasing cyclic order from the tick clock's group."""
    groups: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        groups.setdefault(r, []).append(i)
    order = sorted(groups, reverse=True)
    k = order.index(ranks[0])
    return tuple(_group_letter(tuple(groups[g])) for g in order[k:] + order[:k])


@functools.cache  # bounded: one entry per set of observation clocks, at most 2^(cap+1)
def _group_letter(indices: tuple[int, ...]) -> str:
    return render_group(indices)


def _reachable_classes(memo: TimedAutomaton, cap: Optional[int]) -> dict[tuple, tuple[int, ...]]:
    """The final classes (indices into `MEMO_TAGS`) a run of the
    final-relaxed memo automaton reaches from each region, letters read as
    silent, keyed by location, codes and ranks: a final's own class, and
    what the last copy of the unfolding, all silent, adds to a run entering
    it there (its observation clocks never block a move)."""
    ra = build_region_automaton(relax_finals(memo), cap)
    reach = nfalib._reach_table([ra.edge_target[ra._edge_start[i]:ra._edge_start[i + 1]]
                                 for i in range(ra.n_states)],
                                [i if i in ra.final_ids else None for i in range(ra.n_states)])
    own = {f: {k for k, tag in enumerate(MEMO_TAGS) if ra.location_of(f).endswith(tag)} for f in ra.final_ids}
    found: dict[int, tuple[int, ...]] = {}  # id of a row of `reach` -> its classes
    for row in reach:
        if id(row) not in found:
            found[id(row)] = tuple(sorted(set().union(*map(own.__getitem__, row))))
    return {(ra.location_of(i), *ra.clock_codes(i)): found[id(reach[i])] for i in range(ra.n_states)}


def dense_time(ta: TimedAutomaton) -> TimedAutomaton:
    """`ta` for the dense-time constructions: a discrete-time automaton is
    confined to integral instants (`force_integer_actions`), so it keeps its
    discrete trace sets; a dense-time one is returned as it is."""
    return force_integer_actions(ta) if ta.time_domain == "discrete" else ta


def decode_ticked_tokens(tokens) -> TimedWord:
    """Representative timed word of a ticked word: integral parts from the
    tick runs, the i-th fractional group mapped to fraction i/(m+2)."""
    gaps = []
    letters = []
    ticks = 0
    groups = []
    for tok in tokens:
        if tok == TICK_LETTER:
            ticks += 1
        elif tok.startswith("f{"):
            groups.append(parse_group(tok))
        else:
            letters.append(tok)
            gaps.append(ticks)
            ticks = 0
    m = len(groups) - 1
    frac_of_index: dict[int, Fraction] = {}
    for g_idx, group in enumerate(groups):
        for i in group:
            frac_of_index[i] = Fraction(g_idx, m + 2) if m >= 0 else Fraction(0)
    out = []
    base = 0
    for i, (letter, gap) in enumerate(zip(letters, gaps), start=1):
        base += gap
        out.append((letter, base + frac_of_index.get(i, Fraction(0))))
    return TimedWord(tuple(out))


# ---------------------------------------------------------------------------
# Witness descriptions with large tick exponents


class WitnessFormatError(ValueError):
    pass


def parse_witness_description(desc: Union[str, list]) -> list[tuple[str, int]]:
    """Tokens of the form `t`, `t^K` (K decimal, arbitrarily large), plain
    letters, or `f{...}` groups; returns (token, repeat) pairs."""
    tokens = desc.split() if isinstance(desc, str) else list(desc)
    out = []
    for tok in tokens:
        if tok.startswith("t^"):
            try:
                k = int(tok[2:])
            except ValueError as exc:
                raise WitnessFormatError(f"bad tick exponent in {tok!r}") from exc
            if k < 0:
                raise WitnessFormatError(f"negative tick exponent in {tok!r}")
            out.append((TICK_LETTER, k))
        else:
            out.append((tok, 1))
    return out


def verify_witness(
    ra1: RegionAutomaton,
    ra2: Optional[RegionAutomaton],
    desc: Union[str, list],
) -> tuple[bool, Optional[bool]]:
    """Acceptance of a witness description by one or two region automata,
    evaluated with boolean reachability matrices; tick runs t^K are applied
    through K's binary digits by repeated squaring, so K may be huge."""
    tokens = parse_witness_description(desc)
    acc1 = _matrix_accepts(from_region_automaton(ra1), tokens, ra1.alphabet | {TICK_LETTER})
    acc2 = (
        _matrix_accepts(from_region_automaton(ra2), tokens, ra2.alphabet | {TICK_LETTER})
        if ra2 is not None
        else None
    )
    return acc1, acc2


def _matrix_accepts(m: NFA, tokens: list[tuple[str, int]], allowed: frozenset[str]) -> bool:
    letters = {tok for tok, repeat in tokens if repeat > 0}
    unknown = letters - set(allowed)
    if unknown:
        raise WitnessFormatError(f"letters outside the alphabet: {sorted(unknown)}")
    letters &= set(m.alphabet)  # letters with no edges anywhere reject below
    matrices = {a: [d.get(a, frozenset()) for d in m.trans] for a in letters}  # row s: s's a-successors
    cur = m.initial
    for tok, repeat in tokens:
        if repeat == 0:
            continue
        if tok not in matrices:
            return False  # letter without any edge
        matrix = matrices[tok] if repeat == 1 else nfalib.mat_pow(matrices[tok], repeat)
        cur = nfalib._union(matrix, cur)
        if not cur:
            return False
    return not cur.isdisjoint(m.finals)


# ---------------------------------------------------------------------------
# Exact membership of a timed word


def accepts_word(ta: TimedAutomaton, w: TimedWord, cap: Optional[int] = None) -> bool:
    """Does `ta` accept `w`? Exact, via reachability in the region automaton
    of the product with the word's class recognizer (a language contains a
    word iff it meets the word's equivalence class)."""
    if any(a not in ta.actions for a, _ in w):
        return False
    if ta.time_domain == "discrete" and any(t.denominator != 1 for t in w.timestamps()):
        return False
    # every region of the build is reachable
    return bool(build_region_automaton(product(dense_time(ta), class_recognizer(w)), cap).final_ids)
