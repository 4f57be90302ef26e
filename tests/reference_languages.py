"""Reference weak/full deciders that build the private and the public
language separately, for differential tests.

Each side gets its own tick automaton over `build_priv` or `build_pub`, its
own region automaton, NFA conversion and tick strip, as the discrete and
bounded engines did before they read both languages off one memo
automaton. `topaq.deciders` must agree with them: equal languages per
side, and the same status, side and witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from topaq import nfa as nfalib
from topaq.constructions import build_priv, build_pub
from topaq.deciders import NORMALIZED_NOTE, _compare, _switch_times, decode_ticked_tokens, dense_time
from topaq.nfa import NFA, from_region_automaton
from topaq.observers import Dynamic, Static, TimeSelection, tick_construction, unfold_free
from topaq.regions import TICK_LETTER, augment_ticks, build_region_automaton, tick_decode
from topaq.ta import TimedAutomaton, Verdict


def reference_ticked_language(ticked: TimedAutomaton, cap: Optional[int] = None) -> NFA:
    """Stripped untimed language of one tick automaton."""
    m = from_region_automaton(build_region_automaton(ticked, cap))
    suffix = frozenset(a for a in m.alphabet if a.startswith("f{"))
    return nfalib.strip_ticks_before_suffix(m, suffix, TICK_LETTER)


def reference_discrete_languages(ta: TimedAutomaton) -> tuple[NFA, NFA]:
    """(private, public) ticked languages of a discrete-time automaton."""
    return (reference_ticked_language(augment_ticks(build_priv(ta))),
            reference_ticked_language(augment_ticks(build_pub(ta))))


def reference_first_n_languages(ta: TimedAutomaton, n: int) -> tuple[NFA, NFA]:
    """(private, public) ticked languages of the first-N attacker."""
    base = dense_time(ta)
    return (reference_ticked_language(tick_construction(build_priv(base), n)),
            reference_ticked_language(tick_construction(build_pub(base), n)))


def reference_discrete(ta: TimedAutomaton, mode: str) -> Verdict:
    priv, pub = reference_discrete_languages(ta)
    return _compare(priv, pub, mode, tick_decode)


def first_n_instance(ta: TimedAutomaton, sel: TimeSelection) -> tuple[TimedAutomaton, int, Fraction]:
    """The automaton and observation count whose first-N languages decide
    `sel`, and the factor that maps their witness back to `ta`'s time scale."""
    if isinstance(sel, Dynamic):
        return unfold_free(ta, sel.n), 2 * sel.n, Fraction(1)
    if isinstance(sel, Static):
        return _switch_times(ta, sel.times)
    return ta, sel.n, Fraction(1)


def reference_bounded(ta: TimedAutomaton, sel: TimeSelection, mode: str,
                      languages: Optional[tuple[NFA, NFA]] = None) -> Verdict:
    """`check_bounded` with the two languages built separately, or taken
    from `languages` (`reference_first_n_languages` of `first_n_instance`)."""
    base, n, scale = first_n_instance(ta, sel)
    priv, pub = languages or reference_first_n_languages(base, n)
    inner = _compare(priv, pub, mode, decode_ticked_tokens)
    if isinstance(sel, Dynamic):
        return Verdict(inner.holds, inner.witness, inner.side,
                       note="witness includes the attacker's arming letters")
    if isinstance(sel, Static):
        witness = inner.witness.scaled(scale) if inner.witness is not None else None
        return Verdict(inner.holds, witness, inner.side, note=NORMALIZED_NOTE)
    return inner
