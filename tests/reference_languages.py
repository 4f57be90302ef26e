"""Reference weak/full deciders that build the private and the public
language separately, for differential tests.

Each side gets its own tick automaton over `build_priv` or `build_pub`, its
own region automaton, NFA conversion and tick strip, as the discrete and
bounded engines did before they read both languages off one memo
automaton. In discrete time the tick automaton is `augment_ticks`, whose
extra clock emits the ticks as letters, where the discrete engine reads
the delay edges of the plain region automaton as ticks. `topaq.deciders`
must agree with them: equal languages per side, and the same status, side
and witness.
"""

from __future__ import annotations

from typing import Optional

from topaq import nfa as nfalib
from topaq.constructions import build_priv, build_pub
from topaq.deciders import _attacker, _compare, decode_ticked_tokens, dense_time
from topaq.nfa import NFA, from_region_automaton
from topaq.observers import TimeSelection, tick_construction
from topaq.regions import augment_ticks, build_region_automaton, tick_decode
from topaq.ta import TimedAutomaton, Verdict


def reference_ticked_language(ticked: TimedAutomaton, cap: Optional[int] = None) -> NFA:
    """Stripped untimed language of one tick automaton."""
    m = from_region_automaton(build_region_automaton(ticked, cap))
    suffix = frozenset(a for a in m.alphabet if a.startswith("f{"))
    return nfalib.strip_ticks_before_suffix(m, suffix)


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


def reference_bounded(ta: TimedAutomaton, sel: TimeSelection, mode: str,
                      languages: Optional[tuple[NFA, NFA]] = None) -> Verdict:
    """`check_bounded` with the two languages built separately, or taken
    from `languages` (`reference_first_n_languages` of the reduction
    `deciders._attacker`); a witness is mapped back to `ta`'s time scale and
    carries the reduction's note."""
    base, n, scale, note = _attacker(ta, sel)
    priv, pub = languages or reference_first_n_languages(base, n)
    inner = _compare(priv, pub, mode, decode_ticked_tokens)
    if note is None or inner.witness is None:
        return inner
    return Verdict(inner.holds, inner.witness.scaled(scale), inner.side, note)
