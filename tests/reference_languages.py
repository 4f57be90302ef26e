"""Reference tick constructions and reference weak/full deciders that
build the private and the public language separately, for differential
tests.

`reference_unfolded_tick_construction` is the bounded engine's tick
construction on the whole N-unfolding, every copy of every location, where
`observers.tick_construction` emits only the part a run reaches. Built with
the same observation clocks, constants and stop rule, both give the same
region automaton.

`reference_tick_construction` is the gadget form of the tick construction:
tick loops emit `t`, silent loops reset each observation clock as it
reaches 1, and an end gadget emits the fractional groups of the
observation clocks as f-letters, so the plain region build of it (no
wrap-around clocks, no stop rule) spells out each ticked word to its end.
The library builds only `observers.tick_construction`, the form cut where
a run stops, whose wrap-around region build the bounded engine completes
with the f-suffix it reads off each stop region.

Each side gets its own gadget over `build_priv` or `build_pub`, its own
region automaton, NFA conversion and tick strip, as the discrete and
bounded engines did before they read both languages off one memo
automaton. In discrete time the tick automaton is `augment_ticks`, whose
extra clock emits the ticks as letters, where the discrete engine reads
the delay edges of the plain region automaton as ticks. `topaq.deciders`
must agree with them: equal languages per side, and the same status, side
and witness.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from topaq import nfa as nfalib
from topaq.constructions import build_priv, build_pub, relax_finals
from topaq.deciders import _attacker, _compare, decode_ticked_tokens, dense_time
from topaq.nfa import NFA, from_region_automaton
from topaq.observers import TimeSelection, observation_clocks, unfold_first_n
from topaq.regions import TICK_LETTER, augment_ticks, build_region_automaton, fresh_name, reserve_letters, tick_decode
from topaq.ta import EPSILON, ClockConstraint, Edge, Guard, TimedAutomaton, Verdict
from topaq.words import render_group


def _subsets(items: Sequence[str]) -> list[frozenset[str]]:
    """Every subset of `items`, the empty one first."""
    return [frozenset(x for i, x in enumerate(items) if mask >> i & 1) for mask in range(1 << len(items))]


def _group_guard(at_one: frozenset[str], inside: Sequence[str]) -> Guard:
    """The clocks `at_one` at 1, the other clocks of `inside` strictly
    between 0 and 1."""
    conj = [ClockConstraint(c, "=", 1) for c in sorted(at_one)]
    for c in inside:
        if c not in at_one:
            conj.append(ClockConstraint(c, ">", 0))
            conj.append(ClockConstraint(c, "<", 1))
    return Guard(tuple(conj))


def reference_tick_construction(ta: TimedAutomaton, n: int) -> TimedAutomaton:
    """The gadget form of the tick construction of `ta` (module docstring),
    over the final-relaxed N-unfolding and the `observation_clocks`: the
    tick clock emits `t` each time unit by a tick loop on every location but
    the finals, every model edge needs the observation clocks below 1, and
    silent reset loops take each of them back to 0 as it reaches 1. An end
    gadget reached from the final locations emits the fractional groups of
    the observation clocks as f-letters, one full time unit long: first the
    group synchronized with the tick clock, then each later fractional group
    as it reaches 1. Its plain region build has the ticked first-N language
    of `ta` once the ticks before the f-suffix are stripped."""
    reserve_letters(ta.actions, [TICK_LETTER, *(a for a in ta.actions if a.startswith("f{"))],
                    "tick construction")
    unfolded = relax_finals(unfold_first_n(ta, n))
    obs = observation_clocks(ta, n)
    below1 = Guard(tuple(ClockConstraint(c, "<", 1) for c in obs))

    edges = []
    # original edges with their observation resets (the relaxed unfolding
    # has no exits from final locations)
    for e in unfolded.edges:
        resets = e.resets
        if e.action is not EPSILON:
            copy_index = int(e.target.rsplit("~", 1)[1])
            resets = resets | {obs[copy_index]}
        edges.append(Edge(e.source, e.guard.conjoin(below1), e.action, resets, e.target))
    # tick loops (not on unfolding finals) and silent observation-clock
    # resets, their guards built once and shared by every location
    x0, rest = obs[0], obs[1:]
    tick, tick_reset = Guard.of(ClockConstraint(x0, "=", 1)), frozenset({x0})
    resets = [(_group_guard(subset, rest), subset) for subset in _subsets(rest)[1:]]
    for loc in sorted(unfolded.locations):
        if loc not in unfolded.final:
            edges.append(Edge(loc, tick, TICK_LETTER, tick_reset, loc))
        edges += [Edge(loc, guard, EPSILON, subset, loc) for guard, subset in resets]

    g0 = fresh_name("gadget0", unfolded.locations)
    g1 = fresh_name("gadget1", unfolded.locations)
    finals = sorted(unfolded.final)
    # end gadget
    f_letters = set()
    index_of = {c: i for i, c in enumerate(obs)}
    for subset in _subsets(rest):
        group = subset | {x0}
        letter = render_group(frozenset(index_of[c] for c in group))
        f_letters.add(letter)
        for lf in finals:
            edges.append(Edge(lf, _group_guard(group, obs), letter, group, g0))
        edges.append(Edge(g0, _group_guard(group, obs), EPSILON, frozenset(), g1))
    for subset in _subsets(rest)[1:]:
        letter = render_group(frozenset(index_of[c] for c in subset))
        f_letters.add(letter)
        edges.append(Edge(g0, _group_guard(subset, obs), letter, subset, g0))

    inv = {**unfolded.invariant, g0: Guard.true(), g1: Guard.true()}
    return replace(unfolded, actions=unfolded.actions | {TICK_LETTER} | f_letters,
                   locations=unfolded.locations | {g0, g1}, final=frozenset({g1}), invariant=inv,
                   clocks=unfolded.clocks | frozenset(obs), edges=tuple(edges), time_domain="dense",
                   name=f"{ta.name}~tick{n}")


def reference_unfolded_tick_construction(ta: TimedAutomaton, n: int) -> TimedAutomaton:
    """`observers.tick_construction` over the whole final-relaxed
    N-unfolding of `ta`: the unfolding's finals and the last copy's
    locations are final with no out-edge, and each observed edge resets the
    observation clock of the copy it enters."""
    unfolded = relax_finals(unfold_first_n(ta, n))
    obs = observation_clocks(ta, n)
    dead = unfolded.final | {l for l in unfolded.locations if l.endswith(f"~{n}")}
    edges = []
    for e in unfolded.edges:
        if e.source in dead:
            continue
        resets = e.resets
        if e.action is not EPSILON:
            resets = resets | {obs[int(e.target.rsplit("~", 1)[1])]}
        edges.append(Edge(e.source, e.guard, e.action, resets, e.target))
    return replace(unfolded, actions=unfolded.actions | {TICK_LETTER}, final=dead,
                   clocks=unfolded.clocks | frozenset(obs), edges=tuple(edges), time_domain="dense",
                   name=f"{ta.name}~tick{n}")


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
    return (reference_ticked_language(reference_tick_construction(build_priv(base), n)),
            reference_ticked_language(reference_tick_construction(build_pub(base), n)))


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
