"""Clock-region abstraction and region-automaton construction.

Dense-time regions follow the classical equivalence (integral parts up to the
per-clock maximum constant, zero fractions, fractional ordering); discrete
time uses the simplified per-clock equivalence (equal value, or both above the
maximum constant). Both share one canonical representation.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .ta import (
    EPSILON,
    ClockConstraint,
    Configuration,
    Edge,
    Guard,
    Run,
    TimedAutomaton,
    TimedWord,
    trace_of,
)
from .ta import step as ta_step

DEFAULT_REGION_CAP = 1_000_000
REGION_CAP_ENV = "TOPAQ_REGION_CAP"

TICK_LETTER = "t"


class RegionCapExceeded(Exception):
    def __init__(self, cap: int):
        super().__init__(
            f"region construction exceeded the cap of {cap} states (override with {REGION_CAP_ENV})"
        )
        self.cap = cap


class BadRegionCap(ValueError):
    """The region-cap environment variable is not a positive integer."""

    def __init__(self, value: str):
        super().__init__(f"{REGION_CAP_ENV} must be a positive integer, got {value!r}")


def region_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(REGION_CAP_ENV)
    if not env:
        return DEFAULT_REGION_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadRegionCap(env)
    return cap


@dataclass(frozen=True)
class ClockRegion:
    """Canonical clock region.

    `ipart` maps every not-above-M clock to its integral part, `above` holds
    the clocks strictly beyond their maximum constant, and `blocks` partitions
    the not-above clocks by fractional part in strictly increasing order.
    When `zero_first` the first block is the zero-fraction block.
    """

    ipart: tuple[tuple[str, int], ...]
    above: frozenset[str]
    blocks: tuple[frozenset[str], ...]
    zero_first: bool
    _ip: Optional[dict[str, int]] = field(default=None, init=False, repr=False, compare=False)

    def ipart_map(self) -> dict[str, int]:
        """`ipart` as a dict, built once per region; callers must not mutate it."""
        ip = self._ip
        if ip is None:
            ip = dict(self.ipart)
            object.__setattr__(self, "_ip", ip)
        return ip

    def is_unbounded(self) -> bool:
        return not self.ipart

    def frac_is_zero(self, clock: str) -> bool:
        return self.zero_first and bool(self.blocks) and clock in self.blocks[0]

    def satisfies(self, constraint: ClockConstraint) -> bool:
        """Uniform truth over the region; needs bound <= M(clock), which holds
        for every constraint of the automaton the region was built for."""
        x, cmp, d = constraint.clock, constraint.cmp, constraint.bound
        if x in self.above:
            return cmp in (">", ">=")
        k = self.ipart_map()[x]
        if self.frac_is_zero(x):
            return constraint.holds(k)
        # value ranges over the open interval (k, k+1)
        if cmp in ("<", "<="):
            return k + 1 <= d
        if cmp in (">", ">="):
            return d <= k
        return False  # "=": never uniform on an open interval

    def satisfies_guard(self, guard: Guard) -> bool:
        for c in guard.conjuncts:
            if not self.satisfies(c):
                return False
        return True

    def reset(self, clocks: frozenset[str]) -> "ClockRegion":
        if not clocks:
            return self
        ip = dict(self.ipart)
        for x in clocks:
            ip[x] = 0
        old_zero = self.blocks[0] if self.zero_first else frozenset()
        zero = frozenset(old_zero | clocks)
        frac_blocks = []
        for b in self.blocks[1 if self.zero_first else 0:]:
            kept = b - clocks
            if kept:
                frac_blocks.append(frozenset(kept))
        return ClockRegion(
            tuple(sorted(ip.items())), self.above - clocks, (zero,) + tuple(frac_blocks), True
        )

    def describe(self, maxc: Mapping[str, int]) -> str:
        """Canonical constraint string, e.g. `x>2, z=0`."""
        parts = []
        ip = self.ipart_map()
        for x in sorted(ip):
            k = ip[x]
            parts.append(f"{x}={k}" if self.frac_is_zero(x) else f"{k}<{x}<{k + 1}")
        for x in sorted(self.above):
            parts.append(f"{x}>{maxc[x]}")
        frac_blocks = self.blocks[1 if self.zero_first else 0:]
        if len(frac_blocks) > 1:
            order = " < ".join("{" + ",".join(sorted(b)) + "}" for b in frac_blocks)
            parts.append(f"frac: {order}")
        return ", ".join(parts) if parts else "true"


def clock_region_of(valuation: Mapping[str, Fraction], maxc: Mapping[str, int]) -> ClockRegion:
    ipart = []
    above = set()
    by_frac: dict[Fraction, set[str]] = {}
    for x in sorted(valuation):
        v = Fraction(valuation[x])
        if v > maxc[x]:
            above.add(x)
            continue
        k = v.numerator // v.denominator
        ipart.append((x, k))
        by_frac.setdefault(v - k, set()).add(x)
    fracs = sorted(by_frac)
    blocks = tuple(frozenset(by_frac[f]) for f in fracs)
    zero_first = bool(fracs) and fracs[0] == 0
    return ClockRegion(tuple(ipart), frozenset(above), blocks, zero_first)


def dense_delay_successor(cr: ClockRegion, maxc: Mapping[str, int]) -> Optional[ClockRegion]:
    """The adjacent time-successor region, or None for unbounded regions."""
    if cr.is_unbounded():
        return None
    ip = cr.ipart_map()
    if cr.zero_first:
        # the zero-fraction block moves into the open: clocks at their maximum
        # constant go above, the rest become the new smallest fractional block
        zero = cr.blocks[0]
        going_above = frozenset(x for x in zero if ip[x] == maxc[x])
        staying = zero - going_above
        nip = tuple(sorted((x, k) for x, k in ip.items() if x not in going_above))
        nblocks = ((frozenset(staying),) if staying else ()) + cr.blocks[1:]
        return ClockRegion(nip, cr.above | going_above, nblocks, False)
    # no zero block: the largest fractional block reaches the next integer
    last = cr.blocks[-1]
    new_zero = frozenset(x for x in last if ip[x] + 1 <= maxc[x])
    going_above = last - new_zero
    nip = dict(ip)
    for x in going_above:
        del nip[x]
    for x in new_zero:
        nip[x] += 1
    nblocks = ((frozenset(new_zero),) if new_zero else ()) + cr.blocks[:-1]
    return ClockRegion(tuple(sorted(nip.items())), cr.above | going_above, nblocks, bool(new_zero))


def discrete_delay_successor(cr: ClockRegion, maxc: Mapping[str, int]) -> Optional[ClockRegion]:
    """One time unit in discrete time: every clock value advances by 1."""
    if cr.is_unbounded():
        return None
    nip = {}
    above = set(cr.above)
    for x, k in cr.ipart:
        if k + 1 > maxc[x]:
            above.add(x)
        else:
            nip[x] = k + 1
    blocks = (frozenset(nip),) if nip else ()
    return ClockRegion(tuple(sorted(nip.items())), frozenset(above), blocks, bool(nip))


@dataclass(frozen=True)
class Region:
    location: str
    clock_region: ClockRegion


@dataclass(frozen=True)
class RAEdge:
    label: Optional[str]  # None for silent (delay edges and ε-action edges)
    target: Region
    kind: str  # "delay" | "action"
    ta_edge: Optional[Edge] = None


@dataclass
class RegionAutomaton:
    alphabet: frozenset[str]
    states: tuple[Region, ...]
    initial: Optional[Region]
    finals: frozenset[Region]
    edges: dict[Region, tuple[RAEdge, ...]]
    max_constants: dict[str, int]
    time_domain: str

    def out_edges(self, r: Region) -> tuple[RAEdge, ...]:
        return self.edges.get(r, ())


def region_of(cfg: Configuration, ta: TimedAutomaton) -> Region:
    return Region(cfg.location, clock_region_of(cfg.valuation, ta.max_constants()))


def valuation_equiv(
    mu1: Mapping[str, Fraction], mu2: Mapping[str, Fraction], maxc: Mapping[str, int]
) -> bool:
    """Region equivalence of two valuations over the same clock set."""
    if set(mu1) != set(mu2):
        raise ValueError("valuations over different clock sets")
    return clock_region_of(mu1, maxc) == clock_region_of(mu2, maxc)


def build_region_automaton(ta: TimedAutomaton, cap: Optional[int] = None) -> RegionAutomaton:
    """Reachable region automaton of `ta` (dense or discrete per its domain).

    Final regions have no outgoing edges: runs end at the first final
    location. Delay edges are single-step time-successors; unbounded regions
    carry the silent self-loop.
    """
    cap = region_cap(cap)
    maxc = ta.max_constants()
    successor = discrete_delay_successor if ta.time_domain == "discrete" else dense_delay_successor

    init_cr = clock_region_of(ta.zero_valuation(), maxc)
    if not init_cr.satisfies_guard(ta.invariant_of(ta.init)):
        return RegionAutomaton(ta.actions, (), None, frozenset(), {}, maxc, ta.time_domain)
    initial = Region(ta.init, init_cr)

    edges_by_source: dict[str, list[Edge]] = {}
    for e in ta.edges:
        edges_by_source.setdefault(e.source, []).append(e)

    states: list[Region] = [initial]
    seen = {initial}
    edges: dict[Region, tuple[RAEdge, ...]] = {}
    queue = deque([initial])
    while queue:
        r = queue.popleft()
        if r.location in ta.final:
            edges[r] = ()
            continue
        out: list[RAEdge] = []
        for e in edges_by_source.get(r.location, ()):
            if not r.clock_region.satisfies_guard(e.guard):
                continue
            cr2 = r.clock_region.reset(e.resets)
            if not cr2.satisfies_guard(ta.invariant_of(e.target)):
                continue
            out.append(RAEdge(e.action, Region(e.target, cr2), "action", e))
        succ = successor(r.clock_region, maxc)
        if succ is None:
            out.append(RAEdge(None, r, "delay", None))  # unbounded self-loop
        elif succ.satisfies_guard(ta.invariant_of(r.location)):
            out.append(RAEdge(None, Region(r.location, succ), "delay", None))
        edges[r] = tuple(out)
        for ra_edge in out:
            tgt = ra_edge.target
            if tgt not in seen:
                if len(seen) >= cap:
                    raise RegionCapExceeded(cap)
                seen.add(tgt)
                states.append(tgt)
                queue.append(tgt)

    finals = frozenset(r for r in states if r.location in ta.final)
    ra = RegionAutomaton(ta.actions, tuple(states), initial, finals, edges, maxc, ta.time_domain)
    if len(states) > region_state_bound(ta):
        raise RuntimeError(f"{len(states)} reachable regions exceed the theoretical bound")
    return ra


def region_state_bound(ta: TimedAutomaton) -> int:
    """|L| * |X|! * 2^|X| * prod(2*M(x)+2), an upper bound on reachable regions."""
    maxc = ta.max_constants()
    n = len(ta.clocks)
    prod = 1
    for x in ta.clocks:
        prod *= 2 * maxc[x] + 2
    return len(ta.locations) * math.factorial(n) * (2**n) * prod


def fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def augment_ticks(ta: TimedAutomaton) -> TimedAutomaton:
    """Make integral time passage observable on a discrete-time TA.

    Adds a clock `z` with self-loops (z=1, t, reset z) on every location,
    conjoins z=0 to every original edge and z<=1 to every invariant, so the
    number of emitted `t` letters pins down every timestamp.
    """
    if ta.time_domain != "discrete":
        raise ValueError("tick augmentation requires a discrete-time automaton")
    if TICK_LETTER in ta.actions:
        raise ValueError(f"alphabet already contains the tick letter {TICK_LETTER!r}")
    return _unit_clock(ta, TICK_LETTER, "z", "discrete", "+ticks")


def force_integer_actions(ta: TimedAutomaton) -> TimedAutomaton:
    """Dense-time wrapper that confines every original edge to integral
    instants (silent unit-clock loops instead of observable ticks), so a
    discrete-time TA keeps its discrete trace sets under the dense-time
    constructions."""
    return _unit_clock(ta, EPSILON, "zd", "dense", "@int")


def _unit_clock(ta: TimedAutomaton, loop: Optional[str], clock: str, time_domain: str, suffix: str) -> TimedAutomaton:
    """`ta` with a fresh clock that every original edge needs at 0 and every
    invariant keeps at most 1, reset by a `loop`-labelled self-loop at 1 on
    every location."""
    z = fresh_name(clock, ta.clocks)
    inv = {loc: g.conjoin(Guard.of(ClockConstraint(z, "<=", 1))) for loc, g in ta.invariant.items()}
    edges = [
        Edge(e.source, e.guard.conjoin(Guard.of(ClockConstraint(z, "=", 0))), e.action, e.resets, e.target)
        for e in ta.edges
    ]
    edges += [
        Edge(loc, Guard.of(ClockConstraint(z, "=", 1)), loop, frozenset({z}), loc)
        for loc in sorted(ta.locations)
    ]
    return TimedAutomaton(
        actions=ta.actions if loop is EPSILON else ta.actions | {loop},
        locations=ta.locations,
        init=ta.init,
        private=ta.private,
        final=ta.final,
        clocks=ta.clocks | {z},
        invariant=inv,
        edges=tuple(edges),
        time_domain=time_domain,
        name=f"{ta.name}{suffix}",
    )


def tick_decode(tokens) -> TimedWord:
    """Timed word of a tick-form word t^k1 a1 t^k2 a2 ...: each letter is
    stamped with the number of ticks before it; trailing ticks are dropped
    (they only encode time elapsing after the last observable action)."""
    letters = []
    now = 0
    for tok in tokens:
        if tok == TICK_LETTER:
            now += 1
        else:
            letters.append((tok, Fraction(now)))
    return TimedWord(tuple(letters))


def concretize_region_path(ta: TimedAutomaton, path: list[RAEdge]) -> tuple[Run, TimedWord]:
    """Replay a region path with concrete rational delays.

    Delay edges take the canonical representative duration: half the gap to
    the next boundary when leaving a zero-fraction region, otherwise exactly
    the distance that brings the largest fractional block to the next
    integer. Action edges fire with the accumulated pending delay, validated
    through the concrete step semantics.
    """
    maxc = ta.max_constants()
    cfg = ta.initial_configuration()
    val_now = dict(cfg.valuation)
    pending = Fraction(0)
    steps = []
    for ra_edge in path:
        if ra_edge.kind == "delay":
            d = _canonical_delay(val_now, maxc, ta.time_domain)
            pending += d
            val_now = {x: v + d for x, v in val_now.items()}
        else:
            cfg = ta_step(ta, cfg, pending, ra_edge.ta_edge)
            steps.append((pending, ra_edge.ta_edge, cfg))
            val_now = dict(cfg.valuation)
            pending = Fraction(0)
    run = Run(ta.initial_configuration(), tuple(steps))
    return run, trace_of(run)


def _canonical_delay(valuation: Mapping[str, Fraction], maxc: Mapping[str, int], time_domain: str) -> Fraction:
    if time_domain == "discrete":
        return Fraction(1)
    inside = [v for x, v in valuation.items() if v <= maxc[x]]
    if not inside:
        return Fraction(1)
    fracs = [v - (v.numerator // v.denominator) for v in inside]
    max_frac = max(fracs)
    if any(f == 0 for f in fracs):
        return (1 - max_frac) / 2
    return 1 - max_frac
