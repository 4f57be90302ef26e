"""Clock-region abstraction and region-automaton construction.

Dense-time regions follow the classical equivalence (integral parts up to the
per-clock maximum constant, zero fractions, fractional ordering); discrete
time uses the simplified per-clock equivalence (equal value, or both above the
maximum constant). Both share one canonical representation.

`build_region_automaton` works on ints. It takes the clocks in sorted
order and gives clock x with maximum constant M one code: 2k when its value
is exactly k <= M, 2k+1 when k < x < k+1 and k < M, and 2M+1 above M.
Every constraint is then an inclusive interval of codes, its
`ClockConstraint.interval` at unit 2 with open ends 0 and 2M+1: `x<b` is
[0, 2b-1] and `x>b` [2b+1, 2M+1].
The fractional order is a per-clock rank: 0 for an integral or above clock,
and 1, 2, ... for the classes of equal nonzero fraction, ascending.
A build may name wrap-around clocks (the observation clocks of
`observers.tick_construction`), which only ever record a fractional part:
each has maximum constant 1 and code 0 or 1, and the delay that brings its
class to the next integer takes it straight back to 0. A clock
region is an interned (codes, ranks) pair and a region a (location id,
clock-region id) pair. The `RegionAutomaton` it returns holds its graph
only as edge arrays over the int states; `ClockRegion`, `Region` and `RAEdge`
objects are decoded from them only when read, so `ClockRegion` only
decodes and describes regions. The weak/full engines read the edge
arrays through `nfa.from_region_automaton`; the bounded attacker's class
table (`deciders._reachable_classes`) reads `edge_target` and
`_edge_start` directly, and the existence check reads a shortest path off
them (`RegionAutomaton.shortest_accepting_path`).
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Optional, Sequence

from .ta import EPSILON, ClockConstraint, Edge, Guard, TimedAutomaton, TimedWord, is_count
from .ta import step as ta_step

DEFAULT_REGION_CAP = 1_000_000
REGION_CAP_ENV = "TOPAQ_REGION_CAP"

TICK_LETTER = "t"


class RegionCapExceeded(Exception):
    """A region build reached its cap: the `cap` argument's when `explicit`,
    else the environment variable's or its default (`region_cap`)."""

    def __init__(self, cap: int, explicit: bool = False):
        advice = "set by the cap argument" if explicit else f"override with {REGION_CAP_ENV}"
        super().__init__(f"region construction exceeded the cap of {cap} states ({advice})")
        self.cap = cap


class ReservedLetter(ValueError):
    """The automaton uses a letter that a construction reserves for its own
    use: the tick letter, a fractional-group letter `f{...}` of the tick
    construction, the event-recording engine's delay letter or an arming
    letter of the dynamic attacker."""

    def __init__(self, letters: Iterable[str], construction: str):
        self.letters = tuple(sorted(letters))
        names = ", ".join(repr(a) for a in self.letters)
        plural = "s" if len(self.letters) > 1 else ""
        super().__init__(f"the model uses the letter{plural} {names}, which the {construction} reserves")


def reserve_letters(actions: Iterable[str], letters: Iterable[str], construction: str) -> None:
    """Raise `ReservedLetter` if `actions` uses any of `letters`."""
    clash = set(letters).intersection(actions)
    if clash:
        raise ReservedLetter(clash, construction)


class BadRegionCap(ValueError):
    """A region cap, from the `cap` argument or the environment variable, is
    not a positive integer."""

    def __init__(self, value, source: str = REGION_CAP_ENV):
        super().__init__(f"{source} must be a positive integer, got {value!r}")


def region_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        if not is_count(explicit) or explicit < 1:
            raise BadRegionCap(explicit, "cap")
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

    def frac_is_zero(self, clock: str) -> bool:
        return self.zero_first and bool(self.blocks) and clock in self.blocks[0]

    def describe(self, maxc: Mapping[str, int]) -> str:
        """Canonical constraint string, e.g. `x>2, z=0`."""
        parts = []
        ip = dict(self.ipart)
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


@dataclass(frozen=True)
class Region:
    location: str
    clock_region: ClockRegion


@dataclass(frozen=True)
class RAEdge:
    label: Optional[str]  # None for silent (delay edges other than a tick, and ε-action edges)
    target: Region
    kind: str  # "delay" | "action"
    ta_edge: Optional[Edge] = None


@dataclass(eq=False)
class RegionAutomaton:
    """Reachable region automaton, as the compiled builder emits it.

    States are numbered 0..n_states-1 in breadth-first order, state 0
    initial, and `final_ids` are the final ones. The graph lives only in
    the edge arrays: the out-edges of state i are the edge ids
    `edge_ids(i)`, in build order, edge k entering state `edge_target[k]`
    through the automaton's edge `_edge_ta[k]`, or through a delay when that
    is negative: -2 for a delay that wraps the tick clock of a build with
    wrap-around clocks, which reads the tick letter `t`, and -1 for any
    other. Other delay edges and ε-labelled action edges are unlabelled, and
    `letters` are the sorted labels of the others; `nfa.from_region_automaton`
    reads the arrays into a silent-free NFA, a -1 delay edge silent or read
    as a letter it is given. `region(i)` and `edge(k)` decode one
    `Region` or `RAEdge`; `states`,
    `initial`, `finals`, `edges` and `out_edges` decode them all on first
    access. `shortest_accepting_path` reads a shortest path to a final
    region off the numbering, with no second search.

    A build with a stop rule has one final state per ending
    (`build_region_automaton`), and `endings` maps each to its ending;
    `region(i)` of such a state is the first final region the build met
    with that ending. Without a stop rule `endings` is empty.
    """

    alphabet: frozenset[str]
    max_constants: dict[str, int]
    letters: tuple[str, ...]  # sorted letters of the lettered edges
    final_ids: frozenset[int]
    edge_target: array
    _edge_start: array  # state i's edge ids are _edge_start[i] .. _edge_start[i+1]-1
    _edge_ta: array  # index into the automaton's edges, -2 for a tick, -1 for another delay edge
    _keys: array  # state -> region key (clock-region id * locations + location id)
    _code: "_Compiled"
    endings: dict[int, tuple] = field(default_factory=dict)  # final state -> its ending

    @property
    def n_states(self) -> int:
        return len(self._keys)

    def location_of(self, i: int) -> str:
        return self._code.names[self._keys[i] % len(self._code.names)]

    def clock_codes(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The int codes and fractional ranks of region i's clocks, in
        sorted clock order (module docstring)."""
        return self._code.clock_regions[self._keys[i] // len(self._code.names)]

    def region(self, i: int) -> Region:
        cr, loc = divmod(self._keys[i], len(self._code.names))
        return Region(self._code.names[loc], self._code.clock_region(cr))

    def edge_ids(self, i: int) -> range:
        return range(self._edge_start[i], self._edge_start[i + 1])

    def edge(self, k: int) -> RAEdge:
        target, index = self.region(self.edge_target[k]), self._edge_ta[k]
        if index < 0:
            return RAEdge(TICK_LETTER if index == -2 else None, target, "delay", None)
        e = self._code.edges[index]
        return RAEdge(e.action, target, "action", e)

    @cached_property
    def states(self) -> tuple[Region, ...]:
        return tuple(self.region(i) for i in range(self.n_states))

    @property
    def initial(self) -> Optional[Region]:
        return self.region(0) if self.n_states else None

    @cached_property
    def finals(self) -> frozenset[Region]:
        return frozenset(self.region(i) for i in self.final_ids)

    @cached_property
    def edges(self) -> dict[Region, tuple[RAEdge, ...]]:
        return {r: tuple(map(self.edge, self.edge_ids(i))) for i, r in enumerate(self.states)}

    def out_edges(self, r: Region) -> tuple[RAEdge, ...]:
        return self.edges.get(r, ())

    def shortest_accepting_path(self) -> Optional[list[RAEdge]]:
        """The edges of a shortest path from the initial to a final region,
        or None. The build numbers regions breadth-first, so the lowest final
        id is a nearest final region, and a region's first in-edge is the
        one that discovered it, one step nearer the initial region."""
        if not self.final_ids:
            return None
        path, j = [], min(self.final_ids)
        while j:
            k = self.edge_target.index(j)
            path.append(self.edge(k))
            j = bisect_right(self._edge_start, k) - 1
        return path[::-1]


class _Compiled:
    """`ta` compiled onto int clock codes (module docstring).

    Guards and invariants share one id space. `table[i][c]` has bit g set
    when every conjunct of guard g on clock i accepts code c, so the guards
    a clock region satisfies are the AND of its clocks' rows, one bitmask
    (`sat`) per clock region. Mask id 0 is no reset, mask id 1 the delay
    successor, and the others the edges' reset masks; `after` applies one.
    With wrap-around clocks, tick clock first, the delay move is two
    moves, each under a guard computed per clock region rather than per
    clock: the tick (edge -2) when the delay wraps the tick clock, and the
    plain delay (-1) when it does not.
    `build_region_automaton` runs on it, and its `RegionAutomaton` keeps it
    to decode regions and edges.
    """

    def __init__(self, ta: TimedAutomaton, maxc: Mapping[str, int], wrap: Sequence[str] = ()):
        self.clocks = tuple(sorted(ta.clocks))
        self.tops = tuple(2 * maxc[x] + 1 for x in self.clocks)
        # the code change of a clock as its class reaches the next integer
        self.steps = tuple(-1 if x in wrap else 1 for x in self.clocks) if wrap else (1,) * len(self.clocks)
        self.discrete = ta.time_domain == "discrete"
        self.edges = ta.edges
        index = {x: i for i, x in enumerate(self.clocks)}
        self.names = list(ta.locations | {ta.init} | {loc for e in ta.edges for loc in (e.source, e.target)})
        lid = {name: i for i, name in enumerate(self.names)}
        self.final = [name in ta.final for name in self.names]
        guards: dict[tuple, int] = {(): 0}  # guard 0 is `true`
        seen: dict[tuple, int] = {}  # a guard's conjuncts -> its id: each guard is compiled once

        def gid(guard: Guard) -> int:
            if not guard.conjuncts:
                return 0
            g = seen.get(guard.conjuncts)
            if g is None:
                g = seen[guard.conjuncts] = guards.setdefault(self._compile(guard, index), len(guards))
            return g

        self.inv = [gid(ta.invariant_of(name)) for name in self.names]
        masks: dict[Optional[tuple[int, ...]], int] = {(): 0, None: 1}
        # per location: (guard, mask id, target invariant, target, label, edge index)
        self.moves: list[list[tuple]] = [[] for _ in self.names]
        for k, e in enumerate(ta.edges):
            mask = tuple(sorted(index[x] for x in e.resets if x in index)) if e.resets else ()
            t = lid[e.target]
            self.moves[lid[e.source]].append(
                (gid(e.guard), masks.setdefault(mask, len(masks)), self.inv[t], t, e.action, k))
        self.tick = index[wrap[0]] if wrap else -1
        self.tick_guard = n = len(guards)
        for loc, moves in enumerate(self.moves):
            if wrap:  # guard ids n and n+1: the tick's and the plain delay's, one set by `intern`
                moves += [(n, 1, self.inv[loc], loc, None, -2), (n + 1, 1, self.inv[loc], loc, None, -1)]
            else:
                moves.append((0, 1, self.inv[loc], loc, None, -1))
        self.start = lid[ta.init]
        self.masks = list(masks)
        self.full = (1 << n + 2 * bool(wrap)) - 1
        self.table = [[self.full] * (top + 1) for top in self.tops]
        for g, conjuncts in enumerate(guards):
            for i, lo, hi in conjuncts:
                row = self.table[i]
                for c in range(len(row)):
                    if not lo <= c <= hi:
                        row[c] &= ~(1 << g)
        self.clock_regions: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # id -> (codes, ranks)
        self.sat: list[int] = []  # id -> bitmask of the guards it satisfies
        self._ids: dict[tuple, int] = {}
        self._decoded: dict[int, ClockRegion] = {}

    def _compile(self, guard: Guard, index: Mapping[str, int]) -> tuple[tuple[int, int, int], ...]:
        out = []
        for c in guard.conjuncts:
            i = index[c.clock]
            top = self.tops[i]
            lo, hi = c.interval(2, 0, top)
            if lo > 0 or hi < top:  # else it holds on every code
                out.append((i, lo, hi))
        return tuple(out)

    def intern(self, codes: tuple[int, ...], ranks: tuple[int, ...]) -> int:
        key = (codes, ranks)
        cr = self._ids.get(key)
        if cr is None:
            cr = self._ids[key] = len(self.clock_regions)
            self.clock_regions.append(key)
            sat = self.full
            for row, c in zip(self.table, codes):
                sat &= row[c]
            if self.tick >= 0:
                # the delay wraps the tick clock when it is in the largest
                # class and no clock has a zero fraction (`after`)
                t = self.tick
                ticks = codes[t] == 1 and ranks[t] == max(ranks) and all(c & 1 for c in codes)
                sat &= ~(1 << self.tick_guard + ticks)  # clear the guard that fails
            self.sat.append(sat)
        return cr

    def after(self, cr: int, m: int) -> int:
        """Clock region `cr` after its delay successor (m = 1) or the reset
        of mask m; the delay of a region with every clock above is the
        region itself (the silent self-loop)."""
        codes, ranks = self.clock_regions[cr]
        mask = self.masks[m]
        if mask is not None:
            codes, ranks = list(codes), list(ranks)
            emptied = any(ranks[i] for i in mask)
            for i in mask:
                codes[i] = ranks[i] = 0
            if emptied:  # renumber the classes left 1, 2, ...
                order = {r: k for k, r in enumerate(sorted(set(ranks)))}
                ranks = [order[r] for r in ranks]
            return self.intern(tuple(codes), tuple(ranks))
        tops = self.tops
        if codes == tops:
            return cr
        if self.discrete:
            return self.intern(tuple(min(c + 2, t) for c, t in zip(codes, tops)), ranks)
        if any(not c & 1 for c in codes):
            # the zero-fraction clocks move into the open: those at their
            # maximum constant go above, the rest make the new smallest class
            stay = any(not c & 1 and c + 1 < t for c, t in zip(codes, tops))
            return self.intern(tuple(c | 1 for c in codes), tuple(
                r + stay if r else int(not c & 1 and c + 1 < t) for c, r, t in zip(codes, ranks, tops)))
        # the largest class reaches the next integer, which is at most M: a
        # clock in (k, k+1) has k < M; a wrap-around clock goes back to 0
        last = max(ranks)
        return self.intern(tuple(c + s if r == last else c for c, r, s in zip(codes, ranks, self.steps)),
                           tuple(0 if r == last else r for r in ranks))

    def clock_region(self, cr: int) -> ClockRegion:
        """The `ClockRegion` object of clock-region id `cr`."""
        out = self._decoded.get(cr)
        if out is None:
            codes, ranks = self.clock_regions[cr]
            ipart, above, zero = [], [], []
            fracs: list[list[str]] = [[] for _ in range(max(ranks, default=0))]
            for x, c, r, top in zip(self.clocks, codes, ranks, self.tops):
                if c == top:
                    above.append(x)
                    continue
                ipart.append((x, c >> 1))
                (fracs[r - 1] if r else zero).append(x)
            blocks = tuple(frozenset(b) for b in ([zero] if zero else []) + fracs)
            out = self._decoded[cr] = ClockRegion(tuple(ipart), frozenset(above), blocks, bool(zero))
        return out


def build_region_automaton(ta: TimedAutomaton, cap: Optional[int] = None,
                           stop: Optional[Callable[[str, tuple, tuple], Optional[Hashable]]] = None,
                           *, wrap: Sequence[str] = (),
                           constants: Optional[Mapping[str, int]] = None) -> RegionAutomaton:
    """Reachable region automaton of `ta` (dense or discrete per its domain).

    Final regions have no outgoing edges: runs end at the first final
    location. Delay edges are single-step time-successors; unbounded regions
    carry the silent self-loop. The search is breadth-first over int-coded
    regions, each region's edges in declaration order and then its delay
    edge, and it writes the edge arrays as it goes.

    With a stop rule, a final region is known only by its ending
    `stop(location, codes, ranks)` (its clocks' codes and ranks as in the
    module docstring), worked out once per region: the build gives each
    distinct ending one final state, which every final region with that
    ending enters, and a final region whose ending is None no state and
    no in-edge.

    `wrap` names the wrap-around clocks of a dense-time `ta`, tick clock
    first (module docstring): the `observers.observation_clocks` of an
    `observers.tick_construction`, which `observers.tick_regions` passes.
    Each has maximum constant 1, whatever `ta`'s guards say, and the delay
    edge that wraps the tick clock reads the tick letter `t`
    (`RegionAutomaton`).

    `constants` are the maximum constants of the other clocks, at least
    `ta.max_constants()`, which they default to: the tick construction
    takes those of the whole unfolding (`observers.tick_regions`).
    """
    explicit, cap = cap is not None, region_cap(cap)
    if wrap and ta.time_domain == "discrete":
        raise ValueError("wrap-around clocks need a dense-time automaton")
    maxc = ta.max_constants() if constants is None else dict(constants)
    for x in wrap:
        maxc[x] = 1
    code = _Compiled(ta, maxc, wrap)
    n_locs, n_masks = len(code.names), len(code.masks)
    keys = array("q")  # state -> region key, clock region * n_locs + location
    ids: dict[int, int] = {}  # region key -> state
    finals: list[int] = []
    moves, final, sat, after = code.moves, code.final, code.sat, code.after
    by_ending: dict[Hashable, int] = {}  # ending -> final state
    endless: set[int] = set()  # region keys of the final regions whose ending is None

    def stop_state(key: int, loc: int, cr: int, new: int) -> Optional[int]:
        # final region `key`'s state: its ending's, `new` for a new one, None for none
        if key in endless:
            return None
        ending = stop(code.names[loc], *code.clock_regions[cr])
        if ending is None:
            endless.add(key)
            return None
        return by_ending.setdefault(ending, new)

    zero = (0,) * len(code.clocks)
    init, start = code.intern(zero, zero), code.start
    key = init * n_locs + start
    # the initial region, through the stop rule too when it is final
    if sat[init] >> code.inv[start] & 1 and (stop is None or not final[start]
                                            or stop_state(key, start, init, 0) is not None):
        ids[key] = 0
        keys.append(key)
        if final[start]:
            finals.append(0)
    edge_start, edge_target, edge_ta = array("q", [0]), array("q"), array("q")
    memo: dict[int, int] = {}  # clock region * n_masks + mask id -> clock region after it
    i = 0
    while i < len(keys):  # states are numbered in discovery order, so i is the queue head
        cr, loc = divmod(keys[i], n_locs)
        i += 1
        if not final[loc]:
            ok = sat[cr]
            for g, m, inv, t, _, k in moves[loc]:
                if not ok >> g & 1:
                    continue
                if m:
                    mk = cr * n_masks + m
                    cr2 = memo.get(mk)
                    if cr2 is None:
                        cr2 = memo[mk] = after(cr, m)
                else:
                    cr2 = cr
                # the unbounded delay self-loop passes: a reached region
                # satisfies its location's invariant
                if not sat[cr2] >> inv & 1:
                    continue
                key = cr2 * n_locs + t
                j = ids.get(key)
                if j is None:
                    j = len(keys)
                    if stop is not None and final[t]:
                        j = stop_state(key, t, cr2, j)
                        if j is None:
                            continue
                    ids[key] = j
                    if j == len(keys):
                        if j >= cap:
                            raise RegionCapExceeded(cap, explicit)
                        keys.append(key)
                        if final[t]:
                            finals.append(j)
                edge_target.append(j)
                edge_ta.append(k)
        edge_start.append(len(edge_target))

    if len(keys) > _state_bound(len(ta.locations), maxc.values()):
        raise RuntimeError(f"{len(keys)} reachable regions exceed the theoretical bound")
    used = set(edge_ta)
    letters = {ta.edges[k].action for k in used if k >= 0} - {EPSILON}
    if -2 in used:
        letters.add(TICK_LETTER)
    return RegionAutomaton(ta.actions, maxc, tuple(sorted(letters)), frozenset(finals),
                           edge_target, edge_start, edge_ta, keys, code, dict(zip(by_ending.values(), by_ending)))


def region_state_bound(ta: TimedAutomaton) -> int:
    """|L| * |X|! * 2^|X| * prod(2*M(x)+2), an upper bound on reachable regions."""
    return _state_bound(len(ta.locations), ta.max_constants().values())


def _state_bound(n_locations: int, constants) -> int:
    constants = list(constants)
    n = len(constants)
    return n_locations * math.factorial(n) * 2**n * math.prod(2 * m + 2 for m in constants)


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
    number of emitted `t` letters pins down every timestamp. The discrete
    engine reads the delay edges of the plain region automaton as ticks
    instead; this automaton is what `topaq export --what region-automaton`
    shows of a discrete-time model.
    """
    if ta.time_domain != "discrete":
        raise ValueError("tick augmentation requires a discrete-time automaton")
    reserve_letters(ta.actions, [TICK_LETTER], "tick augmentation")
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
    return replace(
        ta,
        actions=ta.actions if loop is EPSILON else ta.actions | {loop},
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


def concretize_region_path(ta: TimedAutomaton, path: list[RAEdge]) -> TimedWord:
    """The timed word of a region path replayed with concrete rational
    delays.

    Delay edges take the canonical representative duration: half the gap to
    the next boundary when leaving a zero-fraction region, otherwise exactly
    the distance that brings the largest fractional block to the next
    integer. Action edges fire with the accumulated pending delay, validated
    through the concrete step semantics.
    """
    maxc = ta.max_constants()
    cfg = ta.initial_configuration()
    val_now = dict(cfg.valuation)
    now = pending = Fraction(0)
    letters = []
    for ra_edge in path:
        if ra_edge.kind == "delay":
            d = _canonical_delay(val_now, maxc, ta.time_domain)
            pending += d
            val_now = {x: v + d for x, v in val_now.items()}
        else:
            cfg = ta_step(ta, cfg, pending, ra_edge.ta_edge)
            now += pending
            if ra_edge.ta_edge.action is not EPSILON:
                letters.append((ra_edge.ta_edge.action, now))
            val_now = dict(cfg.valuation)
            pending = Fraction(0)
    return TimedWord(tuple(letters))


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
