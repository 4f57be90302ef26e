from fractions import Fraction

import pytest

from reference_nfa import accepts
from topaq.oracle import trace_sets
from topaq.ta import ClockConstraint, Guard, edge, grid_word, make_ta


def nfa_accepts_expanded(m, tokens) -> bool:
    """Step-by-step simulation with tick runs expanded literally."""
    word = []
    for tok, repeat in tokens:
        word.extend([tok] * repeat)
    return accepts(m, word)


def trace_words(ta, horizon, max_steps, granularity, node_cap=2_000_000):
    """`oracle.trace_sets` with its grid traces decoded to timed words."""
    p, q, complete = trace_sets(ta, horizon, max_steps, granularity, node_cap)
    units = Fraction(granularity).denominator
    return {grid_word(t, units) for t in p}, {grid_word(t, units) for t in q}, complete


def fig1_ta(time_domain="dense"):
    """Three locations, one clock: an a-loop at the initial location
    (invariant x<=3), a silent move into the private location l2 (guard x>=1,
    invariant x<=2), and b-edges into the final location l1 from both."""
    return make_ta(
        actions={"a", "b"},
        locations={"l0", "l1", "l2"},
        init="l0",
        private={"l2"},
        final={"l1"},
        clocks={"x"},
        invariant={
            "l0": Guard.of(ClockConstraint("x", "<=", 3)),
            "l2": Guard.of(ClockConstraint("x", "<=", 2)),
        },
        edges=[
            edge("l0", "l0", "a"),
            edge("l0", "l2", None, Guard.of(ClockConstraint("x", ">=", 1))),
            edge("l0", "l1", "b"),
            edge("l2", "l1", "b"),
        ],
        time_domain=time_domain,
        name="fig1",
    )


@pytest.fixture
def fig1():
    return fig1_ta()


@pytest.fixture
def fig1_discrete():
    return fig1_ta("discrete")


def random_discrete_ta(rng):
    """The criterion-5 shape: 2-4 locations, 0-2 clocks, constants 0-2,
    1-6 edges, discrete time."""
    n_loc = rng.randint(2, 4)
    locs = [f"q{i}" for i in range(n_loc)]
    clocks = [f"c{i}" for i in range(rng.randint(0, 2))]
    letters = ["a", "b"][: rng.randint(1, 2)]

    def rguard():
        conj = []
        for x in clocks:
            if rng.random() < 0.4:
                conj.append(ClockConstraint(x, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 2)))
        return Guard(tuple(conj))

    edges = []
    for _ in range(rng.randint(1, 6)):
        a = rng.choice(letters + [None])
        resets = frozenset(x for x in clocks if rng.random() < 0.3)
        edges.append(edge(rng.choice(locs), rng.choice(locs), a, rguard(), resets))
    inv = {}
    for l in locs:
        if clocks and rng.random() < 0.3:
            inv[l] = Guard.of(ClockConstraint(rng.choice(clocks), "<=", rng.randint(0, 2)))
    private = {l for l in locs if rng.random() < 0.35}
    final = {l for l in locs if rng.random() < 0.4} or {locs[-1]}
    return make_ta(
        actions=letters, locations=locs, init=locs[0], final=final, private=private,
        clocks=clocks, invariant=inv, edges=edges, time_domain="discrete", name="rand",
    )


def random_oera(rng):
    """A dense-time observable event-recording automaton: one clock per
    letter, reset by every edge carrying that letter."""
    locs = [f"q{i}" for i in range(rng.randint(2, 4))]
    letters = ["a", "b"][: rng.randint(1, 2)]
    clocks = [f"x{a}" for a in letters]

    def guard():
        return Guard(tuple(ClockConstraint(x, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 2))
                           for x in clocks if rng.random() < 0.4))

    edges = []
    for _ in range(rng.randint(1, 6)):
        a = rng.choice(letters + [None])
        edges.append(edge(rng.choice(locs), rng.choice(locs), a, guard(), {f"x{a}"} if a else ()))
    inv = {loc: Guard.of(ClockConstraint(rng.choice(clocks), "<=", rng.randint(1, 2)))
           for loc in locs if rng.random() < 0.2}
    return make_ta(actions=letters, locations=locs, init=locs[0], edges=edges, clocks=clocks, invariant=inv,
                   private={l for l in locs if rng.random() < 0.35},
                   final={l for l in locs if rng.random() < 0.4} or {locs[-1]}, name="oera")


def plant_shared_trace(rng, base):
    """`base` (a `random_discrete_ta` or a `random_oera`) with a planted
    pair of branches from its initial location, made public and not final:
    both read the same one or two letters under the same guards on a fresh
    clock z that nothing resets (z = k, or k < z < k+1 in dense time), one
    through the private location p0 and one through public locations, into
    a fresh final location each. In about one model in three the public
    branch's last guard is one unit later, so the pair shares no trace."""
    dense = base.time_domain == "dense"
    word = [rng.choice(sorted(base.actions)) for _ in range(rng.randint(1, 2))]
    guards = []
    for k in sorted(rng.randint(0, 2) for _ in word):
        guards.append([ClockConstraint("z", "=", k)] if not dense or rng.random() < 0.5
                      else [ClockConstraint("z", ">", k), ClockConstraint("z", "<", k + 1)])
    late = rng.random() < 1 / 3
    edges = list(base.edges)
    for side in ("p", "u"):
        source = base.init
        for i, (a, g) in enumerate(zip(word, guards)):
            if side == "u" and late and i == len(word) - 1:
                g = [ClockConstraint("z", c.cmp, c.bound + 1) for c in g]
            edges.append(edge(source, f"{side}{i}", a, Guard(tuple(g)), {f"x{a}"} if dense else ()))
            source = f"{side}{i}"
    branches = {f"{side}{i}" for side in "pu" for i in range(len(word))}
    ends = {f"p{len(word) - 1}", f"u{len(word) - 1}"}
    return make_ta(actions=base.actions, locations=base.locations | branches, init=base.init,
                   final=(base.final - {base.init}) | ends, private=(base.private - {base.init}) | {"p0"},
                   clocks=base.clocks | {"z"}, invariant=base.invariant, edges=edges,
                   time_domain=base.time_domain, name="planted")


def random_blocking_oera(rng):
    """A dense-time observable ERA whose letter-edge targets carry
    invariants that can fail right after the reset: a lower bound on the
    letter's own clock, which the reset sets to 0, or an upper bound on the
    other clock, which the edge's guard may let exceed it."""
    locs = [f"q{i}" for i in range(rng.randint(2, 4))]
    letters = ["a", "b"]
    clocks = ["xa", "xb"]
    edges = []
    inv = {}
    for _ in range(rng.randint(2, 7)):
        a = rng.choice(letters + letters + [None])
        x = rng.choice(clocks)
        guard = Guard.of(ClockConstraint(x, rng.choice(["<", "<=", ">=", ">"]), rng.randint(0, 2))) \
            if rng.random() < 0.6 else Guard.true()
        target = rng.choice(locs[1:])
        edges.append(edge(rng.choice(locs), target, a, guard, {f"x{a}"} if a else ()))
        if a and target not in inv and rng.random() < 0.7:
            other = "xb" if a == "a" else "xa"
            inv[target] = rng.choice([Guard.of(ClockConstraint(f"x{a}", rng.choice([">", ">="]), rng.randint(0, 1))),
                                      Guard.of(ClockConstraint(other, rng.choice(["<", "<="]), rng.randint(0, 2)))])
    return make_ta(actions=letters, locations=locs, init=locs[0], edges=edges, clocks=clocks, invariant=inv,
                   private={l for l in locs[1:] if rng.random() < 0.4},
                   final={l for l in locs[1:] if rng.random() < 0.5} or {locs[-1]}, name="blocking")


def random_dense_automaton(rng):
    n_loc = rng.randint(2, 4)
    locs = [f"q{i}" for i in range(n_loc)]
    clocks = [f"c{i}" for i in range(rng.randint(0, 2))]
    letters = ["a", "b"][: rng.randint(1, 2)]

    def rguard():
        conj = []
        for x in clocks:
            if rng.random() < 0.4:
                conj.append(ClockConstraint(x, rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 2)))
        return Guard(tuple(conj))

    edges = []
    for _ in range(rng.randint(1, 5)):
        a = rng.choice(letters + [None])
        resets = frozenset(x for x in clocks if rng.random() < 0.3)
        edges.append(edge(rng.choice(locs), rng.choice(locs), a, rguard(), resets))
    inv = {}
    for l in locs:
        if clocks and rng.random() < 0.3:
            inv[l] = Guard.of(ClockConstraint(rng.choice(clocks), "<=", rng.randint(0, 2)))
    private = {l for l in locs if rng.random() < 0.35}
    final = {l for l in locs if rng.random() < 0.4} or {locs[-1]}
    return make_ta(
        actions=letters, locations=locs, init=locs[0], final=final, private=private,
        clocks=clocks, invariant=inv, edges=edges, time_domain="dense", name="rnd",
    )


def late_guard_ta():
    """One clock, one action: a single a-edge guarded x>2 into a final
    private location (the canonical discrete-time example)."""
    return make_ta(
        actions={"a"},
        locations={"l0", "lf"},
        init="l0",
        private={"lf"},
        final={"lf"},
        clocks={"x"},
        edges=[edge("l0", "lf", "a", Guard.of(ClockConstraint("x", ">", 2)))],
        time_domain="discrete",
        name="late-guard",
    )


@pytest.fixture
def discrete_example():
    return late_guard_ta()


def oera_pair_ta(with_guard=True):
    """Private branch l0-a->lp-b->lf, public branch l0-a->l2-b->lf; the
    public b carries the guard x_a >= 1 unless disabled."""
    g = Guard.of(ClockConstraint("xa", ">=", 1)) if with_guard else Guard.true()
    return make_ta(
        actions={"a", "b"},
        locations={"l0", "lp", "l2", "lf"},
        init="l0",
        private={"lp"},
        final={"lf"},
        clocks={"xa", "xb"},
        edges=[
            edge("l0", "lp", "a", resets={"xa"}),
            edge("lp", "lf", "b", resets={"xb"}),
            edge("l0", "l2", "a", resets={"xa"}),
            edge("l2", "lf", "b", g, resets={"xb"}),
        ],
        name="oera-pair",
    )


@pytest.fixture
def oera_guarded():
    return oera_pair_ta(True)


@pytest.fixture
def oera_unguarded():
    return oera_pair_ta(False)


def loop_and_deadline_ta():
    """a-loop at the initial location, b at exactly x=1 to the final (the
    running example for the switch-time unfoldings)."""
    return make_ta(
        actions={"a", "b"},
        locations={"li", "lf"},
        init="li",
        final={"lf"},
        clocks={"x"},
        edges=[
            edge("li", "li", "a"),
            edge("li", "lf", "b", Guard.of(ClockConstraint("x", "=", 1))),
        ],
        name="loop-deadline",
    )


@pytest.fixture
def loop_deadline():
    return loop_and_deadline_ta()


def single_word_ta(letter="a", at=1, domain="dense"):
    """Accepts exactly (letter, at)."""
    return make_ta(
        actions={letter},
        locations={"s", "f"},
        init="s",
        final={"f"},
        clocks={"c"},
        edges=[edge("s", "f", letter, Guard.of(ClockConstraint("c", "=", at)))],
        time_domain=domain,
        name=f"one-{letter}{at}",
    )


def frac(a, b=1):
    return Fraction(a, b)
