"""Timed-word equivalence machinery: the word equivalence relation, the
piecewise-linear time distortion, ticked words, and the class-recognizer TA."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Sequence

from .ta import ClockConstraint, Edge, Guard, TimedAutomaton, TimedWord, make_ta


def _frac(t: Fraction) -> Fraction:
    return t - (t.numerator // t.denominator)


def _ipart(t: Fraction) -> int:
    return t.numerator // t.denominator


def seq_equiv(tau1: Sequence[Fraction], tau2: Sequence[Fraction]) -> bool:
    """Time-sequence equivalence: same integral parts, zero fractions at the
    same positions, fractional parts ordered the same way."""
    if len(tau1) != len(tau2):
        return False
    n = len(tau1)
    for a, b in zip(tau1, tau2):
        if _ipart(a) != _ipart(b):
            return False
        if (_frac(a) == 0) != (_frac(b) == 0):
            return False
    for i in range(n):
        for j in range(n):
            if (_frac(tau1[i]) <= _frac(tau1[j])) != (_frac(tau2[i]) <= _frac(tau2[j])):
                return False
    return True


def word_equiv(w: TimedWord, v: TimedWord) -> bool:
    """No timed automaton can tell equivalent words apart."""
    return w.untimed() == v.untimed() and seq_equiv(w.timestamps(), v.timestamps())


def distortion(f: Sequence[Fraction], f2: Sequence[Fraction]):
    """The piecewise-linear bijection of [0,1) mapping grid `f` onto `f2`.

    Both grids must be strictly increasing from 0 to 1 with equal lengths.
    """
    f = [Fraction(x) for x in f]
    f2 = [Fraction(x) for x in f2]
    if len(f) != len(f2) or len(f) < 2:
        raise ValueError("grids must have equal length >= 2")
    for g in (f, f2):
        if g[0] != 0 or g[-1] != 1 or any(a >= b for a, b in zip(g, g[1:])):
            raise ValueError("grids must increase strictly from 0 to 1")

    def gamma(t: Fraction) -> Fraction:
        for j in range(len(f) - 1):
            if f[j] <= t < f[j + 1]:
                return f2[j] + (f2[j + 1] - f2[j]) / (f[j + 1] - f[j]) * (t - f[j])
        raise ValueError(f"{t} outside [0,1)")

    return gamma


def distort(w: TimedWord, f: Sequence[Fraction], f2: Sequence[Fraction]) -> TimedWord:
    """Remap every timestamp through the lifted distortion floor(t)+gamma(frac t).

    Every fractional part occurring in `w` must be a grid point of `f`; the
    result is equivalent to `w`, and distorting back with the swapped grids
    restores `w` exactly.
    """
    gamma = distortion(f, f2)
    grid = {Fraction(x) for x in f}
    for t in w.timestamps():
        if _frac(t) not in grid:
            raise ValueError(f"timestamp {t} has a fractional part outside the grid")
    return TimedWord(tuple((a, _ipart(t) + gamma(_frac(t))) for a, t in w))


@dataclass(frozen=True)
class TickedWord:
    """Untimed encoding of a timed word's equivalence class at observation
    budget N: tick runs carry integral gaps, the f-suffix lists the
    fractional groups of observation indices in increasing fraction order."""

    gaps: tuple[int, ...]  # tick run lengths, one per letter
    letters: tuple[str, ...]
    groups: tuple[frozenset[int], ...]  # partition of {0..N}; groups[0] contains 0
    bound: int  # N

    def tokens(self) -> tuple[str, ...]:
        out: list[str] = []
        for gap, letter in zip(self.gaps, self.letters):
            out.extend(["t"] * gap)
            out.append(letter)
        out.extend(render_group(k) for k in self.groups)
        return tuple(out)

    def render(self) -> str:
        return " ".join(self.tokens())

    def __str__(self):
        return self.render()


def render_group(k: Collection[int]) -> str:
    return "f{" + ",".join(str(i) for i in sorted(k)) + "}"


def parse_group(token: str) -> frozenset[int]:
    if not (token.startswith("f{") and token.endswith("}")):
        raise ValueError(f"bad fractional-group token {token!r}")
    body = token[2:-1]
    return frozenset(int(p) for p in body.split(",") if p != "")


def ticked_word(w: TimedWord, bound: int) -> TickedWord:
    """Ticked form of `w` under observation budget `bound` (requires |w| <= bound).

    Unused observation indices join the fraction-zero group: their clocks in
    the tick construction are never reset by an observation, so they stay in step
    with the global tick clock.
    """
    n = len(w)
    if n > bound:
        raise ValueError(f"word length {n} exceeds the observation bound {bound}")
    stamps = w.timestamps()
    gaps = []
    prev = 0
    for t in stamps:
        gaps.append(_ipart(t) - prev)
        prev = _ipart(t)
    by_frac: dict[Fraction, set[int]] = {Fraction(0): {0}}
    for i, t in enumerate(stamps, start=1):
        by_frac.setdefault(_frac(t), set()).add(i)
    for pad in range(n + 1, bound + 1):
        by_frac[Fraction(0)].add(pad)
    groups = tuple(frozenset(by_frac[f]) for f in sorted(by_frac))
    return TickedWord(tuple(gaps), w.untimed(), groups, bound)


def class_recognizer(w: TimedWord) -> TimedAutomaton:
    """A chain TA whose language is exactly the equivalence class of `w`.

    Edge i is guarded, for every j < i, by x_j = t_i - t_j when that
    difference is an integer, and by the enclosing open unit interval
    otherwise; both forms have integer bounds, so no scaling is needed.
    """
    n = len(w)
    stamps = (Fraction(0),) + w.timestamps()  # index 0 is the artificial start
    locations = [f"w{i}" for i in range(n + 1)]
    clocks = [f"x{i}" for i in range(n)]
    edges = []
    for i in range(1, n + 1):
        conj = []
        for j in range(i):
            diff = stamps[i] - stamps[j]
            if diff.denominator == 1:
                conj.append(ClockConstraint(f"x{j}", "=", int(diff)))
            else:
                conj.append(ClockConstraint(f"x{j}", ">", _ipart(diff)))
                conj.append(ClockConstraint(f"x{j}", "<", _ipart(diff) + 1))
        resets = frozenset({f"x{i}"}) if i < n else frozenset()
        edges.append(Edge(locations[i - 1], Guard(tuple(conj)), w.letters[i - 1][0], resets, locations[i]))
    return make_ta(
        actions=set(w.untimed()),
        locations=locations,
        init=locations[0],
        final=[locations[n]],
        edges=edges,
        clocks=clocks,
        name="class-recognizer",
    )

