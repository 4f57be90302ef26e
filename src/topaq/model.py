"""Textual model format: parser and printer for the `ta { ... }` grammar.

    ta NAME {
      time: dense;             # or discrete
      clocks: x, y;
      actions: a, b;
      init: l0;
      private: l2;             # optional
      final: l1;
      loc l0 { inv: x <= 3 && y < 2; }
      edge l0 -> l2 { when: x >= 1; act: eps; reset: x; }
    }

`act: eps` marks a silent edge; omitted `when` means true, omitted `reset`
the empty set. Bounds are integers; decimals or fractions are accepted only
in dense time when a scaling pass is requested, and then every constant is
scaled to an integer by the common denominator.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .ta import (
    EPSILON,
    ClockConstraint,
    Edge,
    Guard,
    TimedAutomaton,
    validate,
    validate_errors,
)


class ModelError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<cmp><=|>=|<|>|=)
  | (?P<and>&&)
  | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[{}:;,])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line = 1
    pos = 0
    while pos < len(text):
        m = TOKEN_RE.match(text, pos)
        if not m:
            raise ModelError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, raw, line))
        line += raw.count("\n")
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].line if self.tokens else 1
            raise ModelError("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ModelError(f"expected {want!r}, found {tok.text!r}", tok.line)
        return tok

    def name_list(self) -> list[str]:
        out = []
        tok = self.peek()
        if tok and tok.kind == "sym" and tok.text == ";":
            return out
        out.append(self.expect("name").text)
        while self.peek() and self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            out.append(self.expect("name").text)
        return out

    def constraint_list(self) -> list[tuple[str, str, Fraction, int]]:
        out = []
        tok = self.peek()
        if tok and tok.kind == "sym" and tok.text == ";":
            return out
        while True:
            clock = self.expect("name")
            op = self.expect("cmp")
            num = self.expect("number")
            out.append((clock.text, op.text, Fraction(num.text), num.line))
            tok = self.peek()
            if tok and tok.kind == "and":
                self.next()
                continue
            break
        return out


def parse_model(text: str, scale: bool = False) -> TimedAutomaton:
    """Parse one automaton; raises ModelError with positions on bad input and
    on validation errors, warns on validation warnings."""
    return parse_scaled_model(text, scale)[0]


def parse_scaled_model(text: str, scale: bool) -> tuple[TimedAutomaton, int]:
    """`parse_model`, and the factor every constant was multiplied by (1
    without `scale`): time t of the model as written is time t * factor of
    the automaton. A discrete-time model must have integer bounds even with
    `scale`, since scaling would move the integer instants it runs on."""
    p = _Parser(_tokenize(text))
    p.expect("name", "ta")
    name = p.expect("name").text
    p.expect("sym", "{")

    fields: dict[str, list[str]] = {}
    time_domain = "dense"
    invariants: dict[str, list] = {}
    raw_edges: list[dict] = []
    seen_time = False

    while True:
        tok = p.peek()
        if tok is None:
            raise ModelError("missing closing '}'", p.tokens[-1].line)
        if tok.kind == "sym" and tok.text == "}":
            p.next()
            break
        key = p.expect("name")
        if key.text in ("clocks", "actions", "private", "final", "init"):
            if key.text in fields:
                raise ModelError(f"duplicate key {key.text!r}", key.line)
            p.expect("sym", ":")
            fields[key.text] = p.name_list()
            p.expect("sym", ";")
        elif key.text == "time":
            if seen_time:
                raise ModelError("duplicate key 'time'", key.line)
            seen_time = True
            p.expect("sym", ":")
            dom = p.expect("name")
            if dom.text not in ("dense", "discrete"):
                raise ModelError(f"time must be dense or discrete, found {dom.text!r}", dom.line)
            time_domain = dom.text
            p.expect("sym", ";")
        elif key.text == "loc":
            loc = p.expect("name")
            if loc.text in invariants:
                raise ModelError(f"duplicate location {loc.text!r}", loc.line)
            invariants[loc.text] = []
            p.expect("sym", "{")
            while not (p.peek() and p.peek().kind == "sym" and p.peek().text == "}"):
                stmt = p.expect("name")
                if stmt.text != "inv":
                    raise ModelError(f"unknown key {stmt.text!r} in loc block", stmt.line)
                p.expect("sym", ":")
                invariants[loc.text].extend(p.constraint_list())
                p.expect("sym", ";")
            p.expect("sym", "}")
        elif key.text == "edge":
            source = p.expect("name").text
            p.expect("arrow")
            target = p.expect("name").text
            p.expect("sym", "{")
            spec = {"source": source, "target": target, "when": [], "act": None, "reset": [], "line": key.line}
            while not (p.peek() and p.peek().kind == "sym" and p.peek().text == "}"):
                stmt = p.expect("name")
                p.expect("sym", ":")
                if stmt.text == "when":
                    spec["when"] = p.constraint_list()
                elif stmt.text == "act":
                    spec["act"] = p.expect("name").text
                elif stmt.text == "reset":
                    spec["reset"] = p.name_list()
                else:
                    raise ModelError(f"unknown key {stmt.text!r} in edge block", stmt.line)
                p.expect("sym", ";")
            p.expect("sym", "}")
            raw_edges.append(spec)
        else:
            raise ModelError(f"unknown key {key.text!r}", key.line)
    if p.peek() is not None:
        raise ModelError(f"trailing input {p.peek().text!r}", p.peek().line)

    if "init" not in fields:
        raise ModelError("missing required field 'init'")
    if len(fields["init"]) != 1:
        raise ModelError("field 'init' must name exactly one location")

    # integer bounds, scaled through the common denominator when requested
    all_bounds = [c for conj in invariants.values() for c in conj]
    all_bounds += [c for e in raw_edges for c in e["when"]]
    denom = lcm(*(c[2].denominator for c in all_bounds)) if all_bounds else 1
    if denom != 1 and (time_domain == "discrete" or not scale):
        offender = next(c for c in all_bounds if c[2].denominator != 1)
        why = "in discrete time" if time_domain == "discrete" else "(pass scale=True to scale all constants)"
        raise ModelError(f"non-integer bound {offender[2]} {why}", offender[3])

    def guard(conj) -> Guard:
        out = []
        for clock, op, bound, _line in conj:
            scaled = bound * denom
            out.append(ClockConstraint(clock, op, int(scaled)))
        return Guard(tuple(out))

    locations = set(invariants)
    edges = []
    for e in raw_edges:
        action = EPSILON if e["act"] in (None, "eps") else e["act"]
        edges.append(Edge(e["source"], guard(e["when"]), action, frozenset(e["reset"]), e["target"]))
    ta = TimedAutomaton(
        actions=frozenset(fields.get("actions", [])),
        locations=frozenset(locations),
        init=fields["init"][0],
        private=frozenset(fields.get("private", [])),
        final=frozenset(fields.get("final", [])),
        clocks=frozenset(fields.get("clocks", [])),
        invariant={loc: guard(conj) for loc, conj in invariants.items()},
        edges=tuple(edges),
        time_domain=time_domain,
        name=name,
    )
    diags = validate(ta)
    errors = validate_errors(diags)
    if errors:
        raise ModelError("; ".join(d.message for d in errors))
    for d in diags:
        if d.severity == "warning":
            warnings.warn(d.message)
    return ta, denom


def print_model(ta: TimedAutomaton) -> str:
    lines = [f"ta {ta.name} {{"]
    lines.append(f"  time: {ta.time_domain};")
    if ta.clocks:
        lines.append(f"  clocks: {', '.join(sorted(ta.clocks))};")
    if ta.actions:
        lines.append(f"  actions: {', '.join(sorted(ta.actions))};")
    lines.append(f"  init: {ta.init};")
    if ta.private:
        lines.append(f"  private: {', '.join(sorted(ta.private))};")
    if ta.final:
        lines.append(f"  final: {', '.join(sorted(ta.final))};")
    for loc in sorted(ta.locations):
        inv = ta.invariant_of(loc)
        if inv.conjuncts:
            lines.append(f"  loc {loc} {{ inv: {inv}; }}")
        else:
            lines.append(f"  loc {loc} {{ }}")
    for e in ta.edges:
        parts = []
        if e.guard.conjuncts:
            parts.append(f"when: {e.guard};")
        parts.append(f"act: {e.action if e.action is not EPSILON else 'eps'};")
        if e.resets:
            parts.append(f"reset: {', '.join(sorted(e.resets))};")
        lines.append(f"  edge {e.source} -> {e.target} {{ {' '.join(parts)} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
