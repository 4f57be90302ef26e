"""Command-line front end: check / classify / export.

The CLI only parses arguments and prints results: `check` hands its
question to `deciders.decide` and prints the `Verdict` that comes back, and
`classify` prints what `deciders.applicable` says of the automaton.

Exit codes: 0 the property holds, 1 violated (witness printed as a timed
word with fractional timestamps), 2 refused (undecidable class, an engine
that does not decide the question, resource cap, a model letter that a
construction reserves, or an inconclusive bounded search) with the
reason, 3 usage or parse errors, a malformed TOPAQ_REGION_CAP, an
out-of-range oracle bound and an oracle bound given without
`--engine oracle`, 4 an internal error (any other exception,
reported with its traceback on stderr; never 1, which would claim a
violation).
"""

from __future__ import annotations

import argparse
import re
import sys
import traceback
from fractions import Fraction
from typing import Optional

from . import export
from .deciders import UndecidableClass, applicable, decide, dense_time, is_oera
from .model import ModelError, parse_scaled_model
from .nfa import InclusionCapExceeded
from .observers import (
    Dynamic,
    FirstN,
    ObservationCapExceeded,
    Static,
    tick_regions,
)
from .oracle import BadOracleBound
from .regions import (
    BadRegionCap,
    RegionCapExceeded,
    ReservedLetter,
    augment_ticks,
    build_region_automaton,
    region_state_bound,
)
from .ta import Verdict

EXIT_HOLDS = 0
EXIT_VIOLATED = 1
EXIT_REFUSED = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Python's `int` and `Fraction` also take underscores, surrounding spaces,
# a leading `+` and non-ASCII digits; the command line takes plain ASCII
# numbers only, with an optional `-` so that a negative value reaches the
# check that names it
_INTEGER = re.compile(r"-?[0-9]+")
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _parse_integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise _UsageError(f"bad integer {text!r}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise _UsageError(f"bad rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise _UsageError(f"bad rational {text!r}") from exc


def parse_observation(text: str):
    kind, _, rest = text.partition(":")
    try:
        if kind == "first":
            return FirstN(_parse_integer(rest))
        if kind == "dynamic":
            return Dynamic(_parse_integer(rest))
        if kind == "static":
            times = tuple(parse_rational(p) for p in rest.split(",")) if rest else ()
            return Static(times)
    except (ValueError, _UsageError) as exc:
        raise _UsageError(f"bad observation spec {text!r}: {exc}") from exc
    raise _UsageError(f"bad observation spec {text!r} (want first:N, static:LIST, or dynamic:N)")


def build_parser() -> _Parser:
    parser = _Parser(prog="topaq", description="timed-opacity verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide an opacity property")
    check.add_argument("--mode", required=True, choices=["exists", "weak", "full"])
    check.add_argument("--obs", help="first:N | static:t1,t2,... | dynamic:N")
    check.add_argument("--engine", default="auto", choices=["auto", "discrete", "oera", "oracle"])
    check.add_argument("--horizon", help="oracle horizon (rational)")
    check.add_argument("--granularity", help="oracle granularity (rational)")
    check.add_argument("--max-steps", type=_parse_integer, help="oracle step budget")
    check.add_argument("--scale", action="store_true",
                       help="scale non-integer constants of a dense-time model (times stay in its units)")
    check.add_argument("file")

    classify = sub.add_parser("classify", help="report the automaton's class and applicable deciders")
    classify.add_argument("--scale", action="store_true")
    classify.add_argument("file")

    exp = sub.add_parser("export", help="export the model or derived automata")
    exp.add_argument("--what", default="ta", choices=["ta", "region-automaton", "tick"],
                     help="tick: the region build of the model's own tick construction, ticking (t) by "
                          "the delays that wrap its tick clock (the bounded engine builds its memo "
                          "automaton's, with a stop rule)")
    exp.add_argument("--format", default="dot", choices=["dot", "json"])
    exp.add_argument("--obs", help="first:N for --what tick (default first:1)")
    exp.add_argument("--scale", action="store_true")
    exp.add_argument("file")
    return parser


def _load(path: str, scale: bool):
    """The automaton, and the factor `--scale` multiplied its times by."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scaled_model(fh.read(), scale=scale)


def _report(verdict: Verdict, mode: str, factor: int) -> int:
    label = "existential" if mode == "exists" else mode
    if verdict.holds is True:
        print(f"{label} opacity: holds")
        return EXIT_HOLDS
    if verdict.holds is False:
        print(f"{label} opacity: violated" + (f" ({verdict.side})" if verdict.side else ""))
        if verdict.witness is not None:
            print(f"witness: {verdict.witness.scaled(Fraction(1, factor))}")
        if verdict.note:
            print(f"note: {verdict.note}")
        return EXIT_VIOLATED
    print(f"{label} opacity: inconclusive (no violation found within the search bounds)")
    return EXIT_REFUSED


def _run_check(args) -> int:
    # times on the command line and in the witness are in the model's units
    ta, factor = _load(args.file, args.scale)
    horizon = parse_rational(args.horizon) * factor if args.horizon else None
    granularity = parse_rational(args.granularity) * factor if args.granularity else None
    sel = parse_observation(args.obs) if args.obs else None
    if isinstance(sel, Static):
        sel = Static(tuple(t * factor for t in sel.times))
    verdict = decide(ta, args.mode, sel, engine=args.engine, horizon=horizon,
                     max_steps=args.max_steps, granularity=granularity)
    return _report(verdict, args.mode, factor)


def _run_classify(args) -> int:
    ta, _ = _load(args.file, args.scale)
    deciders, refusal = applicable(ta)
    print(f"time domain: {ta.time_domain}")
    print(f"locations: {len(ta.locations)}")
    print(f"actions: {len(ta.actions)}")
    print(f"clocks: {len(ta.clocks)}")
    print(f"epsilon transitions: {'yes' if ta.has_epsilon_edges() else 'no'}")
    print(f"observable ERA: {'yes' if is_oera(ta) else 'no'}")
    print(f"region state bound: {region_state_bound(ta)}")
    if refusal is not None:
        print(f"weak/full unbounded: refused: {refusal}")
    print("applicable deciders: " + "; ".join(deciders))
    return EXIT_HOLDS


def _run_export(args) -> int:
    if args.obs and args.what != "tick":
        raise _UsageError(f"--obs applies to --what tick only, not to --what {args.what}")
    ta, _ = _load(args.file, args.scale)
    if args.what == "ta":
        obj = ta
        text = export.ta_to_dot(obj) if args.format == "dot" else export.ta_to_json(obj)
    else:
        if args.what == "tick":
            sel = parse_observation(args.obs) if args.obs else FirstN(1)
            if not isinstance(sel, FirstN):
                raise _UsageError("--what tick takes --obs first:N")
            ra = tick_regions(dense_time(ta), sel.n)
        else:
            ra = build_region_automaton(augment_ticks(ta) if ta.time_domain == "discrete" else ta)
        text = (
            export.region_automaton_to_dot(ra)
            if args.format == "dot"
            else export.region_automaton_to_json(ra)
        )
    sys.stdout.write(text)
    return EXIT_HOLDS


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            return _run_check(args)
        if args.command == "classify":
            return _run_classify(args)
        return _run_export(args)
    except (_UsageError, BadRegionCap, BadOracleBound) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UndecidableClass, RegionCapExceeded, ObservationCapExceeded, InclusionCapExceeded,
            ReservedLetter) as exc:
        print(f"refused: {exc}")
        return EXIT_REFUSED
    except Exception as exc:  # a defect or an exhausted interpreter resource, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
