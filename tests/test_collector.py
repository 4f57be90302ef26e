"""The engines run with the cyclic garbage collector off, which is sound
only while a query makes no reference cycles: every query here runs with
the collector off and must leave nothing for `gc.collect()` to find."""

import gc
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import fig1_ta
from topaq.deciders import check_bounded, check_exists, check_opacity, decide
from topaq.model import parse_model
from topaq.observers import Dynamic, FirstN, Static
from topaq.oracle import oracle_check
from topaq.regions import RegionCapExceeded

MODELS = {path.stem: parse_model(path.read_text())
          for path in sorted((Path(__file__).resolve().parent.parent / "models").glob("*.ta"))}

QUERIES = [
    *[(f"{name}/{label}/{mode}", check_bounded, name, (sel, mode))
      for name in MODELS
      for label, sel in (("first:2", FirstN(2)), ("static:0,3/2", Static((F(0), F(3, 2)))),
                         ("dynamic:1", Dynamic(1)))
      for mode in ("weak", "full")],
    *[(f"fig1-discrete/discrete/{mode}", check_opacity, "fig1-discrete", (mode, "discrete"))
      for mode in ("weak", "full")],
    *[(f"oera-pair/oera/{mode}", check_opacity, "oera-pair", (mode, "oera")) for mode in ("weak", "full")],
    *[(f"{name}/exists", check_exists, name, ()) for name in MODELS],
    ("fig1-discrete/oracle/full", oracle_check, "fig1-discrete", ("full",)),
    ("fig1/oracle/full/first:1", oracle_check, "fig1", ("full", FirstN(1), F(3), 4, F(1, 2))),
    # unprojected, so a candidate is re-checked by the membership search
    ("fig1/oracle/full", oracle_check, "fig1", ("full", None, F(4), None, F(1, 2))),
]


@pytest.fixture
def collector_disabled():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


@pytest.mark.parametrize("engine, name, args", [q[1:] for q in QUERIES], ids=[q[0] for q in QUERIES])
def test_queries_make_no_cyclic_garbage(collector_disabled, engine, name, args):
    gc.collect()  # what the test runner left
    engine(MODELS[name], *args)
    assert gc.collect() == 0
    assert not gc.isenabled()


def test_guard_restores_an_enabled_collector_after_a_return():
    assert gc.isenabled()
    decide(fig1_ta(), "full", FirstN(1))
    assert gc.isenabled()


def test_guard_restores_an_enabled_collector_after_a_refusal():
    assert gc.isenabled()
    with pytest.raises(RegionCapExceeded):
        check_bounded(fig1_ta(), FirstN(3), "weak", cap=10)
    assert gc.isenabled()


def test_guard_leaves_a_disabled_collector_disabled(collector_disabled):
    decide(fig1_ta(), "full", FirstN(1))
    with pytest.raises(RegionCapExceeded):
        check_bounded(fig1_ta(), FirstN(3), "weak", cap=10)
    assert not gc.isenabled()
