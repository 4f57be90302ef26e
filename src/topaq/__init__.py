"""topaq: timed-opacity verification for timed automata.

Model timed automata with private locations and decide existential, weak,
and full opacity on the decidable classes (discrete time, observable
event-recording automata, and bounded-observation attackers in first-N,
static, and dynamic flavors), cross-validated by an independent enumerative
oracle.
"""

from types import ModuleType as _ModuleType

from .constructions import (
    build_memo,
    build_priv,
    build_pub,
    embed_gadget,
    inclusion_gadget,
    product,
    swap_gadget,
)
from .deciders import (
    UndecidableClass,
    accepts_word,
    check_bounded,
    check_exists,
    check_opacity,
    decide,
    is_oera,
    verify_witness,
)
from .model import ModelError, parse_model, print_model
from .nfa import InclusionCapExceeded
from .observers import (
    Dynamic,
    FirstN,
    Static,
    normalize_sequence,
    project,
    tick_construction,
    unfold_first_n,
    unfold_free,
    unfold_tau,
)
from .oracle import oracle_check
from .regions import (
    RegionAutomaton,
    RegionCapExceeded,
    ReservedLetter,
    augment_ticks,
    build_region_automaton,
)
from .ta import (
    EPSILON,
    ClockConstraint,
    Configuration,
    Edge,
    Guard,
    TimedAutomaton,
    TimedWord,
    Verdict,
    edge,
    enumerate_runs,
    grid_word,
    make_ta,
    step,
    validate,
)
from .words import class_recognizer, distort, ticked_word, word_equiv

__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
__version__ = "0.1.0"
