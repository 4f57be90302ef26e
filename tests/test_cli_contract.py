"""The exit-code contract of `topaq check` on random inputs: 0 holds,
1 violated, 2 refused, 3 usage. A crash (4) must never happen, and a
crash, a cap or a bad argument must never read as 1."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig1_ta, random_discrete_ta, random_oera
from topaq.cli import main
from topaq.model import print_model

MODELS = {
    "criterion5": random_discrete_ta,
    "oera": random_oera,
    "fig1": lambda rng: fig1_ta(),
}
VALID_OBS = [None, "first:0", "first:1", "first:2", "first:3", "dynamic:1", "static:0,1/2,3/2"]
INVALID_OBS = ["first:-1", "dynamic:x", "static:1,0", "last:2",
               # forms Python's int and Fraction take but the command line does not
               "static:1_0", "first:0_2", "first:\u0663", "dynamic:+1", "first: 2", "static:1/2 ", "static:\u0661"]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(sorted(MODELS)), seed=st.integers(0, 10**6),
       mode=st.sampled_from(["exists", "weak", "full"]), obs=st.sampled_from(VALID_OBS + INVALID_OBS))
def test_check_exits_with_a_contract_code(kind, seed, mode, obs):
    ta = MODELS[kind](random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ta"
        path.write_text(print_model(ta))
        args = ["check", "--mode", mode] + (["--obs", obs] if obs else []) + [str(path)]
        code = main(args)
    assert code in {0, 1, 2, 3}, (args, print_model(ta))
    if obs in INVALID_OBS:
        assert code == 3, args


def test_every_invalid_obs_is_a_usage_error(capsys):
    path = str(Path(__file__).resolve().parent.parent / "models" / "fig1.ta")
    for obs in INVALID_OBS:
        assert main(["check", "--mode", "weak", "--obs", obs, path]) == 3, obs
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage error: bad observation spec {obs!r}"), captured.err
        assert captured.out == ""
