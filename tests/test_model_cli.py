import ast
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from topaq.cli import main
from topaq.constructions import relax_finals
from topaq.deciders import dense_time
from topaq.export import region_automaton_to_dot, region_automaton_to_json, ta_to_dot, ta_to_json
from topaq.model import ModelError, parse_model, print_model
from topaq.observers import observation_clocks, tick_construction
from topaq.regions import augment_ticks, build_region_automaton
from topaq.ta import EPSILON

FIG1_TEXT = """
# worked example: one clock, a private detour
ta fig1 {
  time: dense;
  clocks: x;
  actions: a, b;
  init: l0;
  private: l2;
  final: l1;
  loc l0 { inv: x <= 3; }
  loc l1 { }
  loc l2 { inv: x <= 2; }
  edge l0 -> l0 { act: a; }
  edge l0 -> l2 { when: x >= 1; act: eps; }
  edge l0 -> l1 { act: b; }
  edge l2 -> l1 { act: b; }
}
"""

# the private branch needs x = 1/2, never true in discrete time, so the
# model answers as it would without that branch
HALF_DISCRETE_TEXT = """ta half {
  time: discrete;
  clocks: x;
  actions: a;
  init: l0;
  private: lp;
  final: lf;
  loc l0 { }
  loc lp { }
  loc lf { }
  edge l0 -> lp { when: x = 1/2; act: eps; }
  edge lp -> lf { act: a; }
  edge l0 -> lf { when: x = 1; act: a; }
}
"""

# emits a only at x = 1/2, and only privately
HALF_DENSE_TEXT = """ta half {
  clocks: x;
  actions: a;
  init: l0;
  private: lp;
  final: lp;
  loc l0 { }
  loc lp { }
  edge l0 -> lp { when: x = 1/2; act: a; }
}
"""


def structural_key(ta):
    return (
        ta.actions, ta.locations, ta.init, ta.private, ta.final, ta.clocks,
        {l: ta.invariant_of(l) for l in ta.locations},
        frozenset(ta.edges), ta.time_domain,
    )


class TestParseModel:
    def test_fig1_parses_to_expected_automaton(self, fig1):
        ta = parse_model(FIG1_TEXT)
        assert structural_key(ta) == structural_key(fig1)

    def test_round_trip(self):
        ta = parse_model(FIG1_TEXT)
        again = parse_model(print_model(ta))
        assert structural_key(ta) == structural_key(again)

    def test_missing_init(self):
        with pytest.raises(ModelError, match="init"):
            parse_model("ta t { actions: a; final: l0; loc l0 { } }")

    def test_duplicate_location(self):
        with pytest.raises(ModelError, match="duplicate location"):
            parse_model("ta t { init: l0; loc l0 { } loc l0 { } }")

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelError, match="unknown key"):
            parse_model("ta t { init: l0; colour: blue; loc l0 { } }")

    def test_position_in_errors(self):
        try:
            parse_model("ta t {\n  init: l0;\n  loc l0 { inv: x << 3; }\n}")
        except ModelError as exc:
            assert "line 3" in str(exc)
        else:
            pytest.fail("expected a parse error")

    def test_decimal_bounds_need_scaling(self):
        text = "ta t { clocks: x; init: l0; final: l0; loc l0 { inv: x <= 1.5; } }"
        with pytest.raises(ModelError, match="non-integer"):
            parse_model(text)
        ta = parse_model(text, scale=True)
        (c,) = ta.invariant_of("l0").conjuncts
        assert c.bound == 3  # scaled by the common denominator 2

    def test_discrete_bounds_are_never_scaled(self):
        with pytest.raises(ModelError, match="non-integer bound 1/2 in discrete time"):
            parse_model(HALF_DISCRETE_TEXT, scale=True)

    def test_fraction_bounds_scale_consistently(self):
        text = ("ta t { clocks: x; actions: a; init: l0; final: l1; loc l0 { } loc l1 { } "
                "edge l0 -> l1 { when: x = 3/2 && x >= 1; act: a; } }")
        ta = parse_model(text, scale=True)
        (c1, c2) = ta.edges[0].guard.conjuncts
        assert (c1.bound, c2.bound) == (3, 2)

    def test_validation_errors_raise(self):
        with pytest.raises(ModelError, match="unknown clock"):
            parse_model("ta t { init: l0; loc l0 { inv: y <= 1; } }")

    def test_eps_action(self):
        ta = parse_model("ta t { init: l0; loc l0 { } edge l0 -> l0 { act: eps; } }")
        assert ta.edges[0].action is EPSILON


class TestExports:
    def test_ta_dot_mentions_all_parts(self, fig1):
        dot = ta_to_dot(fig1)
        assert "digraph" in dot and "l2" in dot and "x >= 1" in dot

    def test_ta_json_round_readable(self, fig1):
        doc = json.loads(ta_to_json(fig1))
        assert doc["init"] == "l0"
        assert doc["private"] == ["l2"]
        assert len(doc["edges"]) == 4

    def test_region_dot_uses_canonical_labels(self, discrete_example):
        ra = build_region_automaton(augment_ticks(discrete_example))
        dot = region_automaton_to_dot(ra)
        assert "x>2, z=0" in dot.replace('\\n', ' ') or "z=0, x>2" in dot

    def test_region_json(self, discrete_example):
        ra = build_region_automaton(augment_ticks(discrete_example))
        doc = json.loads(region_automaton_to_json(ra))
        assert len(doc["states"]) == 8
        assert doc["initial"] == 0


class TestCli:
    @pytest.fixture
    def fig1_file(self, tmp_path):
        path = tmp_path / "fig1.ta"
        path.write_text(FIG1_TEXT)
        return str(path)

    def test_exists_holds_exit_zero(self, fig1_file, capsys):
        assert main(["check", "--mode", "exists", fig1_file]) == 0
        assert "holds" in capsys.readouterr().out

    def test_oracle_full_violated_exit_one(self, fig1_file, capsys):
        code = main(["check", "--mode", "full", fig1_file, "--engine", "oracle",
                     "--horizon", "4", "--granularity", "1/2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "witness: (b, 3)" in out

    @pytest.mark.parametrize("extra", [
        ["--obs", "first:1"],
        ["--obs", "static:0,3/2"],
        ["--engine", "oracle", "--horizon", "4", "--granularity", "1/2"],
    ], ids=["first", "static", "oracle"])
    def test_exists_paths_hold(self, fig1_file, capsys, extra):
        assert main(["check", "--mode", "exists", fig1_file] + extra) == 0
        assert capsys.readouterr().out == "existential opacity: holds\n"

    @pytest.mark.parametrize("mode, extra, reason", [
        ("exists", [], "existential opacity against a dynamic attacker is not supported"),
        ("weak", ["--engine", "oracle"], "the dynamic attacker has no executable projection; "
                                         "the oracle supports first:N and static:LIST only"),
    ], ids=["exists", "oracle"])
    def test_dynamic_refused(self, fig1_file, capsys, mode, extra, reason):
        assert main(["check", "--mode", mode, "--obs", "dynamic:1", fig1_file] + extra) == 2
        assert capsys.readouterr().out == f"refused: {reason}\n"

    @pytest.mark.parametrize("spec, bound", [("static:0,1,2,3,4,5,6,7,8,9", 10), ("first:9", 9)],
                             ids=["static", "first"])
    def test_observation_cap_refuses_every_mode(self, capsys, spec, bound):
        path = str(Path(__file__).parent.parent / "models" / "late-guard.ta")
        refusal = f"refused: observation bound {bound} exceeds the configured cap 8\n"
        for mode in ("weak", "exists"):
            assert main(["check", "--mode", mode, "--obs", spec, path]) == 2
            assert capsys.readouterr().out == refusal

    def test_full_static_violated_with_note(self, fig1_file, capsys):
        assert main(["check", "--mode", "full", "--obs", "static:0,3/2", fig1_file]) == 1
        assert capsys.readouterr().out == (
            "full opacity: violated (pub-not-priv)\n"
            "witness: (b, 0)\n"
            "note: witness uses the normalized switch-time sequence\n")

    @pytest.mark.parametrize("extra, code, out, err", [
        (["--mode", "exists", "--engine", "oera"], 2,
         "refused: the oera engine decides unbounded weak/full opacity only; "
         "existential and bounded questions take engine auto or oracle\n", ""),
        (["--mode", "weak", "--obs", "first:1", "--engine", "discrete"], 2,
         "refused: the discrete engine decides unbounded weak/full opacity only; "
         "existential and bounded questions take engine auto or oracle\n", ""),
        (["--mode", "weak", "--obs", "first:1", "--horizon=-5", "--granularity", "0"], 3,
         "", "usage error: horizon must be unset unless the engine is oracle, got -5\n"),
        (["--mode", "full", "--max-steps", "4"], 3,
         "", "usage error: max_steps must be unset unless the engine is oracle, got 4\n"),
    ], ids=["exists-oera", "bounded-discrete", "bounds-without-oracle", "steps-without-oracle"])
    def test_options_that_do_not_apply_are_refused(self, capsys, extra, code, out, err):
        path = str(Path(__file__).parent.parent / "models" / "fig1.ta")
        assert main(["check"] + extra + [path]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("domain, letter, command, construction", [
        ("discrete", "t", ["check", "--mode", "weak"], "tick augmentation"),
        ("dense", "t", ["check", "--mode", "full", "--obs", "first:1"], "tick construction"),
        ("dense", "o0", ["check", "--mode", "weak", "--obs", "dynamic:1"], "dynamic attacker's unfolding"),
        ("discrete", "t", ["export", "--what", "region-automaton"], "tick augmentation"),
    ], ids=["discrete-weak", "first-full", "dynamic-weak", "export-regions"])
    def test_reserved_letter_refused_exit_two(self, tmp_path, capsys, domain, letter, command, construction):
        path = tmp_path / "reserved.ta"
        path.write_text(FIG1_TEXT.replace("time: dense;", f"time: {domain};")
                        .replace("actions: a, b;", f"actions: {letter}, b;").replace("act: a;", f"act: {letter};"))
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            f"refused: the model uses the letter {letter!r}, which the {construction} reserves\n", "")

    def test_weak_dense_refused_exit_two(self, fig1_file, capsys):
        code = main(["check", "--mode", "weak", fig1_file])
        out = capsys.readouterr().out
        assert code == 2
        assert "undecidable" in out
        assert "one-clock" in out

    def test_bounded_check_via_obs(self, fig1_file, capsys):
        assert main(["check", "--mode", "weak", "--obs", "first:1", fig1_file]) == 0
        assert main(["check", "--mode", "full", "--obs", "first:1", fig1_file]) == 1

    def test_static_and_dynamic_obs(self, fig1_file):
        assert main(["check", "--mode", "weak", "--obs", "static:0,3/2", fig1_file]) == 0
        assert main(["check", "--mode", "weak", "--obs", "static:0,1.5", fig1_file]) == 0
        assert main(["check", "--mode", "weak", "--obs", "dynamic:1", fig1_file]) == 0

    def test_dynamic2_weak_decided(self, fig1_file, capsys):
        assert main(["check", "--mode", "weak", "--obs", "dynamic:2", fig1_file]) == 0
        assert "weak opacity: holds" in capsys.readouterr().out

    def test_usage_errors_exit_three(self, fig1_file, capsys):
        assert main(["check", "--mode", "sideways", fig1_file]) == 3
        assert main(["check", "--mode", "weak", "--obs", "sometimes:2", fig1_file]) == 3
        assert main(["check", "--mode", "weak", "missing-file.ta"]) == 3

    @pytest.mark.parametrize("option, value", [
        ("--horizon", "1_0"), ("--horizon", " 4"), ("--horizon", "+4"), ("--horizon", "\u0664"),
        ("--granularity", "1/2_0"), ("--granularity", "+1/2"), ("--granularity", "1/0"),
        ("--max-steps", "1_0"), ("--max-steps", " 4"), ("--max-steps", "+4"), ("--max-steps", "\u0664"),
    ])
    def test_numbers_are_plain_ascii(self, capsys, option, value):
        # Python's int and Fraction take these, and would read 1_0 as 10
        path = str(Path(__file__).parent.parent / "models" / "fig1.ta")
        assert main(["check", "--mode", "weak", "--engine", "oracle", path, f"{option}={value}"]) == 3
        kind = "integer" if option == "--max-steps" else "rational"
        assert capsys.readouterr().err == f"usage error: bad {kind} {value!r}\n"

    @pytest.mark.parametrize("model, option, message", [
        ("fig1.ta", ["--granularity", "0"], "granularity must be positive, got 0"),
        ("fig1.ta", ["--granularity=-1/2"], "granularity must be positive, got -1/2"),
        ("fig1-discrete.ta", ["--granularity", "1/2"], "granularity must be 1 in discrete time, got 1/2"),
        ("fig1.ta", ["--max-steps", "-3"], "max_steps must be a positive integer, got -3"),
        ("fig1.ta", ["--max-steps", "0"], "max_steps must be a positive integer, got 0"),
        ("fig1.ta", ["--horizon=-1"], "horizon must be non-negative, got -1"),
    ], ids=["granularity-zero", "granularity-negative", "granularity-discrete", "steps-negative", "steps-zero",
            "horizon-negative"])
    def test_bad_oracle_bound_exit_three(self, capsys, model, option, message):
        path = str(Path(__file__).parent.parent / "models" / model)
        assert main(["check", "--mode", "weak", "--engine", "oracle", path] + option) == 3
        captured = capsys.readouterr()
        assert captured.err == f"usage error: {message}\n"
        assert captured.out == ""

    def test_parse_error_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.ta"
        bad.write_text("ta t { actions a }")
        assert main(["check", "--mode", "exists", str(bad)]) == 3

    def test_classify(self, fig1_file, capsys):
        assert main(["classify", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "time domain: dense" in out
        assert "epsilon transitions: yes" in out
        assert "observable ERA: no" in out
        assert "undecidable" in out

    def test_export_dot_and_json(self, fig1_file, capsys):
        assert main(["export", "--what", "ta", "--format", "dot", fig1_file]) == 0
        assert "digraph" in capsys.readouterr().out
        assert main(["export", "--what", "region-automaton", "--format", "json", fig1_file]) == 0
        json.loads(capsys.readouterr().out)

    def test_export_tick(self, fig1_file, capsys):
        assert main(["export", "--what", "tick", "--obs", "first:1", fig1_file]) == 0
        assert "digraph" in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["ta", "region-automaton"])
    def test_export_refuses_obs_outside_tick(self, fig1_file, capsys, what):
        assert main(["export", "--what", what, "--obs", "first:2", fig1_file]) == 3
        assert capsys.readouterr() == ("", f"usage error: --obs applies to --what tick only, not to --what {what}\n")

    def test_region_cap_env(self, fig1_file, monkeypatch, capsys):
        monkeypatch.setenv("TOPAQ_REGION_CAP", "2")
        assert main(["check", "--mode", "exists", fig1_file]) == 2
        assert capsys.readouterr().out == \
            "refused: region construction exceeded the cap of 2 states (override with TOPAQ_REGION_CAP)\n"

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
    def test_bad_region_cap_env_exit_three(self, fig1_file, monkeypatch, capsys, value):
        monkeypatch.setenv("TOPAQ_REGION_CAP", value)
        assert main(["check", "--mode", "weak", "--obs", "first:1", fig1_file]) == 3
        assert "TOPAQ_REGION_CAP must be a positive integer" in capsys.readouterr().err

    def test_inclusion_cap_refused_exit_two(self, fig1_file, monkeypatch, capsys):
        from topaq import deciders, nfa

        monkeypatch.setattr(deciders, "check_inclusion", functools.partial(nfa.check_inclusion, pair_cap=10))
        assert main(["check", "--mode", "weak", "--obs", "first:1", fig1_file]) == 2
        # the refusal names the states explored and the cap, as a region cap refusal does
        assert "refused: inclusion search cap exceeded: 12 states explored, above the cap of 10" in \
            capsys.readouterr().out

    def test_internal_error_exit_four(self, monkeypatch, capsys):
        from topaq import deciders

        def broken(*args, **kwargs):
            raise RuntimeError("defect in the oracle")

        monkeypatch.setattr(deciders, "oracle_check", broken)
        path = str(Path(__file__).parent.parent / "models" / "fig1-discrete.ta")
        code = main(["check", "--mode", "weak", "--engine", "oracle", path])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("internal error: RuntimeError")
        assert captured.out == ""

    def test_discrete_weak_decided(self, tmp_path, capsys):
        path = tmp_path / "d.ta"
        path.write_text(FIG1_TEXT.replace("time: dense;", "time: discrete;"))
        assert main(["check", "--mode", "weak", str(path)]) == 0
        assert main(["check", "--mode", "full", str(path)]) == 1

    @pytest.mark.parametrize("mode", ["weak", "exists"])
    def test_scale_refused_in_discrete_time(self, tmp_path, capsys, mode):
        # scaled by 2, the private branch's x = 1/2 would become the instant 1
        path = tmp_path / "half.ta"
        path.write_text(HALF_DISCRETE_TEXT)
        assert main(["check", "--mode", mode, "--scale", str(path)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: line 11: non-integer bound 1/2 in discrete time\n")

    @pytest.mark.parametrize("extra, code, out", [
        (["--obs", "first:1"], 1, "weak opacity: violated (priv-not-pub)\nwitness: (a, 1/2)\n"),
        (["--obs", "static:1"], 1, "weak opacity: violated (priv-not-pub)\nwitness: ε\n"
                                   "note: witness uses the normalized switch-time sequence\n"),
        (["--engine", "oracle", "--horizon", "1/2"], 1, "weak opacity: violated (priv-not-pub)\nwitness: (a, 1/2)\n"),
        (["--engine", "oracle", "--horizon", "1", "--granularity", "1"], 2,
         "weak opacity: inconclusive (no violation found within the search bounds)\n"),
    ], ids=["first", "static", "oracle-horizon", "oracle-granularity"])
    def test_scale_keeps_model_units(self, tmp_path, capsys, extra, code, out):
        # times on the command line and in the witness are the model's, not
        # the scaled automaton's
        path = tmp_path / "half.ta"
        path.write_text(HALF_DENSE_TEXT)
        assert main(["check", "--mode", "weak", "--scale"] + extra + [str(path)]) == code
        assert capsys.readouterr().out == out


def test_python_dash_m_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "topaq", *args], cwd=root, env=env, capture_output=True,
                              text=True, timeout=120)

    done = run("check", "--mode", "exists", "models/fig1.ta")
    assert (done.returncode, done.stdout) == (0, "existential opacity: holds\n")
    done = run()
    assert done.returncode == 3
    assert done.stderr.startswith("usage error:")


HUGE_GUARD_TEXT = """ta huge {
  clocks: x;
  actions: a;
  init: l0;
  private: lp;
  final: lf;
  loc l0 { }
  loc lp { }
  loc lf { }
  edge l0 -> lp { act: a; }
  edge lp -> lf { when: x >= 1000000000; act: a; }
  edge l0 -> lf { when: x >= 1000000000; act: a; }
}
"""

HUGE_GUARD_CHILD = """
import sys
from topaq.deciders import check_exists
from topaq.model import parse_model
from topaq.regions import RegionCapExceeded
try:
    check_exists(parse_model(open(sys.argv[1]).read()), cap=1000)
except RegionCapExceeded as refused:
    print(refused)
"""


def _address_space_of_1_gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_guard_constant_is_refused_at_the_region_cap(tmp_path):
    # a guard constant of 10^9 sizes no table before the region cap acts: the
    # library and the CLI refuse at a cap of 1000 states, in children whose
    # address space is limited to 1 GB, so a table of 2*10^9 entries per
    # clock would end in a MemoryError there
    root = Path(__file__).resolve().parent.parent
    path = tmp_path / "huge.ta"
    path.write_text(HUGE_GUARD_TEXT)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    message = "region construction exceeded the cap of 1000 states"
    done = subprocess.run([sys.executable, "-c", HUGE_GUARD_CHILD, str(path)], env=env, capture_output=True,
                          text=True, timeout=60, preexec_fn=_address_space_of_1_gb)
    assert (done.returncode, done.stdout) == (0, message + " (set by the cap argument)\n"), done.stderr
    done = subprocess.run([sys.executable, "-m", "topaq", "check", "--mode", "exists", str(path)],
                          env=dict(env, TOPAQ_REGION_CAP="1000"), capture_output=True, text=True, timeout=60,
                          preexec_fn=_address_space_of_1_gb)
    assert (done.returncode, done.stdout) == (2, f"refused: {message} (override with TOPAQ_REGION_CAP)\n"), done.stderr


def test_public_names_pinned():
    # every name `topaq` exports: adding or removing one shows in this list
    import topaq

    assert sorted(topaq.__all__) == [
        "ClockConstraint", "Configuration", "Dynamic", "EPSILON", "Edge", "FirstN", "Guard",
        "InclusionCapExceeded", "ModelError", "RegionAutomaton", "RegionCapExceeded", "ReservedLetter",
        "Static", "TimedAutomaton", "TimedWord", "UndecidableClass", "Verdict", "accepts_word", "augment_ticks",
        "build_memo", "build_priv", "build_pub", "build_region_automaton", "check_bounded", "check_exists",
        "check_opacity", "class_recognizer", "decide", "distort", "edge", "embed_gadget", "enumerate_runs",
        "grid_word", "inclusion_gadget", "is_oera", "make_ta", "normalize_sequence", "oracle_check",
        "parse_model", "print_model", "product", "project", "step", "swap_gadget", "tick_construction",
        "ticked_word", "unfold_first_n", "unfold_free", "unfold_tau", "validate", "verify_witness",
        "word_equiv",
    ]


def test_cli_imports_no_private_name():
    # the CLI only parses and prints: it reaches the library through names
    # without a leading underscore
    tree = ast.parse((Path(__file__).resolve().parent.parent / "src" / "topaq" / "cli.py").read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "topaq"):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "topaq"]
        else:
            continue
        private += [name for name in names if any(part.startswith("_") for part in name.split("."))]
    assert private == []


class TestBundledModels:
    MODELS = sorted(__import__("pathlib").Path(__file__).parent.parent.glob("models/*.ta"))

    def test_corpus_present(self):
        assert len(self.MODELS) >= 4

    @pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
    def test_round_trip_stability(self, path):
        ta = parse_model(path.read_text())
        assert structural_key(parse_model(print_model(ta))) == structural_key(ta)

    @pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
    def test_classify_runs(self, path, capsys):
        assert main(["classify", str(path)]) == 0
        assert "applicable deciders" in capsys.readouterr().out

    REGION_STATE_BOUNDS = {"fig1-discrete.ta": 48, "fig1.ta": 48, "late-guard.ta": 24, "oera-pair.ta": 256}

    @pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
    def test_classify_prints_region_state_bound(self, path, capsys):
        assert main(["classify", str(path)]) == 0
        assert f"\nregion state bound: {self.REGION_STATE_BOUNDS[path.name]}\n" in capsys.readouterr().out

    # sha256 of `topaq export --what tick` (first:1): the region build of the
    # model's own tick construction with wrap-around observation clocks
    # (`observers.tick_regions`) stays byte-identical
    TICK_EXPORTS = {
        ("fig1-discrete.ta", "dot"): "bb9069052777533a4748490b7e079378d54a4e0b00028534069701d89193d262",
        ("fig1-discrete.ta", "json"): "af80a1c222794f68f16654c13339548f383f25217ab7d896fb78078bbc0a2a75",
        ("fig1.ta", "dot"): "b95086a91eed0efc8468c841415f9808bf8964dc5b8be4d43ca7c1ff7e7ee0a6",
        ("fig1.ta", "json"): "dffb872b0dc6e94013342488dfa11ceb92ddf7983025367295b27e6e51cce828",
        ("late-guard.ta", "dot"): "8ab80ad7e133195981695e11406e4cb71e19c9eb608aca827f21c1b93568aaff",
        ("late-guard.ta", "json"): "ce18e4dd6b0149a9388f8beaca72a930f59e5cd1f3968f58b1d354617c2771d9",
        ("oera-pair.ta", "dot"): "30edce842200afeeba62848733909e3094c33f0a4e6e95c9229292c350ee59af",
        ("oera-pair.ta", "json"): "f80338390fcb3b4cc12400bd5739ed6428c5885d096e63de5d70914c0c7cf908",
    }

    @pytest.mark.parametrize("fmt", ["dot", "json"])
    @pytest.mark.parametrize("path", MODELS, ids=lambda p: p.name)
    def test_tick_export_pinned(self, path, fmt, capsys):
        assert main(["export", "--what", "tick", "--format", fmt, str(path)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == self.TICK_EXPORTS[(path.name, fmt)]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tick_export_is_the_engine_build(self, n, capsys):
        # no end gadget (no f-letter, no gadget location), every tick (from
        # first:1) a delay that wraps the tick clock, and the export of the
        # direct wrap build of the tick construction, with the final-relaxed
        # model's constants
        path = next(p for p in self.MODELS if p.name == "fig1.ta")
        assert main(["export", "--what", "tick", "--format", "json", "--obs", f"first:{n}", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not any(a.startswith("f{") for a in doc["alphabet"])
        assert not any(e["label"].startswith("f{") for e in doc["edges"])
        assert not any(s["location"].startswith("gadget") for s in doc["states"])
        ticks = [e for e in doc["edges"] if e["label"] == "t"]
        assert bool(ticks) == (n > 0) and all(e["kind"] == "delay" for e in ticks)
        base = dense_time(parse_model(path.read_text()))
        ra = build_region_automaton(tick_construction(base, n), wrap=observation_clocks(base, n),
                                    constants=relax_finals(base).max_constants())
        assert doc == json.loads(region_automaton_to_json(ra))

    def test_oera_model_classified(self, capsys):
        path = next(p for p in self.MODELS if p.name == "oera-pair.ta")
        main(["classify", str(path)])
        assert "observable ERA: yes" in capsys.readouterr().out
