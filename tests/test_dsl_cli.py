"""DSL parsing, formatting round trips, CLI exit codes and JSON determinism."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from towerforms import cli, dsl, errors, linkage
from towerforms.cli import main
from towerforms.fields import SampleBudget, format_element, sample
from towerforms.pfister import BilinearPfisterSymbol, QuadraticPfisterSymbol

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_parse_field():
    assert dsl.parse_field("GF(3)((t))").describe() == "GF(3)((t))"
    assert dsl.parse_field("GF(9)((t))((u))").describe() == "GF(9)((t))((u))"
    assert dsl.parse_field("GF(5)((t))(X)").describe() == "GF(5)((t))(X)"
    assert dsl.parse_field(" GF( 25 ) (( t ))").q == 25


@pytest.mark.parametrize("bad", ["GF(4)", "GF(6)", "GF(2)", "GF(3)(X)((t))",
                                 "GF(3", "GF(3)[t]", "", "GF(3)((t))junk"])
def test_parse_field_errors_carry_position(bad):
    with pytest.raises(errors.ParseError) as exc:
        dsl.parse_field(bad)
    assert exc.value.pos >= 0
    assert exc.value.text == bad


def test_parse_element():
    T = dsl.parse_field("GF(3)((t))")
    t = T.gen("t")
    assert dsl.parse_element(T, "(1+t)/(2-t^3)") == (1 + t) / (2 - t ** 3)
    assert dsl.parse_element(T, "-2*t") == -2 * t
    assert dsl.parse_element(T, "t^-2") == t ** -2
    assert dsl.parse_element(T, " 1 + 2 * t ") == 1 + 2 * t


def test_parse_element_errors():
    T = dsl.parse_field("GF(3)((t))")
    for bad in ["", "1 +", "y", "t^", "1/0", "(1+t"]:
        with pytest.raises(errors.ParseError):
            dsl.parse_element(T, bad)


def test_base_generator_symbol():
    T9 = dsl.parse_field("GF(9)")
    g = dsl.parse_element(T9, "g")
    assert not g.is_zero()
    assert dsl.parse_element(T9, format_element(g * g + 1)) == g * g + 1
    T3 = dsl.parse_field("GF(3)")
    with pytest.raises(errors.ParseError):
        dsl.parse_element(T3, "g")


def test_parse_form_and_roundtrip():
    T = dsl.parse_field("GF(3)((t))")
    q = dsl.parse_form(T, "diag[1,-2,t,-2*t]")
    assert q.dim == 4
    assert dsl.parse_form(T, dsl.format_form(q)) == q
    with pytest.raises(errors.ParseError):
        dsl.parse_form(T, "diag[1,0]")
    with pytest.raises(errors.ParseError):
        dsl.parse_form(T, "diag[]")


def test_parse_pfister_shapes():
    T = dsl.parse_field("GF(3)((t))")
    s = dsl.parse_pfister(T, "<<t; 1]]")
    assert isinstance(s, QuadraticPfisterSymbol) and s.fold == 2
    assert dsl.parse_pfister(T, s.describe()) == s

    one = dsl.parse_pfister(T, "<<1]]")
    assert isinstance(one, QuadraticPfisterSymbol) and one.fold == 1
    assert dsl.parse_pfister(T, one.describe()) == one

    b = dsl.parse_pfister(T, "<<t, 2>>")
    assert isinstance(b, BilinearPfisterSymbol)
    assert dsl.parse_pfister(T, b.describe()) == b

    with pytest.raises(errors.ParseError):
        dsl.parse_pfister(T, "<<t, 1]]")


def test_element_roundtrip_on_samples():
    for spec in ["GF(3)((t))", "GF(9)((t))((u))", "GF(5)(X)"]:
        T = dsl.parse_field(spec)
        for seed in range(25):
            a = sample(T, SampleBudget(), seed)
            assert dsl.parse_element(T, format_element(a)) == a


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_isotropy_example(capsys):
    code, out, _ = run_cli(capsys, "isotropy", "--field", "GF(3)((t))",
                           "--form", "diag[1,-2,t,-2*t]")
    assert code == 0
    assert out.strip() == "anisotropic"


def test_cli_isotropy_isotropic_answer_is_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "isotropy", "--field", "GF(5)",
                           "--form", "diag[1,1]")
    assert code == 0
    assert out.strip() == "isotropic"


def test_cli_witt(capsys):
    code, out, _ = run_cli(capsys, "witt", "--field", "GF(3)", "--form",
                           "diag[1,-1]", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["witt_index"] == 1 and js["anisotropic_kernel"] is None


def test_cli_square(capsys):
    code, out, _ = run_cli(capsys, "square", "--field", "GF(7)",
                           "--elem", "2")
    assert code == 0 and out.strip() == "square"


def test_cli_pfister_expand(capsys):
    code, out, _ = run_cli(capsys, "pfister-expand", "--field", "GF(3)((t))",
                           "--pfister", "<<t; 1]]", "--json")
    assert code == 0
    T = dsl.parse_field("GF(3)((t))")
    q = dsl.parse_form(T, json.loads(out)["form"])
    from towerforms.qforms import isometric
    assert isometric(q, dsl.parse_form(T, "diag[1,-2,-t,2*t]"))


def test_cli_residue(capsys):
    code, out, _ = run_cli(capsys, "residue", "--field", "GF(3)((t))",
                           "--pfister", "<<t; 1]]", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["first_residue"] == "<<1]]" and js["m"] == 1


def test_cli_residue_of_a_form(capsys):
    """<1, 2> is hyperbolic over GF(3), so diag[1, t, 2] has no residue
    form at pi = 1 and diag[1] at pi = t."""
    argv = ("residue", "--field", "GF(3)((t))", "--form", "diag[1, t, 2]")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == "pi = 1: -\npi = t: diag[1]\n"
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["parts"] == [{"form": [], "pi": "1"},
                                        {"form": ["1"], "pi": "t"}]


@pytest.mark.parametrize("field", ["GF(3)((t))", "GF(3)"])
def test_cli_residue_of_a_symbol_without_slots(field, capsys):
    """<<1]] has no slot to normalize; over GF(3), the rank-0 tower, the
    report is the same."""
    argv = ("residue", "--field", field, "--pfister", "<<1]]")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == "first residue: <<1]]\npi = 1: multiplier 1\n"
    code, out, _ = run_cli(capsys, *argv, "--json")
    js = json.loads(out)
    assert code == 0 and (js["m"], js["residue_field"]) == (0, "GF(3)")
    assert js["entries"] == [{"indices": [], "multiplier": "1",
                              "representative": "1"}]


def test_cli_pfister_expand_bilinear(capsys):
    code, out, _ = run_cli(capsys, "pfister-expand", "--field", "GF(3)((t))",
                           "--pfister", "<<t, 1 + t>>")
    assert code == 0 and out == "diag[1, 2*t, 2 + 2*t, t + t^2]\n"


def test_cli_pfister_normalize(capsys):
    code, out, _ = run_cli(capsys, "pfister-normalize", "--field",
                           "GF(5)((t))", "--pfister", "<<t, t>>", "--json")
    assert code == 0
    js = json.loads(out)
    T = dsl.parse_field("GF(5)((t))")
    from towerforms.fields import valuation
    last = dsl.parse_pfister(T, js["output"]).slots[-1]
    assert valuation(T, last) == (0,)


def test_cli_link_example(capsys):
    code, out, _ = run_cli(capsys, "link", "--field", "GF(3)(X)",
                           "--p1", "<<X;1]]", "--p2", "<<X+1;1]]")
    assert code == 0 and out.strip() == "linked"


def test_cli_certify(capsys):
    code, out, _ = run_cli(capsys, "certify", "--field", "GF(3)((t))",
                           "--p1", "<<t;1]]", "--p2", "<<t;1]]", "--json")
    assert code == 0
    assert json.loads(out)["certificate"] is not None


def test_cli_certify_text_names_the_common_presentation(capsys):
    code, out, _ = run_cli(capsys, "certify", "--field", "GF(3)((t))",
                           "--p1", "<<t; 1]]", "--p2", "<<1 + t; 1]]")
    assert code == 0
    assert out == "common presentation: <<t; 1]] ~ <<1 + t; 1]]\n"


def test_cli_certify_not_found_names_no_budget(capsys):
    # the candidate slots run out, and the search has no budget, so the
    # text answer must not blame one; the pair is still linked
    pair = ("--field", "GF(3)(X)", "--p1", "<<(2 + 2*X)/(2 + X); 2*X]]",
            "--p2", "<<2 + X; 2/X]]")
    code, out, _ = run_cli(capsys, "certify", *pair)
    assert code == 0
    assert out == "no certificate found among the candidate slots\n"
    assert "budget" not in out
    code, out, _ = run_cli(capsys, "link", *pair)
    assert code == 0 and out.strip() == "linked"


def test_cli_verify_pass_and_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "top-linked", "--field", "GF(3)",
                           "--d", "1", "--samples", "10", "--seed", "42",
                           "--json")
    assert code == 0
    js = json.loads(out)
    assert js["failures"] == [] and js["seed"] == 42 and js["samples"] == 10
    assert js["theorem"] == "top-linked"


def test_cli_verify_higher_local(capsys):
    code, out, _ = run_cli(capsys, "verify", "higher-local-d1", "--q", "3",
                           "--samples", "5", "--seed", "42")
    assert code == 0
    assert "PASS" in out


def test_cli_verify_tells_a_refusal_from_a_counterexample(capsys,
                                                          monkeypatch):
    """The only failure of 123 higher-local-d1 samples over GF(7)(X), seed
    0, is a witness-budget refusal at sample 122, an 8-dimensional (so
    isotropic) expansion: REFUSED, exit 2.  A counterexample among the
    failures, alone or next to a refusal, still prints FAIL, exit 1."""
    code, out, _ = run_cli(capsys, "verify", "higher-local-d1", "--q", "7",
                           "--seed", "0", "--samples", "123")
    lines = out.splitlines()
    assert code == 2 and lines[3] == "failures: 1" and lines[5] == "REFUSED"
    refusal = json.loads(lines[6])
    assert (refusal["kind"], refusal["index"]) == ("witness-budget", 122)
    counterexample = {"kind": "unlinked-pair", "index": 0}
    for failures in ((counterexample,), (refusal, counterexample)):
        report = linkage.VerificationReport("higher-local-d1", "GF(3)(X)",
                                            failures=failures)
        monkeypatch.setattr(linkage, "verify_higher_local_d1",
                            lambda *args, **kwargs: report)
        code, out, _ = run_cli(capsys, "verify", "higher-local-d1", "--q", "3")
        assert code == 1 and out.splitlines()[5] == "FAIL", failures


def test_cli_exit_2_on_bad_input(capsys):
    for argv in (
            ("isotropy", "--field", "GF(4)", "--form", "diag[1]"),
            ("isotropy", "--field", "GF(3)", "--form", "diag[1,"),
            ("isotropy", "--field", "GF(3)", "--form", "diag[0]"),
            ("square", "--field", "GF(3)", "--elem", "1/0"),
            ("verify", "top-linked", "--field", "GF(3)"),
            ("verify", "nonsense", "--q", "3"),
            ("nonsense",),
            # a digit outside 0-9 is refused, not read by int()
            ("square", "--field", "GF(3)((t))", "--elem", "²"),
            ("isotropy", "--field", "GF(5)", "--form", "diag[1, ²]"),
            ("square", "--field", "GF(²)", "--elem", "1"),
            ("square", "--field", "GF(3)", "--elem", "٣"),
            # residues are defined for quadratic symbols only
            ("residue", "--field", "GF(3)((t))", "--pfister", "<<t, 1+t>>"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err


def test_cli_missing_input_exits_2_with_its_message(capsys):
    for argv, message in (
            (("square", "--field", "GF(7)", "--elem", "0"),
             "zero has no square class"),
            (("verify", "higher-local-d1"),
             "verify higher-local-d1 needs --q"),
            (("verify", "top-linked"), "verify top-linked needs --field"),
            (("verify", "lifting-equivalence", "--field", "GF(3)((t))"),
             "verify lifting-equivalence needs --d"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_cli_json_determinism(capsys):
    argv = ("verify", "top-linked", "--field", "GF(3)((t))", "--d", "2",
            "--samples", "5", "--seed", "7", "--json")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0



def test_cli_calls_in_one_process_match_fresh_processes(capsys):
    """main builds its parser once per process; successive calls with
    different subcommands, a usage error among them, still print what a
    fresh interpreter prints for each."""
    lines = [
        ("link", "--field", "GF(3)((t))", "--p1", "<<t; 1]]",
         "--p2", "<<1 + t; t]]", "--json"),
        ("witt", "--field", "GF(5)((t))", "--form", "diag[1, 1, t, 2*t]"),
        ("link", "--field", "GF(3)((t))", "--p1", "<<t; 1]]"),
        ("certify", "--field", "GF(3)((t))", "--p1", "<<t; 1]]",
         "--p2", "<<t, 2; 1 + t]]"),
        ("square", "--field", "GF(7)", "--elem", "3", "--json"),
        ("square", "--field", "GF(7)", "--elem", "3", "extra"),
        ("witt", "--field", "GF(5)", "--form", "diag[1, 1]"),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for argv in lines:
        fresh = subprocess.run(
            [sys.executable, "-m", "towerforms.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60)
        assert run_cli(capsys, *argv) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv


PARITY_ARGV = [
    ("-h",), ("--help",), (), ("nonsense",), ("iso", "--field", "GF(3)"),
    ("--json", "square", "--field", "GF(3)", "--elem", "1"),
    *[(name, "-h") for name in ("isotropy", "witt", "residue", "square",
                                "pfister-expand", "pfister-normalize",
                                "link", "certify", "verify")],
    ("isotropy", "--field", "GF(3)"),
    ("isotropy", "--field=GF(3)", "--form=diag[1, 1]"),
    ("isotropy", "--fie", "GF(5)", "--form", "diag[1, 1]"),
    ("square", "--field", "GF(3)", "--field", "GF(7)", "--elem", "2"),
    ("square", "--field", "GF(7)", "--elem", "2", "extra"),
    ("square", "--field", "GF(7)", "--elem", "2", "--el", "3"),
    ("square", "--field", "GF(3)", "--elem", "-1"),
    ("square", "--field", "GF(3)", "--elem", "--json"),
    ("square", "--elem", "1/0", "--field", "GF(3)"),
    ("square", "-h", "--field", "GF(3)"),
    ("residue", "--field", "GF(3)((t))", "--form", "diag[1, t]",
     "--pfister", "<<t; 1]]"),
    ("residue", "--field", "GF(3)((t))", "--form", "diag[1, t]", "--m", "x"),
    ("witt", "--field", "GF(5)((t))", "--form", "diag[1, t]", "--bogus"),
    ("witt", "--field", "GF(5)", "--form", "diag[1, 1]", "--", "x"),
    ("link", "--field", "GF(3)((t))", "--p1", "<<t; 1]]", "--p2", "<<1]]",
     "--json", "--json"),
    ("certify", "--field", "GF(3)((t))", "--p1", "<<t; 1]]",
     "--p2", "<<t; 1]]", "--json"),
    ("verify", "nonsense"),
    ("verify", "top-linked", "--field", "GF(3)", "--d", "1",
     "--samples", "3", "--seed", "x"),
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_cli_argv_parity_with_the_top_level_parser(argv, capsys, monkeypatch):
    """main hands argv to the named subcommand's parser; reading every argv
    through the top-level parser instead prints the same exit code, stdout
    and stderr."""
    direct = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_args",
                        lambda args: cli._parser().parse_args(args))
    assert run_cli(capsys, *argv) == direct


def test_readme_cli_block_runs(capsys):
    readme = ROOT / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("towerforms ")]
    assert len(lines) >= 9
    for line in lines:
        code, _, err = run_cli(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
