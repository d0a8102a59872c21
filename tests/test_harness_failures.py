"""Every failure kind of the sampled harnesses, made to occur by replacing
one decision with a wrong answer: the records a run reports, and the verify
command's verdict and exit code for them, with the same records in --json.

A run whose failures are all witness-budget refusals prints REFUSED and
exits 2; any other failure prints FAIL and exits 1.
"""

import json
from types import SimpleNamespace

import pytest

from conftest import tower
from towerforms import cli, linkage, localglobal, pfister
from towerforms.errors import BudgetExceeded, IsotropicInput
from towerforms.fields import LAURENT, RATFUNC, SampleBudget
from towerforms.linkage import VerificationReport, sample_symbol

GF3 = tower(3)
GF3T = tower(3, 1, ("t", LAURENT))
GF3X = tower(3, 1, ("X", RATFUNC))
GLOBAL_BUDGET = SampleBudget(max_deg=2)  # that of verify_higher_local_d1
TOP_LINKED = ("top-linked", "--field", "GF(3)((t))", "--d", "2")
TRANSFER = ("residue-transfer", "--field", "GF(3)((t))")
HIGHER_LOCAL = ("higher-local-d1", "--q", "3")
# residue symbols over GF(3) that a wrong pfister_residues reports
RESIDUE = pfister.QuadraticPfisterSymbol(GF3, (), GF3.one)
RESIDUE_3_FOLD = pfister.QuadraticPfisterSymbol(GF3, (GF3.one,) * 2, GF3.one)


def _shown(T, fold, seed, budget=SampleBudget()):
    return sample_symbol(T, fold, seed, budget).describe()


def _iso(T, fold, i, budget=SampleBudget()):
    return _shown(T, fold, (0, "iso", i), budget)


def _pair(T, fold, i, budget=SampleBudget()):
    return [_shown(T, fold, (0, side, i), budget)
            for side in ("pair-a", "pair-b")]


def _surj(i):
    return _shown(GF3, 1, (0, "surj", i))


def _residues(first_residue):
    return lambda symbol, ctx: SimpleNamespace(first_residue=first_residue)


def _raise(error):
    def decide(*args):
        raise error("replaced decision")
    return decide


def _residue_tower_fails(T, d, samples, seed, budget):
    failures = () if T.levels else ({"kind": "unlinked-pair", "index": 0},)
    return VerificationReport("top-linked", T.describe(), d=d,
                              samples=samples, seed=seed, failures=failures)


# (kind, the wrong decisions, the verify argv, the records of 2 samples)
CASES = [
    ("anisotropic-(d+1)-fold",
     {(pfister, "symbol_isotropic"): lambda s: False}, TOP_LINKED,
     [{"kind": "anisotropic-(d+1)-fold", "index": i,
       "symbol": _iso(GF3T, 3, i)} for i in range(2)]),
    ("unlinked-pair",
     {(linkage, "is_linked_pair"): lambda s1, s2: False}, TOP_LINKED,
     [{"kind": "unlinked-pair", "index": i, "symbols": _pair(GF3T, 2, i)}
      for i in range(2)]),
    ("fold-out-of-range",
     {(pfister, "pfister_residues"): _residues(RESIDUE_3_FOLD),
      (pfister, "symbols_isometric"): lambda s1, s2: True}, TRANSFER,
     [{"kind": "fold-out-of-range", "index": i,
       "symbol": _shown(GF3T, 2, (0, "fold", i)), "residue_fold": 3}
      for i in range(2)]),
    ("lift-lost-anisotropy",
     {(pfister, "pfister_residues"): _raise(IsotropicInput),
      (pfister, "symbol_isotropic"): lambda s: False,
      (pfister, "symbols_isometric"): lambda s1, s2: True}, TRANSFER,
     [{"kind": "lift-lost-anisotropy", "index": i, "symbol": _surj(i)}
      for i in range(2)]),
    ("lift-residue-mismatch",
     {(pfister, "pfister_residues"): _residues(RESIDUE),
      (pfister, "symbols_isometric"): lambda s1, s2: False}, TRANSFER,
     [{"kind": "lift-residue-mismatch", "index": i, "symbol": _surj(i),
       "residue": RESIDUE.describe()} for i in range(2)]),
    # isometric over the residue field only, so no lift pair is
    ("injectivity-break",
     {(pfister, "symbols_isometric"): lambda s1, s2: not s1.tower.levels},
     TRANSFER,
     [{"kind": "injectivity-break", "index": 0,
       "symbols": [_surj(0), _surj(1)]}]),
    ("equivalence-mismatch",
     {(linkage, "check_top_d_linked"): _residue_tower_fails},
     ("lifting-equivalence", "--field", "GF(3)((t))", "--d", "1"),
     [{"kind": "equivalence-mismatch", "residue_passed": False,
       "tower_passed": True,
       "residue_failures": [{"kind": "unlinked-pair", "index": 0}],
       "tower_failures": []}]),
    ("anisotropic-3-fold",
     {(localglobal, "isotropic_vector_global"): lambda q: None},
     HIGHER_LOCAL,
     [{"kind": "anisotropic-3-fold", "index": i,
       "symbol": _iso(GF3X, 3, i, GLOBAL_BUDGET)} for i in range(2)]),
    ("witness-invalid",
     {(localglobal, "isotropic_vector_global"):
      lambda q: (q.tower.zero,) * q.dim}, HIGHER_LOCAL,
     [{"kind": "witness-invalid", "index": i,
       "symbol": _iso(GF3X, 3, i, GLOBAL_BUDGET)} for i in range(2)]),
    ("witness-budget",
     {(localglobal, "isotropic_vector_global"): _raise(BudgetExceeded)},
     HIGHER_LOCAL,
     [{"kind": "witness-budget", "index": i,
       "symbol": _iso(GF3X, 3, i, GLOBAL_BUDGET)} for i in range(2)]),
    ("unlinked-pair in higher-local-d1",
     {(linkage, "is_linked_pair"): lambda s1, s2: False}, HIGHER_LOCAL,
     [{"kind": "unlinked-pair", "index": i,
       "symbols": _pair(GF3X, 2, i, GLOBAL_BUDGET)} for i in range(2)]),
]


@pytest.mark.parametrize("kind, wrong, argv, records", CASES,
                         ids=[case[0] for case in CASES])
def test_each_failure_kind_is_reported(kind, wrong, argv, records, capsys,
                                       monkeypatch):
    for (module, name), decide in wrong.items():
        monkeypatch.setattr(module, name, decide)
    refused = kind == "witness-budget"
    argv = ["verify", *argv, "--samples", "2"]
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == (2 if refused else 1)
    assert lines[3] == f"failures: {len(records)}"
    assert lines[5] == ("REFUSED" if refused else "FAIL")
    assert [json.loads(line) for line in lines[6:]] == records
    assert cli.main(argv + ["--json"]) == code
    assert json.loads(capsys.readouterr().out)["failures"] == records


def test_refused_means_refusals_alone():
    refusal = {"kind": "witness-budget", "index": 0}
    counterexample = {"kind": "unlinked-pair", "index": 0}
    assert [VerificationReport("higher-local-d1", "GF(3)(X)",
                               failures=failures).refused
            for failures in ((), (refusal,), (refusal, counterexample),
                             (counterexample,))] == \
        [False, True, False, False]
    assert "refused" not in VerificationReport(
        "higher-local-d1", "GF(3)(X)", failures=(refusal,)).to_json()
