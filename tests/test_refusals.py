"""Inputs that would check nothing are refused, and the certificate search
runs within a fixed isometry-test budget."""

import shlex

import pytest

from towerforms import linkage
from towerforms.cli import main
from towerforms.errors import BudgetExceeded, ConfigUnsupported
from towerforms.linkage import (NOT_FOUND, check_top_d_linked,
                                find_certificate, sample_symbol,
                                verify_higher_local_d1,
                                verify_lifting_equivalence,
                                verify_residue_transfer)
from towerforms.pfister import QuadraticPfisterSymbol


def test_certificate_budget_is_a_constant(monkeypatch, gf3t):
    s = QuadraticPfisterSymbol(gf3t, (gf3t.gen("t"),), gf3t.one)
    assert linkage.CERTIFICATE_BUDGET == 512
    assert find_certificate(s, s) != NOT_FOUND
    # a certificate needs one isometry test per symbol, so one is too few
    monkeypatch.setattr(linkage, "CERTIFICATE_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        find_certificate(s, s)


def test_certify_has_no_budget_flag(capsys):
    line = ("certify --field 'GF(3)((t))' --p1 '<<t; 1]]' --p2 '<<t; 1]]' "
            "--budget 5")
    assert main(shlex.split(line)) == 2
    assert "--budget" in capsys.readouterr().err


def test_sample_symbol_refuses_fold_below_one(gf3t):
    assert sample_symbol(gf3t, 1, 0).fold == 1
    for fold in (0, -1):
        with pytest.raises(ConfigUnsupported):
            sample_symbol(gf3t, fold, 0)


@pytest.mark.parametrize("samples", [0, -1])
def test_harnesses_refuse_no_samples(samples, gf3t):
    with pytest.raises(ConfigUnsupported):
        check_top_d_linked(gf3t, 2, samples=samples)
    with pytest.raises(ConfigUnsupported):
        verify_lifting_equivalence(gf3t, 1, 1, samples=samples)
    with pytest.raises(ConfigUnsupported):
        verify_residue_transfer(gf3t, 1, 1, samples=samples)
    with pytest.raises(ConfigUnsupported):
        verify_higher_local_d1(3, samples=samples)


@pytest.mark.parametrize("d", [0, -1])
def test_harnesses_refuse_fold_below_one(d, gf3t):
    with pytest.raises(ConfigUnsupported):
        check_top_d_linked(gf3t, d, samples=2)
    with pytest.raises(ConfigUnsupported):
        verify_lifting_equivalence(gf3t, d, 1, samples=2)


@pytest.mark.parametrize("line", [
    "verify top-linked --field 'GF(3)((t))' --d 0 --samples 2",
    "verify top-linked --field 'GF(3)((t))' --d 1 --samples 0",
    "verify top-linked --field 'GF(3)((t))' --d 1 --samples -1",
    "verify lifting-equivalence --field 'GF(3)((t))' --d 0 --samples 2",
    "verify lifting-equivalence --field 'GF(3)((t))' --d 1 --samples 0",
    "verify residue-transfer --field 'GF(3)((t))' --samples 0",
    "verify higher-local-d1 --q 3 --samples 0",
    "verify higher-local-d1 --q 3 --samples -1",
])
def test_cli_refuses_empty_checks(line, capsys):
    assert main(shlex.split(line)) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err.startswith("error:")
