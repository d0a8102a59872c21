"""Inputs that would check nothing are refused, no command takes a budget
flag, and the certificate search refuses (NOT_FOUND) exactly the pairs
that are not linked."""

import shlex
import time

import pytest

from conftest import tower
from towerforms import dsl
from towerforms.cli import main
from towerforms.errors import ConfigUnsupported
from towerforms.fields import LAURENT, POWER_SLOT_CAP, _power_slots
from towerforms.linkage import (NOT_FOUND, check_top_d_linked,
                                find_certificate, is_linked_pair,
                                sample_symbol, verify_higher_local_d1,
                                verify_lifting_equivalence,
                                verify_residue_transfer)
from towerforms.pfister import expand, symbol_isotropic


COMPLETE_PAIRS = 500
# each tower with its unlinked draws by fold
COMPLETE_TOWERS = [
    (tower(3, 1, ("t", LAURENT)), {}),
    (tower(5, 1, ("t", LAURENT), ("u", LAURENT)), {}),
    (tower(3, 1, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT)), {2: 40}),
]


@pytest.mark.parametrize("T, unlinked", COMPLETE_TOWERS,
                         ids=[T.describe() for T, _ in COMPLETE_TOWERS])
def test_certificate_search_is_complete(T, unlinked):
    """On 500 seeded pairs of each fold 2-4 the search ends on its own
    candidates: NOT_FOUND exactly when is_linked_pair is False, and every
    certificate re-verifies.  Only fold 2 over GF(3)((t))((u))((w)) draws
    unlinked pairs (40 of 500)."""
    counts = {}
    for fold in (2, 3, 4):
        for i in range(COMPLETE_PAIRS):
            s1 = sample_symbol(T, fold, ("complete-a", i))
            s2 = sample_symbol(T, fold, ("complete-b", i))
            cert = find_certificate(s1, s2)
            if not is_linked_pair(s1, s2):
                assert cert == NOT_FOUND, (fold, i)
                counts[fold] = counts.get(fold, 0) + 1
            else:
                assert cert != NOT_FOUND and cert.verify(s1, s2), (fold, i)
    assert counts == unlinked


def test_certify_has_no_budget_flag(capsys):
    lines = [("certify --field 'GF(3)((t))' --p1 '<<t; 1]]' --p2 '<<t; 1]]' "
              "--budget 5", "--budget"),
             ("verify top-linked --field 'GF(3)' --d 1 --samples 5 "
              "--budget-degree 1", "--budget-degree")]
    for line, flag in lines:
        assert main(shlex.split(line)) == 2, line
        assert flag in capsys.readouterr().err, line


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
    "square --field 'GF(3)((t))' --elem 't^99999999999'",
])
def test_cli_refuses_empty_checks(line, capsys):
    assert main(shlex.split(line)) == 2
    out = capsys.readouterr()
    assert "PASS" not in out.out
    assert out.err.startswith("error:")


@pytest.mark.parametrize("field, elem", [
    ("GF(3)((t))", "(1+t)^99999999999"),
    ("GF(3)((t))((u))", "(1+t+u)^59048"),
    ("GF(5)(X)", "(1+X^2)/(2+X)^-99999999999"),
    ("GF(3)((t))((u))", "t^100000000"),
    ("GF(3)((t))((u))", "t^-20000000 + 1"),
    ("GF(5)(X)", "X^100000000"),
])
def test_cli_refuses_oversized_powers_at_once(field, elem, capsys):
    """A power whose slots, bounded from the base-p digits of the exponent,
    pass POWER_SLOT_CAP is refused before any product is taken, and so is a
    monomial whose span of exponents passes it, before it is laid out."""
    start = time.perf_counter()
    assert main(["square", "--field", field, "--elem", elem]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: power too large") and str(POWER_SLOT_CAP) \
        in err


def _slots(raw, depth):
    """The coefficient slots of a raw: its base coefficients, through
    every num and den."""
    return 1 if depth == 0 else sum(
        _slots(c, depth - 1) for part in raw for c in part)


@pytest.mark.parametrize("field, text", [
    ("GF(3)((t))", "1+t"), ("GF(3)((t))((u))", "1+t+u"),
    ("GF(5)((t))((u))", "(2+t*u)/(1+u)"), ("GF(3)(X)", "(1+X)/(2+X^3)"),
])
def test_power_slot_bound_holds(field, text):
    """_power_slots bounds the slots of each power up to 40; the terms of
    (1+t)^n are prod (n_i + 1) by Lucas' theorem, n_i the base-3 digits."""
    K = dsl.parse_field(field)
    x = dsl.parse_element(K, text)
    depth = len(K.levels)
    for n in range(1, 41):
        power = (x ** n).raw
        assert _slots(power, depth) <= \
            _power_slots(K.chain, depth, x.raw, n, K.base_char), n
        if text == "1+t":
            terms, m = 1, n
            while m:
                m, digit = divmod(m, 3)
                terms *= digit + 1
            assert len(power[0]) - power[0].count(0) == terms, n


MIXED = "GF(3)((t))(X)"


@pytest.mark.parametrize("form", ["diag[1, 1, t, t, X]",
                                  "diag[1, 1, 2*t, 2*t, 2*X, 2*X, t*X, t*X]"])
def test_mixed_tower_isotropy_is_refused_in_every_dimension(form, capsys):
    """Over GF(3)((t))(X) no u-invariant bound is known here, so a form of
    dimension >= 5 is refused like one of dimension 4, not called
    isotropic: diag[1, 1, t, t, X] is anisotropic (its residue forms at X
    are <1, 1, t, t> and <1> over GF(3)((t)), -1 being a non-square mod
    3)."""
    line = f"isotropy --field '{MIXED}' --form '{form}'"
    for text in (line, line.replace(form, "diag[1, 1, t, t]")):
        assert main(shlex.split(text)) == 2, text
        out = capsys.readouterr()
        assert out.out == "" and "places are defined over GF(q)(X) " \
            "towers only" in out.err, text


def test_mixed_tower_symbol_isotropy_is_refused():
    tower = dsl.parse_field(MIXED)
    symbol = dsl.parse_pfister(tower, "<<t, X; 1]]")
    assert dsl.format_form(expand(symbol)) == \
        "diag[1, 1, 2*t, 2*t, 2*X, 2*X, t*X, t*X]"
    with pytest.raises(ConfigUnsupported, match="GF\\(q\\)\\(X\\) towers"):
        symbol_isotropic(symbol)
