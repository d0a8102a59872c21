"""Linkage of Pfister symbols: deciders, certificates, verification harnesses."""

import pytest

from towerforms import errors
from towerforms.fields import LAURENT, SampleBudget, sample
from towerforms.linkage import (NOT_FOUND, LinkageCertificate,
                                check_top_d_linked, find_certificate,
                                is_linked_pair, sample_symbol,
                                verify_higher_local_d1,
                                verify_lifting_equivalence,
                                verify_residue_transfer)
from towerforms.pfister import QuadraticPfisterSymbol, expand
from towerforms.qforms import class_reps, is_isotropic, square_class
from conftest import finite_nonsquare, tower


def test_linked_pair_examples(gf3, gf3t, gf3x):
    t = gf3t.gen("t")
    s = QuadraticPfisterSymbol(gf3t, (t,), gf3t.one)
    assert is_linked_pair(s, s)

    X = gf3x.gen("X")
    s1 = QuadraticPfisterSymbol(gf3x, (X,), gf3x.one)
    s2 = QuadraticPfisterSymbol(gf3x, (X + 1,), gf3x.one)
    assert is_linked_pair(s1, s2)

    # d = 1: linked iff the 4-dim difference form has witt index >= 1
    a = QuadraticPfisterSymbol(gf3, (), gf3.one)
    h = QuadraticPfisterSymbol(gf3, (), gf3.zero)
    assert is_linked_pair(a, h)


def test_linked_pair_guards(gf3t, gf3x):
    t = gf3t.gen("t")
    s1 = QuadraticPfisterSymbol(gf3t, (t,), gf3t.one)
    s2 = QuadraticPfisterSymbol(gf3t, (t, t), gf3t.one)
    with pytest.raises(errors.FoldMismatch):
        is_linked_pair(s1, s2)
    s3 = QuadraticPfisterSymbol(gf3x, (gf3x.gen("X"),), gf3x.one)
    with pytest.raises(errors.TowerMismatch):
        is_linked_pair(s1, s3)


def test_find_certificate_examples(gf3t, gf3x):
    t = gf3t.gen("t")
    s = QuadraticPfisterSymbol(gf3t, (t,), gf3t.one)
    cert = find_certificate(s, s)
    assert cert != NOT_FOUND
    assert cert.verify(s, s)

    X = gf3x.gen("X")
    s1 = QuadraticPfisterSymbol(gf3x, (X,), gf3x.one)
    s2 = QuadraticPfisterSymbol(gf3x, (X + 1,), gf3x.one)
    cert = find_certificate(s1, s2)
    assert cert != NOT_FOUND
    assert cert.verify(s1, s2)


def test_certificate_implies_linked(gf3t):
    budget = SampleBudget()
    for seed in range(10):
        s1 = sample_symbol(gf3t, 2, (seed, "a"), budget)
        s2 = sample_symbol(gf3t, 2, (seed, "b"), budget)
        cert = find_certificate(s1, s2)
        if cert != NOT_FOUND:
            assert is_linked_pair(s1, s2)
            assert cert.verify(s1, s2)


def mutate_certificate(cert):
    """A single-field corruption of the certificate that changes the isometry
    class of one of its symbols, or None when no corruption in the candidate
    set does (e.g. both expansions hyperbolic and insensitive to slot scaling).

    A slot scaling that keeps the class (all anisotropic 4-dim forms over a
    local tower are isometric) would still verify, so candidates are filtered
    down to the corruptions the verifier must reject.
    """
    T = cert.tower
    t = T.gen(T.levels[-1].symbol)
    candidates = [
        LinkageCertificate(T, cert.left1 * t, cert.left2, cert.shared,
                           cert.last),
        LinkageCertificate(T, cert.left1, cert.left2 * t, cert.shared,
                           cert.last),
    ]
    if cert.shared:
        candidates.append(LinkageCertificate(
            T, cert.left1, cert.left2, (cert.shared[0] * t,) + cert.shared[1:],
            cert.last))
    for b in (T.zero, T.one, T.from_int(2), t):
        if b != cert.last and not (1 + 4 * b).is_zero():
            candidates.append(LinkageCertificate(
                T, cert.left1, cert.left2, cert.shared, b))
    for bad in candidates:
        iso1 = is_isotropic(expand(bad.symbol1()))
        iso2 = is_isotropic(expand(bad.symbol2()))
        if iso1 != is_isotropic(expand(cert.symbol1())) or \
                iso2 != is_isotropic(expand(cert.symbol2())):
            return bad
    return None


def test_mutated_certificates_fail(gf3t):
    budget = SampleBudget()
    found = 0
    seed = 0
    while found < 25:
        seed += 1
        s1 = sample_symbol(gf3t, 2, (seed, "a"), budget)
        s2 = sample_symbol(gf3t, 2, (seed, "b"), budget)
        cert = find_certificate(s1, s2)
        if cert == NOT_FOUND:
            continue
        bad = mutate_certificate(cert)
        if bad is None:
            continue
        found += 1
        assert not bad.verify(s1, s2)


def test_check_top_d_linked_smoke(gf3, gf3t):
    rep = check_top_d_linked(gf3, 1, samples=25, seed=1)
    assert rep.passed and rep.theorem == "top-linked"
    rep = check_top_d_linked(gf3t, 2, samples=8, seed=1)
    assert rep.passed


def test_residue_transfer_smoke(gf3t, gf3tu):
    rep = verify_residue_transfer(gf3t, 1, 1, samples=10, seed=1)
    assert rep.passed and rep.theorem == "residue-transfer"
    rep = verify_residue_transfer(gf3tu, 1, 2, samples=6, seed=1)
    assert rep.passed


def test_residue_transfer_unsupported_n(gf3t):
    with pytest.raises(errors.ConfigUnsupported):
        verify_residue_transfer(gf3t, 2, 1, samples=2)


def test_lifting_equivalence_smoke(gf5t):
    rep = verify_lifting_equivalence(gf5t, 1, 1, samples=8, seed=1)
    assert rep.passed and rep.theorem == "lifting-equivalence"
    gf7 = tower(7)
    rep = verify_lifting_equivalence(gf7, 1, 0, samples=8, seed=1)
    assert rep.passed


def test_higher_local_d1_smoke():
    rep = verify_higher_local_d1(3, samples=10, seed=1)
    assert rep.passed and rep.theorem == "higher-local-d1"
    assert rep.field == "GF(3)(X)"
    assert rep.d == 1


def test_report_json_schema(gf3):
    rep = check_top_d_linked(gf3, 1, samples=5, seed=0)
    js = rep.to_json()
    assert set(js) == {"theorem", "field", "d", "n", "m", "samples", "seed",
                       "failures", "elapsed_ms"}
    assert js["failures"] == []
    assert js["samples"] == 5 and js["seed"] == 0


def _ref_square_class_reps(T):
    """One Laurent level at a time: the reps of drop_outer(), then t times
    them."""
    if not T.levels:
        return [T.one, finite_nonsquare(T)]
    lifted = [T.embed(a) for a in _ref_square_class_reps(T.drop_outer())]
    t = T.gen(T.levels[-1].symbol)
    return lifted + [t * a for a in lifted]


@pytest.mark.parametrize("T", [
    tower(3), tower(3, 2), tower(3, 1, ("t", LAURENT)),
    tower(3, 2, ("t", LAURENT)), tower(3, 1, ("t", LAURENT), ("u", LAURENT)),
    tower(5, 1, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT))],
    ids=lambda T: T.describe())
def test_square_class_reps_match_level_recursion(T):
    """qforms.class_reps lists the recursion's representatives, each with
    its own square_class int."""
    pairs = class_reps(T)
    assert [s for _, s in pairs] == _ref_square_class_reps(T)
    assert [c for c, _ in pairs] == [square_class(T, s) for _, s in pairs]


def test_square_class_reps_refuse_rational_functions(gf3x):
    with pytest.raises(errors.ConfigUnsupported):
        class_reps(gf3x)
