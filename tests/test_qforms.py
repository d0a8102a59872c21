"""Quadratic forms: isotropy, Witt decomposition, isometry."""

import itertools

import pytest

from towerforms import errors, localglobal, qforms
from towerforms.dsl import parse_field
from towerforms.fields import SampleBudget, sample, sample_unit
from towerforms.localglobal import is_isotropic_global
from towerforms.qforms import (QuadraticForm, class_dimension, form,
                               is_hyperbolic, is_isotropic, isometric, neg,
                               orth_sum, scale, square_class, u_invariant,
                               witt_decompose, witt_index)
from conftest import tower


def test_finite_isotropy_examples(gf3):
    gf5 = tower(5)
    assert not is_isotropic(form(gf3, 1, 1))
    assert is_isotropic(form(gf5, 1, 1))
    assert is_isotropic(form(gf3, 1, 1, 1))


def test_laurent_isotropy_example(gf3t):
    t = gf3t.gen("t")
    assert not is_isotropic(form(gf3t, 1, -2, t, -2 * t))


def test_finite_isotropy_matches_exhaustive_search(gf3):
    gf5 = tower(5)
    for T in (gf3, gf5):
        elems = [T.element(r) for r in T.ops.elements()]
        nonzero = [a for a in elems if not a.is_zero()]
        for dim in (1, 2, 3):
            for diag in itertools.product(nonzero, repeat=dim):
                q = QuadraticForm(T, diag)
                found = any(
                    not all(x.is_zero() for x in vec)
                    and q.evaluate(list(vec)).is_zero()
                    for vec in itertools.product(elems, repeat=dim))
                assert is_isotropic(q) == found, q


def test_witt_examples(gf3):
    dec = witt_decompose(form(gf3, 1, -1))
    assert dec.witt_index == 1 and dec.anisotropic_kernel is None

    dec = witt_decompose(form(gf3, 1, 1, 1, 1))
    assert dec.witt_index == 2 and dec.anisotropic_kernel is None


def test_q_perp_minus_q_is_hyperbolic(gf3t):
    t = gf3t.gen("t")
    q = form(gf3t, 1, -2, t, -2 * t)
    assert witt_index(orth_sum(q, neg(q))) == q.dim
    assert is_hyperbolic(orth_sum(q, neg(q)))


def test_isometric_examples(gf3, gf5t):
    gf5 = tower(5)
    assert isometric(form(gf5, 1, 1), form(gf5, 2, 2))
    assert not isometric(form(gf3, 1), form(gf3, 2))
    t = gf5t.gen("t")
    assert isometric(form(gf5t, 1, 1, -t, -t), form(gf5t, 1, 1, -2 * t, -2 * t))


def test_isometric_tower_mismatch(gf3, gf3t):
    with pytest.raises(errors.TowerMismatch):
        isometric(form(gf3, 1), form(gf3t, 1))


def test_combine_examples(gf3):
    assert orth_sum(form(gf3, 1), form(gf3, 2)).diag == form(gf3, 1, 2).diag
    assert scale(form(gf3, 1, 2), gf3.from_int(2)).diag == form(gf3, 2, 1).diag


def test_zero_entry_rejected(gf3):
    with pytest.raises(errors.TowerFormsError):
        form(gf3, 1, 0)


def _sample_form(T, dim, seed):
    return QuadraticForm(T, tuple(sample(T, SampleBudget(), (seed, i))
                                  for i in range(dim)))


@pytest.mark.parametrize("levels", [(), (("t", "laurent"),),
                                    (("t", "laurent"), ("u", "laurent"))])
def test_witt_index_consistency(levels):
    T = tower(3, 1, *levels)
    for seed in range(25):
        q = _sample_form(T, 1 + seed % 4, seed)
        dec = witt_decompose(q)
        kdim = 0 if dec.anisotropic_kernel is None else dec.anisotropic_kernel.dim
        assert 2 * dec.witt_index + kdim == q.dim
        if dec.anisotropic_kernel is not None:
            assert not is_isotropic(dec.anisotropic_kernel)


def test_witt_cancellation(gf3t):
    for seed in range(20):
        q = _sample_form(gf3t, 2 + seed % 3, (seed, "q"))
        p = _sample_form(gf3t, 1 + seed % 2, (seed, "p"))
        c = sample(gf3t, SampleBudget(), (seed, "c"))
        q2 = scale(scale(q, c), c)  # square rescaling: isometric to q
        assert isometric(orth_sum(q, p), orth_sum(q2, p))
        assert isometric(q, q2)


def test_evaluate_agrees_with_isotropy_verdict(gf3t):
    # Laurent witt_decompose kernels: re-check the kernel embeds isometrically
    for seed in range(15):
        q = _sample_form(gf3t, 3 + seed % 2, seed)
        dec = witt_decompose(q)
        rebuilt = dec.anisotropic_kernel
        for _ in range(dec.witt_index):
            rebuilt = (form(q.tower, 1, -1) if rebuilt is None
                       else orth_sum(rebuilt, form(q.tower, 1, -1)))
        assert isometric(q, rebuilt)


@pytest.mark.parametrize("field, u", [
    ("GF(3)", 2), ("GF(9)", 2), ("GF(5)((t))", 4), ("GF(3)((t))((u))", 8),
    ("GF(9)((t))((u))", 8), ("GF(3)((t))((u))((w))", 16), ("GF(5)(X)", 4),
    ("GF(9)(X)", 4), ("GF(3)((t))(X)", None), ("GF(5)((t))((u))(X)", None),
])
def test_u_invariant_of_each_tower_kind(field, u):
    assert u_invariant(parse_field(field)) == u


# forms per dimension and tower
U_FORMS = 20


@pytest.mark.parametrize("field", ["GF(3)", "GF(5)((t))", "GF(3)((t))((u))",
                                   "GF(3)((t))((u))((w))"])
def test_class_dimension_is_bounded_by_u(field):
    """The class rule reaches u and, on forms sampled over 0-3 Laurent
    levels of every dimension from 1 to u + 2, never exceeds it, and
    is_isotropic (which answers above u without reading a class) agrees
    with it."""
    T = parse_field(field)
    u = u_invariant(T)
    # the bound is reached: <1, -nu> at each of the 2^r value parities
    flip = 1 ^ qforms.minus_one_class(T)
    assert class_dimension(T, [c for e in range(u // 2)
                               for c in (e << 1, e << 1 | flip)]) == u
    budget = SampleBudget(max_val=1, series_terms=1)
    for n in range(1, u + 3):
        for i in range(U_FORMS):
            q = QuadraticForm(T, tuple(sample(T, budget, ("u", n, i, j))
                                       for j in range(n)))
            dim = class_dimension(T, [square_class(T, d) for d in q.diag])
            assert dim <= u and dim % 2 == n % 2, q
            assert is_isotropic(q) == (dim < n), q


def test_forms_above_u_are_isotropic_without_a_class_read(monkeypatch):
    def unread(*args):
        raise AssertionError("a class was read")

    monkeypatch.setattr(qforms, "square_class", unread)
    monkeypatch.setattr(localglobal, "localize", unread)
    for field in ("GF(3)", "GF(3)((t))((u))", "GF(5)(X)"):
        T = parse_field(field)
        u = u_invariant(T)
        q = form(T, *[1] * (u + 1))
        assert is_isotropic(q)
    assert is_isotropic_global(form(parse_field("GF(3)(X)"), 1, 1, 1, 1, 1))
    with pytest.raises(AssertionError):
        is_isotropic(form(parse_field("GF(3)((t))"), 1, 1, 1, 1))
