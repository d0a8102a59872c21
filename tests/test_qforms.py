"""Quadratic forms: isotropy, Witt decomposition, isometry."""

import itertools

import pytest

from towerforms import errors
from towerforms.fields import SampleBudget, sample, sample_unit
from towerforms.qforms import (QuadraticForm, form, is_hyperbolic,
                               is_isotropic, isometric, neg, orth_sum, scale,
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
