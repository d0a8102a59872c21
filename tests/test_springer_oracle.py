"""Differential oracle for the full-rank Springer split.

The reference below decides isotropy, Witt decomposition and square classes
the slow way, one Laurent level at a time: a rank-1 split, residue forms over
``drop_outer()``, and the finite-field rules at the bottom.  The package does
the same with one split at full Laurent rank; both must give identical
answers, down to the formatted kernel.
"""

import pytest

from conftest import finite_nonsquare, tower
from towerforms import dsl
from towerforms import fields as fl
from towerforms.fields import LAURENT, SampleBudget, sample
from towerforms.qforms import (QuadraticForm, WittDecomposition,
                               _finite_kernel, is_isotropic,
                               reduce_square_classes, witt_decompose)
from towerforms.valuation import ValuationCtx, raw_springer_split

TOWERS = [tower(3, 1, ("t", LAURENT)),
          tower(3, 2, ("t", LAURENT)),
          tower(3, 1, ("t", LAURENT), ("u", LAURENT)),
          tower(5, 1, ("t", LAURENT), ("u", LAURENT))]
FORMS_PER_TOWER = 125


def _residue_forms(q):
    """Rank-1 Springer split: [(eps, residue form over drop_outer())]."""
    ctx = ValuationCtx(q.tower, 1)
    parts = raw_springer_split(q, ctx)
    return [(eps, QuadraticForm(ctx.residue_tower,
                                tuple(r for _, r in parts[eps])))
            for eps in sorted(parts)]


def ref_is_isotropic(q):
    if not q.tower.levels:
        # Chevalley-Warning for dim >= 3, a square ratio for dim 2
        if q.dim == 2:
            return fl.is_square(q.tower, -(q.diag[0] * q.diag[1]))
        return q.dim >= 3
    return any(ref_is_isotropic(sub) for _, sub in _residue_forms(q))


def ref_witt_decompose(q):
    T = q.tower
    if not T.levels:
        kernel = _finite_kernel(T, q.diag)
    else:
        t = T.gen(T.levels[-1].symbol)
        kernel = []
        for eps, sub in _residue_forms(q):
            dec = ref_witt_decompose(sub)
            if dec.anisotropic_kernel is not None:
                pi = t if eps[0] else T.one
                kernel += [pi * T.embed(r)
                           for r in dec.anisotropic_kernel.diag]
    return WittDecomposition(QuadraticForm(T, tuple(kernel)) if kernel
                             else None, (q.dim - len(kernel)) // 2)


def ref_square_class(T, a):
    if not T.levels:
        return T.one if fl.is_square(T, a) else finite_nonsquare(T)
    (e,), r = ValuationCtx(T, 1).split(a)
    rep = T.embed(ref_square_class(T.drop_outer(), r))
    return T.gen(T.levels[-1].symbol) * rep if e % 2 else rep


def _entry(T, seed, i):
    a = sample(T, SampleBudget(), ("oracle", seed, i))
    if (seed + i) % 3 == 0:
        a = a / sample(T, SampleBudget(), ("oracle-den", seed, i))
    return a


def _kernel_text(dec):
    k = dec.anisotropic_kernel
    return None if k is None else dsl.format_form(k)


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_full_rank_split_matches_level_recursion(T):
    for seed in range(FORMS_PER_TOWER):
        q = QuadraticForm(T, tuple(_entry(T, seed, i)
                                   for i in range(1 + seed % 6)))
        assert is_isotropic(q) == ref_is_isotropic(q), q
        dec, ref = witt_decompose(q), ref_witt_decompose(q)
        assert dec.witt_index == ref.witt_index, q
        assert _kernel_text(dec) == _kernel_text(ref), q
        assert reduce_square_classes(q).diag == \
            tuple(ref_square_class(T, d) for d in q.diag), q


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_split_matches_exact_residue(T):
    entries = [_entry(T, seed, 0) for seed in range(40)]
    for rank in sorted({1, len(T.levels)}):
        ctx = ValuationCtx(T, rank)
        for a in entries:
            w, r = ctx.split(a)
            assert w == fl.valuation(T, a)[:rank]
            unit = a * ctx.monomial(tuple(-c for c in w))
            assert r == ctx.residue(unit)
            # r is the leading coefficient: unit - r vanishes in the residue
            rest = unit - T.embed(r)
            assert rest.is_zero() or ctx.value_vector(rest) > (0,) * rank
