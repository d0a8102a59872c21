"""Valuation contexts, Springer decomposition, residue forms, F2 solving."""

import pytest

from towerforms import errors
from towerforms.fields import SampleBudget, sample_unit, valuation as val
from towerforms.qforms import QuadraticForm, form, is_isotropic
from towerforms.valuation import (ValuationCtx, f2_solve, raw_springer_split,
                                  residue_form, springer_decompose)


def test_ctx_rank_bounds(gf3t, gf3):
    ValuationCtx(gf3t, 1)
    ValuationCtx(gf3, 0)  # trivial valuation
    with pytest.raises(errors.TowerFormsError):
        ValuationCtx(gf3t, 2)


def test_ctx_rejects_ratfunc_level(gf3x):
    with pytest.raises(errors.TowerFormsError):
        ValuationCtx(gf3x, 1)


def test_springer_examples_rank1(gf3t, gf5t):
    t = gf3t.gen("t")
    dec = springer_decompose(form(gf3t, 1, -2, t, -2 * t), ValuationCtx(gf3t))
    gf3 = gf3t.drop_outer()
    assert dec.part((0,)).diag == (gf3.one, gf3.one)
    assert dec.part((1,)).diag == (gf3.one, gf3.one)

    # the raw grouping keeps isotropic parts: <1, t^2, 4t^3> over GF(5)((t))
    t5 = gf5t.gen("t")
    split = raw_springer_split(form(gf5t, 1, t5 ** 2, 4 * t5 ** 3),
                               ValuationCtx(gf5t))
    gf5 = gf5t.drop_outer()
    assert [r for _, r in split[(0,)]] == [gf5.one, gf5.one]
    assert [r for _, r in split[(1,)]] == [gf5.from_int(4)]


def test_springer_example_rank2(gf3tu):
    t, u = gf3tu.gen("t"), gf3tu.gen("u")
    ctx = ValuationCtx(gf3tu, 2)
    dec = springer_decompose(form(gf3tu, 1, -u, -t, u * t), ctx)
    gf3 = gf3tu.drop_outer(2)
    assert dec.part((0, 0)).diag == (gf3.one,)
    assert dec.part((1, 0)).diag == (-gf3.one,)
    assert dec.part((0, 1)).diag == (-gf3.one,)
    assert dec.part((1, 1)).diag == (gf3.one,)


def test_residue_form_examples(gf3t, gf5t):
    t = gf3t.gen("t")
    ctx = ValuationCtx(gf3t)
    assert residue_form(form(gf3t, 1, -2), ctx, t) is None
    assert residue_form(form(gf3t, t), ctx, t).diag == (gf3t.drop_outer().one,)

    t5 = gf5t.gen("t")
    r = residue_form(form(gf5t, t5), ValuationCtx(gf5t), 4 * t5)
    assert r.diag == (gf5t.drop_outer().from_int(4),)


def test_residue_form_zero_pi_raises(gf3t):
    with pytest.raises(errors.ZeroArgument):
        residue_form(form(gf3t, 1), ValuationCtx(gf3t), gf3t.zero)


def test_f2_span_examples():
    # span membership is f2_solve(...) is not None
    assert f2_solve([(1,)], (3,)) is not None
    assert f2_solve([(1, 0)], (0, 1)) is None
    assert f2_solve([(1, 0), (1, 1)], (0, 1)) is not None


def test_f2_solve_returns_index_set():
    assert f2_solve([(1, 0), (1, 1)], (0, 1)) == [0, 1]
    assert f2_solve([(1, 0)], (0, 1)) is None
    assert f2_solve([(1, 0), (0, 1)], (0, 0)) == []


def test_compose_examples(gf3tu):
    # the rank-2 context is the composite of the u-adic and t-adic valuations
    c = ValuationCtx(gf3tu, 2)
    assert c.rank == 2
    assert c.residue_tower.describe() == "GF(3)"
    t, u = gf3tu.gen("t"), gf3tu.gen("u")
    assert c.value_vector(t * u ** -2) == (-2, 1)
    assert len(c.coset_reps()) == 4  # [vK : 2vK] = 2 * 2


def test_value_formula_on_samples(gf3t):
    # v(q(x)) = 2 min v(x_i) for unit-coefficient forms, anisotropic residue
    ctx = ValuationCtx(gf3t)
    budget = SampleBudget()
    from towerforms.fields import sample
    done = 0
    seed = 0
    while done < 50:
        seed += 1
        diag = tuple(sample_unit(gf3t, budget, (seed, "d", i)) for i in range(2))
        q = QuadraticForm(gf3t, diag)
        split = raw_springer_split(q, ctx)
        res = QuadraticForm(ctx.residue_tower,
                            tuple(r for _, r in split[(0,)]))
        if is_isotropic(res):
            continue
        vec = [sample(gf3t, budget, (seed, "x", i)) for i in range(2)]
        v = val(gf3t, q.evaluate(vec))[0]
        assert v == 2 * min(val(gf3t, x)[0] for x in vec)
        done += 1
