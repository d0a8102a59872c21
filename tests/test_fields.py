"""Field tower arithmetic, valuations, residues, and square classes."""

import pytest
from hypothesis import given, settings, strategies as st

from towerforms import dsl, errors, ffield, qforms
from towerforms.fields import (FieldTower, LevelDescriptor, LAURENT, RATFUNC,
                               SampleBudget, format_element, is_square,
                               residue, sample, sample_unit, valuation)
from towerforms.valuation import ValuationCtx
from conftest import tower


def test_even_characteristic_rejected():
    with pytest.raises(errors.TowerFormsError):
        FieldTower(2, 1)
    with pytest.raises(errors.TowerFormsError):
        FieldTower(4, 1)


def test_each_prime_is_tested_once_per_process():
    """Each witt_decompose builds a residue tower, which checks its base
    characteristic; Miller-Rabin runs once for p all the same, and a
    composite is refused with the same message every time."""
    T = dsl.parse_field("GF(1000000000000000003)((t))")
    q = dsl.parse_form(T, "diag[1, 2*t, 3, 5*t]")
    ffield._is_prime.cache_clear()
    for _ in range(100):
        qforms.witt_decompose(q)
    assert ffield._is_prime.cache_info().misses == 1
    for _ in range(2):
        with pytest.raises(errors.TowerFormsError,
                           match="base characteristic must be an odd prime"):
            FieldTower(10 ** 18 + 1, 1)


def test_ratfunc_level_must_be_outermost():
    with pytest.raises(errors.TowerFormsError):
        tower(3, 1, ("X", RATFUNC), ("t", LAURENT))


def test_arithmetic_examples(gf3x, gf5t):
    gf7 = tower(7)
    assert gf7.from_int(3) * gf7.from_int(5) == gf7.one

    X = gf3x.gen("X")
    assert (X + 1) / X + (X - 1) / X == gf3x.from_int(2)

    t = gf5t.gen("t")
    assert (1 / (1 - t)) * (1 - t) == gf5t.one


def test_valuation_examples(gf3t, gf5t, gf3tu):
    t = gf3t.gen("t")
    assert valuation(gf3t, t * t * (1 + t)) == (2,)

    t2, u = gf3tu.gen("t"), gf3tu.gen("u")
    assert valuation(gf3tu, u * t2 ** -1) == (1, -1)

    t5 = gf5t.gen("t")
    assert valuation(gf5t, (t5 + t5 ** 2) / (1 + t5)) == (1,)


def test_valuation_of_zero_raises(gf3t):
    with pytest.raises(errors.ZeroArgument):
        valuation(gf3t, gf3t.zero)


def test_rank_zero_value_vector_is_empty(gf3x):
    """A finite field is the rank-0 tower: its value vector is (), as the
    rank-0 ValuationCtx gives, and so is that of a constant of GF(3)(X);
    an element that involves X is refused."""
    gf7 = tower(7)
    for a in (gf7.from_int(3), gf7.one):
        assert valuation(gf7, a) == () == ValuationCtx(gf7, 0).value_vector(a)
    assert valuation(gf3x, gf3x.from_int(2)) == ()
    with pytest.raises(errors.UnsupportedLevel):
        valuation(gf3x, gf3x.gen("X"))
    with pytest.raises(errors.UnsupportedLevel):
        valuation(gf3x, 1 / (1 + gf3x.gen("X")))


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2)])
def test_sample_unit_over_a_finite_field_is_the_sample(p, k):
    T, budget = tower(p, k), SampleBudget()
    for seed in range(20):
        a = sample_unit(T, budget, seed)
        assert a == sample(T, budget, seed) and not a.is_zero()


def test_residue_examples(gf3t, gf5t, gf3tu):
    t = gf3t.gen("t")
    assert residue(gf3t, (1 + t) / (1 - t)) == gf3t.drop_outer().one

    t5 = gf5t.gen("t")
    assert residue(gf5t, 2 + 3 * t5) == gf5t.drop_outer().from_int(2)

    t2, u = gf3tu.gen("t"), gf3tu.gen("u")
    r = residue(gf3tu, (2 + u) + t2)
    inner = gf3tu.drop_outer()
    assert r == inner.from_int(2) + inner.gen("t")


def test_residue_of_nonunit_raises(gf3t):
    with pytest.raises(errors.NotIntegralUnit):
        residue(gf3t, gf3t.gen("t"))


def test_is_square_examples(gf3t, gf5t, gf3x):
    gf7 = tower(7)
    assert is_square(gf7, gf7.from_int(2))
    assert not is_square(gf3t, gf3t.gen("t"))
    X = gf3x.gen("X")
    assert is_square(gf3x, X * X + 2 * X + 1)
    assert is_square(gf5t, gf5t.from_int(4) + gf5t.gen("t"))


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_square_count_over_finite_fields(p, k):
    T = FieldTower(p, k)
    elems = [T.element(r) for r in T.ops.elements()]
    nonzero = [a for a in elems if not a.is_zero()]
    q = p ** k
    assert len(nonzero) == q - 1
    assert sum(1 for a in nonzero if is_square(T, a)) == (q - 1) // 2


@pytest.mark.parametrize("levels", [(), (("t", LAURENT),),
                                    (("t", LAURENT), ("u", LAURENT)),
                                    (("X", RATFUNC),)])
def test_square_class_is_multiplicative(levels):
    T = tower(3, 1, *levels)
    for seed in range(40):
        a = sample(T, SampleBudget(), (seed, "a"))
        b = sample(T, SampleBudget(), (seed, "b"))
        assert is_square(T, a * a)
        # squares are the kernel of the class map: scaling by one fixes classes
        assert is_square(T, a * a * b) == is_square(T, b)
        if is_square(T, a):
            assert is_square(T, a * b) == is_square(T, b)


def test_valuation_is_additive(gf3tu):
    for seed in range(40):
        a = sample(gf3tu, SampleBudget(), (seed, "a"))
        b = sample(gf3tu, SampleBudget(), (seed, "b"))
        va, vb = valuation(gf3tu, a), valuation(gf3tu, b)
        assert valuation(gf3tu, a * b) == tuple(x + y for x, y in zip(va, vb))
        if not (a + b).is_zero():
            vs = valuation(gf3tu, a + b)
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)


def test_sampler_is_deterministic_and_nonzero(gf3t):
    for seed in range(30):
        a = sample(gf3t, SampleBudget(), seed)
        b = sample(gf3t, SampleBudget(), seed)
        assert a == b
        assert not a.is_zero()


def test_sampler_covers_square_classes(gf3t):
    seen = set()
    for seed in range(100):
        a = sample(gf3t, SampleBudget(), seed)
        v = valuation(gf3t, a)[0] % 2
        u = a * gf3t.gen("t") ** (-valuation(gf3t, a)[0])
        r = residue(gf3t, u)
        seen.add((v, is_square(gf3t.drop_outer(), r)))
    assert len(seen) == 4


def _truncated_squares(p, N):
    """All squares of GF(p)[t]/(t^N) unit-part series, as coefficient tuples."""
    import itertools
    out = set()
    for coeffs in itertools.product(range(p), repeat=N):
        if coeffs[0] == 0:
            continue
        sq = [0] * N
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                if i + j < N:
                    sq[i + j] = (sq[i + j] + a * b) % p
        out.add(tuple(sq))
    return out


def test_laurent_is_square_matches_truncation_oracle(gf3t):
    # compare against brute-force squaring in GF(3)[t]/(t^4) on unit series
    N = 4
    squares = _truncated_squares(3, N)
    t = gf3t.gen("t")
    import itertools
    for coeffs in itertools.product(range(3), repeat=N):
        if coeffs[0] == 0:
            continue
        a = gf3t.zero
        for i, c in enumerate(coeffs):
            a = a + c * t ** i
        assert is_square(gf3t, a) == (coeffs in squares)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50, deadline=None)
def test_format_roundtrip_through_dsl(seed):
    from towerforms import dsl
    T = tower(3, 1, ("t", LAURENT), ("u", LAURENT))
    a = sample(T, SampleBudget(), seed)
    assert dsl.parse_element(T, format_element(a)) == a
