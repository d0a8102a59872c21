"""Differential oracles for the arithmetic core.

Each test keeps the slow route as the reference: GF(p) as the 1-tuple field
Fq(p, 1), square roots by brute force in elements() order, powers by
repeated products, fraction normalization through the gcd at every level
of a tower, the sampler
that lists every base element and multiplies t in one factor at a time, and
sympy's primality and factoring (test-only).
"""

import random

import pytest
import sympy

from conftest import tower
from towerforms import errors, ffield, polys
from towerforms.ffield import Fq, Zp
from towerforms.dsl import parse_field
from towerforms.fields import LAURENT, FracField, SampleBudget, sample
from towerforms.linkage import check_top_d_linked, verify_higher_local_d1


def _brute_sqrt(F, a):
    for x in F.elements():
        if F.eq(F.mul(x, x), a):
            return x
    return None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zp_matches_tuple_prime_field(p):
    Z, T = Zp(p), Fq(p, 1)
    assert (Z.k, Z.order) == (T.k, T.order)

    def tup(x):
        return (x,) if x else ()

    for a in range(p):
        assert tup(Z.neg(a)) == T.neg(tup(a))
        assert Z.is_zero(a) == T.is_zero(tup(a))
        if a:
            assert tup(Z.inv(a)) == T.inv(tup(a))
            assert Z.is_square(a) == T.is_square(tup(a))
        s = Z.sqrt(a)
        assert (s is None and T.sqrt(tup(a)) is None) or \
            tup(s) == T.sqrt(tup(a))
        for b in range(p):
            assert tup(Z.add(a, b)) == T.add(tup(a), tup(b))
            assert tup(Z.sub(a, b)) == T.sub(tup(a), tup(b))
            assert tup(Z.mul(a, b)) == T.mul(tup(a), tup(b))
            if b:
                assert tup(Z.div(a, b)) == T.div(tup(a), tup(b))


@pytest.mark.parametrize("F", [Zp(p) for p in (3, 5, 7, 13, 17, 41, 73, 97)]
                         + [Fq(3, 2), Fq(5, 2), Fq(3, 3)],
                         ids=lambda F: f"GF({F.order})")
def test_sqrt_is_first_root_in_element_order(F):
    squares = 0
    for a in F.elements():
        assert F.sqrt(a) == _brute_sqrt(F, a)
        squares += F.sqrt(a) is not None
    assert squares == (F.order + 1) // 2
    assert F.nonsquare == next(a for a in F.elements()
                               if not F.is_zero(a) and _brute_sqrt(F, a) is None)


@pytest.mark.parametrize("field", ["GF(9)", "GF(3)((t))((u))", "GF(5)(X)"])
def test_pow_matches_repeated_product(field):
    K = parse_field(field)
    for seed in range(6):
        a = sample(K, SampleBudget(), seed)
        for n in range(-4, 10):
            ref = K.one
            for _ in range(abs(n)):
                ref = ref * a if n > 0 else ref / a
            assert a ** n == ref
    F = Fq(3, 2)
    for a in F.elements():
        if F.is_zero(a):
            continue
        ref = F.one
        for n in range(10):
            assert F.pow_(a, n) == ref
            assert F.pow_(F.inv(a), n) == F.pow_(a, -n)
            ref = F.mul(ref, a)


def test_each_finite_field_is_built_once(monkeypatch):
    """Places build no residue field, so over a prime base no Fq is built
    at all; a GF(9)((t)) tower and all its drop_outer()s share one Fq."""
    built = []
    init = Fq.__init__

    def counting_init(F, *args):
        built.append(args)
        init(F, *args)

    monkeypatch.setattr(Fq, "__init__", counting_init)
    ffield.finite_field.cache_clear()
    assert verify_higher_local_d1(3, samples=150).passed
    assert verify_higher_local_d1(5, samples=60).passed
    assert built == []
    assert check_top_d_linked(tower(3, 2, ("t", LAURENT)), 2, 30).passed
    assert built == [(3, 2)]


def _sympy_prime_power(n):
    if n < 2:
        return None
    factors = sympy.factorint(n)
    return next(iter(factors.items())) if len(factors) == 1 else None


def test_primality_matches_sympy():
    """Miller-Rabin on the 13 bases against sympy: every n < 10^5, seeded
    40-80-bit n and prime powers, and strong pseudoprimes to many small
    bases; a number that passes every base above the proven bound is
    refused."""
    for n in range(10 ** 5):
        assert ffield._is_prime(n) == sympy.isprime(n), n
        assert ffield.prime_power(n) == _sympy_prime_power(n), n
    rng = random.Random(2017)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(40, 80)) | 1
        assert ffield._is_prime(n) == sympy.isprime(n), n
        p = sympy.nextprime(rng.getrandbits(rng.randint(20, 40)))
        k = rng.randint(1, 4)
        assert ffield.prime_power(p ** k) == (p, k)
        assert ffield.prime_power(p ** k * 3) is None
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not sympy.isprime(n)
        assert not ffield._is_prime(n) and ffield.prime_power(n) is None
    assert ffield._is_prime(2 ** 61 - 1)
    with pytest.raises(errors.ConfigUnsupported):
        ffield._is_prime(ffield._MR_BOUND)  # a strong pseudoprime to all 13
    with pytest.raises(errors.ConfigUnsupported):
        ffield.prime_power(2 ** 89 - 1)
    assert ffield.prime_power(10 ** 30) is None


def _make_by_gcd(f, num, den):
    """FracField.make through pgcd, whatever the denominator's degree."""
    F = f.inner
    num, den = polys.trim(F, num), polys.trim(F, den)
    if not num:
        return f.zero
    g = polys.pgcd(F, num, den)
    num, den = polys.pdivmod(F, num, g)[0], polys.pdivmod(F, den, g)[0]
    inv = F.inv(den[-1])
    return polys.pscale(F, num, inv), polys.pscale(F, den, inv)


@pytest.mark.parametrize("levels", [1, 2])
def test_make_constant_denominator_matches_gcd(levels):
    K = tower(5, 1, *[(s, LAURENT) for s in "tu"[:levels]])
    f = K.chain[-1]
    rng = random.Random(levels)
    budget = SampleBudget(max_val=1, series_terms=1)

    def inner(seed):
        if levels == 1:
            return rng.randrange(5)
        if rng.random() < 0.2:
            return f.inner.zero
        return sample(K.drop_outer(), budget, seed).raw

    for seed in range(150):
        num = tuple(inner((seed, i)) for i in range(rng.randint(0, 4)))
        den = inner((seed, "den"))
        den = (f.inner.one if f.inner.is_zero(den) else den,)
        assert f.make(num, den) == _make_by_gcd(f, num, den)
        assert f.make(num, den + (f.inner.zero,) * 2) == \
            _make_by_gcd(f, num, den)


class _EuclidFrac(FracField):
    """FracField whose make reduces every fraction by pgcd, monomial
    denominators included."""

    def make(self, num, den):
        return _make_by_gcd(self, num, den)


# sampled pairs per tower, by depth: Euclid over three nested fraction
# fields is the slow route this oracle keeps, at about 0.1 s per pair
EUCLID_PAIRS = {1: 200, 2: 120, 3: 20}  # x 2 primes x 3 operations: 2040


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_make_matches_euclid_at_every_level(p, depth):
    """Products, sums and quotients agree with a tower whose every level
    normalizes through the gcd, on sampled elements whose denominators are
    c*X^k and, after sums and quotients, often not."""
    K = tower(p, 1, *[(s, LAURENT) for s in "tuw"[:depth]])
    euclid = K.chain[0]
    for lv in K.levels:
        euclid = _EuclidFrac(euclid, lv.symbol)
    budget = SampleBudget(max_val=1, series_terms=1)
    f = K.ops
    for seed in range(EUCLID_PAIRS[depth]):
        a = sample(K, budget, ("a", seed)).raw
        b = sample(K, budget, ("b", seed)).raw
        if seed % 3 == 0:
            b = f.add(b, f.one)
        if f.is_zero(b):
            continue
        for op in ("mul", "add", "div"):
            assert getattr(f, op)(a, b) == getattr(euclid, op)(a, b), (op, a, b)


def _old_sample_raw(tower, depth, budget, rng):
    f = tower.chain[depth]
    if depth == 0:
        return rng.choice([e for e in f.elements() if not f.is_zero(e)])
    if tower.levels[depth - 1].kind == LAURENT:
        e = rng.randint(-budget.max_val, budget.max_val)
        coeffs = [_old_sample_raw(tower, depth - 1, budget, rng)]
        for _ in range(rng.randint(0, budget.series_terms)):
            coeffs.append(_old_sample_raw(tower, depth - 1, budget, rng)
                          if rng.random() < 0.7 else f.inner.zero)
        raw = f.make(tuple(coeffs), (f.inner.one,))
        tpow = f.gen if e >= 0 else f.inv(f.gen)
        for _ in range(abs(e)):
            raw = f.mul(raw, tpow)
        return raw

    def rand_poly():
        d = rng.randint(0, budget.max_deg)
        coeffs = [_old_sample_raw(tower, depth - 1, budget, rng)
                  if rng.random() < 0.8 else f.inner.zero
                  for _ in range(d + 1)]
        if all(f.inner.is_zero(c) for c in coeffs):
            coeffs[0] = _old_sample_raw(tower, depth - 1, budget, rng)
        return tuple(coeffs)
    num = rand_poly()
    return f.make(num, rand_poly())


@pytest.mark.parametrize("field", ["GF(9)((t))", "GF(3)((t))((u))",
                                   "GF(5)(X)", "GF(125)((t))((u))"])
@pytest.mark.parametrize("budget", [SampleBudget(),
                                    SampleBudget(max_val=3, max_deg=3,
                                                 series_terms=3)])
def test_sampler_matches_listing_draw(field, budget):
    K = parse_field(field)
    for seed in range(200):
        rng = random.Random((seed, K.describe()).__repr__())
        assert sample(K, budget, seed).raw == \
            _old_sample_raw(K, len(K.levels), budget, rng)
