"""Differential oracles for the arithmetic core.

Each test keeps the slow route as the reference: GF(p) as the 1-tuple field
Fq(Zp(p), X), the generic polys path (a Zp subclass without the int kernels),
the int product as a list loop over shifted rows (the kernel the Kronecker
product replaced), square roots by brute force in elements() order, powers
by repeated products and by squaring and multiplying over the generic
path, fraction arithmetic that cross-multiplies denominators and
normalizes through the gcd at every level of a tower, the sampler
that lists every base element and multiplies t in one factor at a time,
GF(p)[X] factoring and irreducibility by trial division over every monic
polynomial of each degree, and sympy's primality and factoring (test-only).
"""

import random
from functools import partial

import pytest
import sympy

from conftest import (is_irreducible, monic_polys, packed_operand, tower,
                      trial_factor)
from towerforms import errors, ffield, fields, localglobal, polys
from towerforms.ffield import Fq, Zp
from towerforms.dsl import parse_element, parse_field
from towerforms.fields import LAURENT, RATFUNC, FracField, SampleBudget, sample
from towerforms.linkage import check_top_d_linked, verify_higher_local_d1


def _brute_sqrt(F, a):
    for x in F.elements():
        if F.eq(F.mul(x, x), a):
            return x
    return None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zp_matches_tuple_prime_field(p):
    Z = Zp(p)
    T = Fq(Z, (0, 1))
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
                         + [ffield.finite_field(3, 2),
                            ffield.finite_field(5, 2),
                            ffield.finite_field(3, 3)],
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
    F9 = ffield.finite_field(3, 2)
    for F in (Zp(5), Zp(1000003), F9, Fq(F9, _gf9_quadratics()[0])):
        for a in map(F.nth, range(1, F.order, max(1, F.order // 80))):
            ref, inv = F.one, F.inv(a)
            for n in range(10):
                assert F.pow_(a, n) == ref
                ref = F.mul(ref, a)
            ref = F.one
            for n in range(-1, -5, -1):
                ref = F.mul(ref, inv)
                assert F.pow_(a, n) == ref
        with pytest.raises(errors.DivisionByZero):
            F.pow_(F.zero, -1)


def _gf9_quadratics():
    """Every monic irreducible quadratic over GF(9), by trial of each root."""
    F = ffield.finite_field(3, 2)
    return [(c, b, F.one) for b in F.elements() for c in F.elements()
            if all(F.add(F.mul(F.add(x, b), x), c) for x in F.elements())]


def test_residue_fields_over_gf9_match_listed_squares():
    """Fq(GF(9), P) for all 36 monic irreducible quadratics P: 81 distinct
    elements; on each of the 2,880 nonzero residues, is_square against the
    squares listed by enumeration, and sqrt the first root in elements()
    order, None exactly on non-squares."""
    F9 = ffield.finite_field(3, 2)
    moduli = _gf9_quadratics()
    assert len(moduli) == 36
    residues = 0
    for P in moduli:
        K = Fq(F9, P)
        assert K.order == 81
        elements = list(K.elements())
        assert len(set(elements)) == 81
        first_root = {}
        for x in elements[1:]:
            first_root.setdefault(K.mul(x, x), x)
        for g in elements[1:]:
            assert K.is_square(g) == (g in first_root)
            assert K.sqrt(g) == first_root.get(g)
            residues += 1
    assert residues == 2880


def test_each_finite_field_is_built_once(monkeypatch):
    """Over a prime base every Fq built is the residue field of a place of
    degree >= 2 (localglobal.residue_field), built at most once per (p, P);
    a GF(9)((t)) tower and all its drop_outer()s share one Fq, on GF(3) and
    X^2 + 1."""
    built = []
    init = Fq.__init__

    def counting_init(F, *args):
        built.append(args)
        init(F, *args)

    monkeypatch.setattr(Fq, "__init__", counting_init)
    ffield.finite_field.cache_clear()
    localglobal.residue_field.cache_clear()
    localglobal._residue_nonsquare.cache_clear()
    assert verify_higher_local_d1(3, samples=150).passed
    assert verify_higher_local_d1(5, samples=60).passed
    moduli = [(base.p, P) for base, P in built]
    assert moduli and len(set(moduli)) == len(moduli)
    for (p, P), (base, _) in zip(moduli, built):
        assert base is ffield.finite_field(p)
        assert len(P) > 2 and ffield.factor_monic(p, P) == {P: 1}
    built.clear()
    assert check_top_d_linked(tower(3, 2, ("t", LAURENT)), 2, 30).passed
    assert built == [(ffield.finite_field(3), (1, 0, 1))]


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


def _sympy_factor(p, f):
    lc, factors = sympy.Poly(f[::-1], sympy.Symbol("X"),
                             modulus=p).factor_list()
    assert lc % p == 1
    return {tuple(int(c) % p for c in g.all_coeffs()[::-1]): m
            for g, m in factors}


def _seeded_monic(rng, p, degree):
    """A monic polynomial of degree <= degree: one random factor, or a
    product of random factors of which some are squared or cubed."""
    F = Zp(p)
    if rng.random() < 0.5:
        d = rng.randint(1, degree)
        return tuple(rng.randrange(p) for _ in range(d)) + (1,)
    f = (1,)
    while polys.deg(f) < degree // 2:
        d = rng.randint(1, 4)
        g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
        for _ in range(rng.choice((1, 1, 2, 3))):
            if polys.deg(f) + d <= degree:
                f = polys.pmul(F, f, g)
    return f


# polynomials per prime, within about 2 s with sympy's share: an input
# over GF(1000003) costs about ten times one over GF(3)
FACTOR_SAMPLES = {3: 250, 5: 200, 7: 150, 101: 80, 1000003: 30}


@pytest.mark.parametrize("p", sorted(FACTOR_SAMPLES))
def test_factor_matches_sympy(p):
    """Distinct-degree and equal-degree factoring against sympy on seeded
    monic polynomials of degree <= 20, half of them products with
    repeated factors."""
    rng = random.Random(p)
    repeated = 0
    for _ in range(FACTOR_SAMPLES[p]):
        f = _seeded_monic(rng, p, 20)
        got = ffield.factor_monic(p, f)
        assert got == _sympy_factor(p, f), f
        repeated += max(got.values(), default=1) > 1
    assert repeated >= FACTOR_SAMPLES[p] // 5


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_matches_trial_division_in_order(p):
    """The factor dict, order included (by degree, then by coefficients
    from the top), against trial division: every monic polynomial of
    degree <= 5 over GF(3) and <= 3 otherwise, and seeded products of
    degree <= 8."""
    top = 5 if p == 3 else 3
    inputs = [f for d in range(top + 1) for f in monic_polys(p, d)]
    rng = random.Random(p)
    inputs += [_seeded_monic(rng, p, 8) for _ in range(50)]
    for f in inputs:
        assert list(ffield.factor_monic(p, f).items()) == \
            list(trial_factor(p, f).items()), f


def test_canonical_modulus_is_first_irreducible():
    """canonical_modulus(p, k), which fixes every GF(p^k) raw, is the first
    irreducible of monic_polys(p, k) for p <= 23 and k <= 5 (k <= 3 from
    p = 11 on), and its walk leaves the factoring cache as it was."""
    before = ffield.factor_monic.cache_info()
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for k in range(1, (5 if p < 11 else 3) + 1):
            want = next(filter(partial(is_irreducible, p),
                               monic_polys(p, k)))
            assert ffield.canonical_modulus.__wrapped__(p, k) == want, (p, k)
    assert ffield.canonical_modulus(3, 2) == (1, 0, 1)
    assert ffield.factor_monic.cache_info() == before


def _sympy_irreducible(p, g):
    return sympy.Poly(g[::-1], sympy.Symbol("X"), modulus=p).is_irreducible


@pytest.mark.parametrize("p", list(sympy.primerange(3, 60)))
def test_binomial_rule_matches_brute_force(p):
    """_no_irreducible_binomial(p, k) holds exactly when no X^k + c over
    GF(p) is irreducible, for 2 <= k <= 6, by sympy (test-only); so the
    binomials canonical_modulus skips hold no irreducible, and the modulus
    is still the first irreducible of monic_polys(p, k) for k <= 5."""
    for k in range(2, 7):
        brute = not any(_sympy_irreducible(p, (c,) + (0,) * (k - 1) + (1,))
                        for c in range(p))
        assert ffield._no_irreducible_binomial(p, k) == brute, (p, k)
    for k in range(1, 6):
        want = next(g for g in monic_polys(p, k) if _sympy_irreducible(p, g))
        assert ffield.canonical_modulus.__wrapped__(p, k) == want, (p, k)


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


class _GenericZp(Zp):
    """Zp on the generic polys path: every coefficient operation is a
    method call.  The reference for the int kernels."""

    _int_raws = False


def _random_poly(rng, p, length):
    """A trimmed polynomial of at most `length` coefficients, a fifth of
    them zero."""
    return polys.trim(Zp(p), [rng.randrange(p) if rng.random() < 0.8 else 0
                              for _ in range(length)])


def _list_pmul(p, a, b):
    """The int product as a list loop: each nonzero coefficient of a adds
    its multiple of b into a list of sums, reduced mod p once at the end.
    The reference for the Kronecker product."""
    if not a or not b:
        return ()
    n = len(b)
    out = [0] * (len(a) + n - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + n] = [z + x * y for z, y in zip(out[i:i + n], b)]
    return polys.trim(Zp(p), [z % p for z in out])


P18 = 10 ** 18 + 3
# the largest prime whose slots of 2 (p-1)^2 still fit 8 bytes, and the
# next prime, whose slots need 9
P64_BELOW, P64_ABOVE = 3037000493, 3037000507
# seeded cases per prime, x 6 primes: 1800
KRONECKER_CASES = 300


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1000003, P18])
def test_kronecker_pmul_matches_list_loop(p):
    """pmul on Zp equals the list loop on dense, sparse, all-zero,
    zero-padded and unequal-length operands, up to lengths that take each
    side of the density rule."""
    Z = Zp(p)
    rng = random.Random(p)
    for case in range(KRONECKER_CASES):
        length = rng.choice([1, 2, 3, 5, 8, 13, 30, 64, 120])
        density = rng.choice([1.0, 0.8, 0.3, 0.05])
        a = tuple(rng.randrange(1, p) if rng.random() < density else 0
                  for _ in range(length))
        b = tuple(rng.randrange(1, p) if rng.random() < density else 0
                  for _ in range(rng.choice([1, 2, 4, length, 2 * length])))
        kind = case % 4
        if kind == 1:
            b = (0,) * len(b)  # all zero, untrimmed
        elif kind == 2:
            a = a + (0,) * rng.randint(1, 5)  # zero-padded
        elif kind == 3:
            b = b[:1]  # one coefficient
        for x, y in ((a, b), (b, a), (a, a)):
            assert polys.pmul(Z, x, y) == _list_pmul(p, x, y), (x, y)
    # a sparse pair far longer than its terms: 1 + X^5000 times 2 + X^7000
    a = (1,) + (0,) * 4999 + (1,)
    b = (2 % p,) + (0,) * 6999 + (1,)
    assert polys.pmul(Z, a, b) == _list_pmul(p, a, b)


@pytest.mark.parametrize("p, length", [
    (3, 63), (3, 64), (5, 15), (5, 16),           # (p-1)^2 n at 240 to 256
    (17, 255), (17, 256), (257, 2),               # 65280 to 131072
    (P64_BELOW, 2), (P64_ABOVE, 2),               # 8 and 9 bytes
])
def test_kronecker_slot_width_at_byte_boundaries(p, length, monkeypatch):
    """All coefficients p - 1, so that the middle slots of the product are
    (p-1)^2 times the shorter length n, the bound the slot width is taken
    from: a slot one byte too narrow carries into its neighbour here.  A
    shorter length of 1 is a scalar multiple and packs no slots.  The
    short pairs over p > 16 would sum their terms, so here every pair
    that the density rule leaves dense is packed."""
    monkeypatch.setattr(polys, "_WIDE_SLOT_PAIRS", 0)
    Z = Zp(p)
    for a, b in (((p - 1,) * length, (p - 1,) * (length + 3)),
                 ((p - 1,) * length, (p - 1,) * length)):
        assert polys.pmul(Z, a, b) == _list_pmul(p, a, b)
        assert polys.pmul(Z, b, a) == _list_pmul(p, a, b)


@pytest.mark.parametrize("p, la, lb, summed", [
    (101, 3, 3, True), (101, 7, 9, True), (101, 8, 8, False),
    (1000003, 5, 5, True), (1000003, 2, 40, False),
    (17, 2, 31, True), (17, 2, 32, False),
    (13, 3, 3, False), (3, 2, 2, False),   # 1-byte products: packed
])
def test_pmul_kernel_on_short_operands(p, la, lb, summed, monkeypatch):
    """Over p > 16 a product of two ints below p fills more than a byte,
    and pmul sums the term products of operands with fewer than 64 pairs of
    nonzero terms instead of packing them; for p up to 13 only the density
    rule picks the kernel, so short dense operands are packed."""
    calls = []
    kernel = polys._sparse_product

    def recorded(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(polys, "_sparse_product", recorded)
    a, b = (p - 1,) * la, tuple(1 + i % (p - 1) for i in range(lb))
    assert polys.pmul(Zp(p), a, b) == _list_pmul(p, a, b)
    assert bool(calls) == summed


def test_zp_is_square_matches_generic_euler():
    """Zp.is_square, one builtin pow, against the generic Euler criterion
    on pow_: every nonzero a for each odd p <= 31, and 3000 sampled a mod
    10^9 + 7."""
    generic = ffield._FiniteField.is_square
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        Z = Zp(p)
        squares = [Z.is_square(a) for a in range(1, p)]
        assert squares == [generic(Z, a) for a in range(1, p)]
        assert sum(squares) == (p - 1) // 2
    Z, rng = Zp(10 ** 9 + 7), random.Random(7)
    for a in [rng.randrange(1, Z.p) for _ in range(3000)] + [1, Z.p - 1]:
        assert Z.is_square(a) == generic(Z, a), a


# seeded cases per prime, x 5 primes: 2100
KERNEL_CASES = 420


@pytest.mark.parametrize("p", [3, 5, 7, 101, 1000003])
def test_int_kernels_match_generic_path(p):
    """Every polys function on Zp's int kernels returns the tuple the
    generic path returns: zero polynomials, unequal lengths, sums whose
    leading terms cancel (one or several) and divisors of degree 0
    included."""
    Z, G = Zp(p), _GenericZp(p)
    rng = random.Random(p)
    for case in range(KERNEL_CASES):
        a = _random_poly(rng, p, rng.choice([0, 1, 1, 2, 3, 4, 6, 9]))
        kind = case % 4
        if kind == 0 and a:  # the top `cut` terms of a + b cancel
            cut = rng.randint(1, len(a))
            b = tuple(rng.randrange(p) for _ in range(len(a) - cut)) + \
                tuple(-x % p for x in a[len(a) - cut:])
        elif kind == 1:  # a divisor of degree 0
            b = (rng.randrange(1, p),)
        else:
            b = _random_poly(rng, p, rng.choice([0, 1, 2, 3, 5]))
        c = rng.randrange(p)
        padded = a + (0,) * rng.randint(0, 3)
        shifted = (0,) * rng.randint(0, 3) + a
        # psqrt takes monic input: a square, and mostly non-squares
        monic = polys.pmonic(Z, a)
        square = polys.pmul(Z, monic, monic)
        near = polys.pmonic(Z, polys.padd(Z, square, b))
        for name, args in (("psqrt", (square,)), ("psqrt", (monic,)),
                           ("psqrt", (near,)),
                           ("trim", (padded,)), ("padd", (a, b)),
                           ("padd", (b, a)), ("psub", (a, b)),
                           ("pneg", (a,)), ("pmul", (a, b)),
                           ("pmul", (padded, b)), ("pscale", (a, c)),
                           ("pshift_order", (shifted,)), ("pmonic", (a,)),
                           ("pgcd", (a, b)), ("pgcd", (b, a)),
                           ("pxgcd", (a, b))):
            assert getattr(polys, name)(Z, *args) == \
                getattr(polys, name)(G, *args), (name, args)
        assert polys.psqrt(Z, square) == monic
        if not b:
            for F in (Z, G):
                with pytest.raises(errors.DivisionByZero):
                    polys.pdivmod(F, a, b)
            continue
        for name, args in (("pdivmod", (a, b)), ("pdivmod", (padded, b)),
                           ("pdivmod", (b, b)), ("pmod", (a, b)),
                           ("ppowmod", (a, rng.randrange(12), b))):
            assert getattr(polys, name)(Z, *args) == \
                getattr(polys, name)(G, *args), (name, args)
        q, r = polys.pdivmod(Z, a, b)
        assert polys.padd(Z, polys.pmul(Z, q, b), r) == a
        assert polys.deg(r) < polys.deg(b)


def _padded_padd(F, a, b):
    """padd as the generic path once ran it: the shorter operand padded
    with F.zero and every coefficient added."""
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else F.zero
        y = b[i] if i < len(b) else F.zero
        out.append(F.add(x, y))
    return polys.trim(F, out)


def _padded_pmul(F, a, b):
    """pmul as the generic path once ran it: every output coefficient
    starts at F.zero and every product with a nonzero left factor is
    added."""
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return polys.trim(F, out)


# seeded cases per coefficient field, x 4 fields: 1200
ZERO_SKIP_CASES = 300


@pytest.mark.parametrize("field", ["GF(9)", "GF(25)", "GF(3)((t))",
                                   "GF(5)((t))((u))"])
def test_generic_kernels_skip_zeros_as_padded_path(field):
    """The generic padd and pmul, which call the field only where both
    sides are nonzero, return the raws of the zero-padded path over Fq and
    FracField coefficients: zero operands, zero coefficients, unequal
    lengths and sums whose leading terms cancel included."""
    K = parse_field(field)
    F = K.ops
    rng = random.Random(field)

    def poly(tag, length):
        return tuple(sample(K, seed=(field, tag, i)).raw
                     if rng.random() < 0.7 else F.zero
                     for i in range(length))

    for case in range(ZERO_SKIP_CASES):
        a = poly(("a", case), rng.choice([0, 1, 2, 3, 5]))
        b = poly(("b", case), rng.choice([0, 1, 2, 4]))
        if case % 3 == 0 and a:  # the top terms of a + b cancel
            cut = rng.randint(1, len(a))
            b = b[:len(a) - cut] + tuple(F.neg(x) for x in a[len(a) - cut:])
        for x, y in ((a, b), (b, a), (a, a)):
            assert polys.padd(F, x, y) == _padded_padd(F, x, y), (x, y)
            assert polys.pmul(F, x, y) == _padded_pmul(F, x, y), (x, y)


def _base_ints(tower, depth, raw):
    """Every GF(p) int inside a raw of tower.chain[depth]."""
    if depth == 0:
        yield from (raw,) if tower.base_degree == 1 else raw
        return
    for poly in raw:
        for c in poly:
            yield from _base_ints(tower, depth - 1, c)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_zp_raws_are_canonical(p):
    """from_int, every Zp operation, the DSL parser and fields.sample give
    ints in [0, p), the form the int kernels' zero tests rely on."""
    Z = ffield.finite_field(p)

    def canonical(x):
        return type(x) is int and 0 <= x < p

    rng = random.Random(p)
    assert all(canonical(Z.from_int(n)) for n in range(-3 * p, 3 * p))
    assert all(canonical(x) for x in Z.elements())
    assert canonical(Z.zero) and canonical(Z.one) and canonical(Z.nonsquare)
    for _ in range(300):
        a, b, n = rng.randrange(p), rng.randrange(1, p), rng.randint(-9, 9)
        outs = [Z.add(a, b), Z.sub(a, b), Z.sub(b, a), Z.neg(a), Z.neg(b),
                Z.mul(a, b), Z.inv(b), Z.div(a, b), Z.pow_(b, n), Z.sqrt(a)]
        assert all(canonical(x) for x in outs if x is not None)
    for field in (f"GF({p})", f"GF({p})((t))", f"GF({p})((t))((u))",
                  f"GF({p})(X)", f"GF({p ** 2})((t))"):
        K = parse_field(field)
        for seed in range(40):
            assert all(canonical(x) for x in
                       _base_ints(K, len(K.levels), sample(K, seed=seed).raw))
        sym = K.levels[-1].symbol if K.levels else "1"
        for text in (f"-7*{sym}^2 + {3 * p + 2}/({sym}^2 + {p + 1})",
                     f"({-p - 1})*{sym} - 1/({2 * p}*{sym}^3 + 1)", "-1"):
            e = parse_element(K, text)
            assert all(canonical(x) for x in
                       _base_ints(K, len(K.levels), e.raw)), text


class _EuclidFrac(FracField):
    """FracField by cross-multiplication: add and mul multiply the
    denominators, make reduces every fraction by pgcd, and inv is make of
    the swapped raw.  The reference for the monomial-denominator add, mul
    and make, and for inv."""

    def make(self, num, den):
        return _make_by_gcd(self, num, den)

    def inv(self, a):
        return self.make(a[1], a[0])

    def add(self, a, b):
        F = self.inner
        return self.make(
            polys.padd(F, polys.pmul(F, a[0], b[1]), polys.pmul(F, b[0], a[1])),
            polys.pmul(F, a[1], b[1]))

    def mul(self, a, b):
        F = self.inner
        return self.make(polys.pmul(F, a[0], b[0]), polys.pmul(F, a[1], b[1]))


def _euclid_tower(K):
    """K's chain rebuilt by _EuclidFrac levels from the generic-path Zp,
    or from K's own Fq base, which has no int kernels."""
    f = _GenericZp(K.base_char) if K.base_degree == 1 else K.chain[0]
    for lv in K.levels:
        f = _EuclidFrac(f, lv.symbol)
    return f


def _assert_ops_match_euclid(f, euclid, a, b):
    for op in ("mul", "add", "sub", "div"):
        assert getattr(f, op)(a, b) == getattr(euclid, op)(a, b), (op, a, b)


# sampled pairs per tower, by depth: Euclid over three nested fraction
# fields is the slow route this oracle keeps
EUCLID_PAIRS = {1: 200, 2: 120, 3: 20}  # x 2 primes x 4 operations: 2720


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_make_matches_euclid_at_every_level(p, depth):
    """Products, sums, differences and quotients agree with a tower whose
    every level cross-multiplies and normalizes through the gcd, on sampled
    elements whose denominators are c*X^k and, after sums and quotients,
    often not."""
    K = tower(p, 1, *[(s, LAURENT) for s in "tuw"[:depth]])
    euclid = _euclid_tower(K)
    budget = SampleBudget(max_val=1, series_terms=1)
    f = K.ops
    for seed in range(EUCLID_PAIRS[depth]):
        a = sample(K, budget, ("a", seed)).raw
        b = sample(K, budget, ("b", seed)).raw
        if seed % 3 == 0:
            b = f.add(b, f.one)
        if f.is_zero(b):
            continue
        _assert_ops_match_euclid(f, euclid, a, b)


def test_ratfunc_arithmetic_matches_euclid():
    """Over GF(5)(X), with X^k denominators on one side, on both or on
    neither, and numerators sharing powers of X with them."""
    K = tower(5, 1, ("X", RATFUNC))
    euclid = _euclid_tower(K)
    f = K.ops
    rng = random.Random(5)

    def element(seed, monomial):
        num, den = sample(K, SampleBudget(max_deg=3), seed).raw
        if monomial:
            num = (0,) * rng.randint(0, 2) + num
            den = (0,) * rng.randint(0, 3) + (1,)
        return euclid.make(num, den)

    for seed in range(300):
        a = element(("a", seed), seed % 4 in (0, 1))
        b = element(("b", seed), seed % 4 in (0, 2))
        if seed % 5 == 0:
            b = euclid.sub(euclid.mul(a, f.gen), a)
        if not f.is_zero(b):
            _assert_ops_match_euclid(f, euclid, a, b)


@pytest.mark.parametrize("field", ["GF(3)(X)", "GF(5)(X)", "GF(9)((t))",
                                   "GF(5)((t))", "GF(3)((t))((u))",
                                   "GF(3)((t))((u))((w))"])
def test_inverse_matches_make_of_the_swapped_raw(field):
    """FracField.inv, the swapped raw with its new den made monic, against
    make(den, num) and the gcd route of _euclid_tower, at the outer level:
    on sampled raws, whose dens are c*X^k at a Laurent level, on those
    times a power of the generator, and on quotients of two numerators,
    whose dens are mostly not monomials."""
    K = parse_field(field)
    f, euclid = K.ops, _euclid_tower(K)
    budget = SampleBudget(max_val=1, max_deg=3, series_terms=1)
    monomial = other = 0
    for seed in range(60 if len(K.levels) < 3 else 15):
        a = sample(K, budget, ("inv", seed)).raw
        b = sample(K, budget, ("inv", seed, "b")).raw
        shifted = f.mul(a, f.monomial(f.inner.one, seed % 5 - 2))
        for x in (a, shifted, f.make(a[0], b[0])):
            assert f.inv(x) == f.make(x[1], x[0]) == euclid.inv(x), x
            if f._x_power(x[0]) is None:
                other += 1
            else:
                monomial += 1
    assert monomial >= 30 and other >= 10, (monomial, other)
    with pytest.raises(errors.DivisionByZero):
        f.inv(f.zero)


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


def test_packed_product_is_chosen_once_per_level():
    """Only a level whose coefficients are one-level fractions over Zp
    gets the subset products, as an instance attribute set on
    construction: depth-1 levels, GF(p)(X) and an Fq base get none, with
    no per-call test.  No level binds a mul of its own: every level
    multiplies a pair through the class's mul."""
    def packed(field):
        chain = parse_field(field).chain[1:]
        assert not any("mul" in vars(f) for f in chain)
        return ["subset_products" in vars(f) for f in chain]

    assert packed("GF(3)((t))") == [False]
    assert packed("GF(5)(X)") == [False]
    assert packed("GF(9)((t))((u))") == [False, False]
    assert packed("GF(3)((t))((u))") == [False, True]
    assert packed("GF(3)((t))(X)") == [False, True]
    assert packed("GF(3)((t))((u))((w))") == [False, True, False]


# seeded pairs per tower, x 6 towers: 3120
PACKED_PAIRS = 520


def _subset_products_match_mul(f, gens):
    """Whether the packed level f took the products of every subset of the
    nonzero raws gens from its layout; the products it gives are those of
    the generic mul, each new one of an earlier product and one raw."""
    out = f.subset_products(gens)
    if out is None:
        return False
    want = [f.one]
    for g in gens:
        want += [g] + [f.mul(g, d) for d in want[1:]]
    assert out == want, gens
    return True


@pytest.mark.parametrize("field", ["GF(3)((t))((u))", "GF(5)((t))((u))",
                                   "GF(7)((t))((u))", "GF(101)((t))((u))",
                                   "GF(1000003)((t))((u))",
                                   "GF(3)((t))((u))((w))"])
def test_packed_product_matches_generic_path(field):
    """The products of pairs and triples from the packed layout equal the
    generic FracField.mul: zero coefficients, negative exponents at both
    levels, rows that cancel (a(u) * a(-u) has no odd rows) and slots
    wider than a byte (p = 101 and 1000003).  Non-monomial dens at either
    level leave the products to mul.  Over GF(3)((t))((u))((w)) the
    packed level is the middle one."""
    K = parse_field(field)
    f = K.chain[2]
    rng = random.Random(field)
    kinds = ["t"] * 6 + ["inner", "outer"]
    took = 0
    for case in range(PACKED_PAIRS):
        a = packed_operand(rng, f, rng.choice(kinds))
        b = packed_operand(rng, f, rng.choice(kinds))
        if case % 5 == 0:
            b = f.make(tuple(c if m % 2 == 0 else f.inner.neg(c)
                             for m, c in enumerate(a[0])), a[1])
        if f.is_zero(a) or f.is_zero(b):
            continue
        for gens in ([a, b], [b, a], [a, a], [a, b, a]):
            took += _subset_products_match_mul(f, gens)
    assert took >= PACKED_PAIRS, took


def _integer_rows(a, b):
    """The rows of the product of two raws of a packed level before any
    reduction mod p: row m is the sum over m1 + m2 = m of the integer
    products of the operands' rows, each row shifted to sit over its
    operand's largest power of t."""
    def shifted(raw):
        top = max(len(den) - 1 for _, den in raw[0])
        return [(0,) * (top - len(den) + 1) + num if num else ()
                for num, den in raw[0]]

    ra, rb = shifted(a), shifted(b)
    rows = [[0] * (max(map(len, ra)) + max(map(len, rb)))
            for _ in range(len(ra) + len(rb) - 1)]
    for m1, x in enumerate(ra):
        for m2, y in enumerate(rb):
            for i, c in enumerate(x):
                for j, d in enumerate(y):
                    rows[m1 + m2][i + j] += c * d
    return rows


def _signed_operand(rng, f):
    """A raw of the packed level f whose numerator ints are 1 or p - 1, so
    that the packed sums of a product often are nonzero multiples of p."""
    g, p = f.inner, f.inner.inner.p
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        num = tuple(rng.choice([1, p - 1, 1, p - 1, 0])
                    for _ in range(rng.randint(1, 3)))
        coeffs.append(g.make(num, (0,) * rng.randint(0, 2) + (1,)))
    den = (g.zero,) * rng.randint(0, 2) + (g.one,)
    return f.make(tuple(coeffs), den)


@pytest.mark.parametrize("field", ["GF(3)((t))((u))", "GF(5)((t))((u))",
                                   "GF(7)((t))((u))",
                                   "GF(1000003)((t))((u))",
                                   "GF(3)((t))((u))((w))"])
def test_packed_rows_cut_after_the_reduction(field):
    """Layout products whose rows have a top or a bottom packed sum that
    is a nonzero multiple of p equal the generic mul: the row's length and
    its power of t are read after the reduction, and the third factor of
    a triple multiplies a reduced product."""
    K = parse_field(field)
    f = K.chain[2]
    p = K.base_char
    rng = random.Random(field)
    top = bottom = 0
    for _ in range(400):
        a, b = _signed_operand(rng, f), _signed_operand(rng, f)
        if f.is_zero(a) or f.is_zero(b):
            continue
        if not _subset_products_match_mul(f, [a, b, a]):
            continue
        for row in _integer_rows(a, b):
            sums = [z for z in row if z]
            top += bool(sums) and sums[-1] % p == 0
            bottom += bool(sums) and sums[0] % p == 0
    assert top >= 10 and bottom >= 10, (top, bottom)


def _reference_chain(K):
    """K's chain on the generic path throughout: the generic-path Zp at the
    base (under Fq for GF(p^k)) and every level on the generic mul."""
    f = _GenericZp(K.base_char)
    if K.base_degree > 1:
        f = Fq(f, ffield.canonical_modulus(K.base_char, K.base_degree))
    for lv in K.levels:
        f = FracField(f, lv.symbol)
    return f


def _square_and_multiply(f, raw):
    """n -> raw^n in f by squaring and multiplying, as powers once were
    taken: f.one times raw^(2^i) (raw^-1 in place of raw for n < 0) for
    each set bit i of |n|, lowest first.  The squarings, and the product
    over each run of low bits, are made once and shared by every exponent."""
    squares, products = {False: [raw], True: []}, {0: f.one}

    def power(n):
        if n not in products:
            chain, top = squares[n < 0], abs(n).bit_length() - 1
            if not chain:
                chain.append(f.inv(raw))
            while len(chain) <= top:
                chain.append(f.mul(chain[-1], chain[-1]))
            low = abs(n) - (1 << top)
            products[n] = f.mul(power(-low if n < 0 else low), chain[top])
        return products[n]
    return power


# exponents per depth, from -12 to 500: the reference squares dense
# intermediate powers, whose cost grows fastest with the exponent and depth
POWER_EXPONENTS = {
    1: list(range(-12, 101)) + [121, 125, 242, 243, 244, 343, 499, 500],
    2: list(range(-6, 41)) + [80, 81, 82, 243, -81, -100],
    3: list(range(-3, 13)) + [25, 26, 27, 28, 80, 81, 125, -27],
}


@pytest.mark.parametrize("field", [
    "GF(3)((t))", "GF(5)((t))", "GF(9)((t))",
    "GF(3)((t))((u))", "GF(5)((t))((u))", "GF(9)((t))((u))",
    "GF(3)((t))((u))((w))", "GF(5)((t))((u))((w))", "GF(9)((t))((u))((w))",
])
def test_pow_matches_square_and_multiply(field):
    """Element powers, taken by Frobenius images of the base-p digits of
    the exponent, equal squaring and multiplying over the generic path, on
    seeded binomials and trinomials at every depth and exponent sign."""
    K = parse_field(field)
    depth = len(K.levels)
    ref = _reference_chain(K)
    budget = SampleBudget(max_val=1, series_terms=1)
    for seed in range(2):
        x = sample(K, budget, ("pow", seed)) + 1
        if x.is_zero():
            continue
        power = _square_and_multiply(ref, x.raw)
        for n in POWER_EXPONENTS[depth]:
            assert (x ** n).raw == power(n), n


@pytest.mark.parametrize("field", ["GF(3)((t))((u))", "GF(9)((t))((u))",
                                   "GF(5)(X)", "GF(3)((t))((u))((w))"])
def test_frobenius_image_is_canonical(field):
    """The Frobenius image of a canonical raw, its exponents multiplied by
    q and its base coefficients raised to q, is already the reduced
    fraction that normalizing through the gcd gives, and it is the q-th
    power."""
    K = parse_field(field)
    depth = len(K.levels)
    euclid = K.chain[0] if K.base_degree > 1 else _GenericZp(K.base_char)
    for lv in K.levels:
        euclid = _EuclidFrac(euclid, lv.symbol)
    p = K.base_char
    for seed in range(25):
        x = sample(K, SampleBudget(max_deg=3), ("frobenius", seed))
        for q in (p, p * p):
            image = fields._frobenius(K.chain, depth, x.raw, q)
            assert euclid.make(*image) == image
            assert image == _square_and_multiply(K.ops, x.raw)(q)
