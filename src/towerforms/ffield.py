"""Finite field arithmetic: GF(p), and GF(q^k) over any finite base GF(q).

These classes expose the raw-element protocol used throughout the package:
zero/one/add/neg/sub/mul/inv/div/eq/is_zero/pow_ plus finite-field extras
(enumeration by nth, Euler-criterion squareness, Tonelli-Shanks square
roots from one exponentiation, shared through _FiniteField).  GF(p) is Zp,
whose raws are ints in [0, p) and whose pow_ is the builtin pow.  GF(q^k)
is Fq(base, modulus) over any finite base, Zp or Fq, whose raws are
little-endian tuples of base raws with no trailing zeros (zero is ()), and
whose pow_ is polys.ppowmod, the one square-and-multiply loop.

GF(p)[X] is factored by factor_monic alone: distinct-degree factorization,
then Cantor-Zassenhaus splitting along a fixed walk, not random choices
(von zur Gathen-Gerhard, Modern Computer Algebra, ch. 14), each power
O(d log p) products.  finite_field builds Fq(base, modulus) on
canonical_modulus, which skips the binomials X^k + c when a prime r | k
does not divide p - 1, or 4 | k and p != 1 mod 4: none is irreducible then
(Lidl-Niederreiter, Finite Fields, Thm 3.75).
"""

import itertools
from functools import cached_property, lru_cache, partial

from . import polys
from .errors import ConfigUnsupported, DivisionByZero, TowerFormsError


# The first 13 primes, and the least n that is a strong pseudoprime to all
# of them (Sorenson and Webster, Math. Comp. 86, 2017): below it, passing
# Miller-Rabin on these bases proves n prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=None)
def _is_prime(n):
    """Exact primality: deterministic Miller-Rabin on _MR_BASES.

    A base that witnesses compositeness proves it at any size; passing all
    13 bases proves primality for n < _MR_BOUND (about 3.3 * 10^24).  An
    n >= _MR_BOUND that passes them all is refused with ConfigUnsupported
    rather than guessed.  Each n is tested once per process: every
    FieldTower checks its base characteristic, and so does each residue
    tower that drop_outer builds.
    """
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_BOUND:
        raise ConfigUnsupported(
            f"primality of {n} is exact only below {_MR_BOUND}")
    return True


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1: Newton's iteration on integers, from a
    power of two above the root, stops at the first step that does not
    decrease."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(n):
    """(p, k) with n = p^k and p prime, else None.

    Each k <= log2 n is tried from the largest down, by an integer k-th
    root, so n itself goes through _is_prime only when it is no perfect
    power of a prime; the cap of _is_prime applies.
    """
    for k in range(n.bit_length() - 1, 0, -1):
        r = _iroot(n, k)
        if r ** k == n and _is_prime(r):
            return r, k
    return None


class _FiniteField:
    """Enumeration, Euler's criterion and square roots over the raw protocol.

    nth(i) is the i-th element; the first p are the constants 0, ..., p - 1.
    """

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self.zero

    def elements(self):
        return map(self.nth, range(self.order))

    def from_int(self, n):
        return self.nth(n % self.p)

    def is_square(self, a):
        """Euler criterion; a must be nonzero."""
        return self.pow_(a, (self.order - 1) // 2) == self.one

    @cached_property
    def nonsquare(self):
        """The first nonzero non-square in elements() order."""
        return next(z for z in self.elements()
                    if not self.is_zero(z) and not self.is_square(z))

    @cached_property
    def _sylow(self):
        """(s, m, c): order - 1 = 2^s m, m odd, and c = nonsquare^m."""
        s, m = 0, self.order - 1
        while m % 2 == 0:
            s, m = s + 1, m // 2
        return s, m, self.pow_(self.nonsquare, m) if s > 1 else None

    def sqrt(self, a):
        """The square root of a that comes first in elements() order, or None.

        Tonelli-Shanks from one exponentiation: y = a^((m-1)/2), x = a y and
        b = x y = a^m, of order 2^i; a is a square iff i < s, Euler's test
        b^(2^(s-1)) = 1.  The earlier of the roots r, -r is the one whose
        leading base-p digit is below p/2.
        """
        if self.is_zero(a):
            return self.zero
        (s, m, c), one = self._sylow, self.one
        y = self.pow_(a, (m - 1) // 2)
        x = self.mul(a, y)
        b = self.mul(x, y)
        while b != one:
            i, t = 0, b
            while t != one and i < s:
                i, t = i + 1, self.mul(t, t)
            if i == s:
                return None
            for _ in range(s - i - 1):
                c = self.mul(c, c)
            x, c, s = self.mul(x, c), self.mul(c, c), i
            b = self.mul(b, c)
        return x if 2 * self._lead_digit(x) < self.p else self.neg(x)


class Zp(_FiniteField):
    """Prime field GF(p); raws are ints in [0, p).

    Every raw is canonical: from_int, nth and every operation return an int
    in [0, p), and the parser and the sampler build raws only through them.
    So zero is exactly 0, two raws are equal exactly when the ints are, and
    polys runs its int kernels on them (``_int_raws``), whose zero tests and
    trims rely on this.
    """

    k = 1
    _int_raws = True

    def __init__(self, p):
        if not _is_prime(p):
            raise TowerFormsError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return pow(a, n, self.p)

    def nth(self, i):
        return i

    def _lead_digit(self, a):
        return a


@lru_cache(maxsize=None)
def finite_field(p, k=1):
    """GF(p^k), built once per (p, k): Zp when k = 1, else Fq on
    canonical_modulus(p, k); a tower and its drop_outer()s share one Fq."""
    return Fq(finite_field(p), canonical_modulus(p, k)) if k > 1 else Zp(p)


def _digits(p, i):
    """The polynomial whose coefficients are the base-p digits of i."""
    out = []
    while i:
        i, r = divmod(i, p)
        out.append(r)
    return tuple(out)


def _distinct_degree(F, f):
    """(d, product of the degree-d irreducible factors of monic f) for each d
    that has some, lazily by increasing d: gcd(X^(p^d) - X, f) once lower
    degrees are divided out; a rest of degree < 2(d + 1) is irreducible."""
    h, d = (0, 1), 0
    while 2 * (d + 1) <= polys.deg(f):
        d += 1
        h = polys.ppowmod(F, h, F.p, f)
        g = polys.pgcd(F, polys.psub(F, h, (0, 1)), f)
        if polys.deg(g) > 0:
            yield d, g
            while polys.deg(g) > 0:
                f = polys.pdivmod(F, f, g)[0]
                g = polys.pgcd(F, f, g)
    if polys.deg(f) > 0:
        yield polys.deg(f), f


def _equal_degree(F, g, d):
    """The irreducible factors of g, a product of distinct ones of degree d:
    a = X, X + 1, ... in _digits order until gcd(g, a) or gcd(g, a^((p^d -
    1)/2) - 1) splits g, as by CRT some a of degree < deg g does."""
    if polys.deg(g) == d:
        return [g]
    e = (F.p ** d - 1) // 2
    for i in itertools.count(F.p):
        a = _digits(F.p, i)
        for u in (polys.pgcd(F, g, a), polys.pgcd(
                F, g, polys.psub(F, polys.ppowmod(F, a, e, g), (1,)))):
            if 0 < polys.deg(u) < polys.deg(g):
                return (_equal_degree(F, u, d) +
                        _equal_degree(F, polys.pdivmod(F, g, u)[0], d))


@lru_cache(maxsize=None)
def factor_monic(p, f):
    """{monic irreducible: multiplicity} of a monic f over GF(p), by degree,
    then by coefficients from the top; multiplicities by exact division."""
    F = finite_field(p)
    out = {}
    for g in sorted((g for d, part in _distinct_degree(F, f)
                     for g in _equal_degree(F, part, d)),
                    key=lambda g: (len(g), g[::-1])):
        out[g] = 0
        q, r = polys.pdivmod(F, f, g)
        while not r:
            f, out[g] = q, out[g] + 1
            q, r = polys.pdivmod(F, f, g)
    return out


def _no_irreducible_binomial(p, k):
    """The rule of the module docstring: no X^k - a is irreducible."""
    return (k % 4 == 0 and p % 4 != 1) or any(
        k % r == 0 and (p - 1) % r for r in range(2, k + 1) if _is_prime(r))


@lru_cache(maxsize=None)
def canonical_modulus(p, k):
    """The first monic irreducible of degree k over GF(p), by coefficients
    from the top; each candidate stops at its first split."""
    start = p ** k + (p if _no_irreducible_binomial(p, k) else 0)
    return next(g for g in map(partial(_digits, p), range(start, 2 * p ** k))
                if next(_distinct_degree(finite_field(p), g))[0] == k)


class Fq(_FiniteField):
    """GF(q^k) as base[X]/(modulus), for a finite base GF(q) and a monic
    irreducible modulus of degree k.  nth(i) has the base's elements at the
    base-q digits of i as its coefficients: over GF(p), the digits."""

    def __init__(self, base, modulus):
        if base.p == 2:
            raise TowerFormsError("even characteristic is not supported")
        self.p = base.p
        self.k = len(modulus) - 1
        self.base = base
        self.modulus = modulus
        self.order = base.order ** self.k
        self.zero = ()
        self.one = (base.one,)

    def add(self, a, b):
        return polys.padd(self.base, a, b)

    def neg(self, a):
        return polys.pneg(self.base, a)

    def sub(self, a, b):
        return polys.psub(self.base, a, b)

    def mul(self, a, b):
        return polys.pmod(self.base, polys.pmul(self.base, a, b), self.modulus)

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero")
        g, s, _ = polys.pxgcd(self.base, a, self.modulus)
        if polys.deg(g) != 0:
            raise DivisionByZero("element not invertible")
        return polys.pmod(self.base, s, self.modulus)

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return polys.ppowmod(self.base, a, n, self.modulus)

    def nth(self, i):
        return tuple(map(self.base.nth, _digits(self.base.order, i)))

    def _lead_digit(self, a):
        return self.base._lead_digit(a[-1])
