"""Finite field arithmetic: GF(p) and GF(p^k) with a fixed defining polynomial.

These classes expose the raw-element protocol used throughout the package:
zero/one/add/neg/sub/mul/inv/div/eq/is_zero plus finite-field extras
(element enumeration, Euler-criterion squareness, Tonelli-Shanks square
roots, shared through _FiniteField).  GF(p) is Zp, whose raws are ints in
[0, p); field towers use it as their base whenever k = 1.  GF(p^k), k > 1,
is Fq, whose raws are little-endian int tuples of length <= k with no
trailing zeros (the zero element is the empty tuple).
"""

from functools import cached_property, lru_cache

from . import polys
from .errors import DivisionByZero, TowerFormsError


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class _FiniteField:
    """Powers, Euler's criterion and square roots over the raw protocol."""

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        result = self.one
        while n:
            if n & 1:
                result = self.mul(result, a)
            n >>= 1
            if n:
                a = self.mul(a, a)
        return result

    def is_square(self, a):
        """Euler criterion; a must be nonzero."""
        return self.eq(self.pow_(a, (self.order - 1) // 2), self.one)

    @cached_property
    def nonsquare(self):
        """The first nonzero non-square in elements() order."""
        return next(z for z in self.elements()
                    if not self.is_zero(z) and not self.is_square(z))

    def sqrt(self, a):
        """The square root of a that comes first in elements() order, or None.

        Tonelli-Shanks; the two roots are r and -r, and the earlier one is
        the one whose leading base-p digit is below p/2.
        """
        if self.is_zero(a):
            return self.zero
        if not self.is_square(a):
            return None
        s, m = 0, self.order - 1
        while m % 2 == 0:
            s, m = s + 1, m // 2
        x, b = self.pow_(a, (m + 1) // 2), self.pow_(a, m)
        c = None
        while not self.eq(b, self.one):
            if c is None:
                c = self.pow_(self.nonsquare, m)
            i, t = 0, b
            while not self.eq(t, self.one):
                i, t = i + 1, self.mul(t, t)
            g = self.pow_(c, 2 ** (s - i - 1))
            x, c, s = self.mul(x, g), self.mul(g, g), i
            b = self.mul(b, c)
        return x if 2 * self._lead_digit(x) < self.p else self.neg(x)


class Zp(_FiniteField):
    """Prime field GF(p); raws are ints in [0, p)."""

    k = 1

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
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def eq(self, a, b):
        return a % self.p == b % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

    def _lead_digit(self, a):
        return a


@lru_cache(maxsize=None)
def finite_field(p, k=1, modulus=None):
    """GF(p^k), built and checked once per (p, k, modulus).

    Zp when k = 1, where a given modulus must be monic of degree 1; Fq over
    the modulus (the canonical one when None) otherwise, so a tower and all
    its residue towers share one Fq and its irreducibility test.
    """
    if k > 1:
        return Fq(p, k, modulus)
    if modulus is not None:
        Fq(p, 1, modulus)  # rejects a modulus that is not monic of degree 1
    return Zp(p)


def irreducible_over(F, poly):
    """Trial-division irreducibility test for a monic polynomial over a finite field."""
    d = polys.deg(poly)
    if d <= 0:
        return False
    if d == 1:
        return True
    for g in monic_polys(F, 1, d // 2):
        if not polys.pmod(F, poly, g):
            return False
    return True


def monic_polys(F, lo, hi):
    """Yield all monic polynomials of degree lo..hi, in lex order of coefficients."""
    elts = list(F.elements())
    for d in range(lo, hi + 1):
        idx = [0] * d
        while True:
            yield tuple(elts[i] for i in idx) + (F.one,)
            k = 0
            while k < d:
                idx[k] += 1
                if idx[k] < len(elts):
                    break
                idx[k] = 0
                k += 1
            else:
                break
            if k == d:
                break


def irreducibles(F, d):
    """All monic irreducible polynomials of degree d over a finite field F."""
    return [g for g in monic_polys(F, d, d) if irreducible_over(F, g)]


@lru_cache(maxsize=None)
def canonical_modulus(p, k):
    """The lexicographically minimal monic irreducible of degree k over GF(p)."""
    F = finite_field(p)
    if k == 1:
        return (0, 1)
    for g in monic_polys(F, k, k):
        if irreducible_over(F, g):
            return g
    raise TowerFormsError(f"no irreducible of degree {k} over GF({p})")  # unreachable


class Fq(_FiniteField):
    """GF(p^k) as GF(p)[X]/(modulus); raws are little-endian int tuples."""

    def __init__(self, p, k, modulus=None):
        if p == 2:
            raise TowerFormsError("even characteristic is not supported")
        self.p = p
        self.k = k
        self.base = finite_field(p)
        if modulus is None:
            modulus = canonical_modulus(p, k)
        modulus = polys.trim(self.base, modulus)
        if polys.deg(modulus) != k or not self.base.eq(modulus[-1], 1):
            raise TowerFormsError("modulus must be monic of the stated degree")
        if k > 1 and not irreducible_over(self.base, modulus):
            raise TowerFormsError("modulus is not irreducible")
        self.modulus = modulus
        self.order = p ** k
        self.zero = ()
        self.one = (1,)

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
        return polys.pmod(self.base, polys.pscale(self.base, s, self.base.inv(g[0])),
                          self.modulus)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == ()

    def from_int(self, n):
        return polys.const(self.base, n % self.p)

    def elements(self):
        return map(self.nth, range(self.order))

    def nth(self, i):
        """The i-th element in elements() order: the base-p digits of i."""
        return polys.trim(self.base, [i // self.p ** j % self.p
                                      for j in range(self.k)])

    def _lead_digit(self, a):
        return a[-1]
