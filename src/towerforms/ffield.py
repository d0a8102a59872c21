"""Finite field arithmetic: GF(p) and GF(p^k) with a fixed defining polynomial.

These classes expose the raw-element protocol used throughout the package:
zero/one/add/neg/sub/mul/inv/div/eq/is_zero plus finite-field extras
(element enumeration, Euler-criterion squareness, Tonelli-Shanks square
roots, shared through _FiniteField).  GF(p) is Zp, whose raws are ints in
[0, p); field towers use it as their base whenever k = 1.  GF(p^k), k > 1,
is Fq, whose raws are little-endian int tuples of length <= k with no
trailing zeros (the zero element is the empty tuple).

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
    """Prime field GF(p); raws are ints in [0, p).

    Every raw is canonical: from_int, elements() and every operation return
    an int in [0, p), and the parser and the sampler build raws only through
    them.  So zero is exactly 0, two raws are equal exactly when the ints
    are, and polys runs its int kernels on them (``_int_raws``), whose zero
    tests and trims rely on this.
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

    def is_square(self, a):
        """Euler's criterion in one builtin pow; a must be nonzero."""
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.p)

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
    """GF(p^k) as base[X]/(modulus), for base GF(p)."""

    def __init__(self, base, modulus):
        if base.p == 2:
            raise TowerFormsError("even characteristic is not supported")
        self.p = base.p
        self.k = len(modulus) - 1
        self.base = base
        self.modulus = modulus
        self.order = self.p ** self.k
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
        return _digits(self.p, i)

    def _lead_digit(self, a):
        return a[-1]
