import itertools
import signal
from functools import lru_cache, partial

import pytest

from towerforms import fields as fl
from towerforms import polys, qforms
from towerforms.ffield import finite_field
from towerforms.fields import FieldTower, LevelDescriptor, LAURENT, RATFUNC
from towerforms.localglobal import INFINITY
from towerforms.valuation import ValuationCtx

# wall-clock seconds one test may take before it fails
TEST_TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT_S instead of hanging the
    run: a SIGALRM interval timer, cleared when the test ends."""
    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tower(p, k=1, *levels):
    """Shorthand: tower(3, 1, ("t", LAURENT), ("u", LAURENT))."""
    return FieldTower(p, k, tuple(LevelDescriptor(s, kind) for s, kind in levels))


def finite_nonsquare(T):
    """The first non-square of a finite tower, in elements() order."""
    return fl.Element(T, T.ops.nonsquare)


def ref_bits_dimension(minus_one, entries):
    """Anisotropic dimension of a diagonal form over a henselian field with
    finite residue field, from square-class bits: minus_one, whether -1 is
    a non-square, and per entry a pair (key, nonsquare).

    The entries with one key form one residue form (Springer: W(K) is a sum
    of copies of W(k), one per key), whose residues have the XOR of their
    non-square bits as the determinant's bit, so the finite rule is summed
    over the keys.  A finite field is the case with one key.  The oracle
    for qforms.class_dimension, which reads the same bits off class ints.
    """
    parts = {}  # key -> (entries, XOR of their non-square bits)
    for key, nonsquare in entries:
        n, det = parts.get(key, (0, False))
        parts[key] = (n + 1, det ^ nonsquare)
    total = 0
    for n, det in parts.values():
        total += qforms._finite_kernel_dim(n, det, minus_one)
    return total


def square_class_monomial(T, a):
    """Reference representative t^(w mod 2) * {1, nu} of a's square class
    over an iterated-Laurent tower, read from one full-rank ValuationCtx
    split and built as a product of elements: the oracle for
    qforms.class_rep."""
    ctx = ValuationCtx(T, len(T.levels))
    w, r = ctx.split(a)
    base = ctx.residue_tower
    unit = base.one if fl.is_square(base, r) else finite_nonsquare(base)
    return ctx.monomial(tuple(c % 2 for c in w)) * T.embed(unit)


def inner_fraction(rng, g, kind):
    """A one-level fraction over Zp: a numerator with zero coefficients
    over t^k (k >= 0), or over a den that is no power of t."""
    p = g.inner.p
    num = tuple(rng.randrange(p) if rng.random() < 0.7 else 0
                for _ in range(rng.randint(0, 4)))
    if kind == "den":
        den = (rng.randrange(1, p),) + (0,) * rng.randint(0, 2) + (1,)
    else:
        den = (0,) * rng.randint(0, 3) + (1,)
    return g.make(num, den)


def packed_operand(rng, f, kind):
    """A raw of the packed level f: coefficients over t^k, some of them
    zero, over u^i; kind "inner" gives one coefficient a non-monomial den,
    kind "outer" makes the den at f itself non-monomial."""
    g = f.inner
    coeffs = [inner_fraction(rng, g, "t") if rng.random() < 0.8 else g.zero
              for _ in range(rng.randint(1, 4))]
    if kind == "inner":
        coeffs[rng.randrange(len(coeffs))] = inner_fraction(rng, g, "den")
    if kind == "outer":
        c = inner_fraction(rng, g, "t")
        den = (g.one if g.is_zero(c) else c, g.zero, g.one)
    else:
        den = (g.zero,) * rng.randint(0, 2) + (g.one,)
    return f.make(tuple(coeffs), den)


def monic_polys(p, d):
    """Every monic polynomial of degree d over GF(p), by coefficients from
    the top."""
    for top in itertools.product(range(p), repeat=d):
        yield top[::-1] + (1,)


@lru_cache(maxsize=None)
def is_irreducible(p, g):
    """Trial division by every monic polynomial of degree 1..deg g / 2."""
    F = finite_field(p)
    return all(polys.pmod(F, g, h) for e in range(1, polys.deg(g) // 2 + 1)
               for h in monic_polys(p, e))


def trial_factor(p, f):
    """{irreducible: multiplicity} of a monic f over GF(p), dividing by the
    irreducibles of each degree in monic_polys order until the rest has
    no factor of at most half its degree: the oracle for factor_monic."""
    F, out, d = finite_field(p), {}, 1
    while 2 * d <= polys.deg(f):
        for g in filter(partial(is_irreducible, p), monic_polys(p, d)):
            while not polys.pmod(F, f, g):
                f = polys.pdivmod(F, f, g)[0]
                out[g] = out.get(g, 0) + 1
        d += 1
    if polys.deg(f) > 0:
        out[f] = 1
    return out


@lru_cache(maxsize=None)
def _squares_mod(p, modulus):
    """Every nonzero y^2 mod modulus, y running over the polynomials of
    degree < deg modulus."""
    F = finite_field(p)
    ys = (polys.trim(F, c)
          for c in itertools.product(range(p), repeat=polys.deg(modulus)))
    return frozenset(polys.pmod(F, polys.pmul(F, y, y), modulus)
                     for y in ys if y)


class RefPlace:
    """Reference local data at a place of GF(p)(X), kept apart from
    localglobal: the residue of the unit part by dividing out the place
    polynomial one step at a time, and squareness in the residue field
    GF(p)[X]/(P) by listing every square.  At infinity the residue is the
    constant lc(num)/lc(den), taken mod X."""

    def __init__(self, p, place):
        self.F = finite_field(p)
        self.p = p
        self.place = place
        self.modulus = (0, 1) if place.kind == INFINITY else place.poly

    def split(self, elem):
        """(v, r): the valuation of elem and the residue of its unit part,
        a nonzero polynomial reduced mod the place polynomial."""
        F, m = self.F, self.modulus
        num, den = elem.raw
        if self.place.kind == INFINITY:
            return polys.deg(den) - polys.deg(num), (F.div(num[-1], den[-1]),)
        v, parts = 0, []
        for f, sign in ((num, 1), (den, -1)):
            while not polys.pmod(F, f, m):
                f = polys.pdivmod(F, f, m)[0]
                v += sign
            parts.append(polys.pmod(F, f, m))
        return v, self.mul(parts[0], self.power(parts[1], -1))

    def mul(self, a, b):
        return polys.pmod(self.F, polys.pmul(self.F, a, b), self.modulus)

    def power(self, a, n):
        if n < 0:
            g, a, _ = polys.pxgcd(self.F, a, self.modulus)
            assert g == (1,)
            n = -n
        out = (1,)
        for _ in range(n):
            out = self.mul(out, a)
        return out

    def is_square(self, r):
        return r in _squares_mod(self.p, self.modulus)

    def kernel_dim(self, residues):
        """Witt's classification over the residue field: an odd form leaves
        a line, an even one a plane unless (-1)^(n/2) det is a square."""
        n = len(residues)
        if n % 2:
            return 1
        disc = self.power((self.p - 1,), n // 2)
        for r in residues:
            disc = self.mul(disc, r)
        return 0 if self.is_square(disc) else 2

    def local_dimension(self, diag):
        """The anisotropic dimension of <diag> in the completion: the
        classification on the residues of its even and of its odd entries."""
        parts = ([], [])
        for d in diag:
            v, r = self.split(d)
            parts[v % 2].append(r)
        return sum(self.kernel_dim(part) for part in parts if part)

    def hilbert_symbol(self, a, b):
        """1 or -1: whether the residue of (-1)^(v_a v_b) a^(v_b) b^(-v_a)
        is a square."""
        (va, ra), (vb, rb) = self.split(a), self.split(b)
        sym = self.mul(self.power((self.p - 1,), (va * vb) % 2),
                       self.mul(self.power(ra, vb), self.power(rb, -va)))
        return 1 if self.is_square(sym) else -1


@pytest.fixture
def gf3():
    return tower(3)


@pytest.fixture
def gf3t():
    return tower(3, 1, ("t", LAURENT))


@pytest.fixture
def gf5t():
    return tower(5, 1, ("t", LAURENT))


@pytest.fixture
def gf3tu():
    return tower(3, 1, ("t", LAURENT), ("u", LAURENT))


@pytest.fixture
def gf3x():
    return tower(3, 1, ("X", RATFUNC))
