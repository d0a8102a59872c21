"""Field towers, exact elements, valuations, residues and square classes.

A tower is a finite base field GF(p^k) (odd p) with an ordered stack of
transcendental levels.  The base is ffield.Zp, with int raws, when k = 1,
and ffield.Fq over it, with int-tuple raws, when k > 1; both list their
elements by nth and take powers by pow_.  A LaurentSeries level carries
henselian t-adic semantics, and a finite field is the rank-0 case; a
RationalFunction level, outermost, carries global semantics.  Elements
are held exactly as reduced fractions of polynomials in the outermost
level symbol, with coefficients one level down; for a Laurent level this
is the dense subfield K(t) of K((t)), which suffices because every
decision made here factors through valuations and residues of unit parts.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

from . import polys
from .errors import (BudgetExceeded, DivisionByZero, NotIntegralUnit,
                     TowerFormsError, TowerMismatch, UnsupportedLevel,
                     ZeroArgument)
from .ffield import _is_prime, finite_field

LAURENT = "laurent"
RATFUNC = "ratfunc"


@dataclass(frozen=True)
class LevelDescriptor:
    symbol: str
    kind: str

    def __post_init__(self):
        if self.kind not in (LAURENT, RATFUNC):
            raise TowerFormsError(f"unknown level kind {self.kind!r}")


class FracField:
    """Field of fractions of polynomials over an inner field object.

    Raws are (num, den) pairs of coefficient tuples; den is monic and
    coprime to num, zero is ((), (one,)).  A monomial den = c*X^k needs no
    Euclid: the monic divisors of X^k are the X^j, so gcd(num, X^k) is
    X^min(k, ord num), with ord num the number of leading zero coefficients
    of num.  make scales by 1/c and divides both by that power, a shift
    (_over_x_power); for a constant den (k = 0) only the scaling is left.
    This is the common case at a Laurent level, where a nonzero element is
    a unit part times a power of the uniformizer.  Any other den goes
    through pgcd.

    add and mul of two raws with dens X^i and X^j multiply no den: the
    product is num_a*num_b over X^(i+j), and the sum shifts num_a up by
    max(i, j) - i and num_b by max(i, j) - j and adds them over X^max(i, j).
    The den is already monic, so only the shift by X^min(k, ord num) is
    left, and make is not called.  Any other pair goes through make.

    A level whose coefficients are one-level fractions over Zp (the second
    level over GF(p): the outer one of GF(p)((t))((u)), the middle one of
    GF(p)((t))((u))((w))) gives pfister's expansion the products of every
    subset of a list of raws (subset_products, _packed_subset_products)
    from one Kronecker layout of ints, whose rows are the raws' numerator
    coefficients (polys._subset_row_products gives the layout and the
    bounds).  It returns None, and the expansion multiplies pair by pair
    through mul, when some den is not a power of X or of t, or when the
    layout is too large to pack: a Frobenius image such as 1 + t^2187 +
    u^2187 packs into millions of slots, but has three terms.  Whether a
    level has the subset products is decided once, in __init__; every
    level multiplies a pair through mul.
    """

    def __init__(self, inner, symbol):
        self.inner = inner
        self.symbol = symbol
        self.zero = ((), (inner.one,))
        self.one = ((inner.one,), (inner.one,))
        self.gen = ((inner.zero, inner.one), (inner.one,))
        if isinstance(inner, FracField) and \
                getattr(inner.inner, "_int_raws", False):
            self.subset_products = self._packed_subset_products

    def make(self, num, den):
        F = self.inner
        num = polys.trim(F, num)
        den = polys.trim(F, den)
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return self.zero
        lead = den[-1]
        if not F.eq(lead, F.one):
            inv = F.inv(lead)
            num = polys.pscale(F, num, inv)
            den = polys.pscale(F, den, inv)
        k = self._x_power(den)
        if k is not None:
            return self._over_x_power(num, k)
        g = polys.pgcd(F, num, den)
        if polys.deg(g) > 0:
            num = polys.pdivmod(F, num, g)[0]
            den = polys.pdivmod(F, den, g)[0]
        return (num, den)

    def _x_power(self, den):
        """k if the monic den is X^k, else None: its other k coefficients
        are zero (a zero raw equals F.zero, so count finds them)."""
        k = len(den) - 1
        return k if den.count(self.inner.zero) == k else None

    def _over_x_power(self, num, k):
        """The reduced raw of num / X^k, for num != 0: both divided by
        gcd(num, X^k) = X^min(k, ord num)."""
        F = self.inner
        s = 0
        while s < k and num[s] == F.zero:
            s += 1
        return (num[s:], (F.zero,) * (k - s) + (F.one,))

    def add(self, a, b):
        F = self.inner
        (an, ad), (bn, bd) = a, b
        i, j = self._x_power(ad), self._x_power(bd)
        if i is None or j is None:
            return self.make(polys.padd(F, polys.pmul(F, an, bd),
                                        polys.pmul(F, bn, ad)),
                             polys.pmul(F, ad, bd))
        k = max(i, j)
        num = polys.padd(F, (F.zero,) * (k - i) + an, (F.zero,) * (k - j) + bn)
        return self._over_x_power(num, k) if num else self.zero

    def neg(self, a):
        return (polys.pneg(self.inner, a[0]), a[1])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        F = self.inner
        (an, ad), (bn, bd) = a, b
        i, j = self._x_power(ad), self._x_power(bd)
        if i is None or j is None:
            return self.make(polys.pmul(F, an, bn), polys.pmul(F, ad, bd))
        num = polys.pmul(F, an, bn)
        return self._over_x_power(num, i + j) if num else self.zero

    def _packed_subset_products(self, gens):
        """The products of every subset of the nonzero raws gens, in subset
        order (entry e is the product of the gens[j] at the bits j of e,
        entry 0 is one and entry 2^j is gens[j] itself), from one layout;
        or None when some den is not a power of X or of t, or the layout is
        too large (see the class docstring)."""
        powers = [self._x_power(d) for _, d in gens]
        if None in powers:
            return None
        out = polys._subset_row_products(self.inner.inner.p,
                                         [n for n, _ in gens], powers)
        if out is not None:
            out[0] = self.one
            for j, g in enumerate(gens):
                out[1 << j] = g
        return out

    def inv(self, a):
        """(den, num) over lc(num): a reduced raw needs no make, no gcd."""
        num, den = a
        if not num:
            raise DivisionByZero("inverse of zero")
        F = self.inner
        if F.eq(num[-1], F.one):
            return (den, num)
        c = F.inv(num[-1])
        return (polys.pscale(F, den, c), polys.pscale(F, num, c))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a[0] == ()

    def from_int(self, n):
        c = self.inner.from_int(n)
        return ((c,), (self.inner.one,)) if not self.inner.is_zero(c) else self.zero

    def const(self, c):
        """Embed an inner-field raw as a constant fraction."""
        if self.inner.is_zero(c):
            return self.zero
        return ((c,), (self.inner.one,))

    def monomial(self, c, e):
        """c * gen^e as a reduced fraction, for a nonzero inner raw c."""
        shift = (self.inner.zero,) * abs(e)
        if e >= 0:
            return (shift + (c,), (self.inner.one,))
        return ((c,), shift + (self.inner.one,))


@dataclass(frozen=True)
class FieldTower:
    """GF(p^k) plus an ordered stack of transcendental levels (innermost first)."""

    base_char: int
    base_degree: int = 1
    levels: tuple = ()

    def __post_init__(self):
        if self.base_char == 2 or not _is_prime(self.base_char):
            raise TowerFormsError("base characteristic must be an odd prime")
        if self.base_degree < 1:
            raise TowerFormsError("base degree must be positive")
        object.__setattr__(self, "levels", tuple(self.levels))
        syms = [lv.symbol for lv in self.levels]
        if len(set(syms)) != len(syms):
            raise TowerFormsError("level symbols must be pairwise distinct")
        for i, lv in enumerate(self.levels):
            if lv.kind == RATFUNC and i != len(self.levels) - 1:
                raise TowerFormsError("a RationalFunction level must be outermost")

    @cached_property
    def chain(self):
        """Field objects from the base outward; chain[-1] is the element field."""
        fields = [finite_field(self.base_char, self.base_degree)]
        for lv in self.levels:
            fields.append(FracField(fields[-1], lv.symbol))
        return fields

    @property
    def ops(self):
        return self.chain[-1]

    @property
    def q(self):
        return self.base_char ** self.base_degree

    def drop_outer(self, n=1):
        """The tower with the outermost n levels removed: self for n = 0."""
        return FieldTower(self.base_char, self.base_degree,
                          self.levels[:-n]) if n else self

    def laurent_rank(self):
        return sum(1 for lv in self.levels if lv.kind == LAURENT)

    @property
    def all_laurent(self):
        """No level is (X), which can only be outermost; true for a finite
        field.  The one test of a tower's kind outside this class."""
        return not self.levels or self.levels[-1].kind == LAURENT

    def element(self, raw):
        return Element(self, raw)

    def from_int(self, n):
        return Element(self, self.ops.from_int(n))

    @property
    def zero(self):
        return Element(self, self.ops.zero)

    @property
    def one(self):
        return Element(self, self.ops.one)

    def gen(self, symbol):
        """The element given by a level symbol."""
        for idx, lv in enumerate(self.levels):
            if lv.symbol == symbol:
                raw = self.chain[idx + 1].gen
                for j in range(idx + 1, len(self.levels)):
                    raw = self.chain[j + 1].const(raw)
                return Element(self, raw)
        raise TowerFormsError(f"unknown symbol {symbol!r}")

    def embed(self, elem):
        """Embed an element of an inner prefix tower into this tower."""
        inner = elem.tower
        if (inner.base_char, inner.base_degree) != \
                (self.base_char, self.base_degree) or \
                inner.levels != self.levels[:len(inner.levels)]:
            raise TowerMismatch("not an inner prefix tower")
        raw = elem.raw
        for j in range(len(inner.levels), len(self.levels)):
            raw = self.chain[j + 1].const(raw)
        return Element(self, raw)

    def describe(self):
        s = f"GF({self.q})"
        for lv in self.levels:
            s += f"(({lv.symbol}))" if lv.kind == LAURENT else f"({lv.symbol})"
        return s


class Element:
    """An exact element of a FieldTower, in canonical form."""

    __slots__ = ("tower", "raw")

    def __init__(self, tower, raw):
        self.tower = tower
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, int):
            return self.tower.from_int(other)
        if not isinstance(other, Element):
            return NotImplemented
        if other.tower is not self.tower and other.tower != self.tower:
            raise TowerMismatch(
                f"{self.tower.describe()} vs {other.tower.describe()}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Element(self.tower, self.tower.ops.add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Element(self.tower, self.tower.ops.sub(self.raw, other.raw))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Element(self.tower, self.tower.ops.mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Element(self.tower, self.tower.ops.div(self.raw, other.raw))

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __neg__(self):
        return Element(self.tower, self.tower.ops.neg(self.raw))

    def __pow__(self, n):
        """self^n by the base-p digits n_i of n: the product of the
        (self^(p^i))^(n_i), each self^(p^i) a Frobenius image (_frobenius),
        which is as sparse as self and takes no product, and each power
        n_i < p by squaring and multiplying.  Refused with BudgetExceeded,
        before any product, when _power_slots exceeds POWER_SLOT_CAP."""
        if n < 0:
            return (self.tower.one / self) ** (-n)
        tower = self.tower
        p, depth = tower.base_char, len(tower.levels)
        if _power_slots(tower.chain, depth, self.raw, n, p) > POWER_SLOT_CAP:
            raise BudgetExceeded(f"power too large: ^{n} would hold more "
                                 f"than {POWER_SLOT_CAP} coefficients")
        result, q = tower.one, 1
        while n:
            n, digit = divmod(n, p)
            if digit:
                base = self if q == 1 else \
                    Element(tower, _frobenius(tower.chain, depth, self.raw, q))
                power = base
                for bit in bin(digit)[3:]:
                    power = power * power
                    if bit == "1":
                        power = power * base
                result = result * power
            q *= p
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.tower.from_int(other)
        if not isinstance(other, Element):
            return NotImplemented
        return self.tower == other.tower and self.raw == other.raw

    def __hash__(self):
        return hash((self.tower, self.raw))

    def is_zero(self):
        return self.tower.ops.is_zero(self.raw)

    def __repr__(self):
        return f"<{format_element(self)} in {self.tower.describe()}>"


# the most coefficient slots that Element.__pow__ builds (_power_slots)
POWER_SLOT_CAP = 10 ** 7


def _power_slots(chain, depth, raw, n, p):
    """A bound on the slots of raw^n in chain[depth] from the base-p digits
    n_i of n.  A polynomial of raw of degree d has an (n d + 1)-slot power,
    whose nonzero terms, for k in the polynomial, are also at most prod
    C(k - 1 + n_i, n_i), what the product of the (x^(p^i))^(n_i) can hold
    (Lucas: (1 + t)^n has prod (n_i + 1)), each bounded alike one level
    down."""
    if depth == 0:
        return 1
    zero, total = chain[depth - 1].zero, 0
    for poly in filter(None, raw):
        coeffs = [c for c in poly if c != zero]
        slots, terms, m = n * (len(poly) - 1) + 1, 1, n
        while m and terms < slots:
            m, digit = divmod(m, p)
            terms *= comb(len(coeffs) - 1 + digit, digit)
        total += slots + min(terms, slots) * max(
            _power_slots(chain, depth - 1, c, n, p) for c in coeffs)
    return total


def _frobenius(chain, depth, raw, q):
    """raw^q in chain[depth], for q a power of the characteristic p.

    x -> x^q is an injective ring map of every field of a tower of
    characteristic p (Lidl-Niederreiter, Finite Fields, Thm 1.46).  On a
    polynomial over a level it maps sum c_i X^i to sum c_i^q X^(q i): every
    exponent is multiplied by q, and every coefficient is mapped one level
    down.  At the base it is c -> c^q, the identity on GF(p).

    The image of a canonical raw is canonical, with no gcd: the den stays
    monic, since 1^q = 1; num and den stay coprime, since a Bezout identity
    s num + t den = 1 maps to one between their images; and no top
    coefficient vanishes, since the map is injective.
    """
    f = chain[depth]
    if depth == 0:
        return f.pow_(raw, q)
    zero = f.inner.zero

    def image(poly):
        if not poly:
            return poly
        out = [zero] * (q * (len(poly) - 1) + 1)
        out[::q] = [_frobenius(chain, depth - 1, c, q) for c in poly]
        return tuple(out)

    return image(raw[0]), image(raw[1])


# ---------------------------------------------------------------------------
# valuation / residue


def leading_term(fracs, raw):
    """Value vector and raw leading coefficient of a nonzero raw.

    Walks the Laurent levels whose fraction fields are listed in `fracs`,
    outermost first; at each level the raw becomes the leading coefficient
    of its unit part one level down.  A lowest den coefficient of 1 needs
    no division; a monomial den, being monic, always has one.
    """
    out = []
    for f in fracs:
        num, den = raw
        F = f.inner
        on, od = polys.pshift_order(F, num), polys.pshift_order(F, den)
        out.append(on - od)
        lead = den[od]
        raw = num[on] if F.eq(lead, F.one) else F.div(num[on], lead)
    return tuple(out), raw


def valuation(tower, a):
    """Composed valuation vector over all Laurent levels, outermost first:
    () over a finite field and for a constant of GF(q)(X)."""
    if a.is_zero():
        raise ZeroArgument("valuation of zero")
    raw, depth = a.raw, len(tower.levels)
    if not tower.all_laurent:
        num, den = raw
        if polys.deg(num) > 0 or polys.deg(den) > 0:
            raise UnsupportedLevel(
                "element involves the RationalFunction variable")
        raw, depth = tower.chain[depth].inner.div(num[0], den[0]), depth - 1
    return leading_term(tower.chain[depth:0:-1], raw)[0]


def residue(tower, a):
    """Image of an integral unit (or zero) in the residue tower."""
    if not tower.levels or not tower.all_laurent:
        raise UnsupportedLevel("outermost level is not LaurentSeries")
    rt = tower.drop_outer()
    if a.is_zero():
        return rt.zero
    (v,), r = leading_term(tower.chain[-1:], a.raw)
    if v != 0:
        raise NotIntegralUnit(f"valuation {v} != 0")
    return Element(rt, r)


def is_square(tower, a):
    """Square-class decision under the tower's semantics."""
    if a.is_zero():
        raise ZeroArgument("square class of zero")
    raw, depth = a.raw, len(tower.levels)
    if not tower.all_laurent:
        # global rational-function semantics: num*den must be a square up to
        # a square leading coefficient one level down
        F = tower.chain[depth].inner
        g = polys.pmul(F, raw[0], raw[1])
        if polys.psqrt(F, polys.pscale(F, g, F.inv(g[-1]))) is None:
            return False
        raw, depth = g[-1], depth - 1
    w, r = leading_term(tower.chain[depth:0:-1], raw)
    return not any(v % 2 for v in w) and tower.chain[0].is_square(r)


def try_sqrt(tower, a):
    """Exact square root within the represented subfield, or None.

    Over a Laurent level this can fail even when is_square holds: the
    henselian square root need not lie in K(t).
    """
    if a.is_zero():
        return tower.zero
    raw = _try_sqrt_raw(tower, len(tower.levels), a.raw)
    return None if raw is None else Element(tower, raw)


def _try_sqrt_raw(tower, depth, raw):
    f = tower.chain[depth]
    if depth == 0:
        return f.sqrt(raw)
    F = f.inner
    num, den = raw
    ln, ld = num[-1], den[-1]
    lead = F.div(ln, ld)
    mn = polys.pscale(F, num, F.inv(ln))
    md = polys.pscale(F, den, F.inv(ld))
    rn = polys.psqrt(F, mn)
    rd = polys.psqrt(F, md)
    if rn is None or rd is None:
        return None
    rl = _try_sqrt_raw(tower, depth - 1, lead)
    if rl is None:
        return None
    return f.mul(f.make(rn, rd), f.const(rl))


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleBudget:
    """Complexity bound for the deterministic element sampler."""

    max_val: int = 2       # Laurent exponent range [-max_val, max_val]
    max_deg: int = 2       # polynomial degree bound at RationalFunction levels
    series_terms: int = 2  # extra unit-part terms at Laurent levels


def sample(tower, budget=SampleBudget(), seed=0):
    """Deterministic pseudorandom nonzero element within the budget."""
    rng = random.Random((seed, tower.describe()).__repr__())
    return Element(tower, _sample_raw(tower, len(tower.levels), budget, rng))


def _sample_raw(tower, depth, budget, rng):
    f = tower.chain[depth]
    if depth == 0:
        # the i-th element in elements() order; index 0 is zero
        return f.nth(rng.randrange(1, f.order))
    lv = tower.levels[depth - 1]
    if lv.kind == LAURENT:
        e = rng.randint(-budget.max_val, budget.max_val)
        coeffs = [_sample_raw(tower, depth - 1, budget, rng)]
        for _ in range(rng.randint(0, budget.series_terms)):
            c = _sample_raw(tower, depth - 1, budget, rng) \
                if rng.random() < 0.7 else f.inner.zero
            coeffs.append(c)
        unit = f.make(tuple(coeffs), (f.inner.one,))
        return f.mul(unit, f.monomial(f.inner.one, e)) if e else unit
    # rational-function level: ratio of random polynomials
    def rand_poly(force_nonzero):
        d = rng.randint(0, budget.max_deg)
        coeffs = [_sample_raw(tower, depth - 1, budget, rng)
                  if rng.random() < 0.8 else f.inner.zero for _ in range(d + 1)]
        if force_nonzero and all(f.inner.is_zero(c) for c in coeffs):
            coeffs[0] = _sample_raw(tower, depth - 1, budget, rng)
        return tuple(coeffs)
    num = rand_poly(True)
    den = rand_poly(True)
    return f.make(num, den)


def sample_unit(tower, budget=SampleBudget(), seed=0):
    """A sampled element scaled to valuation zero at every Laurent level."""
    a = sample(tower, budget, seed)
    if not tower.all_laurent:
        return a
    v = valuation(tower, a)
    syms = [lv.symbol for lv in reversed(tower.levels)]
    for comp, s in zip(v, syms):
        if comp:
            a = a * tower.gen(s) ** (-comp)
    return a


# ---------------------------------------------------------------------------
# formatting


def format_element(a):
    return _format_raw(a.tower, len(a.tower.levels), a.raw)


def _format_poly(tower, depth, poly, sym):
    if not poly:
        return "0"
    parts = []
    for i, c in enumerate(poly):
        f = tower.chain[depth]
        if f.is_zero(c):
            continue
        cs = _format_raw(tower, depth, c)
        if i == 0:
            parts.append(cs)
        else:
            xs = sym if i == 1 else f"{sym}^{i}"
            parts.append(xs if cs == "1" else f"{_par(cs)}*{xs}")
    return " + ".join(parts)


def _par(s):
    return f"({s})" if ("+" in s or "-" in s or "*" in s or "/" in s) else s


def _format_raw(tower, depth, raw):
    if depth == 0:
        f = tower.chain[0]
        if f.k == 1:
            return str(raw)
        return _format_poly_base(tower, raw)
    sym = tower.levels[depth - 1].symbol
    num, den = raw
    ns = _format_poly(tower, depth - 1, num, sym)
    if den == (tower.chain[depth - 1].one,):
        return ns
    ds = _format_poly(tower, depth - 1, den, sym)
    return f"{_par(ns)}/{_par(ds)}"


def _format_poly_base(tower, raw):
    if not raw:
        return "0"
    parts = []
    for i, c in enumerate(raw):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = "g" if i == 1 else f"g^{i}"
            parts.append(xs if c == 1 else f"{c}*{xs}")
    return " + ".join(parts)
