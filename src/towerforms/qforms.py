"""Quadratic forms over a tower: isotropy, Witt theory, isometry.

Every form is a diagonal QuadraticForm (characteristic is never 2 here),
and every routine works on the diagonal entries.  Isotropy, Witt index,
hyperbolicity and isometry all read one number, anisotropic_dimension.
It rests on one finite-field rule (parity and discriminant, _finite_kernel
on elements, _finite_kernel_dim on square-class bits), and one routine,
class_dimension, sums that rule over the parts of a diagonal form given
as square-class ints, on a layout: one (key, non-square) pair of masks
per place, c & key being an entry's parity key there and c & ns the
non-square bit of its residue.  This module writes the layout of finite
and Laurent towers (LAURENT_LAYOUT), localglobal that of GF(p)(X)
(place_layout), and read_classes, the one place where a tower's kind
picks the class reader, binds it.  Over a finite field or an iterated
Laurent tower the reader is square_class, one fields.leading_term read
per entry into one int whose key is the value vector mod 2
(minus_one_class gives that of -1), and class_rep maps an int back to its
representative t^eps * {1, nu} (class_reps, for every class).  Over
GF(p)(X) it is localglobal.localize, one place_class int per entry whose
key at a place is the valuation mod 2; the global dimension is the
largest local one, and witt_decompose also splits hyperbolic planes off
on the diagonal.  A binary form needs no reader: minus its determinant is
a square or not.

One rule answers above every class read: u_invariant gives the largest
dimension of an anisotropic form, 2^(r+1) over r Laurent levels on GF(q)
(Springer's theorem doubles it per level; Lam, Introduction to Quadratic
Forms over Fields, ch. VI, and Elman-Karpenko-Merkurjev, section 19) and 4
over GF(q)(X).  is_isotropic, the one place that applies it for every
tower kind, answers a form of larger dimension without a read.  Other
towers, such as GF(q)((t))(X), get no bound.
"""

import itertools
import math
from dataclasses import dataclass
from functools import partial

from . import fields as fl
from .errors import (ConfigUnsupported, SingularForm, TowerFormsError,
                     TowerMismatch, ZeroScalar)

# the layout of square_class ints: the value parities above bit 0 are the key
LAURENT_LAYOUT = ((-2, 1),)


@dataclass(frozen=True)
class QuadraticForm:
    tower: fl.FieldTower
    diag: tuple  # nonempty tuple of nonzero Elements

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(self.diag))
        if not self.diag:
            raise TowerFormsError("a form needs at least one diagonal entry")
        for d in self.diag:
            if d.tower is not self.tower and d.tower != self.tower:
                raise TowerMismatch("diagonal entry from a different tower")
            if d.is_zero():
                raise SingularForm("zero diagonal entry")

    @property
    def dim(self):
        return len(self.diag)

    def evaluate(self, vec):
        """q(vec), vec having one coordinate per diagonal entry; a zero
        coordinate adds nothing and is skipped."""
        if len(vec) != self.dim:
            raise TowerFormsError(
                f"a vector of length {len(vec)} for a form of dim {self.dim}")
        total = self.tower.zero
        for d, c in zip(self.diag, vec):
            if not c.is_zero():
                total = total + d * c * c
        return total

    def __repr__(self):
        return "<" + ", ".join(fl.format_element(d) for d in self.diag) + ">"


def is_isotropic_vector(q, vec):
    """Whether vec is a nonzero vector with q(vec) = 0, the check on every
    explicit witness."""
    return any(not c.is_zero() for c in vec) and q.evaluate(vec).is_zero()


def form(tower, *entries):
    """Convenience constructor accepting ints and Elements."""
    out = []
    for e in entries:
        out.append(tower.from_int(e) if isinstance(e, int) else e)
    return QuadraticForm(tower, tuple(out))


# ---------------------------------------------------------------------------
# combination


def orth_sum(q1, q2):
    if q1.tower != q2.tower:
        raise TowerMismatch("orthogonal sum across towers")
    return QuadraticForm(q1.tower, q1.diag + q2.diag)


def scale(q, c):
    if isinstance(c, int):
        c = q.tower.from_int(c)
    if c.is_zero():
        raise ZeroScalar("cannot scale a form by zero")
    return QuadraticForm(q.tower, tuple(c * d for d in q.diag))


def neg(q):
    return QuadraticForm(q.tower, tuple(-d for d in q.diag))


# ---------------------------------------------------------------------------
# the Witt decision


def _outer_kind(tower):
    if not tower.levels:
        return "finite"
    return tower.levels[-1].kind


def _finite_kernel(tower, entries):
    """Anisotropic kernel entries (at most 2) of the nonempty diagonal form
    `entries` over a finite field of odd characteristic.

    Such forms are classified by dimension and discriminant (Lam, ch. II):
    with d = (-1)^(n//2) * det, dim odd gives <d>, and dim even gives the
    zero form when d is a square and the binary norm form <1, -d> otherwise.
    _finite_kernel_dim is the same rule on square-class bits, for callers
    that need only the dimension.
    """
    n = len(entries)
    det = math.prod(entries[1:], start=entries[0])
    signed = det if (n // 2) % 2 == 0 else -det
    if n % 2:
        return (signed,)
    return () if fl.is_square(tower, signed) else (tower.one, -signed)


def _finite_kernel_dim(n, det_nonsquare, minus_one_nonsquare):
    """len(_finite_kernel(tower, entries)) for n = len(entries) >= 0 entries,
    read off square-class bits alone: det_nonsquare 0 or 1, and
    minus_one_nonsquare any int, set when nonzero.

    GF(q)^* / GF(q)^*2 is F2, so det is a non-square iff the XOR of the
    entries' non-square bits (det_nonsquare) is set, and the sign of
    d = (-1)^(n//2) * det adds the bit of -1 when n//2 is odd.  An odd part
    leaves one entry, an even part none or two as d is a square or not, and
    the empty part none.
    """
    if n % 2:
        return 1
    return 2 if det_nonsquare ^ (minus_one_nonsquare and (n // 2) % 2) else 0


def class_dimension(layout, minus_one, classes):
    """Anisotropic dimension of the diagonal form whose entries have the
    given square-class ints, minus_one being that of -1: the largest local
    one over the places of layout, a (key, ns) pair of masks each.

    At a place with finite residue field the entries with one key c & key
    form one residue form (Springer: W(K) is a sum of copies of W(k), one
    per key), whose determinant's bit is the XOR of their bits c & ns, so
    the finite rule is summed over the keys.  A finite field is the case
    with one key.
    """
    best = 0
    for key, ns in layout:
        parts = {}  # c & key -> (entries, XOR of their c & ns)
        for c in classes:
            k = c & key
            n, det = parts.get(k, (0, 0))
            parts[k] = (n + 1, det ^ (c & ns))
        total = 0
        for n, det in parts.values():
            total += _finite_kernel_dim(n, det != 0, minus_one & ns)
        best = max(best, total)
    return best


def square_class(tower, a):
    """The square class of a nonzero a over a tower whose levels are all
    Laurent, as one int: bit 0 is set iff the leading coefficient of a in
    the finite base is a non-square, and bit i + 1 is the parity of the
    i-th value (outermost level first).

    Every level is henselian and non-dyadic, so a is a square iff all its
    values are even and its leading coefficient is a square.  The
    leading-term map is multiplicative, so the class of a product is the
    XOR of the classes.
    """
    w, r = fl.leading_term(tower.chain[:0:-1], a.raw)
    bits = 0 if tower.chain[0].is_square(r) else 1
    for i, v in enumerate(w):
        bits |= (v & 1) << (i + 1)
    return bits


def minus_one_class(tower):
    """square_class(tower, -1): 0 or 1, as -1 is a unit."""
    base = tower.chain[0]
    return 0 if base.is_square(base.neg(base.one)) else 1


def class_rep(tower, c):
    """The representative t^eps * {1, nu} of the square class c over a
    tower whose levels are all Laurent (the inverse of square_class): nu
    the first non-square of the finite base when bit 0 is set, eps the
    value parities of the higher bits, built one monomial per level."""
    chain = tower.chain
    raw = chain[0].nonsquare if c & 1 else chain[0].one
    for k in range(1, len(chain)):
        raw = chain[k].monomial(raw, (c >> (len(chain) - k)) & 1)
    return fl.Element(tower, raw)


def class_reps(tower):
    """(square_class int, class_rep) of every square class of a tower whose
    levels are all Laurent: value parities outermost first, innermost
    varying fastest, then the unit 1 before nu.  A tower with a GF(q)(X)
    level is refused, as its square classes are infinite."""
    if any(lv.kind == fl.RATFUNC for lv in tower.levels):
        raise ConfigUnsupported("square classes of GF(q)(X) are infinite")
    return [(c, class_rep(tower, c)) for c in (
        u | sum(e << (i + 1) for i, e in enumerate(eps))
        for eps in itertools.product((0, 1), repeat=len(tower.levels))
        for u in (0, 1))]


def reduce_square_classes(q):
    """An isometric form whose entries are the class_rep of their
    square_class (iterated-Laurent towers only; others pass through).  No
    decision needs it; it stays as perfbench/tracer.py wraps it by name."""
    tower = q.tower
    if any(lv.kind != fl.LAURENT for lv in tower.levels):
        return q
    return QuadraticForm(tower, tuple(class_rep(tower, square_class(tower, d))
                                      for d in q.diag))


def read_classes(tower, elems):
    """(classes, minus_one, dimension) for nonzero elems over one tower: the
    elems' square classes as ints, that of -1, and the rule that gives the
    anisotropic dimension of a diagonal form from its entries' classes, for
    entries that are products of elems and -1 (the XOR of the factors').
    The only place where a tower's kind picks the reader.

    The rule is class_dimension with the layout and minus_one bound.
    Finite and Laurent towers: square_class ints on LAURENT_LAYOUT.
    GF(p)(X): place_class ints over S, the places of elems plus infinity,
    from localglobal.localize, on localglobal.place_layout(S), so the
    largest local dimension over S.  In dimension >= 3 that is the global
    one.  With no real places, an anisotropic kernel of dimension >= 3
    stays anisotropic in some completion (Hasse-Minkowski), and places off
    S add at most the parity/discriminant floor.  S reaches that floor: for
    odd n every local dimension is odd, and for even n a signed determinant
    that is a global non-square has odd valuation at a finite place of S or
    is lc * square with lc a non-square, so a non-square at infinity.
    """
    if tower.laurent_rank() == len(tower.levels):
        minus_one = minus_one_class(tower)
        return ([square_class(tower, x) for x in elems], minus_one,
                partial(class_dimension, LAURENT_LAYOUT, minus_one))
    from . import localglobal
    places, minus_one, classes = localglobal.localize(
        QuadraticForm(tower, tuple(elems)))
    return (classes, minus_one, partial(
        class_dimension, localglobal.place_layout(places), minus_one))


def anisotropic_dimension(q):
    """Dimension of the anisotropic kernel of q: the one Witt decision.

    In dimension <= 2 the finite rule on the entries (_finite_kernel) is
    exact over any field of odd characteristic: a binary form is isotropic
    iff minus its determinant is a square.  It reads no class and factors
    nothing.  Above that it is the rule of read_classes on the entries'
    classes.
    """
    if q.dim <= 2:
        return len(_finite_kernel(q.tower, q.diag))
    classes, _, dimension = read_classes(q.tower, q.diag)
    return dimension(classes)


def u_invariant(tower):
    """The u-invariant of the tower, the largest dimension of an
    anisotropic form, where this package knows it; None otherwise.

    Over r Laurent levels on GF(q) it is 2^(r+1): Springer's theorem gives
    u(K((t))) = 2 u(K) for a non-dyadic henselian level, and u(GF(q)) = 2
    (Lam, Introduction to Quadratic Forms over Fields, ch. VI;
    Elman-Karpenko-Merkurjev, section 19).  Over GF(q)(X), a global
    function field, it is 4.  A form of larger dimension is isotropic.
    """
    levels = tower.levels
    r = tower.laurent_rank()
    if r == len(levels):
        return 2 ** (r + 1)
    if len(levels) == 1:
        return 4
    return None


def is_isotropic(q):
    u = u_invariant(q.tower)
    return (u is not None and q.dim > u) or anisotropic_dimension(q) < q.dim


def witt_index(q):
    return (q.dim - anisotropic_dimension(q)) // 2


def is_hyperbolic(q):
    return anisotropic_dimension(q) == 0


def isometric(q1, q2):
    if q1.tower != q2.tower:
        raise TowerMismatch("forms over different towers")
    return q1.dim == q2.dim and anisotropic_dimension(
        orth_sum(q1, neg(q2))) == 0


# ---------------------------------------------------------------------------
# Witt decomposition


@dataclass(frozen=True)
class WittDecomposition:
    anisotropic_kernel: QuadraticForm | None  # None encodes the zero form
    witt_index: int

    def kernel_dim(self):
        return 0 if self.anisotropic_kernel is None else self.anisotropic_kernel.dim


def _decomposition(q, entries):
    kernel = QuadraticForm(q.tower, tuple(entries)) if entries else None
    return WittDecomposition(kernel, (q.dim - len(entries)) // 2)


def witt_decompose(q):
    kind = _outer_kind(q.tower)
    if kind == "finite":
        return _witt_finite(q)
    if kind == fl.RATFUNC:
        from . import localglobal
        return localglobal.witt_decompose_global(q)
    return _witt_laurent(q)


def _witt_finite(q):
    return _decomposition(q, _finite_kernel(q.tower, q.diag))


def _witt_laurent(q):
    """Exact Witt decomposition from the full-rank Springer split.

    The kernel is the sum over eps of t^eps * lift(ker q_eps): forms over a
    henselian non-dyadic field are classified by their residue forms, so any
    unit lifts of the residue kernels represent the kernel.
    """
    from . import valuation as vmod
    ctx = vmod.ValuationCtx(q.tower, len(q.tower.levels))
    parts = vmod.raw_springer_split(q, ctx)
    kernel_entries = []
    for eps in sorted(parts):
        kernel = _finite_kernel(ctx.residue_tower, [r for _, r in parts[eps]])
        if kernel:
            pi = ctx.monomial(eps)
            kernel_entries += [pi * q.tower.embed(r) for r in kernel]
    return _decomposition(q, kernel_entries)
