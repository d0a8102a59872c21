"""Quadratic forms over a tower: isotropy, Witt theory, isometry.

Every form is a diagonal QuadraticForm (characteristic is never 2 here),
and every routine works on the diagonal entries.  Isotropy, Witt index,
hyperbolicity and isometry all read one number, anisotropic_dimension, built
on one finite-field rule (_finite_kernel: parity and discriminant) applied
over finite fields, to each part of one Springer split at full Laurent rank,
or at each place of GF(p)(X), where witt_decompose also splits hyperbolic
planes off on the diagonal.  The places of GF(p)(X) read the same rule on
square-class bits (_finite_kernel_dim).
"""

import math
from dataclasses import dataclass

from . import fields as fl
from .errors import SingularForm, TowerFormsError, TowerMismatch, ZeroScalar


@dataclass(frozen=True)
class QuadraticForm:
    tower: fl.FieldTower
    diag: tuple  # nonempty tuple of nonzero Elements

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(self.diag))
        if not self.diag:
            raise TowerFormsError("a form needs at least one diagonal entry")
        for d in self.diag:
            if d.tower != self.tower:
                raise TowerMismatch("diagonal entry from a different tower")
            if d.is_zero():
                raise SingularForm("zero diagonal entry")

    @property
    def dim(self):
        return len(self.diag)

    def evaluate(self, vec):
        total = self.tower.zero
        for d, c in zip(self.diag, vec):
            total = total + d * c * c
        return total

    def __repr__(self):
        return "<" + ", ".join(fl.format_element(d) for d in self.diag) + ">"


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
    read off square-class bits alone.

    GF(q)^* / GF(q)^*2 is F2, so det is a non-square iff the XOR of the
    entries' non-square bits (det_nonsquare) is set, and the sign of
    d = (-1)^(n//2) * det adds the bit of -1 when n//2 is odd.  An odd part
    leaves one entry, an even part none or two as d is a square or not, and
    the empty part none.
    """
    if n % 2:
        return 1
    return 2 if det_nonsquare ^ (minus_one_nonsquare and (n // 2) % 2) else 0


def anisotropic_dimension(q):
    """Dimension of the anisotropic kernel of q: the one Witt decision.

    Every level of an iterated Laurent tower is henselian and non-dyadic, so
    W(K) is 2^r copies of W(k) over the finite base k (Springer) and the
    finite rule is summed over the parts of one split at full Laurent rank.
    """
    kind = _outer_kind(q.tower)
    if kind == "finite":
        return len(_finite_kernel(q.tower, q.diag))
    if kind == fl.RATFUNC:
        from . import localglobal
        return localglobal.anisotropic_dimension_global(q)
    from . import valuation as vmod
    ctx = vmod.ValuationCtx(q.tower, len(q.tower.levels))
    return sum(len(_finite_kernel(ctx.residue_tower, [r for _, r in part]))
               for part in vmod.raw_springer_split(q, ctx).values())


def is_isotropic(q):
    if _outer_kind(q.tower) == fl.RATFUNC:
        from . import localglobal
        return localglobal.is_isotropic_global(q)
    return anisotropic_dimension(q) < q.dim


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


# ---------------------------------------------------------------------------
# square classes


def _finite_nonsquare(tower):
    """The first non-square of a finite tower, in elements() order."""
    return fl.Element(tower, tower.ops.nonsquare)


def _square_class_monomial(tower, a):
    """The representative t^(w mod 2) * {1, nu} of a's square class over an
    iterated-Laurent tower, read from one full-rank split."""
    from . import valuation as vmod
    ctx = vmod.ValuationCtx(tower, len(tower.levels))
    w, r = ctx.split(a)
    base = ctx.residue_tower
    unit = base.one if fl.is_square(base, r) else _finite_nonsquare(base)
    return ctx.monomial(tuple(c % 2 for c in w)) * tower.embed(unit)


def reduce_square_classes(q):
    """An isometric form whose entries are canonical square-class
    representatives (iterated-Laurent towers only; others pass through).

    No decision needs it; it is kept as a public helper and as a reference
    that the oracle tests compare square classes against."""
    tower = q.tower
    if any(lv.kind != fl.LAURENT for lv in tower.levels):
        return q
    return QuadraticForm(tower, tuple(_square_class_monomial(tower, d)
                                      for d in q.diag))

