"""Quadratic forms over a tower: isotropy, Witt theory, isometry.

Every form is a diagonal QuadraticForm (characteristic is never 2 here),
and every routine works on the diagonal entries.  Isotropy dispatches on
the outermost level: dimension and discriminant over finite fields, one
Springer split at full Laurent rank down to the finite base on iterated
Laurent towers, and the local-global machinery over rational function
fields, which splits hyperbolic planes off on the diagonal as well.
"""

from dataclasses import dataclass

from . import fields as fl
from .errors import (SingularForm, TowerFormsError, TowerMismatch,
                     UnsupportedTower, ZeroScalar)


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

    def det(self):
        out = self.diag[0]
        for d in self.diag[1:]:
            out = out * d
        return out

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


def tensor_bilinear(q, b_diag):
    """Kronecker product with a diagonal bilinear form."""
    out = []
    for b in b_diag:
        if b.is_zero():
            raise ZeroScalar("bilinear factor entry must be nonzero")
        for d in q.diag:
            out.append(b * d)
    return QuadraticForm(q.tower, tuple(out))


def neg(q):
    return QuadraticForm(q.tower, tuple(-d for d in q.diag))


# ---------------------------------------------------------------------------
# isotropy


def _outer_kind(tower):
    if not tower.levels:
        return "finite"
    return tower.levels[-1].kind


def is_isotropic(q):
    kind = _outer_kind(q.tower)
    if kind == "finite":
        return _witt_finite(q).witt_index > 0
    if kind == fl.LAURENT:
        return any(dec.witt_index for _, dec in _residue_witt(q)[1])
    if kind == fl.RATFUNC:
        from . import localglobal
        return localglobal.is_isotropic_global(q)
    raise UnsupportedTower(f"unsupported outer level kind {kind!r}")


# ---------------------------------------------------------------------------
# Witt decomposition


@dataclass(frozen=True)
class WittDecomposition:
    anisotropic_kernel: QuadraticForm | None  # None encodes the zero form
    witt_index: int

    def kernel_dim(self):
        return 0 if self.anisotropic_kernel is None else self.anisotropic_kernel.dim


def witt_decompose(q):
    kind = _outer_kind(q.tower)
    if kind == "finite":
        return _witt_finite(q)
    if kind == fl.LAURENT:
        return _witt_laurent(q)
    if kind == fl.RATFUNC:
        from . import localglobal
        return localglobal.witt_decompose_global(q)
    raise UnsupportedTower(f"unsupported outer level kind {kind!r}")


def _witt_finite(q):
    """Witt decomposition over a finite field of odd characteristic.

    Forms are classified by dimension and determinant class, and anisotropic
    forms have dimension at most 2, so the kernel can be written down from
    the discriminant: dim odd gives <det * (-1)^((n-1)/2)>; dim even gives
    the zero form when the discriminant det * (-1)^(n/2) is a square and the
    binary norm form <1, -disc> otherwise.
    """
    n = q.dim
    det = q.det()
    if n % 2:
        kd = det if ((n - 1) // 2) % 2 == 0 else -det
        return WittDecomposition(QuadraticForm(q.tower, (kd,)), (n - 1) // 2)
    disc = det if (n // 2) % 2 == 0 else -det
    if fl.is_square(q.tower, disc):
        return WittDecomposition(None, n // 2)
    kernel = QuadraticForm(q.tower, (q.tower.one, -disc))
    return WittDecomposition(kernel, (n - 2) // 2)


def _residue_witt(q):
    """One Springer split of q at full Laurent rank.

    Returns (ctx, [(eps, Witt decomposition of the residue form of the
    entries with value vector = eps mod 2)]), eps sorted outermost first.
    Every level of an iterated Laurent tower is henselian and non-dyadic, so
    W(K) is the sum of 2^r copies of W(k) over the finite base k.
    """
    from . import valuation as vmod
    ctx = vmod.ValuationCtx(q.tower, len(q.tower.levels))
    parts = vmod.raw_springer_split(q, ctx)
    return ctx, [(eps, _witt_finite(QuadraticForm(
        ctx.residue_tower, tuple(r for _, r in parts[eps]))))
        for eps in sorted(parts)]


def _witt_laurent(q):
    """Exact Witt decomposition from the full-rank Springer split.

    The kernel is the sum over eps of t^eps * lift(ker q_eps): forms over a
    henselian non-dyadic field are classified by their residue forms, so any
    unit lifts of the residue kernels represent the kernel.
    """
    ctx, decs = _residue_witt(q)
    kernel_entries = []
    for eps, dec in decs:
        if dec.anisotropic_kernel is not None:
            pi = ctx.monomial(eps)
            for r in dec.anisotropic_kernel.diag:
                kernel_entries.append(pi * q.tower.embed(r))
    kdim = len(kernel_entries)
    kernel = QuadraticForm(q.tower, tuple(kernel_entries)) if kernel_entries else None
    return WittDecomposition(kernel, (q.dim - kdim) // 2)


# ---------------------------------------------------------------------------
# isometry


def witt_index(q):
    """Witt index, computed without necessarily constructing the kernel."""
    kind = _outer_kind(q.tower)
    if kind == fl.RATFUNC:
        from . import localglobal
        return localglobal.witt_index_global(q)
    return witt_decompose(q).witt_index


def _finite_nonsquare(tower):
    for raw in tower.ops.elements():
        a = fl.Element(tower, raw)
        if not a.is_zero() and not fl.is_square(tower, a):
            return a
    raise UnsupportedTower("finite field with no nonsquare")


def _square_class_monomial(tower, a):
    """The representative t^(w mod 2) * {1, nu} of a's square class over an
    iterated-Laurent tower, read from one full-rank split; cuts fraction
    sizes down before the Witt decomposition."""
    from . import valuation as vmod
    ctx = vmod.ValuationCtx(tower, len(tower.levels))
    w, r = ctx.split(a)
    base = ctx.residue_tower
    unit = base.one if fl.is_square(base, r) else _finite_nonsquare(base)
    return ctx.monomial(tuple(c % 2 for c in w)) * tower.embed(unit)


def reduce_square_classes(q):
    """An isometric form whose entries are canonical square-class
    representatives (iterated-Laurent towers only; others pass through)."""
    tower = q.tower
    if any(lv.kind != fl.LAURENT for lv in tower.levels):
        return q
    return QuadraticForm(tower, tuple(_square_class_monomial(tower, d)
                                      for d in q.diag))


def isometric(q1, q2):
    if q1.tower != q2.tower:
        raise TowerMismatch("forms over different towers")
    if q1.dim != q2.dim:
        return False
    q1, q2 = reduce_square_classes(q1), reduce_square_classes(q2)
    return witt_index(orth_sum(q1, neg(q2))) == q1.dim


def is_hyperbolic(q):
    return q.dim % 2 == 0 and witt_index(q) == q.dim // 2
