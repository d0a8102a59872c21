"""Quadratic forms over a tower: diagonalization, isotropy, Witt theory.

Forms are stored diagonalized (characteristic is never 2 here); GramForm is
accepted as an input format only.  Isotropy dispatches on the outermost
level: dimension and discriminant over finite fields, one Springer split
at full Laurent rank down to the finite base on iterated Laurent towers, and
the local-global machinery over rational function fields.
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


@dataclass(frozen=True)
class GramForm:
    tower: fl.FieldTower
    gram: tuple  # tuple of row-tuples of Elements, symmetric

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise TowerFormsError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.gram[i][j] != self.gram[j][i]:
                    raise TowerFormsError("gram matrix must be symmetric")


@dataclass(frozen=True)
class Diagonalization:
    form: QuadraticForm
    basis: tuple  # T with T^t G T diagonal, columns = new basis vectors


def diagonalize(g):
    """Symmetric Gaussian congruence reduction; raises on singular input."""
    tower = g.tower
    n = len(g.gram)
    M = [list(row) for row in g.gram]
    T = [[tower.one if i == j else tower.zero for j in range(n)] for i in range(n)]

    def add_col(dst, src, c):
        # basis change e_dst += c * e_src, applied symmetrically
        for i in range(n):
            M[i][dst] = M[i][dst] + c * M[i][src]
        for i in range(n):
            M[dst][i] = M[dst][i] + c * M[src][i]
        for i in range(n):
            T[i][dst] = T[i][dst] + c * T[i][src]

    def swap_cols(a, b):
        for i in range(n):
            M[i][a], M[i][b] = M[i][b], M[i][a]
        for i in range(n):
            M[a][i], M[b][i] = M[b][i], M[a][i]
        for i in range(n):
            T[i][a], T[i][b] = T[i][b], T[i][a]

    for k in range(n):
        if M[k][k].is_zero():
            pivot = next((l for l in range(k + 1, n) if not M[l][l].is_zero()), None)
            if pivot is not None:
                swap_cols(k, pivot)
            else:
                off = next((l for l in range(k + 1, n)
                            if not M[k][l].is_zero()), None)
                if off is None:
                    raise SingularForm("gram matrix is singular")
                add_col(k, off, tower.one)
        for l in range(k + 1, n):
            if not M[k][l].is_zero():
                add_col(l, k, -(M[k][l] / M[k][k]))
    diag = tuple(M[i][i] for i in range(n))
    if any(d.is_zero() for d in diag):
        raise SingularForm("gram matrix is singular")
    return Diagonalization(QuadraticForm(tower, diag),
                           tuple(tuple(row) for row in T))


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


def combine(q1, q2=None, op="orth_sum", c=None, b_diag=None):
    if op == "orth_sum":
        return orth_sum(q1, q2)
    if op == "scale":
        return scale(q1, c)
    if op == "tensor_bilinear":
        return tensor_bilinear(q1, b_diag)
    raise TowerFormsError(f"unknown combination {op!r}")


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


def split_hyperbolic(q, z):
    """Split off the hyperbolic plane through an exact isotropic vector z.

    Returns the rediagonalized complement form, or None if dim(q) == 2.
    """
    tower = q.tower
    n = q.dim
    if not q.evaluate(z).is_zero():
        raise TowerFormsError("vector is not isotropic")
    j = next((i for i, c in enumerate(z) if not c.is_zero()), None)
    if j is None:
        raise TowerFormsError("zero vector")
    if n == 2:
        return None

    def bil(x, y):
        total = tower.zero
        for d, a, b in zip(q.diag, x, y):
            total = total + 2 * d * a * b
        return total

    y = tuple(tower.one if i == j else tower.zero for i in range(n))
    bzy = bil(z, y)
    cy = q.evaluate(y) / bzy
    y2 = tuple(yi - cy * zi for yi, zi in zip(y, z))
    # project the standard basis onto the orthogonal complement of (z, y2)
    cand = []
    for i in range(n):
        e = tuple(tower.one if k == i else tower.zero for k in range(n))
        c1 = bil(e, y2) / bzy
        c2 = bil(e, z) / bzy
        w = tuple(ei - c1 * zi - c2 * y2i
                  for ei, zi, y2i in zip(e, z, y2))
        cand.append(w)
    basis = _independent_subset(tower, cand, n - 2)
    gram = tuple(tuple(bil(a, b) / 2 for b in basis) for a in basis)
    return diagonalize(GramForm(tower, gram)).form


def _independent_subset(tower, vectors, count):
    chosen = []
    rows = []
    for v in vectors:
        trial = rows + [list(v)]
        if _rank(tower, [list(r) for r in trial]) == len(trial):
            rows.append(list(v))
            chosen.append(v)
            if len(chosen) == count:
                return chosen
    raise TowerFormsError("internal: complement basis not found")


def _rank(tower, rows):
    rows = [row[:] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    r = 0
    while r < len(rows) and col < ncols:
        pivot = next((i for i in range(r, len(rows))
                      if not rows[i][col].is_zero()), None)
        if pivot is None:
            col += 1
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = tower.one / rows[r][col]
        rows[r] = [inv * c for c in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        col += 1
        rank += 1
    return rank


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
