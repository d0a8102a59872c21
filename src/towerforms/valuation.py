"""Discrete-valuation machinery for Laurent levels of a tower.

Covers Springer decomposition into residue forms, residue-form extraction at
arbitrary nonzero elements, henselian lifting of isotropic vectors, F2
linear algebra on value vectors, and composition of valuations.  Rank-r
contexts view the outermost r Laurent levels as one composed valuation with
lexicographic value group Z^r.
"""

from dataclasses import dataclass
from functools import cached_property

from . import fields as fl
from . import qforms
from .errors import (NotIntegralUnit, TowerFormsError, TowerMismatch,
                     WitnessInvalid, ZeroArgument)


@dataclass(frozen=True)
class ValuationCtx:
    """The composed valuation over the outermost `rank` Laurent levels."""

    tower: fl.FieldTower
    rank: int = 1

    def __post_init__(self):
        # rank 0 is the trivial valuation (every element is a unit)
        if self.rank < 0 or self.rank > len(self.tower.levels):
            raise TowerFormsError("rank out of range")
        for lv in self.tower.levels[len(self.tower.levels) - self.rank:]:
            if lv.kind != fl.LAURENT:
                raise TowerFormsError(
                    "valuation context requires LaurentSeries levels")

    @cached_property
    def residue_tower(self):
        return self.tower.drop_outer(self.rank)

    @cached_property
    def symbols(self):
        """Uniformizer symbols, outermost first."""
        tail = self.tower.levels[len(self.tower.levels) - self.rank:]
        return tuple(lv.symbol for lv in reversed(tail))

    def split(self, a):
        """(w, r): the value vector of a, outermost first, and the residue of
        a * monomial(-w) in the residue tower, read off in one pass."""
        if a.is_zero():
            raise ZeroArgument("valuation of zero")
        n = len(self.tower.levels)
        w, r = fl.leading_term(self.tower.chain[n:n - self.rank:-1], a.raw)
        return w, fl.Element(self.residue_tower, r)

    def value_vector(self, a):
        return self.split(a)[0]

    def monomial(self, exponents):
        """prod t_i^e_i for an exponent vector, outermost first.

        Built level by level from the innermost uniformizer out, directly as
        the reduced fraction t^e / 1 or 1 / t^-e over the level below.
        """
        chain = self.tower.chain[len(self.tower.levels) - self.rank:]
        raw = chain[0].one
        for f, e in zip(chain[1:], reversed(exponents)):
            raw = f.monomial(raw, e)
        return fl.Element(self.tower, raw)

    def residue(self, a):
        """Residue of an integral unit (or zero) in the residue tower."""
        if a.is_zero():
            return self.residue_tower.zero
        w, r = self.split(a)
        if any(w):
            raise NotIntegralUnit(f"valuation {w} != 0")
        return r

    def coset_reps(self):
        """The 2^rank canonical representatives prod t_i^{e_i}, e in {0,1}^r."""
        out = []
        for mask in range(2 ** self.rank):
            eps = tuple((mask >> i) & 1 for i in range(self.rank - 1, -1, -1))
            out.append((eps, self.monomial(eps)))
        return out


@dataclass(frozen=True)
class ResidueDecomposition:
    ctx: ValuationCtx
    entries: tuple  # ((eps, rep_element, part_form_or_None), ...)

    def part(self, eps):
        for e, _, form in self.entries:
            if e == eps:
                return form
        return None

    def to_json(self):
        out = []
        for eps, rep, form in self.entries:
            out.append({
                "pi": fl.format_element(rep),
                "form": [] if form is None else
                        [fl.format_element(d) for d in form.diag],
            })
        return out


def raw_springer_split(q, ctx):
    """Group diagonal entries by valuation class; residues of unit parts.

    Returns {eps: [(index, residue_element), ...]}.  This is the plain
    Springer grouping of the given diagonal, without first extracting the
    anisotropic kernel.
    """
    parts = {}
    for i, d in enumerate(q.diag):
        w, r = ctx.split(d)
        parts.setdefault(tuple(c % 2 for c in w), []).append((i, r))
    return parts


def springer_decompose(q, ctx):
    """Residue decomposition of the anisotropic kernel of q."""
    if q.tower != ctx.tower:
        raise TowerMismatch("form and valuation live on different towers")
    dec = qforms.witt_decompose(q)
    q_an = q if dec.witt_index == 0 else dec.anisotropic_kernel
    entries = []
    split = raw_springer_split(q_an, ctx) if q_an is not None else {}
    for eps, rep in ctx.coset_reps():
        part = split.get(eps)
        form = None
        if part:
            form = qforms.QuadraticForm(ctx.residue_tower,
                                        tuple(r for _, r in part))
        entries.append((eps, rep, form))
    return ResidueDecomposition(ctx, tuple(entries))


def residue_form(q, ctx, pi):
    """The residue form of q at pi, adjusted by the unit between pi and the
    canonical coset representative.  None encodes the zero form."""
    if pi.is_zero():
        raise ZeroArgument("pi must be nonzero")
    dec = springer_decompose(q, ctx)
    w, r = ctx.split(pi)
    part = dec.part(tuple(c % 2 for c in w))
    if part is None:
        return None
    # the multiplier is the residue of monomial(w) / pi
    return qforms.scale(part, 1 / r)


def f2_solve(vectors, target):
    """A set of indices I with sum over I of the vectors = target mod 2.

    Returns a sorted list of indices, or None if target is outside the span.
    Vectors are reduced as int bitmasks (bit i = coordinate i mod 2), each
    row pivoting on its lowest set bit.
    """
    def mask(vec):
        return sum((c & 1) << i for i, c in enumerate(vec))

    rows = []  # (reduced mask, mask of the indices summed into it)
    for idx, vec in enumerate(vectors):
        v, combo = mask(vec), 1 << idx
        for r, rc in rows:
            if v & r & -r:
                v, combo = v ^ r, combo ^ rc
        if v:
            rows.append((v, combo))
    t, combo = mask(target), 0
    for r, rc in rows:
        if t & r & -r:
            t, combo = t ^ r, combo ^ rc
    if t:
        return None
    return [i for i in range(len(vectors)) if combo >> i & 1]


@dataclass(frozen=True)
class LiftResult:
    vector: tuple  # Elements of ctx.tower
    exact: bool
    precision: int | None = None


def hensel_lift_isotropic(q, ctx, residue_witness, precision=16):
    """Lift an isotropic vector of the residue form of a unit-diagonal form.

    The residue witness x must satisfy q-bar(x) = 0, x != 0.  The lifted
    vector z satisfies q(z) = 0 exactly when the relevant discriminant has a
    square root in the represented subfield; otherwise z is Newton-refined
    and q(z) vanishes to at least the stated precision at the outermost
    uniformizer.
    """
    tower = ctx.tower
    rt = ctx.residue_tower
    units = []
    for d in q.diag:
        w, r = ctx.split(d)
        if any(w):
            raise TowerFormsError("diagonal entries must be units")
        units.append(r)
    x_bar = tuple(residue_witness)
    if len(x_bar) != len(units) or all(c.is_zero() for c in x_bar):
        raise WitnessInvalid("witness must be a nonzero vector of matching length")
    val = rt.zero
    for u, c in zip(units, x_bar):
        val = val + u * c * c
    if not val.is_zero():
        raise WitnessInvalid("witness is not a zero of the residue form")
    j = next((i for i, c in enumerate(x_bar) if not (units[i] * c).is_zero()), None)
    if j is None:
        raise WitnessInvalid("residue form is singular at the witness")

    x = tuple(tower.embed(c) for c in x_bar)
    y = tuple(tower.one if i == j else tower.zero for i in range(len(units)))
    qx = q.evaluate(x)
    qy = q.diag[j]
    bxy = 2 * q.diag[j] * x[j]
    if qx.is_zero():
        return LiftResult(x, True)
    disc = bxy * bxy - 4 * qx * qy
    root = fl.try_sqrt(tower, disc)
    exact = root is not None
    if not exact:
        root = fl.newton_sqrt(tower, disc, precision)
    if not _vanishes_in_residue(ctx, root - bxy):
        root = -root
    # T = (-bxy + root)/(2 qy) is the root with residue 0
    T = (root - bxy) / (2 * qy)
    z = tuple(xi + T * yi for xi, yi in zip(x, y))
    if exact:
        check = q.evaluate(z)
        if not check.is_zero():
            raise TowerFormsError("internal: exact lift failed")
        return LiftResult(z, True)
    return LiftResult(z, False, precision)


def _vanishes_in_residue(ctx, a):
    """True if a maps to 0 in the residue tower (zero or lex-positive value)."""
    if a.is_zero():
        return True
    v = ctx.value_vector(a)
    return v > (0,) * ctx.rank


def compose(v_outer, v_inner):
    """Compose with a valuation on the residue tower; ranks add."""
    if v_inner.tower != v_outer.residue_tower:
        raise TowerMismatch("inner valuation must live on the residue tower")
    return ValuationCtx(v_outer.tower, v_outer.rank + v_inner.rank)
