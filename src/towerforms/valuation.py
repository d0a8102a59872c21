"""Discrete-valuation machinery for Laurent levels of a tower.

Covers Springer decomposition into residue forms, residue-form extraction at
arbitrary nonzero elements, and F2 linear algebra on value vectors.  Rank-r
contexts view the outermost r Laurent levels as one composed valuation with
lexicographic value group Z^r.
"""

from dataclasses import dataclass
from functools import cached_property

from . import fields as fl
from . import qforms
from .errors import (NotIntegralUnit, TowerFormsError, TowerMismatch,
                     ZeroArgument)


@dataclass(frozen=True)
class ValuationCtx:
    """The composed valuation over the outermost `rank` Laurent levels."""

    tower: fl.FieldTower
    rank: int = 1

    def __post_init__(self):
        # rank 0 is the trivial valuation (every element is a unit)
        if self.rank < 0 or self.rank > len(self.tower.levels):
            raise TowerFormsError("rank out of range")
        if self.rank and not self.tower.all_laurent:
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
