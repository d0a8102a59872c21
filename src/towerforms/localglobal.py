"""Places of GF(q)(X), completions, and Hasse-Minkowski isotropy.

The anisotropic dimension of a form over the rational function field is
the largest local one (Hasse-Minkowski), or the parity/discriminant floor
of its determinant; each local one is the finite rule of qforms applied to
the two parts of a rank-1 Springer split over the residue field GF(q^deg),
at the places supporting some diagonal entry.  Forms of dimension >= 5 are
always isotropic (the u-invariant of a global function field is 4).  The
global Witt decomposition splits one hyperbolic plane per explicit
isotropic vector off the diagonal.

Place machinery is implemented for prime base fields GF(p)(X) only, whose
numerators and denominators are int polynomials over ffield.Zp.  The residue
field at a degree-1 place (infinity included) is GF(p) with int raws; at a
degree-m place, m > 1, it is GF(p^m) with the place polynomial as defining
modulus, whose raws are the int-tuple remainders mod that polynomial.
"""

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

from . import fields as fl
from . import ffield, polys, qforms
from .errors import (BudgetExceeded, ConfigUnsupported, TowerFormsError,
                     ZeroArgument)

INFINITY = "infinity"
FINITE = "finite"

# witness search limits: polynomial degree of the coordinates, and the size
# of one side of the meet-in-the-middle table
WITNESS_DEGREE_CAP = 12
WITNESS_SIDE_CAP = 400_000


@dataclass(frozen=True)
class Place:
    kind: str
    poly: tuple = None  # monic irreducible, little-endian GF(p) ints

    @property
    def degree(self):
        return 1 if self.kind == INFINITY else len(self.poly) - 1

    def describe(self):
        if self.kind == INFINITY:
            return "Infinity"
        return _poly_str(self.poly)


def _poly_str(f):
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c) + "*"
            parts.append(f"{head}X" if i == 1 else f"{head}X^{i}")
    return " + ".join(parts)


def _global_base(tower):
    """Validate a GF(p)(X) tower and return (p, Zp, ratfunc symbol)."""
    if len(tower.levels) != 1 or tower.levels[0].kind != fl.RATFUNC:
        raise ConfigUnsupported("places are defined over GF(q)(X) towers only")
    if tower.base_degree != 1:
        raise ConfigUnsupported("place machinery needs a prime base field")
    return tower.base_char, tower.chain[0], tower.levels[0].symbol


@lru_cache(maxsize=None)
def _factor_monic(p, f):
    """Factor a monic polynomial over GF(p) into {irreducible: multiplicity}."""
    F = ffield.finite_field(p)
    out = {}
    rem = f
    d = 1
    while polys.deg(rem) > 0:
        if 2 * d > polys.deg(rem):
            out[rem] = out.get(rem, 0) + 1
            break
        for g in _irreducibles(p, d):
            while polys.deg(rem) >= d and not polys.pmod(F, rem, g):
                rem = polys.pdivmod(F, rem, g)[0]
                out[g] = out.get(g, 0) + 1
        d += 1
    return out


@lru_cache(maxsize=None)
def _irreducibles(p, d):
    return tuple(ffield.irreducibles(ffield.finite_field(p), d))


def factor(p, f):
    """Factor a nonzero GF(p)[X] polynomial: (leading unit, {irred: mult})."""
    F = ffield.finite_field(p)
    f = polys.trim(F, f)
    if not f:
        raise ZeroArgument("cannot factor the zero polynomial")
    lc = f[-1]
    return lc, _factor_monic(p, polys.pmonic(F, f))


def places_of_interest(q):
    p, _, _ = _global_base(q.tower)
    finite = set()
    for d in q.diag:
        for f in d.raw:
            if polys.deg(f) > 0:
                finite.update(factor(p, f)[1])
    places = sorted((Place(FINITE, f) for f in finite),
                    key=lambda P: (P.degree, P.poly))
    places.append(Place(INFINITY))
    return places


def places_for_elements(tower, elems):
    """Support of a list of field elements (used by the product formula)."""
    diag = tuple(e for e in elems if not e.is_zero())
    return places_of_interest(qforms.QuadraticForm(tower, diag))


# ---------------------------------------------------------------------------
# localization


def residue_tower(tower, place):
    p, _, _ = _global_base(tower)
    if place.degree == 1:
        return fl.FieldTower(p, 1)
    return fl.FieldTower(p, place.degree, base_modulus=place.poly)


def place_split(place, rt, elem):
    """(v, r): the valuation of a nonzero element at place, and the residue
    of its unit part elem / pi^v in the residue tower rt, read off with one
    division by pi per step."""
    if elem.is_zero():
        raise ZeroArgument("valuation of zero")
    num, den = elem.raw
    if place.kind == INFINITY:
        return polys.deg(den) - polys.deg(num), rt.element(
            rt.ops.div(num[-1], den[-1]))
    F = elem.tower.chain[0]
    parts = []
    for f in (num, den):
        k, (quo, rem) = 0, polys.pdivmod(F, f, place.poly)
        while not rem:
            k, (quo, rem) = k + 1, polys.pdivmod(F, quo, place.poly)
        parts.append((k, rem if place.degree > 1 else rem[0]))
    (vn, rn), (vd, rd) = parts
    return vn - vd, rt.element(rt.ops.div(rn, rd))


@dataclass(frozen=True)
class Completion:
    place: Place
    residue_tower: fl.FieldTower
    entries: tuple  # per diagonal entry: (valuation, unit residue Element)


def localize(q, place):
    rt = residue_tower(q.tower, place)
    return Completion(place, rt, tuple(place_split(place, rt, d)
                                       for d in q.diag))


def local_anisotropic_dimension(comp):
    """The finite rule on the residues of the even and odd entries."""
    parts = {}
    for v, r in comp.entries:
        parts.setdefault(v % 2, []).append(r)
    return sum(len(qforms._finite_kernel(comp.residue_tower, part))
               for part in parts.values())


# ---------------------------------------------------------------------------
# global decisions


def is_isotropic_global(q):
    return q.dim >= 5 or anisotropic_dimension_global(q) < q.dim


def anisotropic_dimension_global(q):
    """dim of the anisotropic kernel, from local data.

    Over a field with no real places the global anisotropic dimension is the
    maximum of the local ones: every anisotropic kernel of dimension >= 2
    stays anisotropic in some completion (dim >= 3 by Hasse-Minkowski, dim 2
    because a global non-square is a non-square at some place), and places
    outside the support contribute at most the parity/discriminant floor,
    which alone is exact in dimension <= 2 and needs no factoring.
    """
    best = len(qforms._finite_kernel(q.tower, q.diag))
    if q.dim <= 2:
        return best
    for P in places_of_interest(q):
        if best == q.dim:
            break
        best = max(best, local_anisotropic_dimension(localize(q, P)))
    return best


# ---------------------------------------------------------------------------
# Hilbert symbol


def hilbert_symbol(a, b, v):
    if a.is_zero() or b.is_zero():
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if isinstance(v, Place):
        rt = residue_tower(a.tower, v)
        va, ra = place_split(v, rt, a)
        vb, rb = place_split(v, rt, b)
    else:
        if v.rank != 1:
            raise ConfigUnsupported("Hilbert symbol needs a rank-1 valuation")
        rt = v.residue_tower
        if rt.levels:
            raise ConfigUnsupported("Hilbert symbol needs a finite residue field")
        (va,), ra = v.split(a)
        (vb,), rb = v.split(b)
    sign = rt.one if (va * vb) % 2 == 0 else -rt.one
    sym = sign * ra ** vb * rb ** (-va)
    return 1 if fl.is_square(rt, sym) else -1


# ---------------------------------------------------------------------------
# explicit witnesses and Witt decomposition


def square_class_rep(tower, elem):
    """(s, c) with elem = s*c^2 and s a squarefree-polynomial representative."""
    p, F, _ = _global_base(tower)
    if elem.is_zero():
        raise ZeroArgument("square class of zero")
    num, den = elem.raw
    support = {}
    for f, sign in ((num, 1), (den, -1)):
        _, fac = factor(p, f)
        for g, m in fac.items():
            support[g] = support.get(g, 0) + sign * m
    s = (1,)
    for g in sorted(g for g, m in support.items() if m % 2):
        s = polys.pmul(F, s, g)
    s_elem = _embed_poly(tower, s)
    root = fl.try_sqrt(tower, elem / s_elem)
    if root is None:
        nu = qforms._finite_nonsquare(fl.FieldTower(p)).raw
        s = polys.pscale(F, s, nu)
        s_elem = _embed_poly(tower, s)
        root = fl.try_sqrt(tower, elem / s_elem)
        if root is None:
            raise TowerFormsError("internal: square class reduction failed")
    return s, root


def _embed_poly(tower, f):
    return tower.element((tuple(f), (1,)))


def isotropic_vector_global(q):
    """An explicit nontrivial zero over GF(p)(X), or None if q is anisotropic.

    Small isotropic subforms are tried first (binary ones give exact
    square-root witnesses, and any 5-dimensional subform is isotropic), then
    a meet-in-the-middle search over polynomial vectors of growing degree on
    the chosen subform.  Raises BudgetExceeded if the form is isotropic but
    no witness appears within WITNESS_DEGREE_CAP / WITNESS_SIDE_CAP.
    """
    if not is_isotropic_global(q):
        return None
    n = q.dim
    tower = q.tower
    for i, j in itertools.combinations(range(n), 2):
        root = fl.try_sqrt(tower, -(q.diag[j] / q.diag[i]))
        if root is not None:
            vec = [tower.zero] * n
            vec[i], vec[j] = root, tower.one
            return tuple(vec)
    candidates = []
    if n >= 4:
        comps = [localize(q, P) for P in places_of_interest(q)]
        candidates = _isotropic_subsets(comps, 3) or \
            _isotropic_subsets(comps, 4)
    if n >= 5:
        candidates.append(tuple(range(5)))
    elif not candidates:
        candidates.append(tuple(range(n)))
    found = _subform_witness(q, candidates)
    assert q.evaluate(found).is_zero()
    return found


def _isotropic_subsets(comps, k):
    """The k-subsets (k >= 3) of diagonal positions whose subform is
    isotropic, decided on the completions of the whole form: the subform's
    places lie among the form's, and at any other place its k unit entries
    make it isotropic (Chevalley-Warning plus Hensel)."""
    n = len(comps[0].entries)
    return [idx for idx in itertools.combinations(range(n), k)
            if all(local_anisotropic_dimension(replace(
                c, entries=tuple(c.entries[i] for i in idx))) < k
                for c in comps)]


def _subform_witness(q, candidates):
    p, F, _ = _global_base(q.tower)
    reps = {i: square_class_rep(q.tower, q.diag[i])
            for i in set().union(*candidates)}
    preps = {idx: [reps[i] for i in idx] for idx in candidates}
    exhausted = True
    for D in range(WITNESS_DEGREE_CAP + 1):
        exhausted = True
        for idx in candidates:
            reps = preps[idx]
            sq = [s for s, _ in reps]
            k = len(idx)
            half = (k + 1) // 2
            if (p ** (D + 1)) ** half > WITNESS_SIDE_CAP:
                continue
            exhausted = False
            vec = _mitm_search(p, F, sq, half, D)
            if vec is not None:
                out = [q.tower.zero] * q.dim
                for pos, (s, c), y in zip(idx, reps, vec):
                    if y:
                        out[pos] = _embed_poly(q.tower, y) / c
                return tuple(out)
        if exhausted:
            break
    if exhausted:
        raise BudgetExceeded("witness search budget exhausted")
    raise BudgetExceeded(f"no witness up to degree {WITNESS_DEGREE_CAP}")


def _mitm_search(p, F, sq, half, max_deg):
    """Find polynomial y with sum sq[i]*y_i^2 = 0, each deg(y_i) <= max_deg."""
    table = {}
    for right in _poly_vectors(p, len(sq) - half, max_deg):
        acc = ()
        for s, y in zip(sq[half:], right):
            acc = polys.padd(F, acc, polys.pmul(F, s, polys.pmul(F, y, y)))
        table.setdefault(polys.pneg(F, acc), right)
    for left in _poly_vectors(p, half, max_deg):
        acc = ()
        for s, y in zip(sq, left):
            acc = polys.padd(F, acc, polys.pmul(F, s, polys.pmul(F, y, y)))
        right = table.get(acc)
        if right is not None:
            vec = left + right
            if any(vec):
                return vec
    return None


def _poly_vectors(p, coords, max_deg):
    F = ffield.finite_field(p)
    coeffs = list(itertools.product(range(p), repeat=max_deg + 1))
    single = [polys.trim(F, c) for c in coeffs]
    return itertools.product(single, repeat=coords)


def _split_plane(q, z):
    """The complement of a hyperbolic plane through an isotropic z, on the
    diagonal; None when q is that plane.

    With b_i = a_i z_i^2 on the support of z and running sums s_j, the
    identity <x, y> = <x + y, xy(x + y)> for x + y != 0 (Lam, ch. I) gives
    <b_1..b_j> = <s_j, c_2..c_j> with c_j = s_(j-1) b_j s_j.  At the first m with s_m = 0
    the pair <s_(m-1), b_m> is hyperbolic, so the complement is the c_j for
    j < m, the entries after position m and the entries off the support.
    """
    out, s = [], None
    for i, (a, c) in enumerate(zip(q.diag, z)):
        if c.is_zero():
            out.append(a)
            continue
        b = a * c * c
        if s is None:
            s = b
            continue
        t = s + b
        if t.is_zero():
            out += q.diag[i + 1:]
            return qforms.QuadraticForm(q.tower, tuple(out)) if out else None
        out.append(s * b * t)
        s = t
    raise TowerFormsError("vector is not isotropic")


def witt_decompose_global(q):
    """Split off one hyperbolic plane per explicit witness until none is
    left; after each split the entries become squarefree representatives
    of their square classes."""
    index = 0
    while q is not None and (z := isotropic_vector_global(q)) is not None:
        q = _split_plane(q, z)
        index += 1
        if q is not None:
            q = qforms.QuadraticForm(q.tower, tuple(
                _embed_poly(q.tower, square_class_rep(q.tower, d)[0])
                for d in q.diag))
    return qforms.WittDecomposition(q, index)
