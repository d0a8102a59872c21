"""Places of GF(q)(X), local square classes, and Hasse-Minkowski isotropy.

The anisotropic dimension of a form over the rational function field is
the largest local one (Hasse-Minkowski); each local one is the finite rule
of qforms applied to the two parts of a rank-1 Springer split over the
residue field GF(q^deg), at the places supporting some diagonal entry.  The
parity/discriminant floor of the determinant is read only in dimension
<= 2, where it is exact without factoring.  Over GF(q)(X) a form of
dimension >= 5 is isotropic, as the u-invariant of a global function field
is 4 (qforms.is_isotropic); a tower with a Laurent level below X gets no
such bound, and its forms of dimension >= 3 reach the place machinery,
which refuses them.  The global Witt decomposition splits one hyperbolic
plane per explicit isotropic vector off the diagonal.

Place machinery is implemented for prime base fields GF(p)(X) only, whose
numerators and denominators are int polynomials over ffield.Zp.  An
element's square class over a place list is one int (place_class), two bits
per place: at places[k], bit 2k is its valuation mod 2 and bit 2k + 1
whether its unit residue is a non-square in the residue field kappa(P)
(residue_field), by that field's Euler test, from one cached factorization
(ffield.factor_monic, polynomial in the degree and log p).  Only this
module writes that layout (place_layout, as qforms.class_dimension reads
it).  Every reader takes an element's data from the records (_poly_record)
of its numerator and denominator: leading unit, factor dict, sorted factors
of odd multiplicity and their monic product, cached for the process, one
per distinct (p, polynomial) seen.  localize, the class reader over
GF(p)(X), XORs one mask per odd factor of each entry, built once per form;
the local dimension is qforms.class_dimension on place_layout, and only
places of degree >= 2 build a field.  qforms.read_classes, which every
decision above dimension 2 calls, and the witness search read it alike.
Pfister decisions take the places of the slots and 1 + 4b plus infinity,
which support every entry of the expansion (pfister.expansion_classes).

The witness search reads the same localize result: a pair is hyperbolic
iff its class ints XOR to that of -1, candidate subforms are decided on
pair masks of the class ints, built once per read, and the entries'
squarefree parts s_i are the products of their records' monic parts.  At
degree 0 a candidate whose zeros must have full support is skipped unless
both end terms of sum s_i*y_i^2, at the top degree and at the lowest order
in X, can vanish: a lone term cannot, and two only if minus the product of
their coefficients is a square in GF(p) (the proof is at
_subform_witness).  The meet-in-the-middle search adds and reduces
coefficient vectors packed into one int each, at whole bytes a slot (one
for p < 128), and an entry's column of s_i*y^2 over every y of one degree
is one Kronecker product cut into such ints.  Field elements are built
only for the pair that passes and for the witness, whose nonzero
coordinates alone get their square parts c_i.
"""

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

from . import fields as fl
from . import ffield, polys, qforms
from .errors import (BudgetExceeded, ConfigUnsupported, TowerFormsError,
                     TowerMismatch, ZeroArgument)

INFINITY = "infinity"
FINITE = "finite"

# the witness search's limit on one side of the meet-in-the-middle table
WITNESS_SIDE_CAP = 400_000

_Record = namedtuple("_Record", "lc factors odd monic")


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
    if len(tower.levels) != 1 or tower.all_laurent:
        raise ConfigUnsupported("places are defined over GF(q)(X) towers only")
    if tower.base_degree != 1:
        raise ConfigUnsupported("place machinery needs a prime base field")
    return tower.base_char, tower.chain[0], tower.levels[0].symbol


def factor(p, f):
    """Factor a nonzero GF(p)[X] polynomial: (leading unit, {irred: mult})."""
    F = ffield.finite_field(p)
    f = polys.trim(F, f)
    if not f:
        raise ZeroArgument("cannot factor the zero polynomial")
    lc = f[-1]
    return lc, ffield.factor_monic(p, f if lc == 1 else polys.pmonic(F, f))


@lru_cache(maxsize=None)
def _poly_record(p, f):
    """(lc, factors, odd, monic) of a nonzero GF(p)[X] polynomial f: its
    leading unit and factor dict as factor gives them (empty for a
    constant), its factors of odd multiplicity in sorted order, and their
    monic product.  Built once per (p, f), as ffield.factor_monic is.
    Callers must not mutate the dict."""
    lc, fac = factor(p, f) if len(f) > 1 else (f[0], {})
    odd = tuple(sorted(g for g, m in fac.items() if m & 1))
    F = ffield.finite_field(p)
    monic = reduce(partial(polys.pmul, F), odd[1:], odd[0]) if odd else (1,)
    return _Record(lc, fac, odd, monic)


def places_of_interest(q):
    """The places where some diagonal entry is not a unit, in (degree,
    polynomial) order, then infinity."""
    p, _, _ = _global_base(q.tower)
    finite = {g for d in q.diag for f in d.raw
              for g in _poly_record(p, f).factors}
    places = sorted((Place(FINITE, f) for f in finite),
                    key=lambda P: (P.degree, P.poly))
    places.append(Place(INFINITY))
    return places


# ---------------------------------------------------------------------------
# localization


@lru_cache(maxsize=None)
def residue_field(p, P):
    """kappa(P) = GF(p)[X]/(P) for a monic irreducible P, built once per
    (p, P): GF(p) (ffield.finite_field) if P = X - r is linear or P = None
    (infinity), else ffield.Fq on the modulus P."""
    F = ffield.finite_field(p)
    return F if P is None or len(P) == 2 else ffield.Fq(F, P)


@lru_cache(maxsize=None)
def _residue_nonsquare(p, g, P):
    """Whether g, prime to P, has a non-square residue in residue_field(p,
    P): lc g at infinity, where g's unit part is X^-deg g * g, else g mod
    P, which is (g(r),) at P = X - r."""
    K = residue_field(p, P)
    if P is None:
        return not K.is_square(g[-1])
    r = polys.pmod(ffield.finite_field(p), g, P)
    return not K.is_square(r if len(P) > 2 else r[0])


def _factor_mask(p, places, g):
    """The place_class of g over places: g is a monic irreducible, or the
    non-square constant (nu,) of GF(p).

    At g's own place v(g) = 1 and the residue of its unit part is 1.  At
    infinity v(g) = -deg g, at any other P v(g) = 0, and the residue's bit
    is kappa(P)'s Euler test (_residue_nonsquare)."""
    bits = 0
    for k, P in enumerate(places):
        if P.poly == g:
            bits |= 1 << (2 * k)
        else:
            v = polys.deg(g) & 1 if P.kind == INFINITY else 0
            bits |= (v | _residue_nonsquare(p, g, P.poly) << 1) << (2 * k)
    return bits


def place_class(places, elem, masks=None):
    """The square class of a nonzero element over an ordered place list, as
    one int read off the _poly_record of its numerator and denominator:
    bit 2k is its valuation mod 2 at places[k], bit 2k + 1 whether the
    residue of its unit part is a non-square.  The uniformizers are fixed,
    so the class of a product is the XOR of the classes: the element is
    lc(num) times irreducibles g^(+-e), an even power adds nothing, and the
    class is the XOR of _factor_mask over the odd factors of numerator and
    denominator and, when lc(num) is a non-square, over (nu,).  A masks
    dict, when given, keeps each mask for later calls on the same places."""
    p, F, _ = _global_base(elem.tower)
    num, den = _poly_record(p, elem.raw[0]), _poly_record(p, elem.raw[1])
    odd = num.odd + den.odd + (() if F.is_square(num.lc) else
                               ((F.nonsquare,),))
    masks = {} if masks is None else masks
    bits = 0
    for g in odd:
        mask = masks.get(g)
        if mask is None:
            mask = masks[g] = _factor_mask(p, places, g)
        bits ^= mask
    return bits


def place_layout(places):
    """The qforms.class_dimension layout of place_class ints over places:
    at places[k], key bit 2k (the valuation) and non-square bit 2k + 1."""
    return tuple((1 << 2 * k, 2 << 2 * k) for k in range(len(places)))


def localize(q):
    """(places, minus_one, classes) of the diagonal form q: its
    places_of_interest and the place_class ints of -1 and of each entry,
    each factor's mask built once; the one class read over GF(p)(X)."""
    masks = {}
    places = places_of_interest(q)
    return places, place_class(places, -q.tower.one, masks), \
        [place_class(places, d, masks) for d in q.diag]


# ---------------------------------------------------------------------------
# global decisions


def is_isotropic_global(q):
    """qforms.is_isotropic on a GF(p)(X) form."""
    return qforms.is_isotropic(q)


# ---------------------------------------------------------------------------
# Hilbert symbol


def hilbert_symbol(a, b, v):
    """(a, b)_v: 1 iff (-1)^(v_a v_b) a^(v_b) b^(-v_a) has a square residue,
    that is iff (v_a v_b and m) xor (v_b and n_a) xor (v_a and n_b) is 0,
    with v_a, v_b the key bits and m, n_a, n_b the non-square bits of -1,
    a and b on the layout of their class ints at v.  A Place must be
    infinity or monic irreducible, coefficients in [0, p)."""
    if a.is_zero() or b.is_zero():
        raise ZeroArgument("Hilbert symbol needs nonzero arguments")
    if b.tower != a.tower or getattr(v, "tower", a.tower) != a.tower:
        raise TowerMismatch("Hilbert symbol across towers")
    if isinstance(v, Place):
        p, P = _global_base(a.tower)[0], v.poly
        if v.kind != INFINITY and not (v.kind == FINITE and P and all(
                0 <= c < p for c in P) and factor(p, P) == (1, {P: 1})):
            raise TowerFormsError(f"not a place of GF({p})(X): {v}")
        layout, read = place_layout([v]), partial(place_class, [v])
    else:
        if v.rank != 1:
            raise ConfigUnsupported("Hilbert symbol needs a rank-1 valuation")
        if v.residue_tower.levels:
            raise ConfigUnsupported("Hilbert symbol needs a finite residue field")
        layout = qforms.LAURENT_LAYOUT
        read = partial(qforms.square_class, v.tower)
    (key, ns), = layout
    ca, cb, m = (read(x) for x in (a, b, -a.tower.one))
    va, vb = ca & key, cb & key
    nonsquare = bool(va and vb and m & ns) ^ bool(vb and ca & ns) ^ \
        bool(va and cb & ns)
    return -1 if nonsquare else 1


# ---------------------------------------------------------------------------
# explicit witnesses and Witt decomposition


def square_class_rep(tower, elem):
    """(s, c) with elem = s*c^2 and s a squarefree-polynomial representative.

    Both are read off the _poly_record of the numerator lc * prod g^m and of
    the denominator prod h^m: s is the product of their monic parts, the g
    and h of odd multiplicity (_squarefree_part), and c = sqrt(lc) *
    prod g^(m//2) / prod h^ceil(m/2) (_square_part).  When lc is a
    non-square, s is scaled by the first non-square nu of GF(p) and
    sqrt(lc / nu) replaces sqrt(lc); the root is the first one in GF(p)
    order, the one fields.try_sqrt takes.
    """
    p, F, _ = _global_base(tower)
    if elem.is_zero():
        raise ZeroArgument("square class of zero")
    num, den = _poly_record(p, elem.raw[0]), _poly_record(p, elem.raw[1])
    return (_squarefree_part(F, num, den),
            _square_part(tower, F, num, den))


def _squarefree_part(F, num, den):
    """s of square_class_rep, from the records of num and den."""
    a, b = num.monic, den.monic
    s = a if b == (1,) else b if a == (1,) else polys.pmul(F, a, b)
    return s if F.is_square(num.lc) else polys.pscale(F, s, F.nonsquare)


def _square_part(tower, F, num, den):
    """c of square_class_rep, from the same records: the denominator's
    monic part times each h^(m//2) is prod h^ceil(m/2)."""
    root = F.sqrt(num.lc)
    if root is None:
        root = F.sqrt(F.div(num.lc, F.nonsquare))
    c_num, c_den = (root,), den.monic
    for g, m in num.factors.items():
        for _ in range(m // 2):
            c_num = polys.pmul(F, c_num, g)
    for h, m in den.factors.items():
        for _ in range(m // 2):
            c_den = polys.pmul(F, c_den, h)
    return tower.element((c_num, c_den))


def _embed_poly(tower, f):
    return tower.element((tuple(f), (1,)))


def isotropic_vector_global(q):
    """An explicit nontrivial zero over GF(p)(X), or None if q is anisotropic.

    A binary form is decided by its discriminant, and an isotropic one
    takes its witness from one fields.try_sqrt of -a_1/a_0, factoring
    nothing.  A form of dimension >= 3 is read once by localize(q), and
    everything else comes from that read and the entries' _poly_record.
    Isotropy is qforms.class_dimension on place_layout for n <= 4 and the
    u-invariant 4 for n >= 5.  The hyperbolic pair is the first (i, j) in
    combinations order with classes[i] ^ classes[j] == minus_one, and that
    test is exact: the class of -a_j/a_i is minus_one ^ classes[i] ^
    classes[j], as classes multiply by XOR and 1/a has the class of a, and
    a place_class int over these places is 0 iff the element is a square.
    For the places hold every odd factor g of a_i and a_j, hence of the
    quotient, and each sets the valuation bit at its own place, which no
    other factor's mask touches; with no odd factor the quotient is lc
    times a square, and its class is that of the constant lc, whose
    residue bit at infinity (a place of degree 1) is set iff lc is a
    non-square.
    So the pair is the first for which -a_j/a_i has a fields.try_sqrt root,
    and that root is taken once.  Otherwise the isotropic 3- (else 4-)
    subforms are picked on the same class ints (_isotropic_subsets), any
    5-dimensional subform being isotropic, and a meet-in-the-middle search
    on packed ints runs over polynomial vectors of growing degree on the
    chosen subforms (_subform_witness), its squarefree parts and the
    witness's square-class representatives built from the same records.
    Every witness passes qforms.is_isotropic_vector.  Raises BudgetExceeded
    if the form is isotropic but no witness appears before every
    candidate's table outgrows WITNESS_SIDE_CAP.
    """
    n, tower = q.dim, q.tower
    if n <= 2:
        if not is_isotropic_global(q):
            return None
        read, pair = None, (0, 1)
    else:
        read = _, minus_one, classes = localize(q)
        if n <= 4 and qforms.class_dimension(
                place_layout(read[0]), minus_one, classes) == n:
            return None
        pair = next(((i, j) for i, j in itertools.combinations(range(n), 2)
                     if classes[i] ^ classes[j] == minus_one), None)
    if pair is not None:
        i, j = pair
        root = fl.try_sqrt(tower, -(q.diag[j] / q.diag[i]))
        if root is not None:
            vec = [tower.zero] * n
            vec[i], vec[j] = root, tower.one
            return tuple(vec)
    found = _subform_witness(q, _candidates(read, n))
    assert qforms.is_isotropic_vector(q, found)
    return found


def _candidates(read, n):
    """The subforms the witness search tries, in order, each decided only
    when the search reaches it: the isotropic 3-subsets, else the isotropic
    4-subsets (n >= 4, read being localize(q)), then the first five
    positions when n >= 5, or all n when nothing came before.  The pair
    masks are built once for both k."""
    count = 0
    if n >= 4:
        masks = _pair_masks(read)
        for k in (3, 4):
            for idx in _isotropic_subsets(read, k, masks):
                count += 1
                yield idx
            if count:
                break
    if n >= 5:
        yield tuple(range(5))
    elif not count:
        yield tuple(range(n))


def _pair_masks(read):
    """(same, aniso) of _isotropic_subsets: per pair (i, j), i < j, the
    places where entries i and j have the same key, and those where they
    form an anisotropic pair, one bit per place (bit 2k of place_class)."""
    places, minus_one, classes = read
    even = sum(key for key, _ in place_layout(places))
    m = (minus_one >> 1) & even
    same, aniso = {}, {}
    for i, j in itertools.combinations(range(len(classes)), 2):
        x = classes[i] ^ classes[j]
        same[i, j] = ~x & even
        aniso[i, j] = same[i, j] & ((x >> 1) ^ m)
    return same, aniso


def _isotropic_subsets(read, k, masks=None):
    """The k-subsets (k = 3 or 4) of diagonal positions whose subform is
    isotropic, in combinations order, decided on the bits of read =
    localize(q) at each place of the whole form: the subform's places lie
    among the form's, and at any other place its k unit entries make it
    isotropic (Chevalley-Warning plus Hensel).

    At a place the key is one valuation bit, so the k entries split into at
    most two parts, and the subform is anisotropic there iff each part is
    an anisotropic residue form (qforms.class_dimension): a 3-subset iff it
    splits 2 + 1 with an anisotropic pair, a 4-subset iff it splits 2 + 2
    with both pairs anisotropic, a pair of one key being anisotropic iff
    its non-square bits and that of -1 XOR to 1.  So two ints per pair,
    with one bit per place, hold "same key" and "anisotropic pair"
    (_pair_masks(read), unless masks gives them), and each subset is a few
    ANDs over all places."""
    same, aniso = _pair_masks(read) if masks is None else masks
    n = len(read[2])
    if k == 3:
        for a, b, c in itertools.combinations(range(n), 3):
            if not (aniso[a, b] | aniso[a, c] | aniso[b, c]) \
                    & ~(same[a, b] & same[a, c]):
                yield a, b, c
        return
    for a, b, c, d in itertools.combinations(range(n), 4):
        if not (aniso[a, b] & aniso[c, d] & ~same[a, c]
                | (aniso[a, c] & aniso[b, d] | aniso[a, d] & aniso[b, c])
                & ~same[a, b]):
            yield a, b, c, d


def _subform_witness(q, candidates):
    """A zero of q supported on one candidate subform: a polynomial vector y
    with sum s_i*y_i^2 = 0, s_i the _squarefree_part of entry i, gives the
    witness y_i / c_i, c_i its _square_part, built only for the nonzero
    coordinates of the returned vector; both come from the records of the
    entry's numerator and denominator, as in square_class_rep.

    Degrees D = 0, 1, ... are tried in turn, on every candidate whose
    meet-in-the-middle side of (p^(D+1))^ceil(k/2) vectors stays within
    WITNESS_SIDE_CAP, until no candidate's does (so D <= 10, as p >= 3);
    then BudgetExceeded is raised.  The candidates come from an iterator,
    decided as the search reaches them, and are kept for the later
    degrees; an entry's s_i is computed when a candidate that holds it is
    first reached.

    The degree-0 cut.  On a candidate of at most four positions every zero
    has full support.  isotropic_vector_global reaches the search only when
    no pair of entries is hyperbolic, so no zero has exactly two nonzero
    coordinates (and one is impossible); 4-subsets come only when no
    3-subset of q is isotropic, so no zero on one has three; and the all-n
    candidate of a ternary form is a 3-subset.  At D = 0 such a zero is a
    vector of nonzero constants y_i, and the coefficient of sum s_i*y_i^2
    at X^t, t = max deg s_i, is the sum of lc(s_i)*y_i^2 over the i with
    deg s_i = t.  With one such i it is nonzero; with two, a and b, it
    vanishes only if -lc(s_a)/lc(s_b) = (y_b/y_a)^2, so only if
    -lc(s_a)*lc(s_b) is a square in GF(p).  The same holds for the
    coefficients at X^m, m = min ord_X s_i.  A candidate that fails at
    either end (_end_terms_pass) has no zero at D = 0, so its search would
    return None: it is skipped, with no column and no table built.  Three
    or more terms at an end say nothing, as every ternary form over GF(p)
    is isotropic.  The first-five candidate of n >= 5 may hold an isotropic
    3-subset, and is never cut.

    The columns.  At each D an entry's column is built once (_column) and
    shared by every candidate that holds it: one int product of s_i and
    every square y^2 of _coordinates(p, D), packed at a stride of
    width + 2D + 1 slots.  Block j of the product is s_i*y_j^2, as
    deg s_i <= width, from the bound deg s_i <= deg num + deg den over all
    entries, and deg y_j^2 <= 2D.  Its slots are w bytes, w the byte length
    of (p - 1)^2 * min(len s_i, 2D + 1), which bounds every coefficient
    before reduction; the residues are laid out at _search_slot(p) bytes a
    slot, which hold a sum of two residues, below 2p, and every sum of
    columns has at most width + 2D + 1 of them.
    """
    p, F, _ = _global_base(q.tower)
    width = max(polys.deg(num) + polys.deg(den)
                for num, den in (d.raw for d in q.diag))
    decided, parts = [], {}
    for D in itertools.count():
        exhausted = True
        columns = {}
        stride = width + 2 * D + 1
        # D = 0 reaches every candidate unless it returns
        for idx in decided if D else candidates:
            if not D:
                decided.append(idx)
            half = (len(idx) + 1) // 2
            if (p ** (D + 1)) ** half > WITNESS_SIDE_CAP:
                continue
            exhausted = False
            for i in idx:
                if i not in parts:
                    parts[i] = _squarefree_part(
                        F, *(_poly_record(p, f) for f in q.diag[i].raw))
            if not D and len(idx) < 5 and \
                    not _end_terms_pass(F, [parts[i] for i in idx]):
                continue
            for i in idx:
                if i not in columns:
                    columns[i] = _column(p, parts[i], D, stride)
            found = _mitm_search(p, [columns[i] for i in idx], half, stride)
            if found is not None:
                ys = _coordinates(p, D)[0]
                out = [q.tower.zero] * q.dim
                for pos, y in zip(idx, found):
                    if y:
                        c = _square_part(q.tower, F, *(
                            _poly_record(p, f) for f in q.diag[pos].raw))
                        out[pos] = _embed_poly(q.tower, ys[y]) / c
                return tuple(out)
        if exhausted:
            raise BudgetExceeded("witness search budget exhausted")


def _end_terms_pass(F, parts):
    """Whether sum s*y_s^2 over the squarefree polynomials s of parts
    passes the end test of _subform_witness's degree-0 cut: at its top
    degree and at its lowest order in X, the s that reach it are at least
    two, and where exactly two, minus the product of their coefficients
    there is a square in GF(p).  A squarefree s has order 0 or 1 at X."""
    for ends in ([(len(s), s[-1]) for s in parts],
                 [(1, s[0]) if s[0] else (0, s[1]) for s in parts]):
        top = max(e for e, _ in ends)
        coeffs = [c for e, c in ends if e == top]
        if len(coeffs) == 1 or len(coeffs) == 2 and \
                not F.is_square(F.neg(F.mul(*coeffs))):
            return False
    return True


@lru_cache(maxsize=None)
def _coordinates(p, max_deg):
    """The polynomials of degree <= max_deg over GF(p), in the
    itertools.product order of their coefficient vectors (the zero
    polynomial first), and their squares."""
    F = ffield.finite_field(p)
    ys = tuple(polys.trim(F, c)
               for c in itertools.product(range(p), repeat=max_deg + 1))
    return ys, tuple(polys.pmul(F, y, y) for y in ys)


@lru_cache(maxsize=None)
def _packed_squares(p, max_deg, stride, w):
    """The squares of _coordinates(p, max_deg) as one int, square j at slot
    j * stride, little-endian at w bytes a slot."""
    squares = _coordinates(p, max_deg)[1]
    buf = bytearray(len(squares) * stride * w)
    for j, y2 in enumerate(squares):
        i = j * stride * w
        buf[i:i + len(y2) * w] = polys._pack(y2, w)
    return int.from_bytes(buf, "little")


def _search_slot(p):
    """Bytes per slot of the packed search: the whole bytes that hold a sum
    of two residues mod p, below 2p: 1 for p < 128, 2 for 128 < p < 2^15."""
    return polys._slot_bytes(2 * p - 1)


def _column(p, s, max_deg, stride):
    """s * y^2 for every y of _coordinates(p, max_deg), each one int of
    stride slots of _search_slot(p) bytes, coefficient i in slot i.

    One Kronecker product (polys.pmul's layout): s at w bytes a slot times
    _packed_squares at the same w, w the byte length of the largest
    coefficient, a sum of at most min(len s, 2 max_deg + 1) products of
    ints below p; block j, s*y_j^2, has at most stride coefficients, so no
    block reaches the next.  polys._residues reduces every slot mod p (by
    one bytes.translate for 1-byte slots), and each block is one
    int.from_bytes slice of the residues, laid out again at _search_slot(p)
    bytes a slot where that is wider than the residues' own, as for
    128 < p < 256.
    """
    count = p ** (max_deg + 1)
    w = polys._slot_bytes((p - 1) ** 2 * min(len(s), 2 * max_deg + 1))
    buf, r = polys._residues(
        int.from_bytes(polys._pack(s, w), "little") *
        _packed_squares(p, max_deg, stride, w), p, w, count * stride)
    b = _search_slot(p)
    if r != b:
        buf = polys._pack(polys._unpack(buf, r), b)
    step = stride * b
    return [int.from_bytes(buf[i:i + step], "little")
            for i in range(0, count * step, step)]


@lru_cache(maxsize=None)
def _packing(p, length):
    """(w, ones, bias) for length slots of w = 8 * _search_slot(p) bits:
    ones has a 1 at the bottom of each slot and bias 2^(w-1) - p in each.
    A slot holding the sum v < 2p of two reduced values carries into bit
    w - 1 after adding bias iff v >= p, and v + bias < 2^(w-1) + p <= 2^w
    stays in the slot, as 2^(w-1) >= 2^bitlen(p) > p; so
    x - (((x + bias) >> (w-1)) & ones) * p reduces every slot at once."""
    w = 8 * _search_slot(p)
    ones = sum(1 << (w * i) for i in range(length))
    return w, ones, ((1 << (w - 1)) - p) * ones


def _mitm_search(p, cols, half, length):
    """The first nonzero index vector y with sum cols[i][y_i] = 0 mod p, or
    None, the columns being _column ints of at most length slots.

    The right side (the last len(cols) - half columns) fills a table keyed
    by the negated sums, keeping the first vector of each in
    itertools.product order; the left side is then scanned in the same
    order, each lookup one add, one reduce and one dict.get.
    """
    w, ones, bias = _packing(p, length)
    shift = w - 1

    def sums(cols):
        # every reduced sum of one entry per column, in product order
        out = [0]
        for col in reversed(cols):
            out = [(x := a + b) - (((x + bias) >> shift) & ones) * p
                   for a in col for b in out]
        return out

    negated = [[(x := p * ones - c) - (((x + bias) >> shift) & ones) * p
                for c in col] for col in cols[half:]]
    table = {}
    for r, key in enumerate(sums(negated)):
        table.setdefault(key, r)
    get = table.get
    outer, inner = cols[0], sums(cols[1:half])
    for a, ca in enumerate(outer):
        for b, cb in enumerate(inner):
            x = ca + cb
            r = get(x - (((x + bias) >> shift) & ones) * p)
            if r is not None and (a or b or r):
                return _digits(a * len(inner) + b, len(outer), half) + \
                    _digits(r, len(outer), len(cols) - half)
    return None


def _digits(index, base, count):
    """index as count digits in base, most significant first."""
    out = []
    for _ in range(count):
        index, d = divmod(index, base)
        out.append(d)
    return tuple(reversed(out))


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
