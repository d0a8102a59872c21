"""Pfister decisions on slot classes against multiplied-out expansions.

Over a finite field, over a tower whose levels are all Laurent, and over
GF(p)(X), isotropy of a symbol, the Witt index of the difference of two
symbols and their isometry are read off the square classes of the slots
and of c = 1 + 4b, combined by XOR (a 1-fold symbol by whether c is a
square), and so is each candidate of the certificate search.  Over Laurent
towers the reference expands the symbols and runs the anisotropic
dimension as it was before square classes: the full-rank Springer split
into residue forms, and the finite rule on the residues' product.  Over GF(p)(X) it expands them and takes the global
anisotropic dimension of the expansion from its own places, and the place
bits of every entry are checked against conftest.RefPlace.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

from conftest import RefPlace, tower
from towerforms import linkage, pfister, qforms
from towerforms.errors import ConfigUnsupported
from towerforms.fields import LAURENT, RATFUNC, SampleBudget, sample
from towerforms.localglobal import places_of_interest
from towerforms.linkage import (check_top_d_linked, find_certificate,
                                is_linked_pair, sample_symbol,
                                verify_lifting_equivalence,
                                verify_residue_transfer)
from towerforms.pfister import (QuadraticPfisterSymbol, difference_dimension,
                                expand, expansion_classes, symbol_isotropic,
                                symbols_isometric)
from towerforms.qforms import (QuadraticForm, _finite_kernel,
                               anisotropic_dimension, class_dimension,
                               isometric, neg, orth_sum)
from towerforms.valuation import ValuationCtx, raw_springer_split

_SPEC = importlib.util.spec_from_file_location(
    "output_digest",
    Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)

TOWERS = [tower(3, 1, ("t", LAURENT)),
          tower(5, 1, ("t", LAURENT), ("u", LAURENT)),
          tower(3, 1, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT)),
          tower(5)]
SYMBOLS = 400  # per tower, plus PAIRS pairs: 1000 inputs
PAIRS = 600
BUDGET = SampleBudget(max_val=1, series_terms=1)


def ref_dimension(q):
    ctx = ValuationCtx(q.tower, len(q.tower.levels))
    return sum(len(_finite_kernel(ctx.residue_tower, [r for _, r in part]))
               for part in raw_springer_split(q, ctx).values())


def _fold(T, i):
    """Folds 1 .. depth + 1: up to the first fold that is always
    isotropic."""
    return 1 + i % (len(T.levels) + 1)


def _pair(T, i):
    """Independent symbols, symbols sharing every slot but the first (so
    linked), or a symbol and a rewritten copy (so isometric): its first
    slot scaled by a square and its slots reversed, in turn.  Folds 2 and
    3, or 2 alone below two levels: a 4-fold pair over the depth-3 tower,
    always linked, would double the cost of the reference."""
    d = 2 + (i % 2 if len(T.levels) > 1 else 0)
    s1 = sample_symbol(T, d, ("pair-a", i), BUDGET)
    if i % 3 == 0:
        return s1, sample_symbol(T, d, ("pair-b", i), BUDGET)
    x = sample(T, BUDGET, ("pair-x", i))
    if i % 3 == 1:
        return s1, QuadraticPfisterSymbol(T, (x,) + s1.slots[1:], s1.last)
    slots = (s1.slots[0] * x * x,) + s1.slots[1:]
    return s1, QuadraticPfisterSymbol(T, slots[::-1], s1.last)


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_isotropy_matches_expansion(T):
    isotropic = 0
    for i in range(SYMBOLS):
        s = sample_symbol(T, _fold(T, i), ("iso", i), BUDGET)
        q = expand(s)
        n = ref_dimension(q)
        assert anisotropic_dimension(q) == n, s.describe()
        (classes,), _, dimension = expansion_classes(s)
        assert class_dimension(qforms.LAURENT_LAYOUT,
                               qforms.minus_one_class(T), classes) == \
            dimension(classes) == n, s.describe()
        assert symbol_isotropic(s) == (n < q.dim), s.describe()
        isotropic += n < q.dim
    assert 0 < isotropic < SYMBOLS


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_difference_matches_expansion(T):
    linked = isometric = 0
    for i in range(PAIRS):
        s1, s2 = _pair(T, i)
        n = ref_dimension(orth_sum(expand(s1), neg(expand(s2))))
        assert difference_dimension(s1, s2) == n, i
        d = s1.fold
        assert is_linked_pair(s1, s2) == ((2 ** (d + 1) - n) // 2 >=
                                          2 ** (d - 1)), i
        assert symbols_isometric(s1, s2) == (n == 0), i
        linked += (2 ** (d + 1) - n) // 2 >= 2 ** (d - 1)
        isometric += n == 0
    assert isometric >= PAIRS // 3 and linked >= 2 * PAIRS // 3


def test_laurent_decisions_do_not_expand(monkeypatch, gf3t, gf3tu, gf3x):
    """Over a Laurent tower only LinkageCertificate.verify and the
    pfister-expand command expand a symbol (for the certificate search see
    below); GF(p)(X) decisions do not expand either."""
    def refuse(symbol):
        raise AssertionError(f"expand({symbol.describe()})")
    monkeypatch.setattr(pfister, "expand", refuse)
    s1 = sample_symbol(gf3t, 2, "a")
    s2 = sample_symbol(gf3t, 2, "b")
    is_linked_pair(s1, s2)
    symbol_isotropic(s1)
    symbols_isometric(s1, s2)
    assert check_top_d_linked(gf3tu, 3, samples=5).passed
    assert verify_residue_transfer(gf3tu, 1, 2, samples=5).passed
    assert verify_lifting_equivalence(gf3tu, 1, 1, samples=5).passed
    t = gf3t.gen("t")
    pfister.pfister_residues(QuadraticPfisterSymbol(gf3t, (t,), gf3t.one),
                             ValuationCtx(gf3t, 1))
    for d in (1, 2, 3):
        s1 = sample_symbol(gf3x, d, ("a", d))
        s2 = sample_symbol(gf3x, d, ("b", d))
        is_linked_pair(s1, s2)
        symbol_isotropic(s1)
        symbols_isometric(s1, s2)
        difference_dimension(s1, s2)
    assert check_top_d_linked(gf3x, 2, samples=5).passed


# ---------------------------------------------------------------------------
# GF(p)(X)

GLOBAL_PRIMES = [3, 5, 7]
GLOBAL_SYMBOLS = 400  # per field, plus GLOBAL_PAIRS pairs: 1000 inputs
GLOBAL_PAIRS = 600
GLOBAL_BIT_SYMBOLS = 60  # symbols per field whose place bits are checked
GLOBAL_BUDGET = SampleBudget(max_deg=2)


def _global_pair(K, i):
    """Folds 1-3 in turn; independent symbols, symbols sharing every slot
    but the first (for a 1-fold pair, c scaled by a square), or a copy with
    its first slot (or c) scaled by a square and its slots reversed."""
    d, kind = 1 + i % 3, i // 3 % 3
    s1 = sample_symbol(K, d, ("gpair-a", i), GLOBAL_BUDGET)
    if kind == 0:
        return s1, sample_symbol(K, d, ("gpair-b", i), GLOBAL_BUDGET)
    x = sample(K, GLOBAL_BUDGET, ("gpair-x", i))
    if d == 1:
        return s1, QuadraticPfisterSymbol(K, (), (s1.c * x * x - 1) / 4)
    if kind == 1:
        return s1, QuadraticPfisterSymbol(K, (x,) + s1.slots[1:], s1.last)
    slots = (s1.slots[0] * x * x,) + s1.slots[1:]
    return s1, QuadraticPfisterSymbol(K, slots[::-1], s1.last)


def _place_bits(p, places, elem):
    """(valuation mod 2, residue is a non-square) at each place, from the
    reference division loop and listed squares."""
    out = []
    for P in places:
        ref = RefPlace(p, P)
        v, r = ref.split(elem)
        out.append((v % 2, not ref.is_square(r)))
    return out


def _class_bits(places, c):
    return [((c >> 2 * k) & 1, (c >> (2 * k + 1)) & 1)
            for k in range(len(places))]


@pytest.mark.parametrize("p", GLOBAL_PRIMES)
def test_global_isotropy_matches_expansion(p):
    """symbol_isotropic and the dimension rule of expansion_classes against
    anisotropic_dimension on the expansion, and the place class of
    every entry against the reference bits at each place of S, the places
    of c and the slots plus infinity."""
    K = tower(p, 1, ("X", RATFUNC))
    isotropic = [0, 0]
    for i in range(GLOBAL_SYMBOLS):
        d = 1 + i % 3
        s = sample_symbol(K, d, ("giso", i), GLOBAL_BUDGET)
        q = expand(s)
        n = anisotropic_dimension(q)
        assert symbol_isotropic(s) == (n < q.dim), s.describe()
        (classes,), minus_one, dimension = expansion_classes(s)
        if d > 1:
            assert dimension(classes) == n, s.describe()
        isotropic[d == 2] += n < q.dim
        if i < GLOBAL_BIT_SYMBOLS:
            places = places_of_interest(QuadraticForm(K, (s.c,) + s.slots))
            assert _class_bits(places, minus_one) == \
                _place_bits(p, places, -K.one)
            for entry, c in zip(q.diag, classes, strict=True):
                assert _class_bits(places, c) == \
                    _place_bits(p, places, entry), (s.describe(), entry)
    assert isotropic[1] and GLOBAL_SYMBOLS // 3 > isotropic[1]
    assert isotropic[0]


@pytest.mark.parametrize("p", GLOBAL_PRIMES)
def test_global_difference_matches_expansion(p):
    """difference_dimension, is_linked_pair and symbols_isometric against
    anisotropic_dimension on the multiplied-out difference.  Every
    pair is linked (GF(p)(X) is top-2-linked, and 3-fold symbols are
    hyperbolic), so the dimensions carry the test."""
    K = tower(p, 1, ("X", RATFUNC))
    linked = isometric = 0
    dims = set()
    for i in range(GLOBAL_PAIRS):
        s1, s2 = _global_pair(K, i)
        n = anisotropic_dimension(
            orth_sum(expand(s1), neg(expand(s2))))
        assert difference_dimension(s1, s2) == n, i
        d = s1.fold
        link = (2 ** (d + 1) - n) // 2 >= 2 ** (d - 1)
        assert is_linked_pair(s1, s2) == link, i
        assert symbols_isometric(s1, s2) == (n == 0), i
        linked += link
        isometric += n == 0
        dims.add((d, n))
    assert isometric >= GLOBAL_PAIRS // 3 and linked >= 2 * GLOBAL_PAIRS // 3
    assert dims == {(1, 0), (1, 2), (2, 0), (2, 4), (3, 0)}, dims


def _ref_find_certificate(q1, q2):
    """The search on the symbols' own expansions, by isometry tests: same
    candidates and order, with the shared slots in itertools.product order
    and no subform test first.  Each psi = <<shared; b]] is expanded once,
    each product -a*e is formed once, and a candidate <<a, shared; b]] =
    psi _|_ -a*psi is isometric to a target when -target _|_ psi _|_ -a*psi
    is hyperbolic, with -target negated once.  Over GF(p)(X) there is no
    pool of class representatives."""
    T, d = q1.tower, q1.fold
    try:
        classes = [s for _, s in qforms.class_reps(T)]
    except ConfigUnsupported:
        classes = []
    reps = list(dict.fromkeys(list(q1.slots) + list(q2.slots) + classes))
    lasts = list(dict.fromkeys([q1.last, q2.last] +
                               [(s - 1) / 4 for s in classes]))
    m1, m2 = neg(expand(q1)), neg(expand(q2))

    products = {}

    def times(a, e):
        key = (a.raw, e.raw)
        if key not in products:
            products[key] = -a * e
        return products[key]

    def first_slot(minus_target, psi):
        for a in reps:
            scaled = QuadraticForm(T, tuple(times(a, e) for e in psi.diag))
            if anisotropic_dimension(
                    orth_sum(minus_target, orth_sum(psi, scaled))) == 0:
                return a
        return None

    for b in lasts:
        if (T.one + 4 * b).is_zero():
            continue
        for shared in itertools.product(reps, repeat=d - 2):
            psi = expand(QuadraticPfisterSymbol(T, shared, b))
            left1 = first_slot(m1, psi)
            if left1 is not None and \
                    (left2 := first_slot(m2, psi)) is not None:
                return linkage.LinkageCertificate(T, left1, left2, shared, b)
    return linkage.NOT_FOUND


CERTIFICATE_PAIRS = 40


@pytest.mark.parametrize("T", TOWERS[:2], ids=lambda T: T.describe())
def test_certificate_search_expands_class_representatives(T, monkeypatch):
    """Over a Laurent tower find_certificate widens its candidates by the
    square-class representatives, which it reads as classes rather than
    expanding: on _pair's pairs it finds the certificate (or NOT_FOUND) of
    the search on the symbols' own expansions, with no expansion, and
    every certificate's slots and 1 + 4b are the symbols' own or
    representatives."""
    classes = [s for _, s in qforms.class_reps(T)]
    expanded = []
    found = 0
    for i in range(CERTIFICATE_PAIRS):
        s1, s2 = _pair(T, i)
        want = _ref_find_certificate(s1, s2)
        with monkeypatch.context() as m:
            m.setattr(pfister, "expand", expanded.append)
            got = find_certificate(s1, s2)
        assert got == want, i
        if isinstance(got, linkage.LinkageCertificate):
            pool = list(s1.slots) + list(s2.slots) + classes
            assert all(a in pool for a in
                       (got.left1, got.left2) + got.shared), i
            assert T.one + 4 * got.last in [s1.c, s2.c] + classes, i
            assert got.verify(s1, s2), i
            found += 1
    assert expanded == [] and found >= CERTIFICATE_PAIRS // 2


def test_certificate_search_decides_on_classes(monkeypatch):
    """On the pairs of output_digest's certificates group (GF(3)((t)),
    GF(5)((t))((u)), fold 4 over GF(3)((t))((u))((w)), GF(3)(X) and
    GF(5)(X)), find_certificate gives the certificate or NOT_FOUND of the
    search on the symbols' own expansions, without one expansion or
    isometry test, and every certificate re-verifies.  The fold-4 pairs
    83, 84 and 93 need more than 11,000 candidate tests in the
    reference's order, and get its certificate."""
    pairs = list(output_digest.certificate_pairs())
    calls = []
    with monkeypatch.context() as m:
        for module, name in ((pfister, "expand"), (qforms, "isometric")):
            m.setattr(module, name,
                      lambda *args, name=name: calls.append(name))
        got = [find_certificate(s1, s2) for s1, s2 in pairs]
    assert calls == []
    found = 0
    for i, ((s1, s2), answer) in enumerate(zip(pairs, got)):
        assert answer == _ref_find_certificate(s1, s2), i
        if isinstance(answer, linkage.LinkageCertificate):
            assert answer.verify(s1, s2), i
            found += 1
    for i in (83, 84, 93):
        assert pairs[i][0].fold == 4 and len(pairs[i][0].tower.levels) == 3
        assert isinstance(got[i], linkage.LinkageCertificate), i
    assert linkage.NOT_FOUND in got and found >= len(pairs) // 2
