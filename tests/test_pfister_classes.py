"""Pfister decisions on slot classes against multiplied-out expansions.

Over a tower whose levels are all Laurent, isotropy of a symbol, the Witt
index of the difference of two symbols and their isometry are read off the
square classes of the slots and of c = 1 + 4b, combined by XOR, and the
certificate search expands presentations by square-class representatives.  The
reference expands the symbols and runs the anisotropic dimension as it was
before square classes: the full-rank Springer split into residue forms,
and the finite rule on the residues' product.
"""

import itertools

import pytest

from conftest import tower
from towerforms import linkage, pfister
from towerforms.errors import BudgetExceeded
from towerforms.fields import LAURENT, SampleBudget, sample
from towerforms.linkage import (check_top_d_linked, find_certificate,
                                is_linked_pair, sample_symbol,
                                verify_lifting_equivalence,
                                verify_residue_transfer)
from towerforms.pfister import (QuadraticPfisterSymbol, difference_dimension,
                                expand, expansion_classes, symbol_isotropic,
                                symbols_isometric)
from towerforms.qforms import (_finite_kernel, anisotropic_dimension,
                               class_dimension, isometric, neg, orth_sum)
from towerforms.valuation import ValuationCtx, raw_springer_split

TOWERS = [tower(3, 1, ("t", LAURENT)),
          tower(5, 1, ("t", LAURENT), ("u", LAURENT)),
          tower(3, 1, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT))]
SYMBOLS = 400  # per tower, plus PAIRS pairs: 1000 inputs
PAIRS = 600
CERTIFICATE_PAIRS = 40
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
    3: a 4-fold pair over the depth-3 tower, always linked, would double
    the cost of the reference."""
    d = 2 + i % min(2, len(T.levels))
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
        assert class_dimension(T, expansion_classes(s)) == n, s.describe()
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
    """Over a Laurent tower only the certificate search (see below),
    LinkageCertificate.verify and the pfister-expand command expand a
    symbol; GF(p)(X) decisions still do."""
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
    with pytest.raises(AssertionError, match="expand"):
        is_linked_pair(sample_symbol(gf3x, 2, "a"), sample_symbol(gf3x, 2, "b"))


def _ref_find_certificate(q1, q2):
    """The search on the symbols' own expansions: same candidates, same
    order, same budget."""
    T, d = q1.tower, q1.fold
    classes = linkage.square_class_reps(T)
    reps = linkage._dedupe(list(q1.slots) + list(q2.slots) + classes,
                           drop_zero=True)
    lasts = linkage._dedupe([q1.last, q2.last] +
                            [(s - 1) / 4 for s in classes])
    e1, e2 = expand(q1), expand(q2)
    checks = itertools.count(1)

    def first_slot(target, shared, b):
        for a in reps:
            if next(checks) > linkage.CERTIFICATE_BUDGET:
                raise BudgetExceeded("budget")
            cand = QuadraticPfisterSymbol(T, (a,) + shared, b)
            if isometric(target, expand(cand)):
                return a
        return None

    for b in lasts:
        if (T.one + 4 * b).is_zero():
            continue
        for shared in itertools.product(reps, repeat=d - 2):
            left1 = first_slot(e1, shared, b)
            if left1 is not None and \
                    (left2 := first_slot(e2, shared, b)) is not None:
                return linkage.LinkageCertificate(T, left1, left2, shared, b)
    return linkage.NOT_FOUND


@pytest.mark.parametrize("T", TOWERS[:2], ids=lambda T: T.describe())
def test_certificate_search_expands_class_representatives(T, monkeypatch):
    """find_certificate tests isometry on expansions whose slots and
    1 + 4b are square-class representatives, and finds the certificate
    (or NOT_FOUND, or the budget refusal) of the search on the symbols'
    own expansions."""
    classes = linkage.square_class_reps(T)
    real_expand, expanded = pfister.expand, []

    def recording(symbol):
        expanded.append(symbol)
        return real_expand(symbol)
    found = 0
    for i in range(CERTIFICATE_PAIRS):
        s1, s2 = _pair(T, i)
        try:
            want = _ref_find_certificate(s1, s2)
        except BudgetExceeded:
            want = BudgetExceeded
        monkeypatch.setattr(pfister, "expand", recording)
        try:
            got = find_certificate(s1, s2)
        except BudgetExceeded:
            got = BudgetExceeded
        monkeypatch.setattr(pfister, "expand", real_expand)
        assert got == want, i
        found += isinstance(got, linkage.LinkageCertificate)
    assert expanded and found >= CERTIFICATE_PAIRS // 2
    for symbol in expanded:
        assert all(a in classes for a in symbol.slots), symbol.describe()
        assert symbol.c in classes, symbol.describe()
