"""Pfister symbols: expansion, rewriting, slot normalization, residues."""

import os
import random
import sys

import pytest

from towerforms import errors
from towerforms.dsl import parse_field, parse_pfister
from towerforms.linkage import sample_symbol
from towerforms.fields import (LAURENT, Element, SampleBudget, is_square,
                               sample, sample_unit, valuation as val)
from towerforms.pfister import (BilinearPfisterSymbol, QuadraticPfisterSymbol,
                                expand, expand_bilinear,
                                good_slot_presentation, normalize_last_slot,
                                pfister_residues, rewrite)
from towerforms.qforms import form, is_isotropic, isometric
from towerforms.valuation import ValuationCtx, springer_decompose
from conftest import packed_operand, tower

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import gen  # noqa: E402


def test_expand_examples(gf3, gf3t):
    # <<0]] is the hyperbolic plane
    q = expand(QuadraticPfisterSymbol(gf3, (), gf3.zero))
    assert is_isotropic(q) and q.dim == 2

    # <<1]] over GF(3): <1, -(1+4)> = <1, 1>, anisotropic
    q = expand(QuadraticPfisterSymbol(gf3, (), gf3.one))
    assert q.diag == (gf3.one, gf3.one)
    assert not is_isotropic(q)

    # <<t, 1]] over GF(3)((t)): <1, -2, -t, 2t>, anisotropic
    t = gf3t.gen("t")
    q = expand(QuadraticPfisterSymbol(gf3t, (t,), gf3t.one))
    assert isometric(q, form(gf3t, 1, -2, -t, 2 * t))
    assert not is_isotropic(q)


def test_degenerate_last_datum_rejected(gf3):
    # 1 + 4b = 0 would make the binary part singular
    b = (gf3.zero - gf3.one) / gf3.from_int(4)
    with pytest.raises(errors.TowerFormsError):
        QuadraticPfisterSymbol(gf3, (), b)


def test_rewrite_examples(gf5t):
    t = gf5t.gen("t")
    s = BilinearPfisterSymbol(gf5t, (gf5t.from_int(2), t))
    out, _ = rewrite(s, ("swap", 1))
    assert out.slots == (t, gf5t.from_int(2))

    s = BilinearPfisterSymbol(gf5t, (t, t))
    out, _ = rewrite(s, ("merge", 1))
    assert out.slots == (2 * t, -(t * t))

    s = BilinearPfisterSymbol(gf5t, (2 * t, -(t * t)))
    out, _ = rewrite(s, ("square_scale", 2, t ** -1))
    assert out.slots == (2 * t, -gf5t.one)


def test_merge_requires_nonzero_sum(gf5t):
    t = gf5t.gen("t")
    s = BilinearPfisterSymbol(gf5t, (t, -t))
    with pytest.raises(errors.RuleNotApplicable):
        rewrite(s, ("merge", 1))


def test_rewrite_soundness_on_samples(gf3t):
    budget = SampleBudget()
    for seed in range(20):
        slots = tuple(sample(gf3t, budget, (seed, i)) for i in range(3))
        s = BilinearPfisterSymbol(gf3t, slots)
        for rule in (("swap", 1), ("swap", 2), ("square_scale", 1, gf3t.gen("t"))):
            out, trace = rewrite(s, rule)
            assert isometric(expand_bilinear(s), expand_bilinear(out))
            assert trace.replay(s).slots == out.slots
        if not (slots[0] + slots[1]).is_zero():
            out, _ = rewrite(s, ("merge", 1))
            assert isometric(expand_bilinear(s), expand_bilinear(out))


def test_normalize_examples(gf5t, gf3t):
    t = gf5t.gen("t")
    ctx = ValuationCtx(gf5t)
    s = BilinearPfisterSymbol(gf5t, (t, t))
    out, trace = normalize_last_slot(s, ctx)
    assert val(gf5t, out.slots[-1]) == (0,)
    assert isometric(expand_bilinear(s), expand_bilinear(out))

    # even valuation in the last slot: just a square rescaling
    t3 = gf3t.gen("t")
    u = gf3t.from_int(2)
    ctx3 = ValuationCtx(gf3t)
    s = BilinearPfisterSymbol(gf3t, (u, t3 ** 2 * u))
    out, _ = normalize_last_slot(s, ctx3)
    assert out.slots == (u, u)

    # already a unit: unchanged, empty trace
    s = BilinearPfisterSymbol(gf3t, (t3, u))
    out, trace = normalize_last_slot(s, ctx3)
    assert out.slots == s.slots and trace.steps == ()

    # <<a, a, -a>>: Merge is inapplicable for every usable slot, so the
    # chosen slot is swapped next to the last one and collapsed there
    s = BilinearPfisterSymbol(gf5t, (3 * t, 3 * t, 2 * t))
    out, trace = normalize_last_slot(s, ctx)
    assert out.slots == (3 * t, 3 * t, gf5t.one)
    assert trace.steps[-1].rule == "collapse"
    assert trace.replay(s).slots == out.slots

    gf3tu = tower(3, 1, ("t", LAURENT), ("u", LAURENT))
    t2, u2 = gf3tu.gen("t"), gf3tu.gen("u")
    ctx2 = ValuationCtx(gf3tu, 2)
    s = BilinearPfisterSymbol(gf3tu, (u2, t2, u2, -u2))
    out, trace = normalize_last_slot(s, ctx2)
    assert ctx2.value_vector(out.slots[-1]) == (0, 0)
    assert trace.replay(s).slots == out.slots
    assert isometric(expand_bilinear(s), expand_bilinear(out))


def test_normalize_precondition_violation(gf3t):
    t = gf3t.gen("t")
    s = BilinearPfisterSymbol(gf3t, (gf3t.from_int(2), t))
    with pytest.raises(errors.PreconditionSpanViolated):
        normalize_last_slot(s, ValuationCtx(gf3t))


def _sample_in_span(T, ctx, fold, seed):
    """A bilinear symbol whose last-slot valuation lies in the span."""
    budget = SampleBudget()
    slots = [sample(T, budget, (seed, "s", i)) for i in range(fold - 1)]
    mix = T.one
    for i, a in enumerate(slots):
        if (seed + i) % 2:
            mix = mix * a
    last = mix * sample_unit(T, budget, (seed, "u")) \
        * sample(T, budget, (seed, "sq")) ** 2
    return BilinearPfisterSymbol(T, tuple(slots) + (last,))


@pytest.mark.parametrize("levels,rank", [((("t", LAURENT),), 1),
                                         ((("t", LAURENT), ("u", LAURENT)), 2)])
def test_normalize_postcondition_on_samples(levels, rank):
    T = tower(3, 1, *levels)
    ctx = ValuationCtx(T, rank)
    for seed in range(25):
        s = _sample_in_span(T, ctx, 2 + seed % 3, seed)
        out, trace = normalize_last_slot(s, ctx)
        assert ctx.value_vector(out.slots[-1]) == (0,) * rank
        assert isometric(expand_bilinear(s), expand_bilinear(out))
        assert trace.replay(s).slots == out.slots


def test_good_slot_examples(gf3t):
    t = gf3t.gen("t")
    ctx = ValuationCtx(gf3t)
    s = QuadraticPfisterSymbol(gf3t, (t,), gf3t.one)
    assert good_slot_presentation(s, ctx) == s

    # b = t^2: 1 + 4t^2 is a square in GF(3)((t)), the form is hyperbolic,
    # so the canonical good presentation is b = 0
    s = QuadraticPfisterSymbol(gf3t, (t,), t ** 2)
    out = good_slot_presentation(s, ctx)
    assert isometric(expand(s), expand(out))
    assert out.last.is_zero() or (
        ctx.value_vector(out.last) == (0,)
        and ctx.value_vector(1 + 4 * out.last) == (0,))

    gf7 = tower(7)
    s = QuadraticPfisterSymbol(gf7, (), gf7.from_int(3))
    assert good_slot_presentation(s, ValuationCtx(gf7, 0)) == s


def test_good_slot_nontrivial_b_valuation(gf3t):
    t = gf3t.gen("t")
    ctx = ValuationCtx(gf3t)
    s = QuadraticPfisterSymbol(gf3t, (t,), t)
    out = good_slot_presentation(s, ctx)
    assert isometric(expand(s), expand(out))
    if not out.last.is_zero():
        assert ctx.value_vector(out.last) == (0,)


def test_pfister_residue_examples(gf3t, gf3tu):
    t = gf3t.gen("t")
    ctx = ValuationCtx(gf3t)
    rep = pfister_residues(QuadraticPfisterSymbol(gf3t, (t,), gf3t.one), ctx)
    assert rep.m == 1
    assert rep.first_residue.slots == ()
    assert rep.first_residue.last == gf3t.drop_outer().one
    assert not is_isotropic(expand(rep.first_residue))

    ctx2 = ValuationCtx(gf3tu, 2)
    u, t2 = gf3tu.gen("u"), gf3tu.gen("t")
    rep = pfister_residues(QuadraticPfisterSymbol(gf3tu, (u, t2), gf3tu.one),
                           ctx2)
    assert rep.m == 2
    assert rep.first_residue.last == gf3tu.drop_outer(2).one


def test_pfister_residue_unit_slots(gf3tu):
    # <<u, a; b]] with a, b units for the u-adic valuation:
    # first residue <<a-bar; b-bar]] over GF(3)((t)), m = 1
    u, t = gf3tu.gen("u"), gf3tu.gen("t")
    ctx = ValuationCtx(gf3tu, 1)
    rep = pfister_residues(QuadraticPfisterSymbol(gf3tu, (u, t), gf3tu.one),
                           ctx)
    assert rep.m == 1
    gf3t = gf3tu.drop_outer()
    assert rep.first_residue.slots == (gf3t.gen("t"),)
    assert rep.first_residue.last == gf3t.one
    assert not is_isotropic(expand(rep.first_residue))


def test_pfister_residue_isotropic_input(gf3t):
    t = gf3t.gen("t")
    s = QuadraticPfisterSymbol(gf3t, (t,), gf3t.zero)
    with pytest.raises(errors.IsotropicInput):
        pfister_residues(s, ValuationCtx(gf3t))


def test_residue_report_matches_springer(gf3t):
    # the first residue expansion must match the Springer part at pi = 1
    budget = SampleBudget()
    ctx = ValuationCtx(gf3t)
    checked = 0
    seed = 0
    while checked < 15:
        seed += 1
        slots = (sample(gf3t, budget, (seed, "a")),)
        b = sample_unit(gf3t, budget, (seed, "b"))
        if (1 + 4 * b).is_zero():
            continue
        s = QuadraticPfisterSymbol(gf3t, slots, b)
        q = expand(s)
        if is_isotropic(q):
            continue
        try:
            rep = pfister_residues(s, ctx)
        except errors.ConfigUnsupported:
            # v(1+4b) outside the slot-valuation span: no good presentation
            continue
        part = springer_decompose(q, ctx).part((0,) * ctx.rank)
        r = rep.residue_at(gf3t.one)
        assert r is not None
        mult, first = r
        from towerforms.qforms import scale
        assert isometric(part, scale(expand(first), mult))
        checked += 1


def _expand_by_products(symbol):
    """expand as it once ran: every new entry is -a * d, the product with
    the leading 1 included, so each slot is negated once per entry."""
    diag = [symbol.tower.one, -symbol.c]
    for a in symbol.slots:
        diag.extend([-a * d for d in diag])
    return diag


def _expand_bilinear_by_products(symbol):
    diag = [symbol.tower.one]
    for a in symbol.slots:
        diag.extend([-a * d for d in diag])
    return diag


def _generated_symbols():
    """Every quadratic symbol the benchmark generator emits in the first
    40 ops of each workload, seeds 1-3."""
    out = []
    for workload in gen.WORKLOADS:
        for seed in (1, 2, 3):
            for op in gen.generate(workload, seed, 40):
                if "symbols" in op:
                    field, texts = op["field"], op["symbols"]
                else:
                    argv = op["argv"]
                    field = argv[argv.index("--field") + 1]
                    texts = [argv[i + 1] for i, a in enumerate(argv)
                             if a in ("--p1", "--p2")]
                tower = parse_field(field)
                out += [parse_pfister(tower, s) for s in texts]
    return out


def test_expand_matches_products_oracle():
    """expand and expand_bilinear give the entries, in order, of the
    expansion that multiplies every entry out: on the generator's symbols
    (GF(3)((t))((u)), GF(5)((t)), GF(3)((t)), GF(p)(X)) and on sampled
    symbols over GF(9)((t)) and GF(p)(X)."""
    symbols = _generated_symbols()
    assert {s.tower.describe() for s in symbols} >= {
        "GF(3)((t))((u))", "GF(3)(X)", "GF(5)(X)"}
    for field in ("GF(9)((t))", "GF(3)(X)", "GF(7)(X)"):
        T = parse_field(field)
        symbols += [sample_symbol(T, 1 + i % 4, ("expand", i))
                    for i in range(40)]
    for s in symbols:
        assert expand(s).diag == tuple(_expand_by_products(s)), s.describe()
        if s.slots:
            bil = BilinearPfisterSymbol(s.tower, s.slots)
            assert expand_bilinear(bil).diag == \
                tuple(_expand_bilinear_by_products(bil)), s.describe()


def _times_slots_pairwise(diag, slots):
    """expand's loop before the packed subset products, the reference: each
    slot is negated once, and each new entry is one product, on raws, of -a
    and an earlier entry."""
    for a in slots:
        na = -a
        tower, mul = na.tower, na.tower.ops.mul
        diag += [na] + [Element(tower, mul(na.raw, d.raw)) for d in diag[1:]]
    return diag


def _assert_matches_pairwise(s):
    """expand of the quadratic symbol s, and expand_bilinear of its slots,
    give the raws of the pairwise loop, entry by entry."""
    want = _times_slots_pairwise([s.tower.one, -s.c], s.slots)
    assert [x.raw for x in expand(s).diag] == [x.raw for x in want], \
        s.describe()
    if s.slots:
        bil = BilinearPfisterSymbol(s.tower, s.slots)
        want = _times_slots_pairwise([s.tower.one], s.slots)
        assert [x.raw for x in expand_bilinear(bil).diag] == \
            [x.raw for x in want], s.describe()


def _subset_product_calls(monkeypatch, K):
    """A list that records, for each call of K's subset products, whether
    it returned the products (True) or left them to the pairwise loop."""
    f, took = K.ops, []
    subset_products = f.subset_products

    def recorded(gens):
        raws = subset_products(gens)
        took.append(raws is not None)
        return raws

    monkeypatch.setattr(f, "subset_products", recorded)
    return took


def _packed_element(rng, K, kind):
    """A nonzero element of K from conftest.packed_operand, some of them
    moved by a high power of t."""
    while True:
        x = Element(K, packed_operand(rng, K.ops, kind))
        if not x.is_zero():
            return x * K.gen("t") ** rng.choice([0] * 8 + [-9, 11])


def _packed_symbol(rng, K, fold, kinds):
    """A quadratic symbol of the fold whose slots and last slot are
    _packed_element draws of the given kinds."""
    while True:
        slots = tuple(_packed_element(rng, K, rng.choice(kinds))
                      for _ in range(fold - 1))
        last = _packed_element(rng, K, rng.choice(kinds))
        if not (K.one + 4 * last).is_zero():
            return QuadraticPfisterSymbol(K, slots, last)


# symbols per base field, folds 1-5 in turn
TREE_SYMBOLS = 60


@pytest.mark.parametrize("p", [3, 5, 7, 17])
def test_expand_subset_products_match_pairwise_loop(p, monkeypatch):
    """Over GF(p)((t))((u)) the subset products of one packed layout give
    the raws of the pairwise loop: rows over high powers of t (up to t^12
    after the shift by t^-9), zero rows, dens u^i, folds 1 to 5, and over
    GF(17) slots wider than a byte.  Most symbols take the layout; the
    others pack sparse."""
    K = tower(p, 1, ("t", LAURENT), ("u", LAURENT))
    took = _subset_product_calls(monkeypatch, K)
    rng = random.Random(p)
    for i in range(TREE_SYMBOLS):
        _assert_matches_pairwise(_packed_symbol(rng, K, 1 + i % 5, ["t"]))
    assert len(took) == 2 * TREE_SYMBOLS - TREE_SYMBOLS // 5
    assert sum(took) >= len(took) // 2, took


def _monomial_dens(raw):
    """Whether the den of a two-level raw and those of its coefficients
    are all powers of the level's generator."""
    num, den = raw
    return all(not any(d[:-1]) for _, d in num) and \
        all(c == ((), (1,)) for c in den[:-1])


def test_expand_falls_back_to_pairwise_products(monkeypatch):
    """A slot with a den that is no power of t or of u, and Frobenius
    images whose layout is too large to pack, leave the products to the
    pairwise loop, with the same raws.  Folds 2 to 4: over such dens
    a 5-fold expansion runs Euclid on every entry."""
    K = tower(3, 1, ("t", LAURENT), ("u", LAURENT))
    took = _subset_product_calls(monkeypatch, K)
    rng = random.Random("fallback")
    fallbacks = 0
    for i in range(TREE_SYMBOLS):
        s = _packed_symbol(rng, K, 2 + i % 3, ["t", "inner", "outer"])
        took.clear()
        _assert_matches_pairwise(s)
        monomial = [_monomial_dens((-x).raw) for x in (s.c,) + s.slots]
        if not all(monomial):
            fallbacks += 1
            assert not took[0], s.describe()
        if not all(monomial[1:]):
            assert not took[1], s.describe()
    assert fallbacks >= TREE_SYMBOLS // 2, fallbacks
    took.clear()
    _assert_matches_pairwise(parse_pfister(
        K, "<<(1+t+u)^2187, (1+t+u)^729, t + u^3; 1 + u^2187]]"))
    assert took == [False, False]


@pytest.mark.parametrize("field", ["GF(9)((t))((u))", "GF(3)((t))(X)"])
def test_expand_over_other_levels_matches_pairwise_loop(field, monkeypatch):
    """GF(9)((t))((u)) has no packed level, so its expansions multiply
    pair by pair; GF(3)((t))(X) has the subset products at X, and its
    sampled slots, whose dens are mostly no power of X, take either route.
    Folds 1 to 4: a 5-fold expansion over GF(3)((t))(X) runs Euclid on
    every entry and takes seconds."""
    K = parse_field(field)
    took = []
    if K.base_degree > 1:
        assert not hasattr(K.ops, "subset_products")
    else:
        took = _subset_product_calls(monkeypatch, K)
    for i in range(TREE_SYMBOLS // 2):
        _assert_matches_pairwise(sample_symbol(K, 1 + i % 4, ("tree", i)))
    assert K.base_degree > 1 or 0 < sum(took) < len(took)


def test_expand_packs_rows_over_their_lowest_power_of_t(monkeypatch):
    """Slots whose rows all vanish at t, such as t^11 (1 + u), are packed
    from their lowest power of t, not from t^0: the layout stays dense and
    takes the products, with the raws of the pairwise loop."""
    K = tower(3, 1, ("t", LAURENT), ("u", LAURENT))
    took = _subset_product_calls(monkeypatch, K)
    _assert_matches_pairwise(parse_pfister(
        K, "<<t^11*(1+u), t^9*(2+u), 1+t; u]]"))
    assert took == [True, True]


def test_expand_packs_a_sparse_layout_that_fits(monkeypatch):
    """A symbol whose few nonzero ints the product density rule of
    polys.pmul would call sparse still takes the one layout, which has 20
    slots, with the raws of the pairwise loop."""
    K = tower(3, 1, ("t", LAURENT), ("u", LAURENT))
    took = _subset_product_calls(monkeypatch, K)
    _assert_matches_pairwise(parse_pfister(
        K, "<<(2)*t^1, (((1)*t^-1) + ((2)*t^1)*u)*u^1, ((2)*t^1)*u^1; "
        "((1)*t^1)*u^1]]"))
    assert took == [True, True]


@pytest.mark.parametrize("p, rows, length", [
    (3, 7, 9), (3, 8, 8),         # 4 * 63 = 252 and 4 * 64 = 256
    (17, 15, 17), (17, 16, 16),   # 256 * 255 = 65280 and 256 * 256
])
def test_expand_subset_products_slot_width_at_byte_boundaries(
        p, rows, length, monkeypatch):
    """Slots whose negation has rows by length ints p - 1, so that the
    middle slot of the product of two is (p-1)^2 rows length, the bound
    the slot width is taken from; the third slot multiplies a reduced
    product again."""
    K = tower(p, 1, ("t", LAURENT), ("u", LAURENT))
    f = K.ops
    took = _subset_product_calls(monkeypatch, K)
    row = f.inner.make((1,) * length, (1,))
    a = Element(K, f.make((row,) * rows, (f.inner.one,)))
    b = Element(K, f.make((row,) * rows, (f.inner.zero, f.inner.one)))
    _assert_matches_pairwise(QuadraticPfisterSymbol(K, (a, b, a), b))
    assert took == [True, True]
