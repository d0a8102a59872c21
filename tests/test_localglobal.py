"""Places of GF(p)(X), localization, Hilbert symbols, global isotropy."""

import itertools

import pytest

from towerforms import dsl, errors, polys
from towerforms.fields import RATFUNC, SampleBudget, sample
from towerforms.localglobal import (FINITE, INFINITY, Place, _isotropic_subsets,
                                    _split_plane,
                                    hilbert_symbol, is_isotropic_global,
                                    isotropic_vector_global, localize,
                                    place_split,
                                    places_for_elements, places_of_interest,
                                    residue_tower, square_class_rep,
                                    witt_decompose_global)
from towerforms.pfister import QuadraticPfisterSymbol, expand
from towerforms.qforms import form, is_isotropic, isometric, witt_index
from towerforms.valuation import ValuationCtx
from conftest import tower


def _place_names(q):
    out = set()
    for p in places_of_interest(q):
        out.add("infinity" if p.kind == INFINITY else p.describe())
    return out


def test_places_of_interest_examples(gf3x):
    X = gf3x.gen("X")
    assert _place_names(form(gf3x, 1, -X)) == {"X", "infinity"}
    assert _place_names(form(gf3x, 1, -2, -X, 2 * X)) == {"X", "infinity"}
    assert _place_names(form(gf3x, 1, X * X + 1)) == {"X^2 + 1", "infinity"}


def test_localize_examples(gf3x):
    X = gf3x.gen("X")
    at_x = Place(FINITE, (0, 1))

    comp = localize(form(gf3x, X), at_x)
    (v, r), = comp.entries
    assert v == 1 and r == comp.residue_tower.one

    comp = localize(form(gf3x, X + 1), at_x)
    (v, r), = comp.entries
    assert v == 0 and r == comp.residue_tower.one

    comp = localize(form(gf3x, X), Place(INFINITY, None))
    (v, r), = comp.entries
    assert v == -1 and r == comp.residue_tower.one


def test_global_isotropy_examples(gf3x):
    X = gf3x.gen("X")
    assert not is_isotropic_global(form(gf3x, 1, -2, -X, 2 * X))
    assert is_isotropic_global(form(gf3x, 1, 1, 1, 1, 1))
    assert not is_isotropic_global(form(gf3x, 1, -X))
    s = QuadraticPfisterSymbol(gf3x, (X + 1, X), gf3x.one)
    assert is_isotropic_global(expand(s))


def test_global_isotropy_quaternion_norm(gf3x):
    # the norm form of the quaternion algebra (X, X+1): anisotropic
    X = gf3x.gen("X")
    assert not is_isotropic_global(form(gf3x, 1, -X, X + 1, -X * (X + 1)))


def test_hilbert_symbol_examples(gf3t, gf5t):
    t3, t5 = gf3t.gen("t"), gf5t.gen("t")
    assert hilbert_symbol(t3, t3, ValuationCtx(gf3t)) == -1
    assert hilbert_symbol(t5, t5, ValuationCtx(gf5t)) == 1
    u = gf3t.from_int(2)
    assert hilbert_symbol(u, gf3t.from_int(4), ValuationCtx(gf3t)) == 1


def test_hilbert_symbol_bilinearity(gf3t):
    ctx = ValuationCtx(gf3t)
    budget = SampleBudget()
    for seed in range(30):
        a = sample(gf3t, budget, (seed, "a"))
        b1 = sample(gf3t, budget, (seed, "b1"))
        b2 = sample(gf3t, budget, (seed, "b2"))
        assert hilbert_symbol(a, b1 * b2, ctx) == \
            hilbert_symbol(a, b1, ctx) * hilbert_symbol(a, b2, ctx)


def test_hilbert_symbol_matches_springer(gf5t):
    ctx = ValuationCtx(gf5t)
    budget = SampleBudget()
    for seed in range(30):
        a = sample(gf5t, budget, (seed, "a"))
        b = sample(gf5t, budget, (seed, "b"))
        q = form(gf5t, 1, -a, -b, a * b)
        assert (hilbert_symbol(a, b, ctx) == 1) == is_isotropic(q)


def test_hilbert_product_formula(gf3x):
    budget = SampleBudget()
    for seed in range(20):
        a = sample(gf3x, budget, (seed, "a"))
        b = sample(gf3x, budget, (seed, "b"))
        prod = 1
        for place in places_for_elements(gf3x, [a, b]):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1


def test_square_class_rep(gf3x):
    budget = SampleBudget()
    for seed in range(20):
        a = sample(gf3x, budget, seed)
        s, c = square_class_rep(gf3x, a)
        # s comes back as a squarefree integer polynomial; embed to compare
        from towerforms.localglobal import _embed_poly
        assert a == _embed_poly(gf3x, s) * c * c


def test_witness_search_examples(gf3x):
    X = gf3x.gen("X")
    q = form(gf3x, 1, 1, 1, 1, 1)
    vec = isotropic_vector_global(q)
    assert q.evaluate(list(vec)).is_zero()
    assert any(not x.is_zero() for x in vec)

    s = QuadraticPfisterSymbol(gf3x, (X + 1, X), gf3x.one)
    q = expand(s)
    vec = isotropic_vector_global(q)
    assert q.evaluate(list(vec)).is_zero()


def test_witness_agrees_with_global_verdict(gf3x):
    budget = SampleBudget()
    for seed in range(25):
        diag = tuple(sample(gf3x, budget, (seed, i)) for i in range(3))
        q = form(gf3x, *diag)
        if is_isotropic_global(q):
            vec = isotropic_vector_global(q)
            assert q.evaluate(list(vec)).is_zero()
            assert any(not x.is_zero() for x in vec)


def test_witt_decompose_global(gf3x):
    X = gf3x.gen("X")
    q = form(gf3x, 1, -1, X, -X)
    dec = witt_decompose_global(q)
    assert dec.witt_index == 2 and dec.anisotropic_kernel is None

    q = form(gf3x, 1, -X)
    dec = witt_decompose_global(q)
    assert dec.witt_index == 0
    assert isometric(dec.anisotropic_kernel, q)


def test_split_plane_on_the_diagonal(gf3x):
    X = gf3x.gen("X")
    one = gf3x.one
    # the running sum vanishes at the second entry: the rest passes through
    q = form(gf3x, 1, -1, X, -X)
    assert _split_plane(q, (one,) * 4).diag == (X, -X)
    # zero coordinates pass through in place
    z = (one, gf3x.zero, one, gf3x.zero)
    assert _split_plane(form(gf3x, 1, X, -1, X + 1), z).diag == (X, X + 1)
    # 1 + 1 + 1 = 0: one c_j = s_1 * b_2 * s_2 = 2 before the plane
    assert _split_plane(form(gf3x, 1, 1, 1, X), (one, one, one, gf3x.zero)) \
        .diag == (gf3x.from_int(2), X)
    assert _split_plane(form(gf3x, X, -X), (one, one)) is None
    with pytest.raises(errors.TowerFormsError):
        _split_plane(form(gf3x, 1, 1, X), (one, one, one))


@pytest.mark.parametrize("p", [3, 5])
def test_witt_decompose_global_matches_local_data(p):
    """The diagonal split against the Witt index read from local data alone,
    on 200 forms of dim 2-6 with degree-2 slots per field."""
    K = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=2)
    refused = []
    for seed in range(200):
        q = form(K, *(sample(K, budget, ("witt", seed, i))
                      for i in range(2 + seed % 5)))
        try:
            dec = witt_decompose_global(q)
        except errors.BudgetExceeded:
            # the capped witness search refuses some isotropic forms
            refused.append(dsl.format_form(q))
            assert witt_index(q) > 0
            continue
        assert dec.witt_index == witt_index(q)
        assert dec.kernel_dim() + 2 * dec.witt_index == q.dim
        kernel = dec.anisotropic_kernel
        assert kernel is None or not is_isotropic_global(kernel)
        kernel = () if kernel is None else kernel.diag
        assert isometric(q, form(K, *kernel, *(1, -1) * dec.witt_index))
    assert len(refused) <= 1, refused


def test_isometric_global(gf3x):
    X = gf3x.gen("X")
    assert isometric(form(gf3x, 1, -1), form(gf3x, X, -X))
    # q2 = <X, -1> does not represent 1, so it cannot be isometric to <1, -X>
    assert witt_index(form(gf3x, 1, -X)) == 0


def test_non_prime_base_unsupported():
    from towerforms.fields import RATFUNC
    T = tower(3, 2, ("X", RATFUNC))
    with pytest.raises(errors.ConfigUnsupported):
        is_isotropic_global(form(T, 1, -T.gen("X"), 1))


def _ref_place_valuation(place, elem):
    """Multiplicity of the place polynomial: test it divides, then divide."""
    F = elem.tower.chain[0]
    num, den = elem.raw
    if place.kind == INFINITY:
        return polys.deg(den) - polys.deg(num)
    mult = 0
    for f, sign in ((num, 1), (den, -1)):
        while not polys.pmod(F, f, place.poly):
            f = polys.pdivmod(F, f, place.poly)[0]
            mult += sign
    return mult


def _ref_place_residue_unit(place, elem):
    """Residue of elem / pi^v, with the residue tower built afresh."""
    F = elem.tower.chain[0]
    num, den = elem.raw
    rt = residue_tower(elem.tower, place)
    if place.kind == INFINITY:
        return rt.element(num[-1]) / rt.element(den[-1])
    parts = []
    for f in (num, den):
        while not polys.pmod(F, f, place.poly):
            f = polys.pdivmod(F, f, place.poly)[0]
        parts.append(polys.pmod(F, f, place.poly))
    if place.degree == 1:
        parts = [r[0] for r in parts]
    return rt.element(parts[0]) / rt.element(parts[1])


@pytest.mark.parametrize("p", [3, 5])
def test_place_split_matches_reference_loops(p):
    K = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=4)
    elems = [sample(K, budget, seed) for seed in range(40)]
    places = places_for_elements(K, elems)
    assert any(P.degree == 2 for P in places)
    for P in places:
        rt = residue_tower(K, P)
        for a in elems:
            v, r = place_split(P, rt, a)
            assert v == _ref_place_valuation(P, a)
            assert r == _ref_place_residue_unit(P, a)
    with pytest.raises(errors.ZeroArgument):
        place_split(places[0], residue_tower(K, places[0]), K.zero)


@pytest.mark.parametrize("p", [3, 5])
def test_isotropic_subsets_match_global_test(p):
    K = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=2)
    degree_two_slots = 0
    for seed in range(12):
        n = 4 + seed % 3
        q = form(K, *(sample(K, budget, (seed, i)) for i in range(n)))
        degree_two_slots += any(max(map(polys.deg, d.raw)) == 2
                                for d in q.diag)
        comps = [localize(q, P) for P in places_of_interest(q)]
        for k in (3, 4):
            ref = [idx for idx in itertools.combinations(range(n), k)
                   if is_isotropic_global(form(K, *(q.diag[i] for i in idx)))]
            assert _isotropic_subsets(comps, k) == ref
    assert degree_two_slots
