"""Places of GF(p)(X), localization, Hilbert symbols, global isotropy."""

import itertools
import random
from functools import partial

import pytest

from towerforms import dsl, errors, localglobal, polys, qforms
from towerforms.fields import RATFUNC, SampleBudget, sample
from towerforms.linkage import verify_higher_local_d1
from towerforms.localglobal import (FINITE, INFINITY, Place,
                                    _global_base, _isotropic_subsets,
                                    _legendre_nonsquare, _poly_record,
                                    _split_plane,
                                    hilbert_symbol, is_isotropic_global,
                                    isotropic_vector_global, localize,
                                    place_class, place_layout,
                                    places_of_interest,
                                    square_class_rep,
                                    witt_decompose_global)
from towerforms.pfister import QuadraticPfisterSymbol, expand
from towerforms.qforms import (QuadraticForm, form, is_isotropic,
                               is_isotropic_vector, isometric, witt_index)
from towerforms.valuation import ValuationCtx
from conftest import RefPlace, tower, trial_factor


def _split(p, F, place, raw, factors):
    """(v, nonsquare) of the nonzero raw = (num, den), den monic, at place,
    one place at a time: the oracle for localglobal.place_class.

    At infinity v = deg den - deg num, and the residue is lc(num).  At P of
    degree m, v is the multiplicity of P in num minus that in den, read off
    factors = (num_fac, den_fac), the factor dicts of their records.  The
    residue is lc times the other irreducible factors g^(+-e) mod P, so its
    bit is the XOR of theirs: an even power adds nothing, an odd one the
    Legendre symbol of g mod P, and lc its bit in GF(p) iff m is odd.
    """
    num, den = raw
    nonsquare = place.degree % 2 == 1 and not F.is_square(num[-1])
    if place.kind == INFINITY:
        return polys.deg(den) - polys.deg(num), nonsquare
    num_fac, den_fac = factors
    for g, e in itertools.chain(num_fac.items(), den_fac.items()):
        if e % 2 and g != place.poly:
            nonsquare ^= _legendre_nonsquare(p, g, place.poly)
    return num_fac.get(place.poly, 0) - den_fac.get(place.poly, 0), nonsquare


def _factor_dicts(p, a):
    """(num_fac, den_fac) of a nonzero element, from its records."""
    return tuple(_poly_record(p, f).factors for f in a.raw)


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
    q = form(gf3x, X, X + 1)
    # (valuation, unit residue) of X and of X + 1 at each place of interest;
    # 2 = -1 is the non-square of GF(3)
    splits = {Place(FINITE, (0, 1)): ((1, (1,)), (0, (1,))),
              Place(FINITE, (1, 1)): ((0, (2,)), (1, (1,))),
              Place(INFINITY, None): ((-1, (1,)), (-1, (1,)))}
    places, minus_one, classes = localize(q)
    assert places == list(splits)
    # two bits per place, the valuation mod 2 below the non-square bit
    assert (minus_one, classes) == (0b101010, [0b011001, 0b010100])
    for k, place in enumerate(places):
        for elem, split in zip(q.diag, splits[place]):
            assert RefPlace(3, place).split(elem) == split
        key, ns = place_layout(places)[k]
        assert (bool(minus_one & ns),
                tuple((bool(c & key), bool(c & ns)) for c in classes)) == (
            True, tuple((v % 2 == 1, r == (2,)) for v, r in splits[place]))


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


def test_hilbert_symbol_matches_springer(gf3t, gf5t):
    """(a, b)_v = 1 iff <1, -a, -b, ab> has class_dimension 0 at v: over
    GF(3)((t)) and GF(5)((t)) on LAURENT_LAYOUT, where it is also
    is_isotropic, and over GF(3)(X) and GF(5)(X) at every place of
    interest of the pair, on that place's own pair of place_layout."""
    budget = SampleBudget()
    for T in (gf3t, gf5t):
        ctx = ValuationCtx(T)
        dimension = partial(qforms.class_dimension, qforms.LAURENT_LAYOUT,
                            qforms.minus_one_class(T))
        for seed in range(30):
            a = sample(T, budget, (seed, "a"))
            b = sample(T, budget, (seed, "b"))
            q = form(T, 1, -a, -b, a * b)
            hyperbolic = not dimension(
                [qforms.square_class(T, d) for d in q.diag])
            assert (hilbert_symbol(a, b, ctx) == 1) == hyperbolic == \
                is_isotropic(q)
    checked = 0
    for p in (3, 5):
        K = tower(p, 1, ("X", RATFUNC))
        for seed in range(40):
            a = sample(K, budget, (seed, "a"))
            b = sample(K, budget, (seed, "b"))
            places = places_of_interest(QuadraticForm(K, (a, b)))
            classes = [place_class(places, d)
                       for d in (K.one, -a, -b, a * b)]
            minus_one = place_class(places, -K.one)
            for place, pair in zip(places, place_layout(places)):
                hyperbolic = not qforms.class_dimension(
                    (pair,), minus_one, classes)
                assert (hilbert_symbol(a, b, place) == 1) == hyperbolic
                checked += 1
    assert checked >= 200


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hilbert_product_formula(p):
    """The symbols over all places multiply to 1, and each place symbol is
    the reference one, read off the residues by brute-force squares; over
    GF(5)(X) and GF(7)(X) on 100 pairs with places of degree up to 4."""
    K = tower(p, 1, ("X", RATFUNC))
    budget, pairs = (SampleBudget(), 20) if p == 3 else \
        (SampleBudget(max_deg=4), 100)
    max_degree = 0
    for seed in range(pairs):
        a = sample(K, budget, (seed, "a"))
        b = sample(K, budget, (seed, "b"))
        prod = 1
        for place in places_of_interest(QuadraticForm(K, (a, b))):
            symbol = hilbert_symbol(a, b, place)
            assert symbol == RefPlace(p, place).hilbert_symbol(a, b)
            prod *= symbol
            max_degree = max(max_degree, place.degree)
        assert prod == 1
    assert max_degree >= 2


def test_hilbert_symbol_refuses_mixed_towers(gf3t, gf5t):
    gf5x = tower(5, 1, ("X", RATFUNC))
    cases = [(gf3t.gen("t"), gf5t.gen("t"), ValuationCtx(gf3t)),
             (gf3t.gen("t"), gf3t.gen("t"), ValuationCtx(gf5t)),
             (tower(3, 1, ("X", RATFUNC)).gen("X"), gf5x.gen("X"),
              Place(FINITE, (0, 1)))]
    for a, b, v in cases:
        with pytest.raises(errors.TowerMismatch):
            hilbert_symbol(a, b, v)


@pytest.mark.parametrize("poly", [
    (1, 1, 1),  # (X - 1)^2 over GF(3)
    (0, 5),  # a coefficient outside [0, 3)
    (0, 2),  # not monic
    (1,),  # a unit
    (0, 1, 0),  # a trailing zero
    (),
])
def test_hilbert_symbol_refuses_non_places(gf3x, poly):
    X = gf3x.gen("X")
    with pytest.raises(errors.TowerFormsError):
        hilbert_symbol(X, X + 1, Place(FINITE, poly))


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


def test_witness_checks_refuse_zero_and_misshapen_vectors(gf3x, monkeypatch):
    """evaluate refuses a vector of the wrong length, is_isotropic_vector
    the zero vector, and the higher-local harness reports a zero witness as
    witness-invalid."""
    X = gf3x.gen("X")
    q = form(gf3x, 1, 1, X)
    for n in (2, 4):
        with pytest.raises(errors.TowerFormsError):
            q.evaluate([gf3x.one] * n)
    zero = (gf3x.zero,) * 3
    assert q.evaluate(zero).is_zero() and not is_isotropic_vector(q, zero)
    assert not is_isotropic_vector(q, (gf3x.one, gf3x.one, gf3x.zero))
    assert is_isotropic_vector(form(gf3x, 1, 1, 1), (gf3x.one,) * 3)
    monkeypatch.setattr(localglobal, "isotropic_vector_global",
                        lambda q: (q.tower.zero,) * q.dim)
    report = verify_higher_local_d1(3, samples=4)
    assert [f["kind"] for f in report.failures] == ["witness-invalid"] * 4


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


@pytest.mark.parametrize("p", [3, 5, 7])
def test_place_split_matches_reference_loops(p):
    """The valuation and non-square bit from the factorization against the
    division loop and the listed squares of the residue field, on at least
    1000 (element, place) pairs per field with places of degree 1-4."""
    K = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=4)
    elems = [sample(K, budget, seed) for seed in range(60)]
    places = places_of_interest(QuadraticForm(K, tuple(elems)))
    assert {P.degree for P in places} == {1, 2, 3, 4}
    assert len(places) * len(elems) >= 1000
    _, F, _ = _global_base(K)
    factored = [_factor_dicts(p, a) for a in elems]
    for P in places:
        ref = RefPlace(p, P)
        for a, factors in zip(elems, factored):
            v, r = ref.split(a)
            assert _split(p, F, P, a.raw, factors) == \
                (v, not ref.is_square(r)), (P, a)
    with pytest.raises(errors.ZeroArgument):
        hilbert_symbol(K.zero, elems[0], places[0])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_place_class_matches_split_and_reference(p):
    """place_class, the XOR of one mask per odd factor, against the place by
    place _split and RefPlace, on 1000 (element, place list) pairs per
    field: place lists drawn from the places of 60 elements, in any order,
    most of them holding places that divide no factor of the element, and
    with one masks dict shared by every element of a list."""
    K = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=4)
    elems = [sample(K, budget, ("class", seed)) for seed in range(60)]
    elems[0] = -K.one
    pool = places_of_interest(QuadraticForm(K, tuple(elems)))
    _, F, _ = _global_base(K)
    refs = {P: RefPlace(p, P) for P in pool}
    rng = random.Random(p)
    pairs = 0
    while pairs < 1000:
        places = rng.sample(pool, rng.randint(1, 6))
        masks = {}
        for a in rng.sample(elems, 20):
            factors = _factor_dicts(p, a)
            want = 0
            for k, P in enumerate(places):
                v, nonsquare = _split(p, F, P, a.raw, factors)
                v_ref, r = refs[P].split(a)
                assert (v, nonsquare) == (v_ref, not refs[P].is_square(r))
                want |= ((v & 1) | (nonsquare << 1)) << (2 * k)
            assert place_class(places, a) == want, (places, a)
            assert place_class(places, a, masks) == want
            pairs += 1


def _product(F, factors):
    out = (1,)
    for g in factors:
        out = polys.pmul(F, out, g)
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_poly_records_match_trial_division(p):
    """Each _poly_record against trial division: the leading unit, the
    factor dict in order, the odd factors sorted, their monic product, and
    the square part, f / (lc * monic) being the square of the product of
    the g^(m // 2); then place_class against RefPlace with the record cache
    cold and again warm.  Entries a, a*b^2 and a*b^3 give multiplicities
    above one."""
    K = tower(p, 1, ("X", RATFUNC))
    F = K.chain[0]
    budget = SampleBudget(max_deg=2)
    elems = []
    for seed in range(40):
        a, b = (sample(K, budget, ("record", seed, i)) for i in range(2))
        elems.append((a, a * b * b, a * b ** 3)[seed % 3])
    repeated, distinct = 0, {f for a in elems for f in a.raw}
    for f in distinct:
        lc, factors, odd, monic = _poly_record(p, f)
        want = trial_factor(p, polys.pmonic(F, f))
        assert (lc, list(factors.items())) == (f[-1], list(want.items())), f
        assert odd == tuple(sorted(g for g, m in want.items() if m % 2))
        assert monic == _product(F, odd)
        root = _product(F, [g for g, m in want.items() for _ in range(m // 2)])
        assert polys.pscale(F, polys.pmul(F, monic, polys.pmul(F, root, root)),
                            lc) == f
        repeated += max(want.values(), default=1) > 1
    assert repeated >= 15
    places = places_of_interest(QuadraticForm(K, tuple(elems)))
    want = [0] * len(elems)
    for k, P in enumerate(places):
        ref = RefPlace(p, P)
        for i, a in enumerate(elems):
            v, r = ref.split(a)
            want[i] |= ((v & 1) | (not ref.is_square(r)) << 1) << (2 * k)
    _poly_record.cache_clear()
    for _ in ("cold", "warm"):
        assert [place_class(places, a) for a in elems] == want
        assert _poly_record.cache_info().misses == len(distinct)


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
        read = localize(q)
        for k in (3, 4):
            ref = [idx for idx in itertools.combinations(range(n), k)
                   if is_isotropic_global(form(K, *(q.diag[i] for i in idx)))]
            assert list(_isotropic_subsets(read, k)) == ref
    assert degree_two_slots
