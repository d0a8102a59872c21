"""Oracle tests for the kernels of the GF(p)(X) witness search.

The references below are the routines those kernels replaced: the
meet-in-the-middle search over polynomial vectors, on coefficient tuples
with no packing, the square-class representative by division and an exact
square root, the isotropic subsets by qforms.bits_dimension at each place,
and the finite rule on the residues of conftest.RefPlace.  Each new kernel
must give the identical answer, so the witnesses built from them stay
byte-identical.  The class-int rule that picks the hyperbolic pair is
checked against fields.try_sqrt both ways, and the degree-0 cut of the
search against old_mitm_search.
"""

import functools
import importlib.util
import itertools
import math
import operator
import random
from pathlib import Path

import pytest

from conftest import RefPlace, finite_nonsquare, tower
from towerforms import dsl, ffield, pfister, polys, qforms
from towerforms import fields as fl
from towerforms import localglobal as lg
from towerforms.fields import RATFUNC, SampleBudget, sample

# ---------------------------------------------------------------------------
# references


def old_poly_vectors(p, coords, max_deg):
    F = ffield.finite_field(p)
    coeffs = list(itertools.product(range(p), repeat=max_deg + 1))
    single = [polys.trim(F, c) for c in coeffs]
    return itertools.product(single, repeat=coords)


def old_mitm_search(p, F, sq, half, max_deg):
    """Find polynomial y with sum sq[i]*y_i^2 = 0, each deg(y_i) <= max_deg:
    the first nonzero vector in old_poly_vectors order whose left part (the
    first half coordinates) has the negated sum of a right part, that right
    part being the first of its sum in the same order.  Each s*y^2 is one
    polys.pmul, padded with zeros to one length, and a vector's sum adds
    those tuples coefficientwise mod p."""
    length = max(map(len, sq)) + 2 * max_deg
    singles = [y for y, in old_poly_vectors(p, 1, max_deg)]

    def side_sums(side):
        # the padded sum of every vector of one side, in product order
        cols = [[tuple(t) + (0,) * (length - len(t)) for t in
                 (polys.pmul(F, s, polys.pmul(F, y, y)) for y in singles)]
                for s in side]
        inner = [(0,) * length]
        for col in reversed(cols[1:]):
            inner = [tuple([(a + b) % p for a, b in zip(c, o)])
                     for c in col for o in inner]
        for c in cols[0]:
            for o in inner:
                yield tuple([(a + b) % p for a, b in zip(c, o)])

    table = {}
    for right, acc in zip(old_poly_vectors(p, len(sq) - half, max_deg),
                          side_sums(sq[half:])):
        table.setdefault(tuple([-a % p for a in acc]), right)
    for left, acc in zip(old_poly_vectors(p, half, max_deg),
                         side_sums(sq[:half])):
        right = table.get(acc)
        if right is not None:
            vec = left + right
            if any(vec):
                return vec
    return None


def old_square_class_rep(tower, elem):
    """(s, c) with elem = s*c^2: s from the odd part of the factorization,
    c = sqrt(elem / s), rescaling s by a non-square when that fails."""
    p, F, _ = lg._global_base(tower)
    num, den = elem.raw
    support = {}
    for f, sign in ((num, 1), (den, -1)):
        for g, m in lg.factor(p, f)[1].items():
            support[g] = support.get(g, 0) + sign * m
    s = (1,)
    for g in sorted(g for g, m in support.items() if m % 2):
        s = polys.pmul(F, s, g)
    root = fl.try_sqrt(tower, elem / lg._embed_poly(tower, s))
    if root is None:
        nu = finite_nonsquare(fl.FieldTower(p)).raw
        s = polys.pscale(F, s, nu)
        root = fl.try_sqrt(tower, elem / lg._embed_poly(tower, s))
    return s, root


def new_search(p, sq, half, max_deg):
    """The packed search on the columns _subform_witness would build."""
    ys = lg._coordinates(p, max_deg)[0]
    length = max(map(polys.deg, sq)) + 2 * max_deg + 1
    found = lg._mitm_search(
        p, [lg._column(p, s, max_deg, length) for s in sq], half, length)
    return None if found is None else tuple(ys[i] for i in found)


def old_subform_witness(q, candidates):
    """The witness search on an eager candidate list, with the
    square-class representative of every entry of every candidate computed
    first, no degree-0 cut, and old_mitm_search on the polynomials
    themselves: the same candidate, degree and cap order."""
    p, F, _ = lg._global_base(q.tower)
    reps = {i: lg.square_class_rep(q.tower, q.diag[i])
            for i in set().union(*candidates)}
    for D in itertools.count():
        exhausted = True
        for idx in candidates:
            half = (len(idx) + 1) // 2
            if (p ** (D + 1)) ** half > lg.WITNESS_SIDE_CAP:
                continue
            exhausted = False
            found = old_mitm_search(p, F, [reps[i][0] for i in idx], half, D)
            if found is not None:
                out = [q.tower.zero] * q.dim
                for pos, y in zip(idx, found):
                    if y:
                        out[pos] = lg._embed_poly(q.tower, y) / reps[pos][1]
                return tuple(out)
        if exhausted:
            raise lg.BudgetExceeded("witness search budget exhausted")


def old_isotropic_vector(q):
    """isotropic_vector_global with a square root tried on every pair in
    turn and every candidate subset decided before the search starts."""
    n = q.dim
    if not lg.is_isotropic_global(q):
        return None
    for i, j in itertools.combinations(range(n), 2):
        root = fl.try_sqrt(q.tower, -(q.diag[j] / q.diag[i]))
        if root is not None:
            vec = [q.tower.zero] * n
            vec[i], vec[j] = root, q.tower.one
            return tuple(vec)
    candidates = []
    if n >= 4:
        read = lg.localize(q)
        candidates = list(lg._isotropic_subsets(read, 3)) or \
            list(lg._isotropic_subsets(read, 4))
    if n >= 5:
        candidates.append(tuple(range(5)))
    elif not candidates:
        candidates.append(tuple(range(n)))
    return old_subform_witness(q, candidates)


def old_isotropic_subsets(read, k):
    """The k-subsets whose subform has local anisotropic dimension < k at
    every place of read = localize(q), by qforms.bits_dimension."""
    places, minus_one, classes = read
    bits = [lg._bits_at(j, minus_one, classes) for j in range(len(places))]
    for idx in itertools.combinations(range(len(classes)), k):
        if all(qforms.bits_dimension(m, [entries[i] for i in idx]) < k
               for m, entries in bits):
            yield idx


def _ratfunc(p):
    return tower(p, 1, ("X", RATFUNC))


# ---------------------------------------------------------------------------
# meet-in-the-middle search


@pytest.mark.parametrize("p,max_deg,forms", [
    (3, 0, 12), (3, 1, 12), (3, 2, 8), (5, 0, 12), (5, 1, 8), (5, 2, 3)])
def test_mitm_search_matches_old_search(p, max_deg, forms):
    K = _ratfunc(p)
    budget = SampleBudget(max_deg=2)
    found = 0
    for seed in range(forms):
        for k in (3, 4):
            sq = [lg.square_class_rep(K, sample(K, budget, ("mitm", seed, i)))[0]
                  for i in range(k)]
            half = (k + 1) // 2
            expected = old_mitm_search(p, ffield.finite_field(p), sq, half,
                                       max_deg)
            assert new_search(p, sq, half, max_deg) == expected, sq
            found += expected is not None
    assert found >= forms // 2


@pytest.mark.parametrize("p", [3, 5, 7, 31, 101])
def test_mitm_search_keeps_first_solution_of_many(p):
    """<1, 1, 1, 1> and <1, -1, X, -X> have many zeros at degree 1: the
    first one in product order must come back.  The larger primes fill the
    packed slots up to p - 1."""
    F = ffield.finite_field(p)
    for sq in ([(1,)] * 4, [(1,), (p - 1,), (0, 1), (0, p - 1)],
               [(1,), (0, 1), (1, 1)]):
        for half in {(len(sq) + 1) // 2, len(sq) - 1}:
            for max_deg in (0, 1) if p < 10 else (0,):
                assert new_search(p, sq, half, max_deg) == \
                    old_mitm_search(p, F, sq, half, max_deg)


@pytest.mark.parametrize("p", [3, 5, 7, 31, 101, 127, 131])
def test_search_slots_are_whole_bytes_sized_from_p(p):
    """A slot of the packed search holds a sum of two residues, below 2p, in
    whole bytes: one up to p = 127 and two from p = 131 on, where the
    residues of a column, one byte each, are laid out again.  Every column
    int reads back as s*y^2 slot by slot, and the search gives the old
    answers on coefficients up to p - 1."""
    F = ffield.finite_field(p)
    width = 1 if p < 128 else 2
    assert lg._search_slot(p) == width
    assert lg._packing(p, 4)[0] == 8 * width
    s, max_deg = (p - 1, p - 2, 1), 1 if p < 10 else 0
    length = len(s) + 2 * max_deg
    squares = lg._coordinates(p, max_deg)[1]
    mask = (1 << 8 * width) - 1
    for x, y2 in zip(lg._column(p, s, max_deg, length), squares, strict=True):
        want = polys.pmul(F, s, y2)
        assert [x >> (8 * width * i) & mask for i in range(length)] == \
            list(want) + [0] * (length - len(want))
    for sq in ([(p - 1,), (p - 1, p - 1), (1, 1)],
               [(1,), (p - 1,), (0, 1), (0, p - 1)],
               [(p - 1, 1), (p - 2, p - 1), (1, p - 1), (0, 2)]):
        half = (len(sq) + 1) // 2
        assert new_search(p, sq, half, 0) == \
            old_mitm_search(p, F, sq, half, 0), sq


def _is_squarefree(F, s):
    derivative = polys.trim(F, [i * c % F.p for i, c in enumerate(s)][1:])
    return polys.deg(polys.pgcd(F, s, derivative)) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_degree0_cut_keeps_every_zero_and_fires(p):
    """The end-term test of _subform_witness's degree-0 cut, on 300 seeded
    tuples of k = 3 or 4 squarefree polynomials of degree <= 3 per field,
    kept when no proper sub-tuple has a zero at degree 0: no tuple on which
    old_mitm_search finds a zero at degree 0 is rejected.  Every other
    tuple has a zero built in (its last entry is -sum s_i*c_i^2 over the
    others, for nonzero constants c_i); of the drawn tuples, the test
    rejects at least 70%."""
    F = ffield.finite_field(p)
    rng = random.Random(p)

    def draw():
        while True:
            s = polys.trim(F, [rng.randrange(p)
                               for _ in range(rng.randint(1, 4))])
            if s and _is_squarefree(F, s):
                return s

    drawn = built = rejected = 0
    for seed in range(300):
        k = 3 + seed % 4 // 2
        sq = [draw() for _ in range(k)]
        if seed % 2:
            last = ()
            for s in sq[:-1]:
                c = rng.randrange(1, p)
                last = polys.psub(F, last, polys.pscale(F, s, c * c % p))
            if not last or not _is_squarefree(F, last):
                continue
            sq[-1] = last
        if any(old_mitm_search(p, F, [sq[i] for i in sub], (r + 1) // 2, 0)
               for r in range(2, k)
               for sub in itertools.combinations(range(k), r)):
            continue
        zero = old_mitm_search(p, F, sq, (k + 1) // 2, 0) is not None
        passes = lg._end_terms_pass(F, sq)
        assert passes or not zero, sq
        if seed % 2:
            assert zero, sq
            built += 1
        else:
            drawn += 1
            rejected += not passes
    assert built >= 80 and drawn >= 100 and rejected >= 0.7 * drawn, \
        (built, drawn, rejected)


# ---------------------------------------------------------------------------
# square-class representatives and binary subforms


@pytest.mark.parametrize("p", [3, 5, 7])
def test_square_class_rep_matches_division_and_sqrt(p):
    K = _ratfunc(p)
    F = K.chain[0]
    budget = SampleBudget(max_deg=3)
    nonsquare_leads = 0
    for seed in range(170):
        a, b = (sample(K, budget, ("rep", seed, i)) for i in range(2))
        elem = (a, a * b * b, a * b ** 3)[seed % 3]
        s, c = lg.square_class_rep(K, elem)
        s_old, c_old = old_square_class_rep(K, elem)
        assert (s, c.raw) == (s_old, c_old.raw), elem
        nonsquare_leads += not F.is_square(elem.raw[0][-1])
    assert nonsquare_leads >= 20


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hyperbolic_pair_rule_matches_try_sqrt(p):
    """Every pair of 70 forms per field, each extended by <-a c^2, a c^2>
    for its first entry a: the class ints of localize(q) XOR to that of -1
    exactly when -a_j/a_i has a fields.try_sqrt root, and both outcomes
    occur often."""
    K = _ratfunc(p)
    budget = SampleBudget(max_deg=2)
    hyperbolic = other = 0
    for seed in range(70):
        entries = [sample(K, budget, ("pair", seed, i))
                   for i in range(2 + seed % 3)]
        c = sample(K, budget, ("pair", seed, "c"))
        entries += [-entries[0] * c * c, entries[0] * c * c]
        _, minus_one, classes = lg.localize(
            qforms.QuadraticForm(K, tuple(entries)))
        for i, j in itertools.combinations(range(len(entries)), 2):
            root = fl.try_sqrt(K, -(entries[j] / entries[i])) is not None
            assert (classes[i] ^ classes[j] == minus_one) == root, \
                (entries, i, j)
            hyperbolic += root
            other += not root
    assert hyperbolic >= 140 and other >= 400


def test_witness_needs_no_factoring_before_a_hyperbolic_pair(monkeypatch):
    """Binary forms take their witness from the discriminant and one square
    root, and their anisotropic dimension and a 1-fold symbol its isotropy
    from the discriminant, without factoring: over GF(9)(X) and
    GF(5)((t))(X), which have no place machinery, and over GF(10^9 + 7)(X).
    A larger form reads its places first, so over GF(9)(X) it is refused,
    and over GF(5)(X) its hyperbolic pair is the one the class ints pick."""
    def no_factoring(p, f):
        raise AssertionError(f"factored {f} over GF({p})")

    def witness(field, form):
        K = dsl.parse_field(field)
        return [fl.format_element(c) for c in
                lg.isotropic_vector_global(dsl.parse_form(K, form))]

    with monkeypatch.context() as patched:
        patched.setattr(lg, "factor", no_factoring)
        # a record cached by an earlier read would answer without factor
        lg._poly_record.cache_clear()
        for field, form in [("GF(9)(X)", "diag[1, -1]"),
                            ("GF(5)((t))(X)", "diag[X, -X]"),
                            ("GF(1000000007)(X)", "diag[X^2 + 1, -X^2 - 1]")]:
            assert witness(field, form) == ["1", "1"], form
            K = dsl.parse_field(field)
            X = K.gen("X")
            assert qforms.anisotropic_dimension(dsl.parse_form(K, form)) == 0
            assert qforms.anisotropic_dimension(qforms.form(K, 1, X)) == 2
            hyperbolic = pfister.QuadraticPfisterSymbol(K, (), K.zero)
            assert pfister.symbol_isotropic(hyperbolic), field
            anisotropic = pfister.QuadraticPfisterSymbol(K, (), X)
            assert not pfister.symbol_isotropic(anisotropic), field
        K = dsl.parse_field("GF(9)(X)")
        assert qforms.witt_decompose(dsl.parse_form(K, "diag[1, -1]")) \
            .witt_index == 1
    with pytest.raises(lg.ConfigUnsupported, match="prime base field"):
        witness("GF(9)(X)", "diag[X, -X, 1, X + 1, X^2 + 1]")
    assert witness("GF(5)(X)", "diag[X, X^2 + 2, 1 + X, 3*X, 2, 2*X^3]") == \
        ["0", "0", "0", "X", "0", "1"]


# ---------------------------------------------------------------------------
# the finite rule on square-class bits


def _bit_dimension(T, entries):
    det_nonsquare = functools.reduce(
        operator.xor, (not fl.is_square(T, e) for e in entries), False)
    return qforms._finite_kernel_dim(len(entries), det_nonsquare,
                                     not fl.is_square(T, -T.one))


@pytest.mark.parametrize("q", [3, 5])
def test_bit_rule_matches_finite_kernel_exhaustively(q):
    T = tower(q)
    units = [T.element(r) for r in T.ops.elements() if r]
    assert _bit_dimension(T, ()) == 0
    for n in range(1, 5):
        for entries in itertools.product(units, repeat=n):
            assert _bit_dimension(T, entries) == \
                len(qforms._finite_kernel(T, entries)), entries


@pytest.mark.parametrize("p", [3, 5])
def test_bit_rule_matches_finite_kernel_on_samples(p):
    T = tower(p, 2)
    rng = random.Random(p)
    for _ in range(500):
        entries = [T.element(T.ops.nth(rng.randrange(1, T.q)))
                   for _ in range(rng.randint(1, 6))]
        assert _bit_dimension(T, entries) == \
            len(qforms._finite_kernel(T, entries)), entries


@pytest.mark.parametrize("p", [3, 5])
def test_completion_bits_match_residues(p):
    K = _ratfunc(p)
    budget = SampleBudget(max_deg=3)
    for seed in range(20):
        q = qforms.QuadraticForm(K, tuple(
            sample(K, budget, ("bits", seed, i)) for i in range(5)))
        places, minus_one, classes = lg.localize(q)
        assert places == lg.places_of_interest(q)
        for k, P in enumerate(places):
            ref = RefPlace(p, P)
            splits = [ref.split(d) for d in q.diag]
            bits = lg._bits_at(k, minus_one, classes)
            assert bits == (
                not ref.is_square((p - 1,)),
                tuple((v % 2, not ref.is_square(r)) for v, r in splits))
            assert qforms.bits_dimension(*bits) == \
                ref.local_dimension(q.diag)


# ---------------------------------------------------------------------------
# isotropic subsets on class ints


@pytest.mark.parametrize("p", [3, 5, 7])
def test_isotropic_subsets_match_bits_dimension(p):
    """The pair masks against qforms.bits_dimension at every place, on every
    3- and 4-subset of 100 sampled forms of dim 4-8 per field."""
    K = _ratfunc(p)
    budget = SampleBudget(max_deg=2)
    kept = dropped = 0
    for seed in range(100):
        q = qforms.QuadraticForm(K, tuple(
            sample(K, budget, ("subsets", seed, i))
            for i in range(4 + seed % 5)))
        read = lg.localize(q)
        for k in (3, 4):
            want = list(old_isotropic_subsets(read, k))
            assert list(lg._isotropic_subsets(read, k)) == want, (q, k)
            kept += len(want)
            dropped += math.comb(q.dim, k) - len(want)
    assert kept >= 1000 and dropped >= 1000


def test_isotropic_subsets_on_every_bit_pattern_at_one_place():
    """Every (key, non-square) pattern of 3 and 4 entries at one place, with
    -1 a square and a non-square."""
    places = [lg.Place(lg.INFINITY)]
    for k in (3, 4):
        for minus_one in (0, 2):
            for classes in itertools.product(range(4), repeat=k):
                read = (places, minus_one, list(classes))
                assert list(lg._isotropic_subsets(read, k)) == \
                    list(old_isotropic_subsets(read, k)), (minus_one, classes)


# ---------------------------------------------------------------------------
# candidates decided as the search reaches them


def _global_witness_inputs(seeds, ops):
    """The 3-fold symbols of the first ops global-witness benchmark inputs
    of each seed, parsed from their DSL text."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for seed in seeds:
        for op in gen.generate("global-witness", seed, ops):
            K = dsl.parse_field(op["field"])
            yield dsl.parse_pfister(K, op["symbols"][0])


def _outcome(search, q):
    try:
        vec = search(q)
    except lg.BudgetExceeded as exc:
        return ("refused", str(exc))
    return None if vec is None else tuple(c.raw for c in vec)


def test_lazy_candidates_give_the_eager_witness():
    """isotropic_vector_global against the search on eager candidates and
    eager representatives, with no degree-0 cut and old_mitm_search in
    place of the packed kernels, on the 3-fold expansions of the
    global-witness inputs of seeds 1-3 and on sampled forms of dim 4-8 over
    GF(3)(X) and GF(5)(X): the same witness, raw for raw, or the same
    refusal."""
    forms = [pfister.expand(s) for s in _global_witness_inputs((1, 2, 3), 32)]
    budget = SampleBudget(max_deg=2)
    for p in (3, 5):
        K = _ratfunc(p)
        forms += [qforms.QuadraticForm(K, tuple(
            sample(K, budget, ("lazy", seed, i)) for i in range(4 + seed % 5)))
            for seed in range(160)]
    searched = 0
    for q in forms:
        want = _outcome(old_isotropic_vector, q)
        assert _outcome(lg.isotropic_vector_global, q) == want, q
        searched += want is not None
    assert len(forms) >= 400 and searched >= 300
