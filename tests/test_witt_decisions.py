"""Differential test for the one Witt decision.

The package reads isotropy, Witt index, hyperbolicity and isometry off
``qforms.anisotropic_dimension``.  The reference below keeps the routes it
replaced: the finite-field kernel written out per dimension, the rank-1
level recursion on Laurent towers, the old Hasse-Minkowski isotropy test
over GF(p)(X) (dim-2 square test, every place checked) with the Witt index
from the discriminant floor and the local data of conftest.RefPlace
(residues by division, listed squares), and isometry through square-class
monomials plus a Witt decomposition.
"""

import random

import pytest

from conftest import RefPlace, tower
from towerforms import fields as fl
from towerforms.fields import LAURENT, RATFUNC, SampleBudget, sample
from towerforms.localglobal import places_of_interest
from towerforms.qforms import (QuadraticForm, anisotropic_dimension,
                               is_hyperbolic, is_isotropic, isometric,
                               reduce_square_classes, witt_decompose,
                               witt_index)
from towerforms.valuation import ValuationCtx, raw_springer_split

LOCAL = [tower(3), tower(3, 2), tower(3, 1, ("t", LAURENT)),
         tower(5, 1, ("t", LAURENT)),
         tower(3, 1, ("t", LAURENT), ("u", LAURENT))]
GLOBAL = [tower(3, 1, ("X", RATFUNC)), tower(5, 1, ("X", RATFUNC))]
FORMS_PER_TOWER = 90  # 7 towers: 630 forms
FLOOR_FORMS_PER_FIELD = 360  # GF(3)(X), GF(5)(X), GF(7)(X): 1080 forms
GLOBAL_BUDGET = SampleBudget(max_deg=2)


# ---------------------------------------------------------------------------
# reference


def ref_finite_kernel_dim(T, entries):
    """Witt's classification over GF(q), q odd, one dimension class at a
    time: odd forms leave a line, even ones a plane unless the
    discriminant (-1)^(n/2) det is a square."""
    n = len(entries)
    if n % 2:
        return 1
    det = T.one
    for e in entries:
        det = det * e
    disc = det if (n // 2) % 2 == 0 else -det
    return 0 if fl.is_square(T, disc) else 2


def ref_local_dim(q):
    """Anisotropic dimension by the rank-1 level recursion."""
    if not q.tower.levels:
        return ref_finite_kernel_dim(q.tower, q.diag)
    ctx = ValuationCtx(q.tower, 1)
    return sum(ref_local_dim(QuadraticForm(ctx.residue_tower,
                                           tuple(r for _, r in part)))
               for part in raw_springer_split(q, ctx).values())


def ref_completion_dim(q, P):
    return RefPlace(q.tower.base_char, P).local_dimension(q.diag)


def ref_global_isotropic(q):
    if q.dim >= 5:
        return True
    if q.dim == 1:
        return False
    if q.dim == 2:
        return fl.is_square(q.tower, -(q.diag[0] * q.diag[1]))
    return all(ref_completion_dim(q, P) < q.dim
               for P in places_of_interest(q))


def ref_global_dim(q):
    best = ref_finite_kernel_dim(q.tower, q.diag)
    for P in places_of_interest(q):
        best = max(best, ref_completion_dim(q, P))
    return best


def is_global(T):
    return bool(T.levels) and T.levels[-1].kind == RATFUNC


def ref_dim(q):
    return ref_global_dim(q) if is_global(q.tower) else ref_local_dim(q)


def ref_isotropic(q):
    if is_global(q.tower):
        return ref_global_isotropic(q)
    return ref_local_dim(q) < q.dim


def ref_isometric(q1, q2):
    """Same dimension, and q1 - q2 hyperbolic: over local towers through
    square-class monomials and a Witt decomposition; over GF(p)(X) from the
    local data (the witness search would split up to six planes)."""
    if q1.dim != q2.dim:
        return False
    diff = QuadraticForm(q1.tower, reduce_square_classes(q1).diag +
                         tuple(-d for d in reduce_square_classes(q2).diag))
    if is_global(q1.tower):
        return ref_global_dim(diff) == 0
    return witt_decompose(diff).witt_index == q1.dim


# ---------------------------------------------------------------------------
# samples


def _budget(T):
    return GLOBAL_BUDGET if is_global(T) else SampleBudget()


def _form(T, seed):
    dim = 1 + seed % 6
    return QuadraticForm(T, tuple(sample(T, _budget(T), ("decide", seed, i))
                                  for i in range(dim)))


def _isometric_copy(q, seed):
    """Permute, scale each entry by a nonzero square, and swap <1, -1> for
    <x, -x>: a form isometric to q + <1, -1>, returned with q + <1, -1>."""
    T = q.tower
    x = sample(T, _budget(T), ("hyp", seed))
    base = q.diag + (T.one, -T.one)
    swapped = q.diag + (x, -x)
    squares = [sample(T, _budget(T), ("sq", seed, i))
               for i in range(q.dim + 2)]
    scaled = [a * c * c for a, c in zip(swapped, squares)]
    random.Random(seed).shuffle(scaled)
    return QuadraticForm(T, base), QuadraticForm(T, tuple(scaled))


def _pair(q, seed):
    """Every third pair is isometric by construction; the others pair q
    with q after one entry is changed, or with an independent form."""
    T = q.tower
    if seed % 3 == 0:
        return _isometric_copy(q, seed)
    if seed % 3 == 1:
        c = sample(T, _budget(T), ("change", seed))
        return q, QuadraticForm(T, (q.diag[0] * c,) + q.diag[1:])
    return q, _form(T, seed + 6 * 1000)


# ---------------------------------------------------------------------------
# the test


@pytest.mark.parametrize("T", LOCAL + GLOBAL, ids=lambda T: T.describe())
def test_one_decision_matches_old_routes(T):
    for seed in range(FORMS_PER_TOWER):
        q = _form(T, seed)
        n = ref_dim(q)
        assert is_isotropic(q) == ref_isotropic(q), q
        assert witt_index(q) == (q.dim - n) // 2, q
        assert is_hyperbolic(q) == (n == 0), q
        assert witt_decompose(q).kernel_dim() == n, q


@pytest.mark.parametrize("T", LOCAL + GLOBAL, ids=lambda T: T.describe())
def test_isometric_matches_old_route(T):
    same = 0
    for seed in range(FORMS_PER_TOWER):
        q1, q2 = _pair(_form(T, seed), seed)
        expected = ref_isometric(q1, q2)
        assert isometric(q1, q2) == expected, (q1, q2)
        same += expected
    assert same >= FORMS_PER_TOWER // 3


@pytest.mark.parametrize("p", [3, 5, 7])
def test_global_dimension_needs_no_floor_above_dim_two(p):
    """From dim 3 on, the maximum over the places of interest reaches the
    parity/discriminant floor, so dropping the floor changes no answer."""
    T = tower(p, 1, ("X", RATFUNC))
    floor_two = 0
    for seed in range(FLOOR_FORMS_PER_FIELD):
        dim = 3 + seed % 4
        q = QuadraticForm(T, tuple(sample(T, GLOBAL_BUDGET, ("floor", seed, i))
                                   for i in range(dim)))
        assert anisotropic_dimension(q) == ref_global_dim(q), q
        floor_two += ref_finite_kernel_dim(T, q.diag) == 2
    # even forms with a non-square signed determinant are the case the
    # argument covers; the samples must hold some
    assert floor_two >= FLOOR_FORMS_PER_FIELD // 8
