"""Laws of the square-class ints, checked independently of the decisions
built on them.

Over a tower of Laurent levels a class is one qforms.square_class int and
qforms.class_rep maps it back to t^eps * {1, nu}; over GF(p)(X) it is one
localglobal.place_class int over a place list.  Both are group
homomorphisms to F2-spaces, so the class of a product is the XOR of the
classes.
"""

import pytest

from conftest import square_class_monomial, tower
from towerforms import linkage
from towerforms.fields import LAURENT, RATFUNC, SampleBudget, sample
from towerforms.localglobal import place_class, places_of_interest
from towerforms.qforms import class_rep, form, square_class

TOWERS = [tower(3), tower(3, 2), tower(3, 1, ("t", LAURENT)),
          tower(3, 2, ("t", LAURENT)),
          tower(3, 1, ("t", LAURENT), ("u", LAURENT)),
          tower(5, 1, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT))]
SAMPLES = 200


def _elements(T, tag, count=SAMPLES):
    """Seeded nonzero elements, as the sampler draws them: units times
    powers of the uniformizers.  Quotients, whose leading coefficients
    need a division, are covered by test_springer_oracle."""
    return [sample(T, SampleBudget(), (tag, i)) for i in range(count)]


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_class_rep_reads_back_its_class(T):
    for c in range(2 ** (len(T.levels) + 1)):
        assert square_class(T, class_rep(T, c)) == c


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_class_rep_matches_the_monomial_oracle(T):
    for a in _elements(T, "rep"):
        assert class_rep(T, square_class(T, a)) == square_class_monomial(T, a)


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_square_class_of_a_product_is_the_xor(T):
    xs, ys = _elements(T, "x", 60), _elements(T, "y", 60)
    for a, b in zip(xs, ys):
        assert square_class(T, a * b) == \
            square_class(T, a) ^ square_class(T, b)


@pytest.mark.parametrize("p", [3, 5])
def test_place_class_of_a_product_is_the_xor(p):
    T = tower(p, 1, ("X", RATFUNC))
    budget = SampleBudget(max_deg=3)
    for i in range(40):
        a, b = (sample(T, budget, (tag, i)) for tag in ("x", "y"))
        places = places_of_interest(form(T, a, b))
        assert place_class(places, a * b) == \
            place_class(places, a) ^ place_class(places, b)


@pytest.mark.parametrize("T", TOWERS, ids=lambda T: T.describe())
def test_class_pool_negatives_match_a_fresh_read(T):
    reps, negs = linkage._class_pool(T)
    assert len(reps) == len(negs) == 2 ** (len(T.levels) + 1)
    for s in reps:
        assert negs[s.raw] == square_class(T, -s)
