"""CLI lines answer within a fixed time.

Two of them once hid an O(p) loop: a brute-force square root over
GF(10^9 + 7) (38256316 = -12345686^2 there, so the second form splits a
hyperbolic plane off through that root; the first, with the opposite sign,
is anisotropic and takes no root), and a sampler that listed all of
GF(1000003) for every coefficient.  The binary form over GF(10^9 + 7)(X)
is hyperbolic, and its witness comes from one square root, without
factoring X^2 + 1; the dim-6 form there reads its places before its
hyperbolic pair, so it factors its degree-20 entries first.  Factoring
over GF(p)[X] once trial-divided by every monic irreducible of each degree
up to half the degree, and the defining polynomial of GF(p^2) was found
the same way: the GF(1000003)(X) isotropy line and the GF(1000006000009)
square line took 8 s each, the X^6 form over GF(101)(X) and the degree-20
form over GF(5)(X) ran past 40 s, and GF(1000000014000000049) ran out of
memory listing GF(10^9 + 7).  The defining polynomial of GF(p^4), p =
1000003 = 3 mod 4, has no binomial X^4 - a to find, since none is
irreducible; the walk once tried all p of them first and ran past 30 s.
Distinct-degree factorization with equal-degree splitting now costs a
polynomial in the degree and log p.  The dim-6
form over GF(5)(X) (Witt index 2) exercises the slow tail of the witness
search, which once took 15 s on it by recomputing every s*y^2 product per
table row.  The fields over the prime 10^18 + 3 once ran past 15 s in two
trial-division loops up to its square root, one checking the order and one
the prime.  Over GF(3)((t))((u))((w)) every product once ran Euclid on its
c*w^k denominators over the nested fraction fields below, and every
linkage decision multiplied out its symbols' expansions: link and certify
below took 14 s and more than 60 s, and the pfister-expand line more than
10 s.  The fold-4 certify line over that tower was refused by a budget
of 512 candidate tests; in itertools.product order its certificate is the
11,138th, and the search now reaches it over multisets of shared slots,
testing each common factor as a subform of both symbols first.  Over
GF(101)(X) the same expansions made the link line factor degree-6
entries by trial division over every cubic (4 s); it now reads
the place classes of the cubic slots and of c = 1 + 4b alone.  The parser
builds sums and products as sparse polynomials and raises a sum to a power
through field elements.  Squaring and multiplying them took 1.2 s for
(1+t+u)^300 over GF(3)((t))((u)) and ran past 40 s for (1+t+u)^3000, whose
answer has 81 terms; the power is now a product of Frobenius images
x^(3^i), one per nonzero base-3 digit of the exponent, each as sparse as x.
The two pfister-expand lines over GF(3)((t))((u)) bound the one layout in
which an expansion packs all its slots: the Frobenius images there would
pack into millions of slots, too many to pack, so they are left to the
products pair by pair, and the dense 6-fold symbol takes the 57 products
of two or more of its six generators from one layout.
"""

import shlex
import time

import pytest

from towerforms import dsl
from towerforms.cli import main
from towerforms.linkage import sample_symbol

BOUND_S = 5.0

DEPTH3 = "GF(3)((t))((u))((w))"
DEPTH3_PAIR = ("--p1 '<<1/(1+t+w) + u/(1+u*w), (1+t)/(1+u+w); 1/(1+t*u*w)]]' "
               "--p2 '<<t/(1+u) + w/(2+t), u; w/(1+t)]]'")
# sample_symbol(T, 4, (3, 1)) and (3, 2) over DEPTH3, as describe() prints them
FOLD4_PAIR = (
    "--p1 '<<((2/t)*u + ((1 + 2*t + t^2)/t^2)*u^2)/w^2, (2*t^2 + t^3)/u^2, "
    "(1 + 2*t)*u^2 + (1 + 2*t)*u^3 + ((1 + 2*t)/t)*u^4; "
    "((2/t^2 + (2*t^2 + t^3 + 2*t^4)*u)/u)*w]]' "
    "--p2 '<<((2 + t)*u)/w^2, (2*u^2 + u^3)/w, ((2/t^2)*u^2 + u^3)/w^2; "
    "((2/t)*u^2 + (2*t + t^2)*u^3 + (t^2*u + t*u^2 + 2*u^3)*w)/w^2]]'")


@pytest.mark.parametrize("line", [
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, -38256316, X]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, 38256316, X]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[X^2 + 1, -X^2 - 1]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[X^20 + X + 1, "
    "-X^20 - X - 1, X^7 + 3, X^5 + X, 2*X^3 + 1, X]'",
    "verify top-linked --field 'GF(1000003)' --d 1 --samples 3",
    "witt --field 'GF(5)(X)' --form 'diag[(2 + 4*X + 2*X^2)/(2 + X), 2, "
    "3/(3 + 4*X + X^2), 1/(1 + X + X^2), (3 + 4*X)/X, 2 + 3*X]' --json",
    "square --field 'GF(1000000000000000003)' --elem 3",
    "square --field 'GF(1000000000000000003)(X)' --elem 3",
    "square --field 'GF(1000000000000000003)((t))' --elem 3",
    "isotropy --field 'GF(1000003)(X)' --form 'diag[1, X^2+1, X]'",
    "square --field 'GF(1000006000009)' --elem 3",
    "square --field 'GF(1000000014000000049)' --elem 3",
    "square --field 'GF(1000012000054000108000081)' --elem 3",
    "isotropy --field 'GF(101)(X)' --form 'diag[1, X^5+X+3, X]'",
    "isotropy --field 'GF(101)(X)' --form 'diag[1, X^6+X+3, X]'",
    "isotropy --field 'GF(5)(X)' --form "
    "'diag[X^20+X+1, X^19+2, X^17+X]'",
    f"link --field '{DEPTH3}' {DEPTH3_PAIR}",
    f"certify --field '{DEPTH3}' {DEPTH3_PAIR}",
    f"certify --field '{DEPTH3}' {FOLD4_PAIR}",
    f"verify top-linked --field '{DEPTH3}' --d 4 --samples 20",
    "link --field 'GF(101)(X)' --p1 '<<X^3+X+3; X^3+5]]' "
    "--p2 '<<X^3+2*X+1; X^3+X+1]]'",
    "square --field 'GF(3)((t))((u))' --elem '(1+t+u)^300'",
    "square --field 'GF(3)((t))((u))' --elem '(1+t+u)^3000'",
    "pfister-expand --field 'GF(3)((t))((u))' --pfister "
    "'<<(1+t+u)^2187, (1+t+u)^729, t + u^3; 1 + u^2187]]'",
    "pfister-expand --field 'GF(3)((t))((u))' --pfister "
    "'<<(1+t+u)^8, (2+t+u^2)^5, (1+t^2+u)^4, (1+t+t*u)^6, (2+u+t^3)^7; "
    "(1+t)^4*(1+u)^5]]'",
])
def test_cli_line_within_bound(line, capsys):
    start = time.perf_counter()
    code = main(shlex.split(line))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < BOUND_S, f"{line}: {elapsed:.1f} s"


def test_depth_three_expansion_within_bound(capsys):
    symbol = sample_symbol(dsl.parse_field(DEPTH3), 3, seed=4)
    test_cli_line_within_bound(
        f"pfister-expand --field '{DEPTH3}' --pfister '{symbol.describe()}'",
        capsys)
