"""CLI lines answer within a fixed time.

Two of them once hid an O(p) loop: a brute-force square root over
GF(10^9 + 7) (38256316 = -12345686^2 there, so the second form splits a
hyperbolic plane off through that root; the first, with the opposite sign,
is anisotropic and takes no root), and a sampler that listed all of
GF(1000003) for every coefficient.  The binary form over GF(10^9 + 7)(X)
is hyperbolic, and its witness must come from one square root, not from
factoring X^2 + 1, which lists the irreducibles of degree 1.  The dim-6
form over GF(5)(X) (Witt index 2) exercises the slow tail of the witness
search, which once took 15 s on it by recomputing every s*y^2 product per
table row.  The fields over the prime 10^18 + 3 once ran past 15 s in two
trial-division loops up to its square root, one checking the order and one
the prime.
"""

import shlex
import time

import pytest

from towerforms.cli import main

BOUND_S = 5.0


@pytest.mark.parametrize("line", [
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, -38256316, X]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, 38256316, X]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[X^2 + 1, -X^2 - 1]' --json",
    "verify top-linked --field 'GF(1000003)' --d 1 --samples 3",
    "witt --field 'GF(5)(X)' --form 'diag[(2 + 4*X + 2*X^2)/(2 + X), 2, "
    "3/(3 + 4*X + X^2), 1/(1 + X + X^2), (3 + 4*X)/X, 2 + 3*X]' --json",
    "square --field 'GF(1000000000000000003)' --elem 3",
    "square --field 'GF(1000000000000000003)(X)' --elem 3",
    "square --field 'GF(1000000000000000003)((t))' --elem 3",
])
def test_cli_line_within_bound(line, capsys):
    start = time.perf_counter()
    code = main(shlex.split(line))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < BOUND_S, f"{line}: {elapsed:.1f} s"
