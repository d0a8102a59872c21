"""CLI lines over large prime fields answer within a fixed time.

Two of them once hid an O(p) loop: a brute-force square root over
GF(10^9 + 7) (38256316 = -12345686^2 there, so the second form splits a
hyperbolic plane off through that root; the first, with the opposite sign,
is anisotropic and takes no root), and a sampler that listed all of
GF(1000003) for every coefficient.
"""

import shlex
import time

import pytest

from towerforms.cli import main

BOUND_S = 5.0


@pytest.mark.parametrize("line", [
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, -38256316, X]' --json",
    "witt --field 'GF(1000000007)(X)' --form 'diag[1, 38256316, X]' --json",
    "verify top-linked --field 'GF(1000003)' --d 1 --samples 3",
])
def test_cli_line_within_bound(line, capsys):
    start = time.perf_counter()
    code = main(shlex.split(line))
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < BOUND_S, f"{line}: {elapsed:.1f} s"
