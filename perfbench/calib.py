"""Host-speed reference: a fixed piece of interpreter work timed between ops.

Shared machines change speed by 20-40% over tens of seconds (other tenants
on the same cores), which moves every wall-clock figure of a run with it.
The benchmark therefore times this kernel at regular points of each run and
scales each op's latency by ``REF_S / local kernel time``: the figures read
as milliseconds on a host where the kernel takes exactly ``REF_S``.

The kernel is the benchmark's own code and never calls towerforms, so a
change to the program cannot change it.  It does the same kind of work as
the program: method calls on a field object, small-int arithmetic mod p,
tuple polynomials, division with remainder, gcds, dict lookups and exact
rational arithmetic (``fractions``).  It runs with the cyclic garbage
collector off, so objects the program keeps alive cannot slow it down.
"""

import gc
import random
import statistics
import time
from fractions import Fraction

# kernel time that defines "reference speed" (about its median on a 2-core
# x86-64 cloud VM with Python 3.11)
REF_S = 0.006


class _GF:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def is_zero(self, x):
        return x == 0


def _trim(F, c):
    c = list(c)
    while c and F.is_zero(c[-1]):
        c.pop()
    return tuple(c)


def _pmul(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(F, out)


def _pmod(F, a, b):
    r = list(a)
    lead = F.inv(b[-1])
    while len(r) >= len(b):
        c = F.mul(r[-1], lead)
        shift = len(r) - len(b)
        for i, y in enumerate(b):
            r[shift + i] = F.sub(r[shift + i], F.mul(c, y))
        r = list(_trim(F, r))
    return tuple(r)


def _pgcd(F, a, b):
    while b:
        a, b = b, _pmod(F, a, b)
    return a


def _inputs():
    rng = random.Random(20240216)
    out = []
    for _ in range(96):
        p = rng.choice((3, 5, 7))
        a = tuple(rng.randrange(p) for _ in range(5)) + (1,)
        b = tuple(rng.randrange(p) for _ in range(4)) + (1,)
        c = tuple(rng.randrange(p) for _ in range(3)) + (1,)
        out.append((_GF(p), a, b, c))
    fracs = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
             for _ in range(48)]
    return out, fracs


_POLYS, _FRACS = _inputs()


def _kernel():
    seen = {}
    for F, a, b, c in _POLYS:
        g = _pgcd(F, _pmul(F, a, c), _pmul(F, b, c))
        seen[(g, a)] = seen.get(g, 0) + 1
    acc = Fraction(0)
    for x, y in zip(_FRACS, _FRACS[1:]):
        acc = (acc + x * y / (x + 1)).limit_denominator(10**9)
    return seen, acc


def kernel_s():
    """One timed run of the kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()

