"""Dense univariate polynomial arithmetic over an abstract coefficient field.

Polynomials are tuples of coefficient raws, little-endian, with no trailing
zeros; the zero polynomial is the empty tuple.  Every function takes the
coefficient field object F first; F must provide zero/one/add/neg/sub/mul/
inv/div/eq/is_zero over its raw element type.

When F's class sets ``_int_raws`` (only ffield.Zp does), the raws are ints
in [0, p) and trim, padd, pneg, pmul, pscale, pshift_order, pdivmod and
psqrt work on them directly: a zero test is a truth test, a sum or product
is reduced by one ``% p`` (pmul sums every product of an output
coefficient first, psqrt every product of a root coefficient), and no
field method is called per coefficient.  pmod, pgcd, ppowmod and
pxgcd reach that path through them.  Every other field (Fq, FracField)
takes the generic path, which also serves the tests as the reference for
the int path; both return the same tuples.  The generic padd and pmul call
the field only where both sides are nonzero: padd copies the longer
operand and adds the other's nonzero coefficients, and pmul sums the
products of nonzero coefficients only.

The int pmul also multiplies two-level fractions over Zp
(fields.FracField._packed_mul): the rows of each operand, int polynomials
in t, are laid end to end at a stride at least the length of any row of
the product, so that one int product holds every row of the product at
its own offset and no two rows overlap.
"""

from .errors import DivisionByZero


def trim(F, coeffs):
    n = len(coeffs)
    if getattr(F, "_int_raws", False):
        while n and not coeffs[n - 1]:
            n -= 1
    else:
        while n and F.is_zero(coeffs[n - 1]):
            n -= 1
    return tuple(coeffs[:n])


def deg(a):
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


def const(F, x):
    return () if F.is_zero(x) else (x,)


def padd(F, a, b):
    if getattr(F, "_int_raws", False):
        p = F.p
        if len(a) < len(b):
            a, b = b, a
        out = [(x + y) % p for x, y in zip(a, b)]
        out += a[len(b):]
        return trim(F, out)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        if not F.is_zero(y):
            out[i] = y if F.is_zero(out[i]) else F.add(out[i], y)
    return trim(F, out)


def pneg(F, a):
    if getattr(F, "_int_raws", False):
        p = F.p
        return tuple([-x % p for x in a])
    return tuple(F.neg(x) for x in a)


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    if getattr(F, "_int_raws", False):
        p, n = F.p, len(b)
        out = [0] * (len(a) + n - 1)
        for i, x in enumerate(a):
            if x:
                out[i:i + n] = [z + x * y for z, y in zip(out[i:i + n], b)]
        return trim(F, [z % p for z in out])
    # products of nonzero raws only; a slot no product reached stays None
    out = [None] * (len(a) + len(b) - 1)
    terms = [(j, y) for j, y in enumerate(b) if not F.is_zero(y)]
    for i, x in enumerate(a):
        if F.is_zero(x):
            continue
        for j, y in terms:
            z = F.mul(x, y)
            out[i + j] = z if out[i + j] is None else F.add(out[i + j], z)
    return trim(F, [F.zero if z is None else z for z in out])


def pscale(F, a, c):
    if getattr(F, "_int_raws", False):
        p = F.p
        return trim(F, [x * c % p for x in a])
    return trim(F, [F.mul(x, c) for x in a])


def pdivmod(F, a, b):
    """(q, r) with a = q*b + r and deg r < deg b.

    Each step removes the leading term of the remainder, which cancels
    exactly, and trims the zeros that the subtraction left below it.  The
    top quotient coefficient is a product of two nonzero raws, so q needs
    no trim.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    inv_lead = F.inv(b[-1])
    r = list(trim(F, a))
    m = len(b) - 1
    q = [F.zero] * max(len(r) - m, 0)
    if getattr(F, "_int_raws", False):
        p = F.p
        while len(r) > m:
            c = r.pop() * inv_lead % p
            k = len(r) - m
            q[k] = c
            r[k:] = [(x - c * y) % p for x, y in zip(r[k:], b)]
            while r and not r[-1]:
                r.pop()
        return tuple(q), tuple(r)
    while len(r) > m:
        c = F.mul(r.pop(), inv_lead)
        k = len(r) - m
        q[k] = c
        for i in range(m):
            r[k + i] = F.sub(r[k + i], F.mul(c, b[i]))
        while r and F.is_zero(r[-1]):
            r.pop()
    return tuple(q), tuple(r)


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def ppowmod(F, a, n, m):
    """a^n mod m for n >= 0, by square-and-multiply."""
    result = pmod(F, (F.one,), m)
    while n:
        if n & 1:
            result = pmod(F, pmul(F, result, a), m)
        a, n = pmod(F, pmul(F, a, a), m), n >> 1
    return result


def pgcd(F, a, b):
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def pmonic(F, a):
    if not a:
        return a
    return pscale(F, a, F.inv(a[-1]))


def pxgcd(F, a, b):
    """Extended gcd: returns (g, s, t) with s*a + t*b = g, g monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = (F.one,), ()
    t0, t1 = (), (F.one,)
    while r1:
        q, r = pdivmod(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(F, s0, pmul(F, q, s1))
        t0, t1 = t1, psub(F, t0, pmul(F, q, t1))
    if r0:
        c = F.inv(r0[-1])
        r0, s0, t0 = pscale(F, r0, c), pscale(F, s0, c), pscale(F, t0, c)
    return r0, s0, t0


def pshift_order(F, a):
    """Number of leading zero coefficients (order of vanishing at 0)."""
    if getattr(F, "_int_raws", False):
        for i, c in enumerate(a):
            if c:
                return i
        return len(a)
    for i, c in enumerate(a):
        if not F.is_zero(c):
            return i
    return len(a)


def psqrt(F, a):
    """Exact square root of a monic polynomial, or None.

    Solves h^2 = a coefficient by coefficient from the top; requires
    char(F) != 2.
    """
    d = deg(a)
    if d < 0:
        return ()
    if d % 2:
        return None
    m = d // 2
    if getattr(F, "_int_raws", False):
        p = F.p
        half = (p + 1) // 2  # the inverse of 2
        h = [0] * m + [1]
        for j in range(m - 1, -1, -1):
            s = sum([h[i] * h[m + j - i] for i in range(j + 1, m)])
            h[j] = (a[m + j] - s) * half % p
        hh = trim(F, h)
        return hh if pmul(F, hh, hh) == a else None
    two = F.add(F.one, F.one)
    h = [F.zero] * (m + 1)
    h[m] = F.one
    # coefficient of X^(m+j) in h^2 determines h[j], from j = m-1 down
    for j in range(m - 1, -1, -1):
        s = F.zero
        for i in range(j + 1, m):
            k = m + j - i
            if 0 <= k <= m and i > k:
                s = F.add(s, F.add(F.mul(h[i], h[k]), F.mul(h[i], h[k])))
            elif i == k:
                s = F.add(s, F.mul(h[i], h[i]))
        # a[m+j] = 2*h[m]*h[j] + s  (h[m] = 1)
        target = a[m + j] if m + j < len(a) else F.zero
        h[j] = F.div(F.sub(target, s), two)
    hh = trim(F, h)
    sq = pmul(F, hh, hh)
    return hh if sq == a else None
