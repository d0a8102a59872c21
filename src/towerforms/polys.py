"""Dense univariate polynomial arithmetic over an abstract coefficient field.

Polynomials are tuples of coefficient raws, little-endian, with no trailing
zeros; the zero polynomial is the empty tuple.  Every function takes the
coefficient field object F first; F must provide zero/one/add/neg/sub/mul/
inv/div/eq/is_zero over its raw element type.

When F's class sets ``_int_raws`` (only ffield.Zp does), the raws are ints
in [0, p) and padd, pneg, pmul, pscale, pdivmod and psqrt work on them
directly: a sum or product is reduced by one ``% p`` (psqrt sums every
product of a root coefficient first), and no field method is called per
coefficient.  pmod, ppowmod and pxgcd reach that path through them; pgcd
runs its own Euclid on int lists, with no tuple per remainder.
Every other field (Fq, FracField) takes the generic path, which also
serves the tests as the reference for the int path; both return the same
tuples.  Every raw is canonical, so trim and pshift_order find zeros by
comparing with F.zero on every field.  The generic padd and pmul call the
field only where both sides are nonzero: padd copies the longer operand
and adds the other's nonzero coefficients, and pmul sums the products of
nonzero coefficients only.

The int pmul takes a one-term operand as a scalar (pscale), and is
otherwise a Kronecker product (von zur Gathen-Gerhard, Modern Computer
Algebra, ch. 8): each operand is packed into one Python int,
little-endian, one coefficient per slot of w bytes, and the two ints are
multiplied once.  A coefficient of the product is a sum of at most
min(len a, len b) products of ints below p, so it is at most
(p-1)^2 min(len a, len b), and w is the byte length of that bound
(_slot_bytes): no slot carries into the next.  The product is cut back
into slots by int.to_bytes and reduced mod p once (_residues): with 1-byte
slots, which every p up to 13 has on short operands, by one
bytes.translate through a 256-entry table per p, and with wider slots
through int.from_bytes slices.  The residues are bytes again, r =
_slot_bytes(p - 1) per coefficient, so bytes.rstrip trims their zeros in C.

The density rule picks the kernel: when 4 na nb < n, with na and nb the
nonzero terms of the operands and n the slots of the product, pmul
instead sums the products of nonzero terms only, as the generic path
does, and never lays out the zeros between them.  The factor four is
measured, on random operands of length 20 to 10000 over GF(3),
GF(101) and GF(1000003): at lengths of 100 and more the term sums are the
faster below na nb = n/4, and up to length 1000 the Kronecker product is
the faster above 4n; between the two the crossover moves with p and the
length.

Short products over p > 16, where a product of two ints below p fills more
than a byte and every slot is wider, sum their term products when there
are fewer than _WIDE_SLOT_PAIRS = 64 of them (na nb < 64): the slices
that pack and reduce wide slots cost more than a few dozen term products.
Timed with timeit on dense random operands (Python 3.11, Intel Xeon VM):
over GF(101), 3 by 3 terms take 3.1 us packed and 1.8 us summed, and the
two meet between 36 and 49 pairs (4.5/4.3 us, 5.1/5.4 us); over
GF(1000003) they meet between 100 and 144 pairs (5 by 5: 6.5/3.6 us, 12
by 12: 12.8/13.5 us); 64 is between the two.  For p up to 13 only the
density rule applies.

One layout serves pfister's expansion, which fields.FracField hands it:
the products of every subset of several polynomials in X whose
coefficients, the rows, are fractions of int polynomials over powers of
t.  _subset_row_products shifts the rows of each operand to sit over the
operand's lowest power of t (_t_power_shape) and packs them end to end
once, at a stride at least the length of any row of the product of all
the operands (_pack_rows).  X then becomes a power of t, and one int
product holds every row of a product at its own offset.  Each product of
a subset is one int product of a smaller subset's reduced product and one
operand; it is reduced once, and each of its rows is a slice of the
residue bytes (_cut).  A layout of over _PACK_SLOT_CAP slots is left to
the products pair by pair, which cost by terms, not slots: over
GF(3)((t))((u)) (Python 3.11, Intel Xeon VM) Frobenius images in 1.7
million slots take 118 ms packed and 3.2 ms pair by pair, and a dense
3-fold in 17,000 slots 49 and 420 ms.
"""

from functools import cache
from sys import maxsize

from .errors import DivisionByZero


def trim(F, coeffs):
    n, zero = len(coeffs), F.zero
    while n and coeffs[n - 1] == zero:
        n -= 1
    return tuple(coeffs[:n])


def deg(a):
    """Degree; -1 for the zero polynomial."""
    return len(a) - 1


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
    return tuple([F.neg(x) for x in a])


def psub(F, a, b):
    return padd(F, a, pneg(F, b))


def pmul(F, a, b):
    if not a or not b:
        return ()
    if getattr(F, "_int_raws", False):
        if len(a) == 1:  # a scalar multiple: no slots to pack
            return pscale(F, b, a[0])
        if len(b) == 1:
            return pscale(F, a, b[0])
        p, n = F.p, len(a) + len(b) - 1
        na, nb = len(a) - a.count(0), len(b) - b.count(0)
        if 4 * na * nb < n or (p > 16 and na * nb < _WIDE_SLOT_PAIRS):
            return trim(F, _sparse_product(p, a, b, n))
        w = _slot_bytes((p - 1) ** 2 * min(len(a), len(b)))
        buf, r = _residues(int.from_bytes(_pack(a, w), "little") *
                           int.from_bytes(_pack(b, w), "little"), p, w, n)
        hi = -(-len(buf.rstrip(b"\0")) // r)  # coefficients up to the top
        return tuple(_unpack(buf[:hi * r], r))
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


# below this many products of nonzero terms, pmul over p > 16 sums them
# (measured; see the module docstring)
_WIDE_SLOT_PAIRS = 64


def _sparse_product(p, a, b, n):
    """The n reduced coefficients of a*b from the nonzero terms alone."""
    terms = [(j, y) for j, y in enumerate(b) if y]
    sums = {}
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                sums[i + j] = sums.get(i + j, 0) + x * y
    out = [0] * n
    for k, z in sums.items():
        out[k] = z % p
    return out


# the most slots of a _subset_row_products layout (see the module docstring)
_PACK_SLOT_CAP = 1 << 20


def _subset_row_products(p, operands, powers):
    """The reduced raws of the products of every subset of two or more of
    the fractions a_j / X^(powers[j]), a_j = operands[j] nonzero
    polynomials in X over Zp((t)), from one layout; or None when some den
    is not a power of t or the layout has over _PACK_SLOT_CAP slots.  The
    coefficients of each a_j are its rows (c, d): reduced fractions c/d of
    int polynomials in t, with d monic, the zero row ((), (1,)).

    Entry e of the returned list is the product of the fractions j at the
    bits of e, for each e with two or more bits; the other entries (the
    empty product and the fractions themselves) are None.  Each operand is
    shifted to sit over its own t^K, t^-K its lowest power of t
    (_t_power_shape), and packed once (_pack_rows), all at one stride: the
    length of a row of the product of all the operands, one plus the sum of
    their t-degree spans L - 1, so that X becomes the same power of t in
    every product.  Entry e with top bit j is one int product, of entry
    e - 2^j and operand j, reduced mod p at once, by one bytes.translate for
    1-byte slots and by _residues for wider ones, so that a later product
    reads slots below p again: a slot of a product sums at most as many
    products of ints below p as operand j has nonzero ints, which sizes the
    slot.  Each entry is cut once (_cut).  The slot count is that of the
    last product, the largest.
    """
    shapes = [_t_power_shape(a) for a in operands]
    if None in shapes:
        return None
    stride = 1 + sum([width - 1 for _, width, _ in shapes])
    if (1 + sum([len(a) - 1 for a in operands])) * stride > _PACK_SLOT_CAP:
        return None
    w = _slot_bytes((p - 1) ** 2 * max(n for _, _, n in shapes))
    table = _mod_table(p) if w == 1 else None
    entries = [None]  # (packed int, slots, power of t, power of X)
    out = [None] * (1 << len(operands))
    for a, (k, _, _), x in zip(operands, shapes, powers):
        bit, factor = len(entries), _pack_rows(a, k, stride, w)
        more = (len(a) - 1) * stride
        entries.append((factor, len(a) * stride, k, x))
        for e in range(1, bit):
            y, n, top, z = entries[e]
            n, top, z = n + more, top + k, z + x
            if table:
                buf, r = (y * factor).to_bytes(n, "little").translate(table), 1
            else:
                buf, r = _residues(y * factor, p, w, n)
            if 2 * bit < len(out):  # a later operand multiplies this entry
                entries.append((int.from_bytes(
                    buf if w == 1 else _pack(_unpack(buf, r), w), "little"),
                    n, top, z))
            out[bit + e] = _cut(buf, r, stride, top, z)
    return out


def _cut(buf, r, stride, k, x):
    """The reduced raw (num, den) of a product over t^k X^x, from its
    residue bytes buf at r bytes a slot, each row of num a slice of stride
    slots, the top one nonzero.  bytes.rstrip of a row's zeros gives its
    length, and lstrip, capped at k, the power of t that it and its den are
    divided by; for k < 0 the row is multiplied by t^-k.  The zero rows at
    the bottom, capped at x, give the power of X that num and X^x are
    divided by."""
    step = stride * r
    s = min(x, (len(buf) - len(buf.lstrip(b"\0"))) // step) if x else 0
    den = (0,) * k + (1,)
    num = []
    for i in range(s * step, len(buf), step):
        row = buf[i:i + step].rstrip(b"\0")
        if not row:
            num.append(((), (1,)))
            continue
        c = row if r == 1 else _unpack(row, r)
        if k > 0:
            # row / t^k, both divided by t^min(k, ord row)
            lo = (len(row) - len(row.lstrip(b"\0"))) // r
            if lo > k:
                lo = k
            num.append((tuple(c[lo:]), den[lo:]))
        elif k:
            num.append(((0,) * -k + tuple(c), den))
        else:
            num.append((tuple(c), den))
    return tuple(num), (((), (1,)),) * (x - s) + (((1,), (1,)),)


def _t_power_shape(rows):
    """(K, L, N) for rows (c, d) as in _subset_row_products: t^-K the
    lowest power of t in the rows, so K is the largest t-power of their
    dens, or minus the least order at t of the c when no den has one; L
    the longest c once shifted to sit over t^K, and N the number of
    nonzero ints in the c; None if some den is not a power of t."""
    top = width = -maxsize
    nonzero = 0
    for c, d in rows:
        if c:
            k = len(d) - 1
            if len(c) - k > width:
                width = len(c) - k
            if k:
                if d.count(0) != k:
                    return None
            elif top < 0:  # only then can a row over t^0 raise K
                while not c[-k]:  # c / t^k with k = -(order of c at t)
                    k -= 1
            if k > top:
                top = k
            nonzero += len(c) - c.count(0)
    return top, top + width, nonzero


def _pack_rows(rows, top, stride, w):
    """The rows (c, d) shifted to sit over t^top, end to end at the stride,
    as one int at w bytes a slot; the zeros of a c below t^-top are
    dropped."""
    buf = bytearray(len(rows) * stride * w)
    for m, (c, d) in enumerate(rows):
        if c:
            i = top - len(d) + 1
            if i < 0:
                c, i = c[-i:], 0
            i = (m * stride + i) * w
            buf[i:i + len(c) * w] = c if w == 1 else _pack(c, w)
    return int.from_bytes(buf, "little")


def _slot_bytes(bound):
    """Bytes per slot for ints up to bound: its byte length."""
    return (bound.bit_length() + 7) >> 3


def _pack(seq, w):
    """Little-endian bytes of the ints of seq, w bytes each."""
    if w == 1:
        return bytes(seq)
    return b"".join([x.to_bytes(w, "little") for x in seq])


def _unpack(buf, w):
    """The ints of buf, w little-endian bytes each (inverse of _pack)."""
    if w == 1:
        return buf
    return [int.from_bytes(buf[i:i + w], "little")
            for i in range(0, len(buf), w)]


@cache
def _mod_table(p):
    """bytes.translate table of a byte to its residue mod p.  Only 1-byte
    slots use it, which need (p-1)^2 < 256, so it caches at most the five
    primes up to 13."""
    return bytes([i % p for i in range(256)])


def _residues(product, p, w, n):
    """(buf, r): the first n slots of w bytes of a Kronecker product, each
    reduced mod p, in bytes buf at r = _slot_bytes(p - 1) bytes each."""
    buf = product.to_bytes(n * w, "little")
    if w == 1:
        return buf.translate(_mod_table(p)), 1
    r = _slot_bytes(p - 1)
    return _pack([z % p for z in _unpack(buf, w)], r), r


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
    no trim.  A monic b, as every modulus is, takes no inverse.
    """
    if not b:
        raise DivisionByZero("polynomial division by zero")
    monic = b[-1] == F.one
    inv_lead = F.one if monic else F.inv(b[-1])
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
        c = r.pop() if monic else F.mul(r.pop(), inv_lead)
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
    """a^n mod m for n >= 0, by square-and-multiply from the top bit: the
    one power loop, for ffield.Fq.pow_ and for factoring (m reducible)."""
    result = pmod(F, (F.one,), m)
    for bit in bin(n)[2:]:
        result = pmod(F, pmul(F, result, result), m)
        if bit == "1":
            result = pmod(F, pmul(F, result, a), m)
    return result


def pgcd(F, a, b):
    """The monic gcd, by Euclid; over Zp's int raws the remainders are
    taken in place on one list each, one pow per leading inverse."""
    if getattr(F, "_int_raws", False):
        p = F.p
        a, b = list(a), list(b)
        while b:
            inv_lead, m = pow(b[-1], p - 2, p), len(b) - 1
            while len(a) > m:
                c = a.pop() * inv_lead % p
                k = len(a) - m
                a[k:] = [(x - c * y) % p for x, y in zip(a[k:], b)]
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        c = pow(a[-1], p - 2, p) if a else 0
        return tuple([x * c % p for x in a])
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
    zero = F.zero
    for i, c in enumerate(a):
        if c != zero:
            return i
    return len(a)


def psqrt(F, a):
    """Exact square root of a monic polynomial, or None.

    Solves h^2 = a coefficient by coefficient from the top, h_m = 1 and
    h_j = (a_(m+j) - sum_(i=j+1)^(m-1) h_i h_(m+j-i)) / 2 for j = m-1 down
    to 0; requires char(F) != 2.
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
    else:
        two = F.add(F.one, F.one)
        h = [F.zero] * m + [F.one]
        for j in range(m - 1, -1, -1):
            s = F.zero
            for i in range(j + 1, m):
                s = F.add(s, F.mul(h[i], h[m + j - i]))
            h[j] = F.div(F.sub(a[m + j], s), two)
    hh = trim(F, h)
    return hh if pmul(F, hh, hh) == a else None
