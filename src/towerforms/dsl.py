"""Text grammars for field towers, elements, diagonal forms, and Pfister symbols.

Grammar summary (whitespace is insignificant everywhere):

    field    := "GF(" int ")" level*
    level    := "((" name "))"          # Laurent series level
              | "(" name ")"           # rational function level
    element  := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := "-"* atom ("^" ["-"] int)?
    atom     := int | name | "(" element ")"
    form     := "diag[" element ("," element)* "]"
    pfister  := "<<" element ("," element)* ">>"            # bilinear
              | "<<" element ("," element)* ";" element "]]" # quadratic
              | "<<" element "]]"                           # 1-fold quadratic

An int is a run of the ASCII digits 0-9.  Any other digit (a superscript
'²', an Arabic-Indic '٣') is refused with a ParseError at its position.  A
name is a run of letters and underscores.  The two-character literals
"((", "))", "<<", ">>" and "]]" allow no whitespace inside; neither does
"->", which ends an element instead of subtracting.

Names resolve to level symbols of the ambient tower; over a proper extension
GF(p^k), k > 1, the name ``g`` denotes the root of the defining polynomial
``ffield.canonical_modulus(p, k)`` used in element formatting.  It need not
generate the multiplicative group: in GF(9) the modulus is X^2 + 1, so
g^2 = -1 and g has order 4.  Formatting round-trips: parsing the output of
``fields.format_element``, ``format_form``, or a symbol's ``describe`` yields
an equal value.

How text becomes a raw.  One compiled regex splits the text into tokens in
one pass, and a recursive descent walks the token list; token positions are
worked out only when a ParseError is raised.  Sums, differences, products,
powers of monomials and quotients by monomials are sparse Laurent
polynomials in the level symbols: dicts from an exponent vector to a
nonzero base-field raw, combined with the base field's own ops
(``tower.chain[0]``), so GF(p), GF(p^k) and GF(p)(X) share one builder.
Each such polynomial becomes a canonical raw once, with no gcd: its
denominator is a power of the level symbol, and one that spans more than
fields.POWER_SLOT_CAP slots is refused before it is laid out.  Where an
operation leaves the polynomials, the parser falls back to
``fields.Element`` arithmetic on the raws built so far: a division by a
non-monomial, and a power of a non-monomial, negative or not.  Such a power
is ``Element.__pow__``: the product of the (x^(p^i))^(n_i) over the base-p
digits n_i of the exponent, each x^(p^i) a Frobenius image as sparse as x.
So ``(1+t+u)^3000`` over GF(3) is the product of four images of three terms
each, with no dense intermediate power.  Raws are canonical, so every route
gives the same raw.
"""

import operator
import re

from .errors import BudgetExceeded, ParseError, TowerFormsError
from .ffield import prime_power
from .fields import (Element, FieldTower, LevelDescriptor, LAURENT, RATFUNC,
                     format_element)
from . import fields, pfister, qforms

# A run of ASCII digits, a run of word characters that are no decimal digit
# (on ASCII text: letters and '_'), or any other single non-space character.
_TOKEN = re.compile(r"[0-9]+|[^\W\d]+|\S")


def _scan(text):
    """(starts, tokens) of text.  On non-ASCII text a word token is cut
    where a character is neither a letter nor '_', so a name is a run of
    letters and underscores; a non-ASCII digit raises ParseError."""
    starts, toks = [], []
    for m in _TOKEN.finditer(text):
        tok, start = m.group(), m.start()
        if tok.isascii():
            starts.append(start)
            toks.append(tok)
            continue
        run = start
        for k, c in enumerate(tok, start):
            if c.isalpha() or c == "_":
                continue
            if c.isdigit():
                raise ParseError(f"{c!r} is not an ASCII digit", text, k)
            if run < k:
                starts.append(run)
                toks.append(text[run:k])
            starts.append(k)
            toks.append(c)
            run = k + 1
        if run < m.end():
            starts.append(run)
            toks.append(text[run:m.end()])
    return starts, toks


class _Parser:
    """A cursor over the tokens of one text, ended by the sentinel "".

    Errors are reported at one of two positions: ``here()``, the start of
    the next token (the end of the text after the last one), or
    ``after()``, the end of the last token read.
    """

    def __init__(self, text):
        self.text = text
        if text.isascii():
            self.toks = _TOKEN.findall(text)
            self._starts = None
        else:
            self._starts, self.toks = _scan(text)
        self.toks.append("")
        self.i = 0

    # positions and errors -------------------------------------------------

    def starts(self):
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)]
        return self._starts

    def here(self):
        starts = self.starts()
        return starts[self.i] if self.i < len(starts) else len(self.text)

    def after(self):
        return self.starts()[self.i - 1] + len(self.toks[self.i - 1])

    def fail(self, message, pos=None):
        raise ParseError(message, self.text, self.here() if pos is None
                         else pos)

    # tokens ----------------------------------------------------------------

    def accept(self, tok):
        if self.toks[self.i] == tok:
            self.i += 1
            return True
        return False

    def expect(self, tok, what=None):
        if not self.accept(tok):
            self.fail(f"expected {what or repr(tok)}")

    def adjacent(self):
        """Whether the next two tokens touch.  The first two and the last
        two are decided on the stripped text, without positions."""
        i, toks = self.i, self.toks
        if self._starts is None:
            if i == 0:
                return self.text.lstrip().startswith(toks[0] + toks[1])
            if i + 3 == len(toks):
                return self.text.rstrip().endswith(toks[i] + toks[i + 1])
        starts = self.starts()
        return starts[i + 1] == starts[i] + len(toks[i])

    def accept_pair(self, lit):
        """Accept a two-character literal such as '((' or ']]'."""
        if self.toks[self.i] == lit[0] and self.toks[self.i + 1] == lit[1] \
                and self.adjacent():
            self.i += 2
            return True
        return False

    def expect_pair(self, lit, what=None):
        if not self.accept_pair(lit):
            self.fail(f"expected {what or repr(lit)}")

    def expect_opening(self, word, what, bracket):
        """Accept word and then bracket.  A longer name that begins with
        word fails right after word, where bracket was expected."""
        tok = self.toks[self.i]
        if tok == word:
            self.i += 1
            self.expect(bracket)
        elif tok.startswith(word):
            self.fail(f"expected {bracket!r}", self.here() + len(word))
        else:
            self.fail(f"expected {what}")

    def at_end(self):
        return self.i == len(self.toks) - 1

    def expect_end(self):
        if not self.at_end():
            self.fail("unexpected trailing input")

    def integer(self):
        tok = self.toks[self.i]
        if not tok.isdigit():
            self.fail("expected an integer")
        self.i += 1
        return int(tok)

    def name(self):
        tok = self.toks[self.i]
        if not (tok[:1].isalpha() or tok[:1] == "_"):
            self.fail("expected a symbol name")
        self.i += 1
        return tok

    # elements: values are sparse dicts, or Elements after a fallback -------

    def read_element(self, ring):
        return ring.element(self.expr(ring))

    def expr(self, ring):
        """A sum of terms, each a product of factors."""
        toks = self.toks
        val, negate = None, False
        while True:
            term = self.factor(ring)
            while True:
                tok = toks[self.i]
                if tok == "*":
                    self.i += 1
                    term = ring.mul(term, self.factor(ring))
                elif tok == "/":
                    self.i += 1
                    try:
                        term = ring.div(term, self.factor(ring))
                    except ParseError:
                        raise  # the divisor's own error, as it was raised
                    except TowerFormsError as err:
                        raise ParseError(str(err), self.text,
                                         self._factor_end())
                else:
                    break
            if negate:
                term = ring.neg(term)
            val = term if val is None else ring.add(val, term)
            if tok == "+":
                negate = False
            elif tok == "-" and not (toks[self.i + 1] == ">" and
                                     self.adjacent()):
                negate = True
            else:
                return val
            self.i += 1

    def _factor_end(self):
        """Where a factor's arithmetic error is reported: right after its
        exponent, or at the token after the factor if it has none."""
        toks, i = self.toks, self.i
        if toks[i - 1].isdigit() and (toks[i - 2] == "^" or (
                toks[i - 2] == "-" and i >= 3 and toks[i - 3] == "^")):
            return self.after()
        return self.here()

    def factor(self, ring):
        toks, i = self.toks, self.i
        negate = False
        while toks[i] == "-":
            i += 1
            negate = not negate
        tok = toks[i]
        if tok == "(":
            self.i = i + 1
            val = self.expr(ring)
            i = self.i
            if toks[i] != ")":
                self.fail("expected ')'")
        elif tok in ring.symbols:
            val = {ring.symbols[tok]: ring.F.one}
        elif tok.isdigit():
            val = ring.const(ring.F.from_int(int(tok)))
        else:
            self.i = i
            val = self.other_name(ring)
        self.i = i + 1
        if toks[i + 1] == "^":
            self.i += 1
            neg = self.accept("-")
            e = self.integer()
            try:
                val = ring.pow(val, -e if neg else e)
            except TowerFormsError as err:
                raise ParseError(str(err), self.text, self.after())
        return ring.neg(val) if negate else val

    def other_name(self, ring):
        """The value of a name that is no level symbol: g, or an error."""
        name = self.name()
        if name != "g":
            self.fail(f"unknown symbol {name!r} in {ring.tower.describe()}",
                      self.after())
        if ring.tower.base_degree == 1:
            self.fail("'g' only names a generator over a proper extension "
                      "field", self.after())
        return ring.const((0, 1))


class _Ring:
    """Sparse Laurent polynomials in a tower's level symbols over its base
    field: dicts from an exponent vector to a nonzero base raw, with
    Element arithmetic where an operation leaves the polynomials.

    An exponent vector is an int on towers of at most one level, and a
    tuple, innermost level first, above.  The parser uses each value once,
    so add and mul may reuse an operand's dict.
    """

    def __init__(self, tower):
        self.tower = tower
        self.F = tower.chain[0]
        n = len(tower.levels)
        if n <= 1:
            self.zero_e, units = 0, [1] * n
            self.eadd, self.escale = operator.add, operator.mul
        else:
            self.zero_e = (0,) * n
            units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            self.eadd = lambda a, b: tuple(map(operator.add, a, b))
            self.escale = lambda a, k: tuple([x * k for x in a])
        # 'g' names the base generator even where a level is called g
        self.symbols = {lv.symbol: e for lv, e in zip(tower.levels, units)
                        if lv.symbol != "g"}

    def const(self, c):
        return {} if self.F.is_zero(c) else {self.zero_e: c}

    def element(self, a):
        """The Element of a value: a sparse polynomial or an Element."""
        return a if type(a) is Element else Element(self.tower, self.raw(a))

    def neg(self, a):
        if type(a) is Element:
            return -a
        neg = self.F.neg
        return {e: neg(c) for e, c in a.items()}

    def add(self, a, b):
        if type(a) is Element or type(b) is Element:
            return self.element(a) + self.element(b)
        if len(a) < len(b):
            a, b = b, a
        F = self.F
        for e, c in b.items():
            d = a.get(e)
            if d is None:
                a[e] = c
            else:
                s = F.add(d, c)
                if F.is_zero(s):
                    del a[e]
                else:
                    a[e] = s
        return a

    def mul(self, a, b):
        if type(a) is Element or type(b) is Element:
            return self.element(a) * self.element(b)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a product of nonzero raws is nonzero, and a shift keeps the
            # exponents distinct
            (eb, cb), = b.items()
            F, eadd = self.F, self.eadd
            if cb == F.one:
                return {eadd(e, eb): c for e, c in a.items()}
            return {eadd(e, eb): F.mul(c, cb) for e, c in a.items()}
        if not b:
            return b
        F, eadd = self.F, self.eadd
        out = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e, z = eadd(ea, eb), F.mul(ca, cb)
                d = out.get(e)
                out[e] = z if d is None else F.add(d, z)
        return {e: c for e, c in out.items() if not F.is_zero(c)}

    def div(self, a, b):
        if type(b) is dict and len(b) == 1:
            (e, c), = b.items()
            return self.mul(a, {self.escale(e, -1): self.F.inv(c)})
        return self.element(a) / self.element(b)

    def pow(self, a, n):
        if type(a) is dict and len(a) == 1:
            (e, c), = a.items()
            F = self.F
            return {self.escale(e, n): c if c == F.one else F.pow_(c, n)}
        return self.element(a) ** n

    def raw(self, a):
        """The canonical raw of a sparse polynomial."""
        if not a:
            return self.tower.ops.zero
        n = len(self.tower.levels)
        if n == 0:
            return a[0]
        return _raw(self.tower.chain, n, a)


def _raw(chain, depth, terms):
    """The raw of chain[depth] for a nonempty sparse polynomial whose
    exponents are ints at depth 1 and tuples above."""
    if depth > 1:
        groups = {}
        for e, c in terms.items():
            groups.setdefault(e[-1], {})[e[:-1] if depth > 2 else e[0]] = c
        terms = {k: _raw(chain, depth - 1, g) for k, g in groups.items()}
    # terms now maps exponents of the level symbol to nonzero inner raws
    inner = chain[depth].inner
    lo = min(min(terms), 0)
    if max(max(terms), 0) - lo >= fields.POWER_SLOT_CAP:  # num or den too long
        raise BudgetExceeded(f"power too large: a monomial would hold more "
                             f"than {fields.POWER_SLOT_CAP} coefficients")
    num = [inner.zero] * (max(terms) - lo + 1)
    for e, c in terms.items():
        num[e - lo] = c
    # the den is X^-lo; num[0] != 0 when lo < 0, so the two are coprime
    return tuple(num), (inner.zero,) * -lo + (inner.one,)


# ---------------------------------------------------------------------------
# field towers


def parse_field(text):
    ps = _Parser(text)
    ps.expect_opening("GF", "'GF'", "(")
    q = ps.integer()
    pk = prime_power(q)
    if pk is None:
        ps.fail(f"GF({q}): order must be a prime power", ps.after())
    p, k = pk
    if p == 2:
        ps.fail(f"GF({q}): even characteristic is not supported", ps.after())
    ps.expect(")")
    levels = []
    while not ps.at_end():
        if ps.accept_pair("(("):
            sym = ps.name()
            ps.expect_pair("))")
            levels.append(LevelDescriptor(sym, LAURENT))
        elif ps.accept("("):
            sym = ps.name()
            ps.expect(")")
            levels.append(LevelDescriptor(sym, RATFUNC))
        else:
            ps.fail("expected a level '((sym))' or '(sym)'")
    try:
        return FieldTower(p, k, tuple(levels))
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)


# ---------------------------------------------------------------------------
# elements


def parse_element(tower, text):
    ps = _Parser(text)
    val = ps.read_element(_Ring(tower))
    ps.expect_end()
    return val


# ---------------------------------------------------------------------------
# diagonal forms


def parse_form(tower, text):
    ps, ring = _Parser(text), _Ring(tower)
    ps.expect_opening("diag", "'diag'", "[")
    entries = [ps.read_element(ring)]
    while ps.accept(","):
        entries.append(ps.read_element(ring))
    ps.expect("]")
    ps.expect_end()
    try:
        return qforms.QuadraticForm(tower, tuple(entries))
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)


def format_form(q):
    return "diag[" + ", ".join(format_element(e) for e in q.diag) + "]"


# ---------------------------------------------------------------------------
# Pfister symbols


def parse_pfister(tower, text):
    """A quadratic symbol ``<<a1,...;b]]`` / ``<<b]]`` or bilinear ``<<a1,...>>``."""
    ps, ring = _Parser(text), _Ring(tower)
    ps.expect_pair("<<", "'<<'")
    entries = [ps.read_element(ring)]
    while ps.accept(","):
        entries.append(ps.read_element(ring))
    try:
        if ps.accept(";"):
            last = ps.read_element(ring)
            ps.expect_pair("]]")
            ps.expect_end()
            return pfister.QuadraticPfisterSymbol(tower, tuple(entries), last)
        if ps.accept_pair("]]"):
            if len(entries) != 1:
                ps.fail("a quadratic symbol with slots needs ';' before the "
                        "last entry", ps.after())
            ps.expect_end()
            return pfister.QuadraticPfisterSymbol(tower, (), entries[0])
        ps.expect_pair(">>", "';', ']]' or '>>'")
        ps.expect_end()
        return pfister.BilinearPfisterSymbol(tower, tuple(entries))
    except ParseError:
        raise
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)
