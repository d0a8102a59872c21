"""Reference DSL parser: a character scanner with recursive descent over
tower Elements.

This was the package's parser before src/towerforms/dsl.py learned to split
the text into tokens with one regex and to build each raw from a sparse
Laurent polynomial.  It stays here as the oracle: the tests require both to
give the same raws on valid text, and the same ParseError message and
position on malformed text.  Its one known difference is input with a
non-ASCII digit, which it reads with str.isdigit and int() (so '٣' is 3
and '²' raises ValueError), while the package refuses every digit
outside 0-9.
"""

from towerforms import pfister, qforms
from towerforms.errors import ParseError, TowerFormsError
from towerforms.ffield import prime_power
from towerforms.fields import FieldTower, LevelDescriptor, LAURENT, RATFUNC


class _Scanner:
    """Cursor over a DSL string; all parsers share its error reporting."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, lit):
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def accept(self, lit):
        if self.peek(lit):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit, what=None):
        if not self.accept(lit):
            raise ParseError(f"expected {what or repr(lit)}", self.text,
                             self.pos)

    def fail(self, message):
        raise ParseError(message, self.text, self.pos)

    def at_end(self):
        self.skip_ws()
        return self.pos == len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.fail("unexpected trailing input")

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start:self.pos])

    def name(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalpha()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a symbol name")
        return self.text[start:self.pos]


# ---------------------------------------------------------------------------
# field towers


def parse_field(text):
    sc = _Scanner(text)
    sc.expect("GF", "'GF'")
    sc.expect("(")
    q = sc.integer()
    pk = prime_power(q)
    if pk is None:
        sc.fail(f"GF({q}): order must be a prime power")
    p, k = pk
    if p == 2:
        sc.fail(f"GF({q}): even characteristic is not supported")
    sc.expect(")")
    levels = []
    while not sc.at_end():
        if sc.accept("(("):
            sym = sc.name()
            sc.expect("))")
            levels.append(LevelDescriptor(sym, LAURENT))
        elif sc.accept("("):
            sym = sc.name()
            sc.expect(")")
            levels.append(LevelDescriptor(sym, RATFUNC))
        else:
            sc.fail("expected a level '((sym))' or '(sym)'")
    sc.expect_end()
    try:
        return FieldTower(p, k, tuple(levels))
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)


# ---------------------------------------------------------------------------
# elements


def _base_generator(tower):
    """The element named ``g``: the root of the base modulus, lifted."""
    raw = (0, 1)
    for f in tower.chain[1:]:
        raw = f.const(raw)
    return tower.element(raw)


def _resolve_name(tower, name, sc):
    if name == "g":
        if tower.base_degree == 1:
            sc.fail("'g' only names a generator over a proper extension field")
        return _base_generator(tower)
    for lv in tower.levels:
        if lv.symbol == name:
            return tower.gen(name)
    sc.fail(f"unknown symbol {name!r} in {tower.describe()}")


def _atom(tower, sc):
    if sc.accept("("):
        val = _expr(tower, sc)
        sc.expect(")")
        return val
    sc.skip_ws()
    if sc.pos < len(sc.text) and sc.text[sc.pos].isdigit():
        return tower.from_int(sc.integer())
    return _resolve_name(tower, sc.name(), sc)


def _factor(tower, sc):
    sign = 1
    while sc.accept("-"):
        sign = -sign
    val = _atom(tower, sc)
    if sc.accept("^"):
        neg = sc.accept("-")
        e = sc.integer()
        try:
            val = val ** (-e if neg else e)
        except TowerFormsError as err:
            raise ParseError(str(err), sc.text, sc.pos)
    return val if sign == 1 else -val


def _term(tower, sc):
    val = _factor(tower, sc)
    while True:
        if sc.accept("*"):
            val = val * _factor(tower, sc)
        elif sc.accept("/"):
            try:
                val = val / _factor(tower, sc)
            except ParseError:
                raise
            except TowerFormsError as err:
                raise ParseError(str(err), sc.text, sc.pos)
        else:
            return val


def _expr(tower, sc):
    val = _term(tower, sc)
    while True:
        if sc.accept("+"):
            val = val + _term(tower, sc)
        elif sc.peek("-") and not sc.peek("->"):
            sc.accept("-")
            val = val - _term(tower, sc)
        else:
            return val


def parse_element(tower, text):
    sc = _Scanner(text)
    val = _expr(tower, sc)
    sc.expect_end()
    return val


# ---------------------------------------------------------------------------
# diagonal forms


def parse_form(tower, text):
    sc = _Scanner(text)
    sc.expect("diag", "'diag'")
    sc.expect("[")
    entries = [_expr(tower, sc)]
    while sc.accept(","):
        entries.append(_expr(tower, sc))
    sc.expect("]")
    sc.expect_end()
    try:
        return qforms.QuadraticForm(tower, tuple(entries))
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)


# ---------------------------------------------------------------------------
# Pfister symbols


def parse_pfister(tower, text):
    """A quadratic symbol ``<<a1,...;b]]`` / ``<<b]]`` or bilinear ``<<a1,...>>``."""
    sc = _Scanner(text)
    sc.expect("<<", "'<<'")
    entries = [_expr(tower, sc)]
    while sc.accept(","):
        entries.append(_expr(tower, sc))
    try:
        if sc.accept(";"):
            last = _expr(tower, sc)
            sc.expect("]]")
            sc.expect_end()
            return pfister.QuadraticPfisterSymbol(tower, tuple(entries), last)
        if sc.accept("]]"):
            if len(entries) != 1:
                sc.fail("a quadratic symbol with slots needs ';' before the last entry")
            sc.expect_end()
            return pfister.QuadraticPfisterSymbol(tower, (), entries[0])
        sc.expect(">>", "';', ']]' or '>>'")
        sc.expect_end()
        return pfister.BilinearPfisterSymbol(tower, tuple(entries))
    except ParseError:
        raise
    except TowerFormsError as e:
        raise ParseError(str(e), text, 0)
