"""The token parser of towerforms.dsl against the character-scanner parser
kept in tests/dsl_reference.py.

On valid text both must build the same raws; on malformed text both must
raise a ParseError with the same message and position.  The texts are every
field, symbol and form the benchmark generator emits for seeds 1-3, the
hypothesis strategies below, and seeded mutants of both.  Text with a
digit outside 0-9 is left out on purpose: the reference reads it with
str.isdigit and int(), the package refuses it (tested at the end).
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dsl_reference as ref
from towerforms import dsl, errors
from towerforms.fields import FieldTower, SampleBudget, format_element, sample
from towerforms.pfister import BilinearPfisterSymbol, QuadraticPfisterSymbol
from towerforms.qforms import QuadraticForm

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
import gen  # noqa: E402

SEEDS = (1, 2, 3)
OPS = 60


def _shape(value):
    """A comparable picture of a parse result: its type and raws."""
    if isinstance(value, FieldTower):
        return ("field", value)
    if isinstance(value, QuadraticPfisterSymbol):
        return ("quadratic", tuple(a.raw for a in value.slots),
                value.last.raw)
    if isinstance(value, BilinearPfisterSymbol):
        return ("bilinear", tuple(a.raw for a in value.slots))
    if isinstance(value, QuadraticForm):
        return ("form", tuple(a.raw for a in value.diag))
    return ("element", value.raw)


def _outcome(parse, *args):
    try:
        return ("ok", _shape(parse(*args)))
    except errors.ParseError as e:
        return ("ParseError", str(e), e.pos)
    except errors.TowerFormsError as e:
        return (type(e).__name__, str(e))


def _both(kind, tower, text):
    """(package outcome, reference outcome) of one text."""
    args = (text,) if kind == "field" else (tower, text)
    return (_outcome(getattr(dsl, f"parse_{kind}"), *args),
            _outcome(getattr(ref, f"parse_{kind}"), *args))


def _generated():
    """(kind, field text, text) for every field, symbol and form the
    generator emits in the first OPS ops of each workload, seeds 1-3."""
    out = []
    for workload in gen.WORKLOADS:
        for seed in SEEDS:
            for op in gen.generate(workload, seed, OPS):
                if "symbols" in op:
                    field = op["field"]
                    out += [("pfister", field, s) for s in op["symbols"]]
                    continue
                argv = op["argv"]
                field = argv[argv.index("--field") + 1]
                for flag, kind in (("--p1", "pfister"), ("--p2", "pfister"),
                                   ("--pfister", "pfister"),
                                   ("--form", "form")):
                    if flag in argv:
                        out.append((kind, field, argv[argv.index(flag) + 1]))
                out.append(("field", field, field))
    return out


GENERATED = _generated()


def test_generated_texts_give_the_same_raws():
    towers = {}
    for kind, field, text in GENERATED:
        tower = towers.setdefault(field, dsl.parse_field(field))
        mine, theirs = _both(kind, tower, text)
        assert mine == theirs, text
        assert mine[0] == "ok", text
    assert len(GENERATED) > 1000


# ---------------------------------------------------------------------------
# hypothesis: element, form and symbol texts over several towers

TOWERS = ["GF(3)", "GF(7)", "GF(9)", "GF(3)((t))", "GF(5)((t))((u))",
          "GF(9)((t))", "GF(3)(X)", "GF(5)((t))(X)", "GF(3)((t))((u))((w))"]


def _names(field):
    tower = dsl.parse_field(field)
    names = [lv.symbol for lv in tower.levels]
    return names + ["g"] if tower.base_degree > 1 else names


def _space():
    return st.sampled_from(["", "", "", " ", "  ", "\t"])


def _element_texts(field):
    leaf = st.one_of(st.integers(0, 12).map(str),
                     st.sampled_from(_names(field) or ["1"]))

    def extend(inner):
        operand = st.one_of(inner, inner.map(lambda x: f"({x})"))
        binary = st.tuples(operand, _space(), st.sampled_from("+-*/"),
                           _space(), operand).map("".join)
        power = st.tuples(inner, st.sampled_from(["^", " ^ "]),
                          st.integers(-3, 3).map(str)).map(
            lambda x: f"({x[0]}){x[1]}{x[2]}")
        return st.one_of(binary, power, inner.map(lambda x: f"({x})"),
                         inner.map(lambda x: f"-{x}"))

    return st.recursive(leaf, extend, max_leaves=10)


@st.composite
def _cases(draw):
    field = draw(st.sampled_from(TOWERS))
    elements = st.lists(_element_texts(field), min_size=1, max_size=3)
    kind = draw(st.sampled_from(["element", "form", "pfister", "pfister"]))
    if kind == "element":
        return kind, field, draw(_element_texts(field))
    entries = draw(elements)
    if kind == "form":
        return kind, field, "diag[" + ", ".join(entries) + "]"
    shape = draw(st.sampled_from(["quadratic", "bilinear", "one"]))
    if shape == "bilinear":
        return kind, field, "<<" + ", ".join(entries) + ">>"
    if shape == "one":
        return kind, field, "<<" + entries[0] + "]]"
    last = draw(_element_texts(field))
    return kind, field, "<<" + ", ".join(entries) + "; " + last + "]]"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_cases())
def test_hypothesis_texts_give_the_same_outcome(case):
    kind, field, text = case
    mine, theirs = _both(kind, dsl.parse_field(field), text)
    assert mine == theirs


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(TOWERS), st.integers(0, 99))
def test_formatted_elements_give_the_same_raw(field, seed):
    tower = dsl.parse_field(field)
    a = sample(tower, SampleBudget(), seed)
    mine, theirs = _both("element", tower, format_element(a))
    assert mine == theirs == ("ok", ("element", a.raw))


# ---------------------------------------------------------------------------
# malformed text: seeded deletions, insertions and swaps

ALPHABET = "0123456789tuwXg+-*/^()[]<>;,.diagGF \t"
MUTANTS = 2400


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    how = rng.randrange(3)
    if how == 0 and i < len(text):
        return text[:i] + text[i + 1:]
    if how == 1 and i + 1 < len(text):
        return text[:i] + text[i + 1] + text[i] + text[i + 2:]
    return text[:i] + rng.choice(ALPHABET) + text[i:]


def _seed_texts():
    """{kind: [(field text, text)]} of valid texts to mutate."""
    fields = sorted({f for _, f, _ in GENERATED} | set(TOWERS))
    out = {"field": [(f, f) for f in fields], "element": [], "form": [],
           "pfister": []}
    for kind, field, text in GENERATED:
        if kind != "field":
            out[kind].append((field, text))
    out["element"] += [("GF(3)((t))", t) for t in (
        "(1+t)/(2-t^3)", "-2*t", "t^-2", " 1 + 2 * t ", "1/(1/(t-t))",
        "(t - t)^-1 + 1", "t/(2*t + t) - (t^2)^-1")]
    out["element"] += [("GF(9)((t))((u))", "g^3*u/(t + g) - -u^-2"),
                       ("GF(5)(X)", "(1 + X)/(X^2 - 4)*X^-1")]
    out["form"] += [("GF(5)((t))(X)", "diag[X, t/(1+X), -(X^2)]")]
    out["pfister"] += [("GF(9)((t))", "<<g, t; g^2 + t]]"),
                       ("GF(3)((t))", "<<t, 1 + t>>")]
    return out


def test_malformed_texts_fail_alike():
    rng = random.Random("dsl-oracle")
    seeds = _seed_texts()
    kinds = sorted(seeds)
    towers = {}
    outcomes = set()
    for _ in range(MUTANTS):
        kind = rng.choice(kinds)
        field, text = rng.choice(seeds[kind])
        bad = _mutate(rng, _mutate(rng, text) if rng.random() < 0.3 else text)
        tower = towers.setdefault(field, dsl.parse_field(field))
        mine, theirs = _both(kind, tower, bad)
        assert mine == theirs, (kind, field, bad)
        outcomes.add(mine[0])
    # some mutants stay valid, and every failure of both is a ParseError
    assert outcomes == {"ok", "ParseError"}


@pytest.mark.parametrize("kind, text, message", [
    ("element", "t->1", "unexpected trailing input at position 1"),
    ("element", "t ->1", "unexpected trailing input at position 2"),
    ("element", "1/y", "unknown symbol 'y' in GF(3)((t)) at position 3"),
    ("element", "1/0 ", "inverse of zero at position 4"),
    ("element", "1/0^1 ", "inverse of zero at position 5"),
    ("element", "(t-t)^-1", "inverse of zero at position 8"),
    ("element", "*", "expected a symbol name at position 0"),
    ("form", "diagx[1]", "expected '[' at position 4"),
    ("form", "diag[1]]", "unexpected trailing input at position 7"),
    ("pfister", "<< t] ]", "expected ';', ']]' or '>>' at position 4"),
    ("pfister", "< <t]]", "expected '<<' at position 0"),
    ("pfister", "<<1, 2", "expected ';', ']]' or '>>' at position 6"),
    ("field", "X", "expected 'GF' at position 0"),
    ("form", "dia[1]", "expected 'diag' at position 0"),
    ("pfister", "<<t, 1]]", "a quadratic symbol with slots needs ';'"),
    ("field", "GFx(3)", "expected '(' at position 2"),
    ("field", "GF(3)( (t))", "expected a symbol name at position 7"),
    ("field", "GF(6 )", "GF(6): order must be a prime power at position 4"),
    ("field", "GF( 6)", "GF(6): order must be a prime power at position 5"),
])
def test_quirks_are_kept(kind, text, message):
    tower = dsl.parse_field("GF(3)((t))")
    mine, theirs = _both(kind, tower, text)
    assert mine == theirs
    assert mine[0] == "ParseError" and mine[1].startswith(message)


@pytest.mark.parametrize("text", ["1/(1/y)", "1/(1/(1/y))", "1/(t/0)",
                                  "t/(1 + 1/(t - t))"])
def test_a_divisor_error_is_reported_once(text):
    """An error inside a divisor is raised as it is, not wrapped again by
    each enclosing '/'."""
    mine, theirs = _both("element", dsl.parse_field("GF(3)((t))"), text)
    assert mine == theirs and mine[0] == "ParseError"
    assert mine[1].count(" at position ") == 1, mine[1]


@pytest.mark.parametrize("field, text", [
    ("GF(9)((g))", "g^2 + g"), ("GF(3)((g))", "1 + g"),
    ("GF(5)((t))", "(1 + t + t^2)*(2 - t + 3*t^2)/(t - t^3)^2"),
])
def test_a_level_named_g_and_products_of_sums(field, text):
    mine, theirs = _both("element", dsl.parse_field(field), text)
    assert mine == theirs


# ---------------------------------------------------------------------------
# digits outside 0-9


@pytest.mark.parametrize("kind, text, pos", [
    ("element", "²", 0), ("element", "1 + ٣", 4), ("element", "t²", 1),
    ("field", "GF(²)", 3), ("field", "GF(3٣)", 4),
    ("form", "diag[1, ²]", 8), ("pfister", "<<t; ٣]]", 5),
])
def test_non_ascii_digits_are_refused_at_their_position(kind, text, pos):
    tower = dsl.parse_field("GF(3)((t))")
    parse = getattr(dsl, f"parse_{kind}")
    with pytest.raises(errors.ParseError) as exc:
        parse(text) if kind == "field" else parse(tower, text)
    assert exc.value.pos == pos
    assert "not an ASCII digit" in str(exc.value)


def test_non_ascii_letters_still_name_levels():
    tower = dsl.parse_field("GF(3)((é))")
    assert dsl.parse_element(tower, "é^2 + 1") == \
        ref.parse_element(tower, "é^2 + 1")
    mine, theirs = _both("element", tower, "é½")
    assert mine == theirs and mine[0] == "ParseError"
