"""Pfister symbols, slot rewriting, and residue computation.

A quadratic Pfister symbol <<a1,...,a_{d-1}; b]] expands (char != 2) to
<1, -(1+4b)> tensored with the bilinear part <1,-a1> x ... x <1,-a_{d-1}>.
The rewrite calculus (Swap / Merge / SquareScale) realizes the slot
manipulations used to push the last bilinear slot into the valuation ring,
and the residue report computes all residue forms of an anisotropic symbol
from a normalized presentation.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import fields as fl
from . import qforms
from . import valuation as vmod
from .errors import (ConfigUnsupported, IsotropicInput,
                     PreconditionSpanViolated, RuleNotApplicable,
                     TowerFormsError, TowerMismatch, ZeroArgument)


@dataclass(frozen=True)
class QuadraticPfisterSymbol:
    tower: fl.FieldTower
    slots: tuple  # a_1, ..., a_{d-1}, all nonzero
    last: object  # b, with 1 + 4b != 0 (b = 0 encodes the hyperbolic symbol)

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        for a in self.slots:
            if a.tower != self.tower:
                raise TowerMismatch("slot from a different tower")
            if a.is_zero():
                raise ZeroArgument("zero Pfister slot")
        if self.last.tower != self.tower:
            raise TowerMismatch("last slot from a different tower")
        if self.c.is_zero():
            raise ZeroArgument("1 + 4b must be nonzero")

    @cached_property
    def c(self):
        """1 + 4b: the symbol expands to <1, -c> x <1, -a_1> x ..."""
        return self.tower.one + 4 * self.last

    @property
    def fold(self):
        return len(self.slots) + 1

    def describe(self):
        inner = ", ".join(fl.format_element(a) for a in self.slots)
        head = f"<<{inner}; " if inner else "<<"
        return head + fl.format_element(self.last) + "]]"


@dataclass(frozen=True)
class BilinearPfisterSymbol:
    tower: fl.FieldTower
    slots: tuple

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise TowerFormsError("a bilinear symbol needs at least one slot")
        for a in self.slots:
            if a.tower != self.tower:
                raise TowerMismatch("slot from a different tower")
            if a.is_zero():
                raise ZeroArgument("zero Pfister slot")

    @property
    def fold(self):
        return len(self.slots)

    def describe(self):
        return "<<" + ", ".join(fl.format_element(a) for a in self.slots) + ">>"


@dataclass(frozen=True)
class RewriteStep:
    rule: str  # "swap" | "merge" | "square_scale" | "collapse"
    index: int  # 1-based slot position the rule acts at
    scalar: object = None  # SquareScale factor
    before: tuple = ()
    after: tuple = ()

    def to_json(self):
        out = {"rule": self.rule, "index": self.index,
               "before": [fl.format_element(a) for a in self.before],
               "after": [fl.format_element(a) for a in self.after]}
        if self.scalar is not None:
            out["scalar"] = fl.format_element(self.scalar)
        return out


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple = ()

    def replay(self, symbol):
        """Re-apply all steps to a symbol, checking the recorded snapshots."""
        slots = symbol.slots
        for step in self.steps:
            if slots != step.before:
                raise TowerFormsError("trace does not match the symbol")
            slots = _apply_rule(slots, step.rule, step.index, step.scalar)
            if slots != step.after:
                raise TowerFormsError("trace snapshot mismatch")
        return BilinearPfisterSymbol(symbol.tower, slots)

    def to_json(self):
        return [s.to_json() for s in self.steps]


def _apply_rule(slots, rule, index, scalar=None):
    i = index - 1
    slots = list(slots)
    if rule == "swap":
        if i < 0 or i + 1 >= len(slots):
            raise RuleNotApplicable("swap index out of range")
        slots[i], slots[i + 1] = slots[i + 1], slots[i]
    elif rule == "merge":
        if i < 0 or i + 1 >= len(slots):
            raise RuleNotApplicable("merge index out of range")
        a, b = slots[i], slots[i + 1]
        if (a + b).is_zero():
            raise RuleNotApplicable("merge needs a_i + a_{i+1} != 0")
        slots[i], slots[i + 1] = a + b, -(a * b)
    elif rule == "square_scale":
        if i < 0 or i >= len(slots):
            raise RuleNotApplicable("scale index out of range")
        if scalar is None or scalar.is_zero():
            raise RuleNotApplicable("scale factor must be nonzero")
        slots[i] = slots[i] * scalar * scalar
    elif rule == "collapse":
        # a_i + a_{i+1} = 0: the pair <<a,-a>> is metabolic, the whole form
        # hyperbolic; record this by forcing the last slot to 1.
        if i < 0 or i + 1 >= len(slots):
            raise RuleNotApplicable("collapse index out of range")
        if not (slots[i] + slots[i + 1]).is_zero():
            raise RuleNotApplicable("collapse needs a_i + a_{i+1} = 0")
        slots[-1] = slots[i].tower.one
    else:
        raise RuleNotApplicable(f"unknown rule {rule!r}")
    return tuple(slots)


def rewrite(symbol, rule):
    """Apply one rule, given as ("swap", i), ("merge", i), ("collapse", i) or
    ("square_scale", i, c), and return (new symbol, one-step trace)."""
    name, index = rule[0], rule[1]
    scalar = rule[2] if len(rule) > 2 else None
    after = _apply_rule(symbol.slots, name, index, scalar)
    step = RewriteStep(name, index, scalar, symbol.slots, after)
    return (BilinearPfisterSymbol(symbol.tower, after), RewriteTrace((step,)))


# ---------------------------------------------------------------------------
# expansion
#
# The entries of <1, -x_1> x ... x <1, -x_k> are the products of the
# subsets of the generators -x_i, each negated once.  A level with the
# subset products (GF(p)((t))((u)) and the like, see fields.FracField)
# computes them from one layout: each generator is packed once, and each
# entry is one int product of an earlier entry and a generator, cut once
# into its raw.  Every other level, and generators that do not fit that
# layout (dens that are not monomials, Frobenius images that pack sparse),
# take each entry as one field product of an earlier entry and a
# generator.


def _times_slots(tower, gens):
    """The entries of <1, -x_1> x ... x <1, -x_k> in order, from gens =
    [-x_i]: entry e is the product of the gens at the bits of e, so entry
    2^j is gens[j] itself."""
    products = getattr(tower.ops, "subset_products", None)
    raws = products([g.raw for g in gens]) if products else None
    if raws is not None:
        return [fl.Element(tower, raw) for raw in raws]
    diag, mul = [tower.one], tower.ops.mul
    for g in gens:
        diag += [g] + [fl.Element(tower, mul(g.raw, d.raw)) for d in diag[1:]]
    return diag


def expand_bilinear(symbol):
    return qforms.QuadraticForm(symbol.tower, tuple(
        _times_slots(symbol.tower, [-a for a in symbol.slots])))


def expand(symbol):
    """The 2^d-dimensional diagonal quadratic form of a quadratic symbol."""
    return qforms.QuadraticForm(symbol.tower, tuple(_times_slots(
        symbol.tower, [-symbol.c] + [-a for a in symbol.slots])))


# ---------------------------------------------------------------------------
# decisions on square classes
#
# The square classes that qforms.read_classes gives, one square_class int
# per element over a finite or Laurent tower and one place_class int over
# S on GF(p)(X), form an F2-space in which the class of a product is the
# XOR of the classes.  So the entry -x_1 * ... * -x_k of
# <1, -c> x <1, -a_1> x ... has the XOR of the classes of -c, -a_i: the
# 2^d classes of an expansion come from d + 1 reads, and no decision
# multiplies an entry out.


def class_span(gens):
    """The classes of the entries of <1, -x_1> x ... x <1, -x_k>, in
    expand's order, from gens = [class of -x_i]."""
    out = [0]
    for g in gens:
        out += [e ^ g for e in out]
    return out


def expansion_classes(*symbols):
    """(classes, minus_one, dimension) for symbols over one tower: the
    square classes of the entries of each expand(s), in its order, that of
    -1, and the rule that gives a diagonal form's anisotropic dimension
    from its entries' classes (qforms.read_classes of every c and slot)."""
    gens = [(s.c,) + s.slots for s in symbols]
    classes, minus_one, dimension = qforms.read_classes(symbols[0].tower,
                                                        sum(gens, ()))
    negs = (c ^ minus_one for c in classes)
    return ([class_span(list(itertools.islice(negs, len(g)))) for g in gens],
            minus_one, dimension)


def difference_dimension(s1, s2):
    """Anisotropic dimension of expand(s1) _|_ -expand(s2), for symbols
    over one tower, on expansion_classes."""
    (c1, c2), minus_one, dimension = expansion_classes(s1, s2)
    return dimension(c1 + [c ^ minus_one for c in c2])


def symbol_isotropic(symbol):
    """Whether expand(symbol) is isotropic: always when its dimension 2^d
    exceeds the u-invariant (qforms.u_invariant).  Otherwise a 1-fold
    symbol is isotropic iff c is a square (the binary form's
    discriminant), and every other decision reads the classes of
    expansion_classes."""
    tower = symbol.tower
    u = qforms.u_invariant(tower)
    if u is not None and 2 ** symbol.fold > u:
        return True
    if symbol.fold == 1:
        return fl.is_square(tower, symbol.c)
    (classes,), _, dimension = expansion_classes(symbol)
    return dimension(classes) < len(classes)


def symbols_isometric(s1, s2):
    """Whether expand(s1) and expand(s2) are isometric."""
    if s1.tower != s2.tower:
        raise TowerMismatch("symbols over different towers")
    return s1.fold == s2.fold and difference_dimension(s1, s2) == 0


# ---------------------------------------------------------------------------
# slot normalization (the left-slot-finding induction)


class _Normalizer:
    """Mutable slot list plus trace recording, shared by the rewrite loops."""

    def __init__(self, tower, slots, ctx):
        self.tower = tower
        self.slots = list(slots)
        self.ctx = ctx
        self.steps = []

    def vec(self, a):
        return self.ctx.value_vector(a)

    def is_unit(self, a):
        return not any(self.vec(a))

    def apply(self, rule, index, scalar=None):
        before = tuple(self.slots)
        after = _apply_rule(before, rule, index, scalar)
        self.steps.append(RewriteStep(rule, index, scalar, before, after))
        self.slots = list(after)

    def trace(self):
        return RewriteTrace(tuple(self.steps))

    def normalize_window(self, lo, hi):
        """Make slots[hi] a unit, rewriting only within slots[lo..hi].

        Precondition: v(slots[hi]) lies in the span of v(slots[lo..hi-1]).
        Returns True if a collapse occurred (the form is hyperbolic).
        """
        vlast = self.vec(self.slots[hi])
        if all(e % 2 == 0 for e in vlast):
            if any(vlast):
                c = self.ctx.monomial(tuple(-e // 2 for e in vlast))
                self.apply("square_scale", hi + 1, c)
            return False
        # pick j in the spanning set so that the merged slot's valuation
        # stays inside the span of the remaining ones
        candidates = []
        for j in range(lo, hi):
            others = [self.vec(self.slots[i]) for i in range(lo, hi) if i != j]
            target = [a + b for a, b in zip(self.vec(self.slots[j]), vlast)]
            if vmod.f2_solve(others, target) is not None:
                candidates.append(j)
        if not candidates:
            raise PreconditionSpanViolated(
                "last slot valuation outside the span of the others")
        merge = next((j for j in candidates
                      if not (self.slots[j] + self.slots[hi]).is_zero()), None)
        j = candidates[0] if merge is None else merge
        for pos in range(j, hi - 1):
            self.apply("swap", pos + 1)
        if merge is None:
            # the Merge rule is inapplicable for every usable slot: the form
            # is hyperbolic, which we record as an explicit trace step next
            # to slot hi
            self.apply("collapse", hi)
            return True
        self.apply("merge", hi)
        for pos in range(hi - 2, lo - 1, -1):
            self.apply("swap", pos + 1)
        return self.normalize_window(lo + 1, hi)


def normalize_last_slot(symbol, ctx):
    """Rewrite a bilinear symbol so its last slot is a valuation unit."""
    vals = [ctx.value_vector(a) for a in symbol.slots]
    if vmod.f2_solve(vals[:-1], vals[-1]) is None:
        raise PreconditionSpanViolated(
            "v(last slot) is not in the F2-span of the other slot valuations")
    norm = _Normalizer(symbol.tower, symbol.slots, ctx)
    norm.normalize_window(0, len(symbol.slots) - 1)
    return (BilinearPfisterSymbol(symbol.tower, tuple(norm.slots)),
            norm.trace())


# ---------------------------------------------------------------------------
# good slot presentations


def good_slot_presentation(symbol, ctx):
    """An isometric symbol with v(b) = v(1+4b) = 0.

    For anisotropic symbols this always succeeds when v(1+4b) lies in the
    span of the slot valuations: the bilinear normalization produces a unit
    c' = 1+4b' whose residue cannot be 1 (else c' would be a square and the
    form hyperbolic), so b' = (c'-1)/4 is a unit too.  Isotropic symbols are
    returned in the canonical hyperbolic presentation b = 0 (no unit-slot
    presentation exists for them in general).
    """
    tower = symbol.tower
    b, c = symbol.last, symbol.c
    if not b.is_zero() and not any(ctx.value_vector(b)) \
            and not any(ctx.value_vector(c)):
        return symbol
    if symbol_isotropic(symbol):
        return QuadraticPfisterSymbol(tower, symbol.slots, tower.zero)
    if not symbol.slots:
        raise ConfigUnsupported(
            "anisotropic 1-fold symbol with v(1+4b) != 0 has no good slot "
            "presentation")
    bil = BilinearPfisterSymbol(tower, symbol.slots + (c,))
    try:
        bil2, _ = normalize_last_slot(bil, ctx)
    except PreconditionSpanViolated as exc:
        # e.g. <1,-t>: an anisotropic symbol whose discriminant valuation is
        # outside the slot span provably has no good slot presentation
        raise ConfigUnsupported(
            "no good slot presentation: v(1+4b) outside the slot-valuation "
            "span") from exc
    c2 = bil2.slots[-1]
    if ctx.residue(c2) == 1:
        raise TowerFormsError(
            "internal: unit last slot with residue 1 on an anisotropic form")
    b2 = (c2 - 1) / 4
    return QuadraticPfisterSymbol(tower, bil2.slots[:-1], b2)


# ---------------------------------------------------------------------------
# residue computation


@dataclass(frozen=True)
class PfisterResidueReport:
    symbol: QuadraticPfisterSymbol       # normalized input presentation
    ctx: vmod.ValuationCtx
    m: int                               # independent non-unit slot count
    first_residue: QuadraticPfisterSymbol  # over the residue tower
    entries: tuple  # ((indices I, representative pi, similarity multiplier),)

    def residue_at(self, pi):
        """(multiplier, first_residue) at pi, or None when the residue is 0."""
        if pi.is_zero():
            raise ZeroArgument("residue at zero")
        vp, r_pi = self.ctx.split(pi)
        splits = [self.ctx.split(a) for a in self.symbol.slots[:self.m]]
        I = vmod.f2_solve([w for w, _ in splits], vp)
        if I is None:
            return None
        # the residue of sign * prod * t^2 / pi, where prod is the product of
        # the slots in I and t the monomial that matches the values
        rt = self.ctx.residue_tower
        mult = rt.one if len(I) % 2 == 0 else -rt.one
        for i in I:
            mult = mult * splits[i][1]
        return (mult / r_pi, self.first_residue)

    def to_json(self):
        return {
            "field": self.symbol.tower.describe(),
            "symbol": self.symbol.describe(),
            "m": self.m,
            "first_residue": self.first_residue.describe(),
            "residue_field": self.first_residue.tower.describe(),
            "rule": "residue is 0 off the F2-span of the slot valuations, "
                    "similar to the first residue on it",
            "entries": [{
                "indices": list(I),
                "representative": fl.format_element(pi),
                "multiplier": fl.format_element(mult),
            } for I, pi, mult in self.entries],
        }


def _partition_units(norm):
    """Bubble unit slots to the right; returns the non-unit prefix length."""
    n = len(norm.slots)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            if norm.is_unit(norm.slots[i]) and not norm.is_unit(norm.slots[i + 1]):
                norm.apply("swap", i + 1)
                changed = True
    return sum(1 for a in norm.slots if not norm.is_unit(a))


def normalized_presentation(symbol, ctx):
    """Rewrite so the first m slots have F2-independent valuations and the
    rest are units; returns (symbol, trace, m)."""
    norm = _Normalizer(symbol.tower, symbol.slots, ctx)
    while True:
        p = _partition_units(norm)
        vals = [norm.vec(a) for a in norm.slots[:p]]
        dep = next((j for j in range(p)
                    if vmod.f2_solve(vals[:j], vals[j]) is not None), None)
        if dep is None:
            return (BilinearPfisterSymbol(symbol.tower, tuple(norm.slots)),
                    norm.trace(), p)
        if norm.normalize_window(0, dep):
            raise IsotropicInput("symbol collapsed: the form is hyperbolic")


def pfister_residues(symbol, ctx):
    """Residue report for an anisotropic quadratic Pfister symbol."""
    good = good_slot_presentation(symbol, ctx)
    if good.last.is_zero():
        raise IsotropicInput(
            "isotropic (hyperbolic) symbol: all residue forms are zero")
    if not good.slots:
        bil, m = None, 0
        slots = ()
    else:
        bil, _, m = normalized_presentation(
            BilinearPfisterSymbol(good.tower, good.slots), ctx)
        slots = bil.slots
    normalized = QuadraticPfisterSymbol(good.tower, slots, good.last)
    rt = ctx.residue_tower
    res_slots = tuple(ctx.residue(a) for a in slots[m:])
    first = QuadraticPfisterSymbol(rt, res_slots, ctx.residue(good.last))
    if symbol_isotropic(first):
        raise IsotropicInput(
            "symbol expands isotropically: all residue forms are zero")
    entries = []
    for mask in range(2 ** m):
        I = tuple(i for i in range(m) if (mask >> i) & 1)
        pi = normalized.tower.one
        for i in I:
            pi = pi * slots[i]
        sign = 1 if len(I) % 2 == 0 else -1
        # multiplier of the similarity with the first residue at pi itself
        mult = ctx.residue(normalized.tower.from_int(sign))
        entries.append((I, pi, mult))
    return PfisterResidueReport(normalized, ctx, m, first, tuple(entries))
