"""Linkage deciders, certificate search, and verification harnesses.

Two d-fold Pfister symbols are linked when they share a (d-1)-fold Pfister
subform, which is decided by the Witt index of the difference of their
expansions being at least 2^{d-1}.  That index is read off the square
classes of the slots and of 1 + 4b (pfister.expansion_classes, from
qforms.read_classes): over Laurent towers one qforms.square_class int
each, over GF(p)(X) one place-class int each over S, the places of all
slots and 1 + 4b plus infinity.  The Laurent class representatives are
qforms.class_reps, a class_rep per int; a negative's class is the int
XOR that of -1.
Certificates exhibit an explicit common presentation
<<a1, shared...; b]] / <<a1', shared...; b]].  The search decides every
candidate on the same square classes, by XOR, with no expansion, and ends
on its own finite candidate set (find_certificate); a certificate
re-verifies by isometry of the expanded symbols (LinkageCertificate.verify).

The verify_* functions are seeded sampling harnesses for the residue
transfer, lifting equivalence, and higher-local statements; they report
"N samples, listed failures", never universal truth.
"""

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache

from . import fields as fl
from . import localglobal, pfister, qforms
from . import valuation as vmod
from .errors import (BudgetExceeded, ConfigUnsupported, FoldMismatch,
                     IsotropicInput, TowerMismatch)

NOT_FOUND = "not-found"


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    field: str
    d: int = None
    n: int = None
    m: int = None
    samples: int = 0
    seed: int = 0
    failures: tuple = ()
    elapsed_ms: int = 0

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {"theorem": self.theorem, "field": self.field,
                "d": self.d, "n": self.n, "m": self.m,
                "samples": self.samples, "seed": self.seed,
                "failures": list(self.failures),
                "elapsed_ms": self.elapsed_ms}


@dataclass(frozen=True)
class LinkageCertificate:
    tower: fl.FieldTower
    left1: object        # a_1
    left2: object        # a_1'
    shared: tuple        # a_2, ..., a_{d-1}
    last: object         # b

    def __post_init__(self):
        # a product of field elements is zero iff a factor is
        factors = (self.left1, self.left2, self.tower.one + 4 * self.last)
        if any(x.is_zero() for x in factors + self.shared):
            raise ConfigUnsupported("degenerate certificate data")

    def symbol1(self):
        return pfister.QuadraticPfisterSymbol(
            self.tower, (self.left1,) + self.shared, self.last)

    def symbol2(self):
        return pfister.QuadraticPfisterSymbol(
            self.tower, (self.left2,) + self.shared, self.last)

    def verify(self, q1, q2):
        """Re-check both isometry claims against the given symbols."""
        return (qforms.isometric(pfister.expand(q1),
                                 pfister.expand(self.symbol1()))
                and qforms.isometric(pfister.expand(q2),
                                     pfister.expand(self.symbol2())))

    def to_json(self):
        return {"field": self.tower.describe(),
                "a1": fl.format_element(self.left1),
                "a1'": fl.format_element(self.left2),
                "shared": [fl.format_element(a) for a in self.shared],
                "b": fl.format_element(self.last)}


# ---------------------------------------------------------------------------
# deciders


def is_linked_pair(q1, q2):
    if q1.tower != q2.tower:
        raise TowerMismatch("symbols over different towers")
    if q1.fold != q2.fold:
        raise FoldMismatch("symbols of different fold")
    # the Witt index of the 2^(d+1)-dimensional difference
    index = (2 ** (q1.fold + 1) - pfister.difference_dimension(q1, q2)) // 2
    return index >= 2 ** (q1.fold - 1)


@lru_cache(maxsize=None)
def _class_pool(tower):
    """(the representatives of qforms.class_reps(tower), the square_class
    ints of their negatives keyed by raw), the class of -s being that of s
    XOR that of -1; empty over GF(p)(X), whose square classes are
    infinite.  Callers must not mutate the dict."""
    try:
        pairs = qforms.class_reps(tower)
    except ConfigUnsupported:
        return (), {}
    minus_one = qforms.minus_one_class(tower)
    return (tuple(s for _, s in pairs),
            {s.raw: c ^ minus_one for c, s in pairs})


def find_certificate(q1, q2):
    """The first certificate <<a1, shared; b]] ~ q1, <<a1', shared; b]] ~
    q2 in a fixed order, or NOT_FOUND when the candidates run out.

    The slots range over the symbols' own, then the square-class
    representatives when the tower has finitely many classes; c = 1 + 4b
    over c1, c2 and those representatives.  The shared slots commute, so
    they run over multisets: the first hit in itertools.product order is
    non-decreasing.  A factor psi = <<shared; b]] of q is a subform, so psi
    is skipped unless expand(q) _|_ -expand(psi) has dimension <= 2^(d-1)
    for both symbols; a test <<a, shared; b]] ~ q passes when expand(q)
    _|_ -expand(candidate) has dimension 0.  Each dimension is read off the
    classes of the slots and c of both symbols (qforms.read_classes),
    the entries having the XOR of the classes of -c and the -slots
    (pfister.class_span).  That is exact on both kinds of tower, since
    every entry is a product of elements read, and over GF(p)(X) every
    form has dimension >= 6.  A search makes at most |lasts| *
    C(|reps| + d - 3, d - 2) pairs of subform tests, plus 2 |reps| slot
    tests per factor that passes them: sampled pairs took <= 0.004 s at
    fold 4 over GF(3)((t))((u))((w)) and <= 0.23 s at fold 5 over one more
    Laurent level (Xeon, 2 cores, Python 3.11).  Nothing is expanded, and
    b = (c - 1) / 4 is built only for the certificate returned.
    """
    if q1.tower != q2.tower:
        raise TowerMismatch("symbols over different towers")
    if q1.fold != q2.fold:
        raise FoldMismatch("symbols of different fold")
    d = q1.fold
    if d < 2:
        raise ConfigUnsupported("certificates need fold >= 2")
    tower = q1.tower
    own = (q1.c, q2.c) + q1.slots + q2.slots
    classes, minus_one, dimension = qforms.read_classes(tower, own)
    pool, pool_negs = _class_pool(tower)
    # the class of -x, by raw: elements of one tower are equal iff their
    # raws are
    neg = pool_negs | {x.raw: c ^ minus_one for x, c in zip(own, classes)}
    reps = [(a, neg[raw]) for raw, a in
            {a.raw: a for a in q1.slots + q2.slots + pool}.items()]
    # c -> (c, b or None): the c = 1 + 4b cover every class
    lasts = {}
    for c, b in [(q1.c, q1.last), (q2.c, q2.last)] + [(s, None) for s in pool]:
        lasts.setdefault(c.raw, (c, b))
    t1, t2 = (pfister.class_span([neg[x.raw] for x in (q.c,) + q.slots])
              for q in (q1, q2))

    def first_slot(target, base):
        """The first a in reps with <<a, shared; b]] ~ target, base being
        the classes of -expand(<<shared; b]])."""
        for a, g in reps:
            if not dimension(target + base + [e ^ g for e in base]):
                return a
        return None

    for c, b in lasts.values():
        for shared in itertools.combinations_with_replacement(reps, d - 2):
            base = [e ^ minus_one for e in pfister.class_span(
                [neg[c.raw]] + [g for _, g in shared])]
            # a factor of both is a subform of both
            if dimension(t1 + base) > len(base) or \
                    dimension(t2 + base) > len(base):
                continue
            left1 = first_slot(t1, base)
            if left1 is None:
                continue
            left2 = first_slot(t2, base)
            if left2 is not None:
                return LinkageCertificate(
                    tower, left1, left2, tuple(a for a, _ in shared),
                    (c - 1) / 4 if b is None else b)
    return NOT_FOUND


# ---------------------------------------------------------------------------
# sampling helpers


def _sample_b(tower, budget, seed):
    """An element usable as quadratic last slot: 1 + 4b != 0."""
    for k in range(32):
        b = fl.sample(tower, budget, (seed, "b", k))
        if not (tower.one + 4 * b).is_zero():
            return b
    raise ConfigUnsupported("could not sample a last slot")  # unreachable


def sample_symbol(tower, fold, seed, budget=fl.SampleBudget()):
    if fold < 1:
        raise ConfigUnsupported("a Pfister symbol needs fold >= 1")
    slots = tuple(fl.sample(tower, budget, (seed, "slot", j))
                  for j in range(fold - 1))
    return pfister.QuadraticPfisterSymbol(tower, slots,
                                          _sample_b(tower, budget, seed))


# ---------------------------------------------------------------------------
# verification harnesses


def _require_positive(samples, d=1):
    """Refuse harness sizes that would check nothing or mislabel the fold."""
    if samples < 1 or d < 1:
        raise ConfigUnsupported(f"a sampled check needs samples >= 1 and "
                                f"d >= 1, got samples={samples}, d={d}")


def _report(theorem, tower, start, failures, samples, seed, d=None, n=None,
            m=None):
    return VerificationReport(
        theorem=theorem, field=tower.describe(), d=d, n=n, m=m,
        samples=samples, seed=seed, failures=tuple(failures),
        elapsed_ms=int((time.perf_counter() - start) * 1000))


def check_top_d_linked(tower, d, samples=200, seed=0,
                       budget=fl.SampleBudget()):
    """Sampled check that the tower is top-d-linked: (d+1)-fold symbols are
    isotropic and pairs of d-fold symbols are linked."""
    _require_positive(samples, d)
    start = time.perf_counter()
    failures = []
    for i in range(samples):
        s = sample_symbol(tower, d + 1, (seed, "iso", i), budget)
        if not pfister.symbol_isotropic(s):
            failures.append({"kind": "anisotropic-(d+1)-fold", "index": i,
                             "symbol": s.describe()})
    for i in range(samples):
        s1 = sample_symbol(tower, d, (seed, "pair-a", i), budget)
        s2 = sample_symbol(tower, d, (seed, "pair-b", i), budget)
        if not is_linked_pair(s1, s2):
            failures.append({"kind": "unlinked-pair", "index": i,
                             "symbols": [s1.describe(), s2.describe()]})
    return _report("top-linked", tower, start, failures, samples, seed, d=d)


def verify_residue_transfer(tower, n, m, samples=200, seed=0,
                            budget=fl.SampleBudget()):
    """Sampled check of the residue transfer theorem for (n+m)-fold symbols:
    residue folds land in [n, n+m], the explicit lift hits every sampled
    n-fold residue symbol, and non-isometric residues give non-isometric
    lifts."""
    _require_positive(samples)
    start = time.perf_counter()
    if n != 1:
        raise ConfigUnsupported(
            "the I^{n+1}(Kv) = 0 hypothesis is certified only for n = 1 "
            "(finite residue field)")
    ctx = vmod.ValuationCtx(tower, m)
    if ctx.residue_tower.levels:
        raise ConfigUnsupported("residue tower must be finite for n = 1")
    rt = ctx.residue_tower
    failures = []

    # (a) residue fold bounds on sampled (n+m)-fold symbols
    for i in range(samples):
        s = sample_symbol(tower, n + m, (seed, "fold", i), budget)
        try:
            rep = pfister.pfister_residues(s, ctx)
        except IsotropicInput:
            continue  # hyperbolic symbols have zero residues
        except ConfigUnsupported:
            continue  # no good-slot presentation within the span
        n2 = rep.first_residue.fold
        if not n <= n2 <= n + m:
            failures.append({"kind": "fold-out-of-range", "index": i,
                             "symbol": s.describe(), "residue_fold": n2})

    # (b) surjectivity via the explicit lift <<t_1,...,t_m, slots..., b]]
    uniformizers = tuple(tower.gen(sym) for sym in ctx.symbols)
    lifts = []
    for i in range(samples):
        r = sample_symbol(rt, n, (seed, "surj", i), budget)
        lift = _lift_symbol(tower, uniformizers, r)
        lifts.append((r, lift))
        try:
            rep = pfister.pfister_residues(lift, ctx)
        except IsotropicInput:
            if not pfister.symbol_isotropic(r):
                failures.append({"kind": "lift-lost-anisotropy", "index": i,
                                 "symbol": r.describe()})
            continue
        if not pfister.symbols_isometric(rep.first_residue, r):
            failures.append({"kind": "lift-residue-mismatch", "index": i,
                             "symbol": r.describe(),
                             "residue": rep.first_residue.describe()})

    # (c) injectivity on consecutive sample pairs
    for i in range(len(lifts) - 1):
        (r1, l1), (r2, l2) = lifts[i], lifts[i + 1]
        same_res = pfister.symbols_isometric(r1, r2)
        same_lift = pfister.symbols_isometric(l1, l2)
        if same_res != same_lift:
            failures.append({"kind": "injectivity-break", "index": i,
                             "symbols": [r1.describe(), r2.describe()]})
    return _report("residue-transfer", tower, start, failures, samples, seed,
                   n=n, m=m)


def _lift_symbol(tower, uniformizers, residue_symbol):
    slots = uniformizers + tuple(tower.embed(a)
                                 for a in residue_symbol.slots)
    return pfister.QuadraticPfisterSymbol(tower, slots,
                                          tower.embed(residue_symbol.last))


def verify_lifting_equivalence(tower, d, m, samples=100, seed=0,
                               budget=fl.SampleBudget()):
    """Sampled check that top-d-linked for the residue tower and
    top-(d+m)-linked for the tower agree (henselian lifting equivalence)."""
    _require_positive(samples, d)
    start = time.perf_counter()
    if m == 0:
        down = check_top_d_linked(tower, d, samples, seed, budget)
        return _report("lifting-equivalence", tower, start, down.failures,
                       samples, seed, d=d, m=m)
    ctx = vmod.ValuationCtx(tower, m)
    down = check_top_d_linked(ctx.residue_tower, d, samples, seed, budget)
    up = check_top_d_linked(tower, d + m, samples, seed, budget)
    failures = []
    if down.passed != up.passed:
        failures.append({"kind": "equivalence-mismatch",
                         "residue_passed": down.passed,
                         "tower_passed": up.passed,
                         "residue_failures": list(down.failures)[:3],
                         "tower_failures": list(up.failures)[:3]})
    return _report("lifting-equivalence", tower, start, failures, samples,
                   seed, d=d, m=m)


def verify_higher_local_d1(q_base, samples=500, seed=0):
    """Sampled check that GF(q)(X) is top-2-linked (higher-local at d = 1):
    3-fold symbols with small slots are isotropic (with explicit witnesses)
    and pairs of 2-fold symbols are linked."""
    _require_positive(samples)
    start = time.perf_counter()
    tower = fl.FieldTower(q_base, 1, (fl.LevelDescriptor("X", fl.RATFUNC),))
    budget = fl.SampleBudget(max_deg=2)
    failures = []
    for i in range(samples):
        s = sample_symbol(tower, 3, (seed, "iso", i), budget)
        q = pfister.expand(s)
        try:
            vec = localglobal.isotropic_vector_global(q)
            kind = ("anisotropic-3-fold" if vec is None else None
                    if qforms.is_isotropic_vector(q, vec) else
                    "witness-invalid")
        except BudgetExceeded:
            kind = "witness-budget"
        if kind is not None:
            failures.append({"kind": kind, "index": i,
                             "symbol": s.describe()})
    for i in range(samples):
        s1 = sample_symbol(tower, 2, (seed, "pair-a", i), budget)
        s2 = sample_symbol(tower, 2, (seed, "pair-b", i), budget)
        if not is_linked_pair(s1, s2):
            failures.append({"kind": "unlinked-pair", "index": i,
                             "symbols": [s1.describe(), s2.describe()]})
    return _report("higher-local-d1", tower, start, failures, samples, seed,
                   d=1)
