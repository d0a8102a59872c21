"""Linkage deciders, certificate search, and verification harnesses.

Two d-fold Pfister symbols are linked when they share a (d-1)-fold Pfister
subform, which is decided by the Witt index of the difference of their
expansions being at least 2^{d-1}.  Certificates exhibit an explicit common
presentation <<a1, shared...; b]] / <<a1', shared...; b]] and re-verify by
isometry of expansions.

The verify_* functions are seeded sampling harnesses for the residue
transfer, lifting equivalence, and higher-local statements; they report
"N samples, listed failures", never universal truth.
"""

import itertools
import time
from dataclasses import dataclass

from . import fields as fl
from . import localglobal, pfister, qforms
from . import valuation as vmod
from .errors import (BudgetExceeded, ConfigUnsupported, FoldMismatch,
                     IsotropicInput, TowerMismatch)

NOT_FOUND = "not-found"

# isometry tests one certificate search may make
CERTIFICATE_BUDGET = 512


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
        prod = self.left1 * self.left2 * (self.tower.one + 4 * self.last)
        for a in self.shared:
            prod = prod * a
        if prod.is_zero():
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
    diff = qforms.orth_sum(pfister.expand(q1), qforms.neg(pfister.expand(q2)))
    return qforms.witt_index(diff) >= 2 ** (q1.fold - 1)


def square_class_reps(tower):
    """Representatives of the square classes of the tower: t^eps * {1, nu}
    over the cosets of one full-rank split, nu a non-square of the finite
    base, innermost uniformizer varying fastest."""
    if any(lv.kind == fl.RATFUNC for lv in tower.levels):
        raise ConfigUnsupported("square classes of GF(q)(X) are infinite")
    ctx = vmod.ValuationCtx(tower, len(tower.levels))
    nu = tower.embed(qforms._finite_nonsquare(ctx.residue_tower))
    return [pi * u for _, pi in ctx.coset_reps() for u in (tower.one, nu)]


def _dedupe(elems, drop_zero=False):
    out = []
    for e in elems:
        if drop_zero and e.is_zero():
            continue
        if e not in out:
            out.append(e)
    return out


def find_certificate(q1, q2):
    """Search for a common-slot certificate; returns LinkageCertificate,
    NOT_FOUND when the candidate space is exhausted, and raises
    BudgetExceeded when it would need more than CERTIFICATE_BUDGET
    isometry tests (a fixed constant, not a parameter)."""
    if q1.tower != q2.tower:
        raise TowerMismatch("symbols over different towers")
    if q1.fold != q2.fold:
        raise FoldMismatch("symbols of different fold")
    d = q1.fold
    if d < 2:
        raise ConfigUnsupported("certificates need fold >= 2")
    tower = q1.tower
    # candidate pool: the symbols' own data first, then square-class
    # representatives when the tower has finitely many
    reps = list(q1.slots) + list(q2.slots)
    lasts = [q1.last, q2.last]
    try:
        classes = square_class_reps(tower)
    except ConfigUnsupported:
        classes = []
    reps += classes
    lasts += [(s - 1) / 4 for s in classes]  # 1 + 4b covers every class
    reps = _dedupe(reps, drop_zero=True)
    lasts = _dedupe(lasts)
    e1, e2 = pfister.expand(q1), pfister.expand(q2)
    checks = itertools.count(1)

    def first_slot(target, shared, b):
        """The first a in reps with <<a, shared; b]] isometric to target."""
        for a in reps:
            cand = pfister.QuadraticPfisterSymbol(tower, (a,) + shared, b)
            if next(checks) > CERTIFICATE_BUDGET:
                raise BudgetExceeded("certificate search budget exhausted")
            if qforms.isometric(target, pfister.expand(cand)):
                return a
        return None

    for b in lasts:
        if (tower.one + 4 * b).is_zero():
            continue
        for shared in itertools.product(reps, repeat=d - 2):
            left1 = first_slot(e1, shared, b)
            if left1 is None:
                continue
            left2 = first_slot(e2, shared, b)
            if left2 is not None:
                return LinkageCertificate(tower, left1, left2, shared, b)
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
        if not qforms.is_isotropic(pfister.expand(s)):
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
            if not qforms.is_isotropic(pfister.expand(r)):
                failures.append({"kind": "lift-lost-anisotropy", "index": i,
                                 "symbol": r.describe()})
            continue
        if not qforms.isometric(pfister.expand(rep.first_residue),
                                pfister.expand(r)):
            failures.append({"kind": "lift-residue-mismatch", "index": i,
                             "symbol": r.describe(),
                             "residue": rep.first_residue.describe()})

    # (c) injectivity on consecutive sample pairs
    for i in range(len(lifts) - 1):
        (r1, l1), (r2, l2) = lifts[i], lifts[i + 1]
        same_res = qforms.isometric(pfister.expand(r1), pfister.expand(r2))
        same_lift = qforms.isometric(pfister.expand(l1), pfister.expand(l2))
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
            kind = ("anisotropic-3-fold" if vec is None else
                    None if q.evaluate(vec).is_zero() else "witness-invalid")
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
