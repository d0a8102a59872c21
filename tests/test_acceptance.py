"""Acceptance suite: one test per criterion, each ending in a PASS/FAIL line.

Every criterion is checked against an oracle that is independent of the code
path under test (exhaustive search, the tame Hilbert symbol, explicit witness
evaluation, or re-verification of emitted certificates).
"""

import itertools
import time

import pytest

from conftest import finite_nonsquare, square_class_monomial, tower
from test_linkage import mutate_certificate
from towerforms.fields import (LAURENT, SampleBudget, sample, sample_unit,
                               valuation as val)
from towerforms.linkage import (NOT_FOUND, check_top_d_linked,
                                find_certificate, sample_symbol,
                                verify_higher_local_d1,
                                verify_residue_transfer)
from towerforms.localglobal import hilbert_symbol
from towerforms.pfister import (BilinearPfisterSymbol, expand_bilinear,
                                normalize_last_slot)
from towerforms.qforms import QuadraticForm, is_isotropic, isometric
from towerforms.valuation import ValuationCtx, raw_springer_split, springer_decompose


def _report(n, ok, detail):
    print(f"[acceptance {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_finite_field_exhaustive_ground_truth():
    start = time.perf_counter()
    mismatches = 0
    total = 0
    for p in (3, 5):
        T = tower(p)
        elems = [T.element(r) for r in T.ops.elements()]
        nonzero = [a for a in elems if not a.is_zero()]
        for dim in (1, 2, 3):
            for diag in itertools.product(nonzero, repeat=dim):
                q = QuadraticForm(T, diag)
                brute = any(
                    not all(x.is_zero() for x in vec)
                    and q.evaluate(list(vec)).is_zero()
                    for vec in itertools.product(elems, repeat=dim))
                total += 1
                if is_isotropic(q) != brute:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _report(1, mismatches == 0 and elapsed < 5.0,
            f"{total} forms over GF(3)/GF(5), {mismatches} mismatches, "
            f"{elapsed:.1f}s (< 5s)")


# -- 2 ----------------------------------------------------------------------


def _hilbert_isotropic(T, q, ctx):
    """Independent local isotropy oracle for dim 3-4 via the tame symbol."""
    d = q.diag
    if q.dim == 3:
        a, b, c = d
        return hilbert_symbol(-a * c, -b * c, ctx) == 1
    # dim 4: isotropic iff <a,b> and <-c,-d> represent a common square class
    t = T.gen("t")
    nu = _nonsquare_unit(T)
    for e in (T.one, nu, t, nu * t):
        rep1 = hilbert_symbol(e * d[0], -(d[0] * d[1]), ctx) == 1
        rep2 = hilbert_symbol(-e * d[2], -(d[2] * d[3]), ctx) == 1
        if rep1 and rep2:
            return True
    return False


def _nonsquare_unit(T):
    inner = T.drop_outer(len(T.levels))
    return T.embed(finite_nonsquare(inner))


def test_criterion_2_springer_vs_hilbert_symbol():
    start = time.perf_counter()
    budget = SampleBudget()
    mismatches = 0
    count = 0
    for q_base in (3, 5, 7):
        T = tower(q_base, 1, ("t", LAURENT))
        ctx = ValuationCtx(T)
        for i in range(334):
            dim = 3 + (i % 2)
            diag = tuple(sample(T, budget, (q_base, i, j)) for j in range(dim))
            q = QuadraticForm(T, diag)
            count += 1
            if is_isotropic(q) != _hilbert_isotropic(T, q, ctx):
                mismatches += 1
    elapsed = time.perf_counter() - start
    _report(2, count >= 1000 and mismatches == 0 and elapsed < 30.0,
            f"{count} forms over GF(q)((t)), q in {{3,5,7}}, "
            f"{mismatches} mismatches, {elapsed:.1f}s (< 30s)")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_value_formula():
    budget = SampleBudget()
    failures = 0
    count = 0
    for q_base in (3, 5, 7):
        T = tower(q_base, 1, ("t", LAURENT))
        ctx = ValuationCtx(T)
        done = 0
        seed = 0
        while done < 334:
            seed += 1
            dim = 1 + seed % 2
            diag = tuple(sample_unit(T, budget, (q_base, seed, "d", j))
                         for j in range(dim))
            q = QuadraticForm(T, diag)
            res = QuadraticForm(ctx.residue_tower, tuple(
                r for _, r in raw_springer_split(q, ctx)[(0,)]))
            if is_isotropic(res):
                continue
            vec = [sample(T, budget, (q_base, seed, "x", j))
                   for j in range(dim)]
            count += 1
            done += 1
            if val(T, q.evaluate(vec))[0] != 2 * min(val(T, x)[0]
                                                     for x in vec):
                failures += 1
    _report(3, count >= 1000 and failures == 0,
            f"{count} (form, vector) pairs, {failures} value-formula failures")


# -- 4 ----------------------------------------------------------------------


def _parts_isometric(dec1, dec2):
    for eps in (((0,),), ((1,),)):
        p1, p2 = dec1.part(eps[0]), dec2.part(eps[0])
        if (p1 is None) != (p2 is None):
            return False
        if p1 is not None and not isometric(p1, p2):
            return False
    return True


def test_criterion_4_residue_classification():
    T = tower(3, 1, ("t", LAURENT))
    ctx = ValuationCtx(T)
    budget = SampleBudget()
    mismatches = 0
    done = 0
    seed = 0

    def anisotropic_form(tag, dim):
        nonlocal seed
        while True:
            seed += 1
            diag = tuple(sample(T, budget, (tag, seed, j)) for j in range(dim))
            q = QuadraticForm(T, diag)
            if not is_isotropic(q):
                return q

    while done < 500:
        dim = 1 + done % 3
        q1 = anisotropic_form("a", dim)
        q2 = anisotropic_form("b", dim)
        lhs = isometric(q1, q2)
        rhs = _parts_isometric(springer_decompose(q1, ctx),
                               springer_decompose(q2, ctx))
        if lhs != rhs:
            mismatches += 1
        done += 1
    _report(4, mismatches == 0,
            f"500 anisotropic pairs over GF(3)((t)), {mismatches} mismatches "
            "between isometry and pairwise residue isometry")


# -- 5 ----------------------------------------------------------------------


def _symbol_in_span(T, ctx, fold, seed, budget):
    slots = [sample(T, budget, (seed, "s", i)) for i in range(fold - 1)]
    mix = T.one
    for i, a in enumerate(slots):
        if (seed + i) % 2:
            mix = mix * a
    last = mix * sample_unit(T, budget, (seed, "u")) \
        * sample(T, budget, (seed, "sq")) ** 2
    return BilinearPfisterSymbol(T, tuple(slots) + (last,))


def _reduce_slots(symbol):
    """The same bilinear symbol with each slot replaced by its canonical
    square-class monomial.  Each slot enters the expansion only through
    <1, -a>, so the isometry class is unchanged; this keeps fraction sizes
    small after merges."""
    return BilinearPfisterSymbol(symbol.tower, tuple(
        square_class_monomial(symbol.tower, a) for a in symbol.slots))


def test_criterion_5_slot_normalization():
    start = time.perf_counter()
    failures = 0
    count = 0
    configs = [(tower(q, 1, ("t", LAURENT)), 1, SampleBudget())
               for q in (3, 5, 7)]
    configs.append((tower(3, 1, ("t", LAURENT), ("u", LAURENT)), 2,
                    SampleBudget(max_val=1, series_terms=1)))
    for T, rank, budget in configs:
        ctx = ValuationCtx(T, rank)
        for i in range(75):
            fold = 2 + i % 3
            s = _symbol_in_span(T, ctx, fold, i, budget)
            out, trace = normalize_last_slot(s, ctx)
            count += 1
            unit = ctx.value_vector(out.slots[-1]) == (0,) * rank
            same = isometric(expand_bilinear(_reduce_slots(s)),
                             expand_bilinear(_reduce_slots(out)))
            if not (unit and same):
                failures += 1
    elapsed = time.perf_counter() - start
    _report(5, count == 300 and failures == 0 and elapsed < 60.0,
            f"{count} bilinear symbols (folds 2-4) normalized, "
            f"{failures} failures, {elapsed:.1f}s (< 60s)")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_residue_transfer():
    rep1 = verify_residue_transfer(tower(3, 1, ("t", LAURENT)), 1, 1,
                                   samples=200, seed=0)
    rep2 = verify_residue_transfer(
        tower(3, 1, ("t", LAURENT), ("u", LAURENT)), 1, 2, samples=200,
        seed=0, budget=SampleBudget(max_val=1, series_terms=1))
    ok = rep1.passed and rep2.passed
    _report(6, ok,
            f"residue transfer (n=1,m=1) over GF(3)((t)): "
            f"{len(rep1.failures)} failures; (n=1,m=2) over GF(3)((t))((u)): "
            f"{len(rep2.failures)} failures; 200 samples each")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_top_d_linked():
    start = time.perf_counter()
    lean = SampleBudget(max_val=1, series_terms=1)
    reports = []
    for q_base in (3, 5):
        reports.append(check_top_d_linked(tower(q_base), 1, samples=200,
                                          seed=0))
        reports.append(check_top_d_linked(tower(q_base, 1, ("t", LAURENT)), 2,
                                          samples=200, seed=0))
    reports.append(check_top_d_linked(
        tower(3, 1, ("t", LAURENT), ("u", LAURENT)), 3, samples=200, seed=0,
        budget=lean))
    elapsed = time.perf_counter() - start
    fails = sum(len(r.failures) for r in reports)
    _report(7, fails == 0 and elapsed < 120.0,
            f"top-d-linked: GF(q) d=1, GF(q)((t)) d=2 (q in {{3,5}}), "
            f"GF(3)((t))((u)) d=3, 200 samples each, {fails} failures, "
            f"{elapsed:.1f}s (< 120s)")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_higher_local_d1():
    start = time.perf_counter()
    rep3 = verify_higher_local_d1(3, samples=500, seed=0)
    rep5 = verify_higher_local_d1(5, samples=500, seed=0)
    elapsed = time.perf_counter() - start
    ok = rep3.passed and rep5.passed and elapsed < 600.0
    _report(8, ok,
            f"higher-local d=1 over GF(3)(X) ({len(rep3.failures)} failures) "
            f"and GF(5)(X) ({len(rep5.failures)} failures), 500 samples each "
            f"with witnesses, {elapsed:.1f}s (< 600s)")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_certificate_soundness_and_mutation():
    T = tower(3, 1, ("t", LAURENT))
    budget = SampleBudget()
    emitted = 0
    reverified = 0
    mutated = 0
    mutated_failed = 0
    seed = 0
    while (emitted < 100 or mutated < 100) and seed < 2000:
        seed += 1
        s1 = sample_symbol(T, 2, (seed, "a"), budget)
        s2 = sample_symbol(T, 2, (seed, "b"), budget)
        cert = find_certificate(s1, s2)
        if cert == NOT_FOUND:
            continue
        if emitted < 100:
            emitted += 1
            if cert.verify(s1, s2):
                reverified += 1
        if mutated < 100:
            bad = mutate_certificate(cert)
            if bad is None:
                continue
            mutated += 1
            if not bad.verify(s1, s2):
                mutated_failed += 1
    ok = (emitted == 100 and reverified == 100
          and mutated == 100 and mutated_failed == 100)
    _report(9, ok,
            f"{reverified}/{emitted} emitted certificates re-verify; "
            f"{mutated_failed}/{mutated} mutated certificates fail "
            "re-verification")
