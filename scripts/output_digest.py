#!/usr/bin/env python3
"""Print one sha256 per group of program outputs, to show that a change to
the arithmetic leaves every answer byte-identical.

Usage (from the repository root; the program is imported from ./src):
    python3 scripts/output_digest.py

Groups:
  verifications    scripts/run_verifications.py --samples 60 --json, one
                   line per harness, each without its elapsed_ms
  cli-certify      exit code, stdout and stderr of cli.main on the first
                   120 argv lists of the cli-certify workload, seeds 1-3
  global-witness   the first 32 ops of seeds 1-3: the 3-fold expansion,
                   its global isotropy, its isotropic vector and the
                   2-fold linkage answer
  laurent-linkage  the first 16 ops of seeds 1-3: the 4-fold expansion and
                   its isotropy, or the 3-fold linkage answer
  global-decisions 60 seeded symbol pairs per field over GF(3)(X), GF(5)(X)
                   and GF(7)(X), folds 1-3, slot degree <= 2: the integer
                   difference_dimension, symbol_isotropic of the first and
                   symbols_isometric (every pair is linked there, so the
                   global-witness group's linkage answers are all True)
  certificates     linkage.find_certificate on certificate_pairs(): the
                   certificate's JSON or not-found

The op inputs come from perfbench/gen.py, which is only imported.  Run the
script on two checkouts and compare the lines.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, os.path.join(ROOT, "perfbench")]

import gen  # noqa: E402
from towerforms import cli, dsl, linkage, localglobal, pfister, qforms  # noqa: E402
from towerforms.fields import (LAURENT, RATFUNC, FieldTower,  # noqa: E402
                               LevelDescriptor, SampleBudget, format_element,
                               sample)

SEEDS = (1, 2, 3)
OPS = {"cli-certify": 120, "global-witness": 32, "laurent-linkage": 16}


def _sha(records):
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def verifications():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_verifications.py"),
         "--samples", "60", "--json"],
        env=env, capture_output=True, text=True, check=False).stdout
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    for rep in reports:
        rep.pop("elapsed_ms", None)
    return reports


def _ops(workload):
    for seed in SEEDS:
        yield from gen.generate(workload, seed, OPS[workload])


def cli_certify():
    records = []
    for op in _ops("cli-certify"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op["argv"]))
        records.append([code, out.getvalue(), err.getvalue()])
    return records


def _symbols(op):
    tower = dsl.parse_field(op["field"])
    return [dsl.parse_pfister(tower, s) for s in op["symbols"]]


def global_witness():
    records = []
    for op in _ops("global-witness"):
        s3, s2a, s2b = _symbols(op)
        q = pfister.expand(s3)
        vec = localglobal.isotropic_vector_global(q)
        records.append([dsl.format_form(q), localglobal.is_isotropic_global(q),
                        None if vec is None else [format_element(c) for c in vec],
                        linkage.is_linked_pair(s2a, s2b)])
    return records


def laurent_linkage():
    records = []
    for op in _ops("laurent-linkage"):
        symbols = _symbols(op)
        if len(symbols) == 1:
            q = pfister.expand(symbols[0])
            records.append([dsl.format_form(q), qforms.is_isotropic(q)])
        else:
            records.append([linkage.is_linked_pair(*symbols)])
    return records


def global_decisions():
    """Half the pairs are independent; in the other half the second symbol
    is the first with its first slot (or, at fold 1, c) scaled by a
    square, so isometric."""
    budget = SampleBudget(max_deg=2)
    records = []
    for p in (3, 5, 7):
        K = FieldTower(p, 1, (LevelDescriptor("X", RATFUNC),))
        for i in range(60):
            d = 1 + i % 3
            s1 = linkage.sample_symbol(K, d, ("digest-a", i), budget)
            if i % 2:
                s2 = linkage.sample_symbol(K, d, ("digest-b", i), budget)
            else:
                x = sample(K, budget, ("digest-x", i))
                s2 = pfister.QuadraticPfisterSymbol(
                    K, (s1.slots[0] * x * x,) + s1.slots[1:], s1.last) \
                    if s1.slots else \
                    pfister.QuadraticPfisterSymbol(K, (), (s1.c * x * x - 1) / 4)
            records.append([s1.describe(), s2.describe(),
                            pfister.difference_dimension(s1, s2),
                            pfister.symbol_isotropic(s1),
                            pfister.symbols_isometric(s1, s2)])
    return records


def _tower(p, *symbols):
    return FieldTower(p, 1, tuple(LevelDescriptor(s, kind)
                                  for s, kind in symbols))


def _related_pair(K, d, i, budget):
    """Independent symbols, symbols sharing every slot but the first (so
    linked), or a symbol and a rewritten copy (so isometric): its first
    slot scaled by a square and its slots reversed, in turn."""
    s1 = linkage.sample_symbol(K, d, ("cert-a", i), budget)
    if i % 3 == 0:
        return s1, linkage.sample_symbol(K, d, ("cert-b", i), budget)
    x = sample(K, budget, ("cert-x", i))
    if i % 3 == 1:
        return s1, pfister.QuadraticPfisterSymbol(K, (x,) + s1.slots[1:],
                                                  s1.last)
    slots = (s1.slots[0] * x * x,) + s1.slots[1:]
    return s1, pfister.QuadraticPfisterSymbol(K, slots[::-1], s1.last)


def certificate_pairs():
    """The seeded symbol pairs of the certificates group, 180 in all:
    40 related pairs of fold 2 over GF(3)((t)), of folds 2 and 3 in turn
    over GF(5)((t))((u)), and of fold 2 over GF(3)(X) and GF(5)(X); and the
    20 pairs sample_symbol(T, 4, (s, 1)), (s, 2) for s < 20 over
    T = GF(3)((t))((u))((w)), of which s = 3 and two more need over 11,000
    candidate tests in itertools.product order."""
    small = SampleBudget(max_val=1, series_terms=1)
    for K in (_tower(3, ("t", LAURENT)),
              _tower(5, ("t", LAURENT), ("u", LAURENT))):
        for i in range(40):
            yield _related_pair(K, 2 + i % len(K.levels), i, small)
    T = _tower(3, ("t", LAURENT), ("u", LAURENT), ("w", LAURENT))
    for s in range(20):
        yield linkage.sample_symbol(T, 4, (s, 1)), \
            linkage.sample_symbol(T, 4, (s, 2))
    for p in (3, 5):
        K = _tower(p, ("X", RATFUNC))
        for i in range(40):
            yield _related_pair(K, 2, i, SampleBudget(max_deg=2))


def certificates():
    records = []
    for s1, s2 in certificate_pairs():
        cert = linkage.find_certificate(s1, s2)
        records.append(cert if isinstance(cert, str) else cert.to_json())
    return records


def main():
    for name, group in (("verifications", verifications),
                        ("cli-certify", cli_certify),
                        ("global-witness", global_witness),
                        ("laurent-linkage", laurent_linkage),
                        ("global-decisions", global_decisions),
                        ("certificates", certificates)):
        records = group()
        print(f"{name:16s} {len(records):4d} {_sha(records)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
