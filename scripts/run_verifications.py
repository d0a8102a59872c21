#!/usr/bin/env python3
"""Run every verification harness at configurable scale and print reports.

Usage:
    python3 scripts/run_verifications.py [--samples N] [--seed S] [--json]

With --json each report is printed as one JSON object per line.
"""

import argparse
import json
import sys

from towerforms.dsl import parse_field
from towerforms.fields import SampleBudget
from towerforms.linkage import (check_top_d_linked, verify_higher_local_d1,
                                verify_lifting_equivalence,
                                verify_residue_transfer)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()
    tw = {name: parse_field(name) for name in (
        "GF(3)", "GF(5)", "GF(3)((t))", "GF(5)((t))", "GF(3)((t))((u))")}
    lean = SampleBudget(max_val=1, series_terms=1)
    n = args.samples

    runs = [
        lambda: check_top_d_linked(tw["GF(3)"], 1, n, args.seed),
        lambda: check_top_d_linked(tw["GF(5)"], 1, n, args.seed),
        lambda: check_top_d_linked(tw["GF(3)((t))"], 2, n, args.seed),
        lambda: check_top_d_linked(tw["GF(5)((t))"], 2, n, args.seed),
        lambda: check_top_d_linked(tw["GF(3)((t))((u))"], 3, n, args.seed,
                                   budget=lean),
        lambda: verify_residue_transfer(tw["GF(3)((t))"], 1, 1, n, args.seed),
        lambda: verify_residue_transfer(tw["GF(3)((t))((u))"], 1, 2, n,
                                        args.seed, budget=lean),
        lambda: verify_lifting_equivalence(tw["GF(5)((t))"], 1, 1, n,
                                           args.seed),
        lambda: verify_higher_local_d1(3, n, args.seed),
        lambda: verify_higher_local_d1(5, n, args.seed),
    ]
    failed = 0
    for run in runs:
        rep = run()
        if args.json:
            print(json.dumps(rep.to_json(), sort_keys=True))
        else:
            status = "PASS" if rep.passed else "FAIL"
            print(f"{status}  {rep.theorem:20s} {rep.field:18s} "
                  f"samples={rep.samples} failures={len(rep.failures)} "
                  f"elapsed={rep.elapsed_ms}ms")
        if not rep.passed:
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
