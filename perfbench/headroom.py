#!/usr/bin/env python3
"""Gate-headroom report: acceptance criteria 5-8 against their time gates.

    python3 perfbench/headroom.py

Run from the repository root.  Calls each criterion's test function from
tests/test_acceptance.py once, unchanged, in this process, and prints its
elapsed time as a fraction of the gate the test enforces.  The target is 2x
headroom (fraction <= 0.5).  Takes several minutes; it is a report on
demand, not one of the benchmark workloads.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# wall-clock gates written in tests/test_acceptance.py; criterion 6 has none
GATES_S = {5: 60.0, 6: None, 7: 120.0, 8: 600.0}
NAMES = {5: "test_criterion_5_slot_normalization",
         6: "test_criterion_6_residue_transfer",
         7: "test_criterion_7_top_d_linked",
         8: "test_criterion_8_higher_local_d1"}


def main():
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "tests")]
    import test_acceptance

    rows = []
    for n in sorted(NAMES):
        start = time.perf_counter()
        try:
            getattr(test_acceptance, NAMES[n])()
            passed = True
        except AssertionError:
            passed = False
        elapsed = time.perf_counter() - start
        gate = GATES_S[n]
        rows.append({"criterion": n, "elapsed_s": elapsed, "gate_s": gate,
                     "fraction": None if gate is None else elapsed / gate,
                     "passed": passed})
    print(f"{'criterion':>9s} {'elapsed_s':>10s} {'gate_s':>8s} "
          f"{'fraction':>9s} {'headroom':>9s}  verdict")
    for r in rows:
        if r["gate_s"] is None:
            gate = frac = room = "-"
        else:
            gate = f"{r['gate_s']:.0f}"
            frac = f"{r['fraction']:.3f}"
            room = f"x{1 / r['fraction']:.2f}"
        print(f"{r['criterion']:9d} {r['elapsed_s']:10.1f} {gate:>8s} "
              f"{frac:>9s} {room:>9s}  {'PASS' if r['passed'] else 'FAIL'}")
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "headroom.json"), "w") as fh:
        json.dump({"nproc": os.cpu_count(), "rows": rows}, fh, indent=1)
    return 0 if all(r["passed"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
