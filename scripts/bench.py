#!/usr/bin/env python3
"""Benchmark file: perfbench/run.py medians over fixed seeds, one traced run.

Usage (from the repository root; the program is imported from ./src):
    python3 scripts/bench.py --label N      # writes BENCH_N.json
    python3 scripts/bench.py --compare A B  # ratios B / A, per metric

--label runs ``perfbench/run.py --trace 0`` for every workload on each seed
of SEEDS, at run.py's default --seconds, then one ``--trace 1`` run on
TRACE_SEED, and writes BENCH_<N>.json in the repository root.  Per workload
the file holds the median over the seeds of each end-to-end metric, scaled
to reference host speed and in wall clock, the median p50 and p90 of each
op kind (scaled), the op and failure counts and the median host speed of
the runs.  Under per_layer it holds every nonzero call count of the traced
run (a count missing there is 0), and under per_layer_run that run's seed,
op and failure counts.  Its context block holds the git sha, nproc, the
Python version, the CPU model and the median calibration speed over every
--trace 0 run, with the sha256 of src/towerforms/*.py that run.py reports.
src_digest names the tree that was measured; git_sha names the commit
checked out, and git_dirty is true when ``git status --porcelain -- src``
prints anything, that is when the measured src/ differs from that commit.

--label also records micro timings under the micro key (see micro()): for
each, the seconds of one in-process run on a fixed input, in its own
interpreter under a timeout of MICRO_TIMEOUT_S.  A run past the timeout is
recorded as {"timeout_s": MICRO_TIMEOUT_S}, not dropped.  The inputs are one
large dense and one large sparse product per Laurent depth 1-3 over GF(3),
the DSL powers (1+t+u)^300, ^1000 and ^3000 over GF(3)((t))((u)), and
EXPAND_REPEAT runs of pfister.expand on each of EXPAND_SYMBOLS over
GF(3)((t))((u)): a 4-fold and a dense 6-fold symbol, whose expansions take
every product from one packed layout, and Frobenius images that pack
sparse and are multiplied pair by pair.  The witness lines run
localglobal.isotropic_vector_global WITNESS_REPEAT times on the expansion
of each of WITNESS_SYMBOLS, over GF(5)(X) and GF(3)(X), whose search
reaches 4-subsets at degree 1.  Three more time the factoring of
GF(p)[X]: localglobal.factor of FACTOR_POLY over GF(5), and building
LARGE_FIELD and LARGE_FIELD_P4, whose defining polynomials
canonical_modulus finds (no binomial X^4 - a is irreducible over the
second's prime field).  The two class-read lines take the GF(5)(X) ops
among the first CLASS_READ_OPS of the global-witness workload (seed
TRACE_SEED, from perfbench/gen.py):
reads-localize runs localglobal.localize once on each op's 3-fold
expansion, built before the clock starts, and reads-linkage runs
linkage.is_linked_pair once on each op's two 2-fold symbols.  Each starts
from an empty record cache, so the polynomials it meets first are
factored inside the timing, as in a fresh workload process.
reads-certify, the Laurent side of the class rule, runs
linkage.find_certificate once on each GF(3)((t)) certify pair among the
first CLASS_READ_OPS ops of the cli-certify workload (seed TRACE_SEED).
places-cold runs cli.main once on PLACES_COLD, an isotropy query over
GF(10^9 + 7)(X) whose places are all linear, with every cache cold: each
non-square bit there is one Euler test in a residue field.  kappa-sqrt
takes ffield's sqrt of every nonzero residue of kappa(P) = GF(7)[X]/(P),
P = canonical_modulus(7, 3), the field built and listed before the clock
starts.

--compare prints, for every metric of either file, B's value over A's; a
metric one file lacks reads 0, and a ratio over 0 reads n/a.  It flags
files from different machines (nproc, CPU model or Python version differ),
whose wall-clock ratios then compare hosts as well as code.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gen  # noqa: E402
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOADS = ("laurent-linkage", "global-witness", "cli-certify")
SEEDS = (401, 402, 403, 404, 405)
TRACE_SEED = 1
SCALED = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")
# wall-clock figure of each scaled metric in run.py's report
WALL_CLOCK = {"ops_per_s": "raw_ops_per_s", "op_p50_ms": "raw_op_p50_ms",
              "op_p90_ms": "raw_op_p90_ms"}
MACHINE = ("nproc", "cpu", "python")

MICRO_TIMEOUT_S = 60
MICRO_FIELDS = {1: "GF(3)((t))", 2: "GF(3)((t))((u))",
                3: "GF(3)((t))((u))((w))"}
SYMBOLS = "tuw"
# dense operands: every exponent vector of a grid of this side
DENSE_SIDE = {1: 3000, 2: 40, 3: 12}
# sparse operands: 30 terms with exponents spread below this span
SPARSE_SPAN = {1: 30000, 2: 3000, 3: 500}
SPARSE_TERMS = 30
POWERS = (300, 1000, 3000)
EXPAND_SYMBOLS = {
    "4fold": "<<(2+t)*u^-1 + t, (1+t*u)/t^2, 2 + t + u; (2+t^-1) + t*u]]",
    "6fold": "<<(1+t+u)^8, (2+t+u^2)^5, (1+t^2+u)^4, (1+t+t*u)^6, "
             "(2+u+t^3)^7; (1+t)^4*(1+u)^5]]",
    "sparse": "<<(1+t+u)^2187, (1+t+u)^729, t + u^3; 1 + u^2187]]",
}
EXPAND_REPEAT = 100
# 3-fold symbols from the global-witness tail (seed 1) whose expansions
# take their witness from a 4-subset at degree 1
WITNESS_SYMBOLS = {
    "gf5": ("GF(5)(X)", "<<(3)/(4 + 3*X), (2*X)/(1 + 4*X); (3)/(3 + 3*X)]]"),
    "gf3": ("GF(3)(X)", "<<(X)/(2 + X), (2 + 2*X)/(2*X); (1)/(X)]]"),
}
WITNESS_REPEAT = 100
FACTOR_POLY = "X^20 + X + 1"
CLASS_READ_OPS = 200
LARGE_FIELD = "GF(1000006000009)"  # GF(p^2), p = 1000003
LARGE_FIELD_P4 = "GF(1000012000054000108000081)"  # GF(p^4), p = 1000003
PLACES_COLD = ["isotropy", "--field", "GF(1000000007)(X)", "--form",
               "diag[X*(X+1)*(X+2), (X+3)*(X+4), (X+5)*(X+6)*(X+7), X+8]"]


def _monomial_text(coeff, exponents):
    return "*".join([str(coeff)] + [f"{s}^{e}" for s, e in
                                    zip(SYMBOLS, exponents)])


def _operand_text(depth, kind, which):
    """DSL text of a large dense or sparse operand at a Laurent depth;
    which = 0 or 1 picks one of two different operands."""
    if kind == "dense":
        side = DENSE_SIDE[depth]
        grid = [()]
        for _ in range(depth):
            grid = [e + (i,) for e in grid for i in range(side)]
        return " + ".join(_monomial_text(1 + (sum(e) + which) % 2, e)
                          for e in grid)
    span = SPARSE_SPAN[depth]
    steps = (997, 2111, 3331, 4391)[which:which + depth]
    return " + ".join(
        _monomial_text(1 + i % 2, [(i * k + which) % span for k in steps])
        for i in range(SPARSE_TERMS))


def _micro_inputs():
    """{name: (field, operand texts, timed statement[, untimed setup])};
    both see the parsed operands (a text that starts with << is a Pfister
    symbol) as the list operands, the first two as x and y, and dsl,
    linkage, localglobal, pfister and the tower K."""
    out = {}
    for depth, field in MICRO_FIELDS.items():
        for kind in ("dense", "sparse"):
            out[f"product-{kind}-depth{depth}"] = (
                field, [_operand_text(depth, kind, w) for w in (0, 1)],
                "x * y")
    for n in POWERS:
        out[f"power-{n}"] = (MICRO_FIELDS[2], [],
                             f"dsl.parse_element(K, '(1+t+u)^{n}')")
    for name, text in EXPAND_SYMBOLS.items():
        out[f"expand-{name}"] = (
            MICRO_FIELDS[2], [text],
            f"for _ in range({EXPAND_REPEAT}): pfister.expand(x)")
    for name, (field, text) in WITNESS_SYMBOLS.items():
        out[f"witness-{name}"] = (
            field, [text],
            f"q = pfister.expand(x)\nfor _ in range({WITNESS_REPEAT}): "
            "localglobal.isotropic_vector_global(q)")
    out["factor-degree20"] = ("GF(5)(X)", [FACTOR_POLY],
                              "localglobal.factor(5, x.raw[0])")
    out["field-p2"] = (MICRO_FIELDS[1], [],
                       f"dsl.parse_field({LARGE_FIELD!r}).ops")
    out["field-p4"] = (MICRO_FIELDS[1], [],
                       f"dsl.parse_field({LARGE_FIELD_P4!r}).ops")
    ops = [op for op in gen.generate("global-witness", TRACE_SEED,
                                     CLASS_READ_OPS)
           if op["field"] == "GF(5)(X)"]
    out["reads-localize"] = (
        "GF(5)(X)", [op["symbols"][0] for op in ops],
        "for q in forms: localglobal.localize(q)",
        "forms = [pfister.expand(s) for s in operands]")
    out["reads-linkage"] = (
        "GF(5)(X)", [s for op in ops for s in op["symbols"][1:]],
        "for s1, s2 in zip(operands[::2], operands[1::2]): "
        "linkage.is_linked_pair(s1, s2)")
    # argv: certify --field F --p1 S1 --p2 S2 --json
    certify = [op["argv"] for op in gen.generate("cli-certify", TRACE_SEED,
                                                 CLASS_READ_OPS)
               if op["argv"][:3] == ["certify", "--field", MICRO_FIELDS[1]]]
    out["reads-certify"] = (
        MICRO_FIELDS[1], [s for argv in certify for s in argv[4:7:2]],
        "for s1, s2 in zip(operands[::2], operands[1::2]): "
        "linkage.find_certificate(s1, s2)")
    out["places-cold"] = (MICRO_FIELDS[1], [], f"cli.main({PLACES_COLD!r})",
                          "from towerforms import cli")
    out["kappa-sqrt"] = (
        MICRO_FIELDS[1], [], "for g in residues: R.sqrt(g)",
        "from towerforms import ffield\n"
        "R = localglobal.residue_field(7, ffield.canonical_modulus(7, 3))\n"
        "residues = list(R.elements())[1:]")
    return out


_MICRO_RUN = """
import sys, time
sys.path.insert(0, {src!r})
from towerforms import dsl, linkage, localglobal, pfister
K = dsl.parse_field({field!r})
operands = [(dsl.parse_pfister if text.startswith("<<") else
             dsl.parse_element)(K, text) for text in {texts!r}]
x, y = (operands + [None, None])[:2]
{setup}
start = time.perf_counter()
{statement}
print(time.perf_counter() - start)
"""


def micro():
    """{name: {"seconds": s}} for each micro timing, or
    {"timeout_s": MICRO_TIMEOUT_S} for one that ran past it."""
    out = {}
    for name, (field, texts, statement, *setup) in _micro_inputs().items():
        code = _MICRO_RUN.format(src=os.path.join(ROOT, "src"), field=field,
                                 texts=texts, setup="".join(setup),
                                 statement=statement)
        try:
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True,
                                  timeout=MICRO_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            out[name] = {"timeout_s": MICRO_TIMEOUT_S}
            continue
        if proc.returncode != 0:
            raise SystemExit(f"micro timing {name} failed:\n"
                             f"{proc.stderr.strip()}")
        out[name] = {"seconds": float(proc.stdout.split()[-1])}
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git(*args):
    """git's stdout in the repository root, or None when git fails."""
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run(workload, seed, ops, trace=0):
    """One run.py run: (its result line, its full report)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if ops is not None:
        cmd += ["--ops", str(ops)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = f"{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(OUT, name)) as fh:
        return result, json.load(fh)


def _median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def measure(seeds=SEEDS, ops=None):
    """The BENCH document for runs of every workload on every seed; ops
    fixes the op count of each run (run.py --ops) instead of --seconds."""
    doc = {"seeds": list(seeds), "ops": ops, "workloads": {}}
    speeds, src_digest = [], None
    for workload in WORKLOADS:
        scaled, wall, kinds, runs = [], [], {}, []
        for seed in seeds:
            result, rep = _run(workload, seed, ops)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            scaled.append(values)
            wall.append({k: rep[raw] for k, raw in WALL_CLOCK.items()})
            wall[-1]["setup_s"] = statistics.median(rep["setup_runs_raw_s"])
            for kind, st in rep["per_kind"].items():
                kinds.setdefault(kind, []).append(st)
            runs.append({"seed": seed, "ops": rep["ops"],
                         "failed": rep["failed"], "correct": result["correct"],
                         "speed": rep["speed"]})
            speeds.append(rep["speed"])
            src_digest = rep["provenance"]["src_digest"]
        traced, rep = _run(workload, TRACE_SEED, ops, trace=1)
        doc["workloads"][workload] = {
            "scaled": {k: _median_of(scaled, k) for k in SCALED},
            "wall_clock": {k: _median_of(wall, k) for k in wall[0]},
            "per_kind": {kind: {"p50_ms": _median_of(st, "p50_ms"),
                                "p90_ms": _median_of(st, "p90_ms")}
                         for kind, st in sorted(kinds.items())},
            "speed": _median_of(runs, "speed"),
            "runs": runs,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()
                          if m["unit"] == "count" and m["value"]},
            "per_layer_run": {"seed": TRACE_SEED, "ops": rep["ops"],
                              "failed": rep["failed"],
                              "correct": traced["correct"]},
        }
    status = _git("status", "--porcelain", "--", "src")
    doc["context"] = {"git_sha": _git("rev-parse", "HEAD"),
                      "git_dirty": None if status is None else bool(status),
                      "src_digest": src_digest,
                      "nproc": os.cpu_count(), "cpu": _cpu_model(),
                      "python": platform.python_version(),
                      "speed": statistics.median(speeds)}
    return doc


def _metrics(doc):
    """{(workload, metric): value} for every number compare reads."""
    out = {}
    for workload, w in doc["workloads"].items():
        for group in ("scaled", "wall_clock"):
            for k, v in w[group].items():
                out[(workload, f"{group}.{k}")] = v
        for kind, st in w["per_kind"].items():
            for k, v in st.items():
                out[(workload, f"{kind}.{k}")] = v
        for k, v in w.get("per_layer", {}).items():
            out[(workload, f"per_layer.{k}")] = v
    for name, entry in doc.get("micro", {}).items():
        for k, v in entry.items():
            out[("micro", f"{name}.{k}")] = v
    return out


def compare(a, b):
    """Lines of B / A per metric, after a flag line when the two files come
    from different machines."""
    lines = []
    differ = [k for k in MACHINE if a["context"][k] != b["context"][k]]
    if differ:
        lines.append("DIFFERENT MACHINES (" + ", ".join(
            f"{k}: {a['context'][k]} vs {b['context'][k]}" for k in differ) +
            "): wall-clock ratios compare hosts too")
    lines.append(f"calibration speed {a['context']['speed']:.3f} -> "
                 f"{b['context']['speed']:.3f}")
    ma, mb = _metrics(a), _metrics(b)
    keys = sorted(ma.keys() | mb.keys())
    width = max(len(name) for _, name in keys)
    for key in keys:
        va, vb = ma.get(key, 0), mb.get(key, 0)
        ratio = f"{vb / va:8.3f}" if va else "     n/a"
        lines.append(f"{key[0]:16s} {key[1]:{width}s} {va:12.4f} {vb:12.4f} "
                     f"{ratio}")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", help="write BENCH_<label>.json")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="print B / A for every metric of two BENCH files")
    args = ap.parse_args(argv)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as fh:
                docs.append(json.load(fh))
        print("\n".join(compare(*docs)))
        return 0
    doc = measure()
    doc["micro"] = micro()
    doc["label"] = args.label
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if all(r["correct"] for w in doc["workloads"].values()
                    for r in w["runs"] + [w["per_layer_run"]]) else 1


if __name__ == "__main__":
    sys.exit(main())
