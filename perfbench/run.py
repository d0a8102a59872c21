#!/usr/bin/env python3
"""towerforms benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``./src``.
Workloads: laurent-linkage, global-witness, cli-certify (see README.md here).

``--trace 0`` measures the end-to-end metrics.  A run times a fixed number
of ops, ``--seconds`` times the workload's nominal rate, so that a seed
always times the same inputs.  Set-up is measured in five fresh processes
(four that stop after set-up, then the measured one) and reported as the
median; the other metrics come from the measured process.  Every time is
scaled to reference host speed (see calib.py); the raw wall-clock figures
are printed above the result line.

``--trace 1`` runs a fixed number of ops twice in fresh processes, first
untraced and then with per-layer wrappers installed, and reports the
per-layer metrics plus the tracing overhead.  Call counts must repeat
exactly for the same seed and code; a mismatch with an earlier traced run
in the same tree marks the run incorrect.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Human-readable detail goes to the lines before it, and
the full report (and trace spans) to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracer  # noqa: E402

SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
MIN_OPS = 100     # at least 10 latencies lie beyond the reported p90
# ops per second of --seconds, about the rate at reference speed
NOMINAL_RATE = {"laurent-linkage": 4.5, "global-witness": 8.0,
                "cli-certify": 21.0}
# ops per traced run: fixed so that call counts depend only on the seed
TRACE_OPS = {"laurent-linkage": 48, "global-witness": 96, "cli-certify": 240}

END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-layer metrics in the result line.  Call counts are listed for every
# traced name, including those predicted to be zero on some workloads; times
# are listed only where every workload spends some, so no reported time is a
# constant zero.  The full table, zeros included, is printed above the
# result line and written to perfbench/out/.  springer_decompose is traced
# but left out of the result line: only ``cli residue --form`` reaches it,
# so its count is 0 on every workload.
LAYER_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in tracer.TRACED))
COUNT_METRICS = tuple(f"{name}.calls" for name in LAYER_NAMES
                      if name != "valuation.springer_decompose") + \
    ("pfister.rewrite_steps",)
RATIO_METRICS = (
    "localglobal.isotropy_tests_per_witness",
    "linkage.isometry_tests_per_certificate",
    "linkage.certificate_found_ratio",
)
TIME_METRICS = (
    "polys.pgcd.self_s", "polys.pdivmod.self_s", "polys.pmul.self_s",
    "ffield.Fq.inv.self_s", "fields.FracField.make.self_s",
    "fields.is_square.self_s", "qforms.witt_index.incl_s",
    "pfister.expand.incl_s",
)


class BenchError(Exception):
    pass


def _src_dir():
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "towerforms", "__init__.py")):
        raise BenchError("no ./src/towerforms here: run from the repository "
                         "root")
    return src


def _worker(src, workload, seed, mode, ops, spans=None):
    """Run one worker process; returns (spawn time, its JSON report)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), "--mode", mode, "--ops", str(ops), "--src", src]
    if spans is not None:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return spawned, json.loads(lines[-1])


def _git_sha(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(root, ".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(src):
    h = hashlib.sha256()
    pkg = os.path.join(src, "towerforms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _provenance(args, src, report):
    return {"workload": args.workload, "seed": args.seed,
            "ops": report["ops"], "input_digest": report["input_digest"],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": _git_sha(os.getcwd()), "src_digest": _src_digest(src)}


def _print_failures(failures):
    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}): {f['problem']}")
        print(f"  replay: {f['replay']}")


def _end_to_end(args, src):
    ops = args.ops or max(MIN_OPS,
                          round(args.seconds * NOMINAL_RATE[args.workload]))
    raw, ready, warmup_failures = [], [], 0
    for _ in range(SETUP_RUNS - 1):
        spawned, rep = _worker(src, args.workload, args.seed, "setup", ops)
        raw.append(rep["ready"] - spawned)
        ready.append(raw[-1] * rep["speed"])
        warmup_failures += rep["warmup_failures"]
    spawned, rep = _worker(src, args.workload, args.seed, "run", ops)
    raw.append(rep["ready"] - spawned)
    ready.append(raw[-1] * rep["speed"])
    rep["warmup_failures"] += warmup_failures
    values = {"setup_s": statistics.median(ready),
              "ops_per_s": rep["ops_per_s"], "op_p50_ms": rep["op_p50_ms"],
              "op_p90_ms": rep["op_p90_ms"],
              "peak_rss_mb": rep["peak_rss_mb"]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    rep["setup_runs_s"] = ready
    rep["attempted"] = rep["ops"]
    rep["error_rate"] = rep["failed"] / rep["ops"]
    print(f"ops: {rep['ops']} in {rep['timed_s']:.2f} s timed, "
          f"{rep['ops_per_s']:.3f} ops/s, max {rep['op_max_ms']:.1f} ms, "
          f"error_rate {rep['error_rate']:.4f}")
    for kind, st in rep["per_kind"].items():
        print(f"  {kind:12s} {st['ops']:5d} ops  p50 {st['p50_ms']:8.2f} ms"
              f"  p90 {st['p90_ms']:8.2f} ms")
    lo, hi = rep["speed_range"]
    print(f"host speed {rep['speed']:.3f} of reference (range {lo:.3f}-"
          f"{hi:.3f}); wall clock: {rep['raw_ops_per_s']:.3f} ops/s, p50 "
          f"{rep['raw_op_p50_ms']:.2f} ms, p90 {rep['raw_op_p90_ms']:.2f} ms")
    print("setup runs (s): " + ", ".join(f"{x:.3f}" for x in ready) +
          "; wall clock: " + ", ".join(f"{x:.3f}" for x in raw))
    rep["setup_runs_raw_s"] = raw
    return rep, metrics


def _check_repeat(args, prov, layers):
    """Compare call counts with an earlier traced run of the same inputs and
    code; returns a description of the first mismatch, or None."""
    key = hashlib.sha256(json.dumps(
        [args.workload, prov["input_digest"], prov["src_digest"],
         prov["ops"]]).encode()).hexdigest()[:16]
    path = os.path.join(OUT, f"calls-{args.workload}-{key}.json")
    calls = {k: v for k, v in layers.items()
             if k.endswith(".calls") or k == "pfister.rewrite_steps"}
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        for name in sorted(calls):
            if before.get(name) != calls[name]:
                return f"{name}: {calls[name]} now, {before.get(name)} before"
        print(f"call counts repeat exactly ({os.path.basename(path)})")
        return None
    with open(path, "w") as fh:
        json.dump(calls, fh, indent=1, sort_keys=True)
    return None


def _per_layer(args, src):
    ops = args.ops or TRACE_OPS[args.workload]
    _, plain = _worker(src, args.workload, args.seed, "run", ops)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    _, rep = _worker(src, args.workload, args.seed, "trace", ops,
                     spans=spans)
    layers = rep["layers"]
    overhead = plain["ops_per_s"] / rep["ops_per_s"]
    print(f"traced {rep['ops']} ops: {rep['ops_per_s']:.3f} ops/s "
          f"traced vs {plain['ops_per_s']:.3f} untraced "
          f"(tracing costs x{overhead:.2f}); spans in {spans}")
    print(f"{'layer':42s} {'calls':>10s} {'self_s':>10s} {'incl_s':>10s}")
    for name in LAYER_NAMES:
        print(f"{name:42s} {layers[name + '.calls']:10d} "
              f"{layers[name + '.self_s']:10.4f} "
              f"{layers[name + '.incl_s']:10.4f}")
    for name in ("pfister.rewrite_steps",) + RATIO_METRICS:
        print(f"{name:42s} {layers[name]:10.4f}")
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name] = {"value": layers[name], "unit": "count"}
    for name in RATIO_METRICS:
        metrics[name] = {"value": layers[name], "unit": "ratio"}
    for name in TIME_METRICS:
        metrics[name] = {"value": layers[name], "unit": "s"}
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    rep["untraced"] = {k: plain[k] for k in ("ops", "ops_per_s",
                                              "failed")}
    rep["trace_overhead"] = overhead
    rep["attempted"] = rep["ops"] + plain["ops"]
    rep["failed"] += plain["failed"]
    rep["warmup_failures"] += plain["warmup_failures"]
    rep["failures"] += plain["failures"]
    return rep, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="sets the op count of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int,
                    help="run exactly this many ops (for quick checks)")
    args = ap.parse_args(argv)
    try:
        src = _src_dir()
        os.makedirs(OUT, exist_ok=True)
        if args.trace:
            rep, metrics = _per_layer(args, src)
        else:
            rep, metrics = _end_to_end(args, src)
        prov = _provenance(args, src, rep)
        mismatch = _check_repeat(args, prov, rep["layers"]) \
            if args.trace else None
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(prov, sort_keys=True))
    _print_failures(rep["failures"])
    if mismatch:
        print(f"call counts differ from an earlier traced run: {mismatch}")
    rep["provenance"] = prov
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(rep, fh, indent=1, sort_keys=True)
    correct = rep["failed"] == 0 and not rep["warmup_failures"] \
        and mismatch is None
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
