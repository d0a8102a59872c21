"""One workload process: set up, run the closed loop, check the answers.

Started by ``run.py`` in a fresh interpreter per measurement, with one
client and one thread.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace
        --ops N [--src DIR] [--spans FILE]

``setup`` stops after set-up and reports when it was ready; ``run`` times
exactly ``--ops`` ops; ``trace`` does the same with the per-layer tracer on.
Each op is checked right after it is timed, and only its latency is kept.
The host-speed kernel of ``calib.py`` is timed in a burst after set-up and
then after every ``CAL_EVERY_S`` of op time.
"""

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import resource
import shlex
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import gen  # noqa: E402

SHOW_FAILURES = 5
CAL_EVERY_S = 0.25  # op time between two kernel timings
CAL_WINDOW = 4      # kernel timings on each side of an op that scale it


def _import_program(src):
    sys.path.insert(0, src)
    import towerforms
    where = os.path.realpath(towerforms.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"towerforms imported from {where}, not from {src}")
    from towerforms import cli, dsl, linkage, localglobal, pfister, qforms
    from towerforms import valuation
    return {"cli": cli, "dsl": dsl, "linkage": linkage,
            "localglobal": localglobal, "pfister": pfister, "qforms": qforms,
            "valuation": valuation}


# ---------------------------------------------------------------------------
# workloads: prepare (untimed) -> run (timed) -> check (untimed)
#
# Module attributes are looked up at call time so that the tracer's wrappers
# are the ones called.


def _parse_symbols(dsl, op):
    tower = dsl.parse_field(op["field"])
    return tower, [dsl.parse_pfister(tower, s) for s in op["symbols"]]


class LaurentLinkage:
    """Decisions over GF(3)((t))((u)): 4-fold isotropy and 3-fold linkage."""

    def __init__(self, tf):
        self.tf = tf

    def prepare(self, op):
        return _parse_symbols(self.tf["dsl"], op)

    def run(self, prepared):
        _, symbols = prepared
        if len(symbols) == 1:
            return self.tf["qforms"].is_isotropic(
                self.tf["pfister"].expand(symbols[0]))
        return self.tf["linkage"].is_linked_pair(symbols[0], symbols[1])

    def check(self, op, prepared, result):
        # top-3-linked (paper): 4-fold symbols are isotropic, 3-fold pairs
        # are linked
        return None if result is True else f"answer {result!r}, expected True"

    def replay(self, op, prepared):
        if op["kind"] == "link3":
            return _cli_line(["link", "--field", op["field"],
                              "--p1", op["symbols"][0],
                              "--p2", op["symbols"][1]])
        form = self.tf["dsl"].format_form(
            self.tf["pfister"].expand(prepared[1][0]))
        return _cli_line(["isotropy", "--field", op["field"], "--form", form])


class GlobalWitness:
    """One higher-local harness index over GF(p)(X): global isotropy and an
    explicit witness for a 3-fold expansion, plus 2-fold linkage."""

    def __init__(self, tf):
        self.tf = tf

    def prepare(self, op):
        return _parse_symbols(self.tf["dsl"], op)

    def run(self, prepared):
        lg = self.tf["localglobal"]
        _, (s3, s2a, s2b) = prepared
        q = self.tf["pfister"].expand(s3)
        iso = lg.is_isotropic_global(q)
        vec = lg.isotropic_vector_global(q)
        linked = self.tf["linkage"].is_linked_pair(s2a, s2b)
        return q, iso, vec, linked

    def check(self, op, prepared, result):
        q, iso, vec, linked = result
        if iso is not True:
            return "3-fold expansion reported anisotropic"
        if vec is None or all(c.is_zero() for c in vec):
            return "no nonzero witness"
        if not q.evaluate(vec).is_zero():
            return "witness does not evaluate to zero"
        if linked is not True:
            return "2-fold pair reported not linked"
        return None

    def replay(self, op, prepared):
        form = self.tf["dsl"].format_form(
            self.tf["pfister"].expand(prepared[1][0]))
        return " ; ".join([
            _cli_line(["witt", "--field", op["field"], "--form", form]),
            _cli_line(["link", "--field", op["field"],
                       "--p1", op["symbols"][1], "--p2", op["symbols"][2]])])


class CliCertify:
    """In-process ``cli.main(argv)`` calls with captured output."""

    def __init__(self, tf):
        self.tf = tf

    def prepare(self, op):
        return list(op["argv"])

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.tf["cli"].main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, op, argv, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        try:
            payload = json.loads(out)
        except ValueError:
            return "output is not JSON"
        kind = op["kind"]
        if kind.startswith("certify"):
            return self._check_certificate(argv, payload)
        if kind == "normalize":
            return self._check_normalized(argv, payload)
        if payload.get("witt_index") != op["witt_index"]:
            return (f"witt index {payload.get('witt_index')}, "
                    f"expected {op['witt_index']}")
        return None

    def _check_certificate(self, argv, payload):
        cert = payload.get("certificate")
        if cert is None:
            return "no certificate for a linked pair"
        dsl, linkage = self.tf["dsl"], self.tf["linkage"]
        tower = dsl.parse_field(argv[2])
        s1 = dsl.parse_pfister(tower, argv[4])
        s2 = dsl.parse_pfister(tower, argv[6])
        a1, a1p, b = (dsl.parse_element(tower, cert[k])
                      for k in ("a1", "a1'", "b"))
        shared = tuple(dsl.parse_element(tower, a) for a in cert["shared"])
        certificate = linkage.LinkageCertificate(tower, a1, a1p, shared, b)
        if not certificate.verify(s1, s2):
            return "certificate fails re-verification"
        return None

    def _check_normalized(self, argv, payload):
        dsl = self.tf["dsl"]
        tower = dsl.parse_field(argv[2])
        out = dsl.parse_pfister(tower, payload["output"])
        ctx = self.tf["valuation"].ValuationCtx(tower, 1)
        vec = ctx.value_vector(out.slots[-1])
        return None if vec == (0,) else f"last slot has value vector {vec}"

    def replay(self, op, argv):
        return _cli_line(argv)


WORKLOADS = {"laurent-linkage": LaurentLinkage,
             "global-witness": GlobalWitness, "cli-certify": CliCertify}


def _cli_line(argv):
    return "towerforms " + shlex.join(argv)


# ---------------------------------------------------------------------------
# measurement


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[k - 1]


def _run(workload, prepared):
    """(result, None), or (None, error text) if the op raised."""
    try:
        return workload.run(prepared), None
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return None, f"{type(exc).__name__}: {exc}"


def _problem(workload, op, prepared, result, error):
    """None if the op's answer is right, else what is wrong with it."""
    if error is not None:
        return error
    try:
        return workload.check(op, prepared, result)
    except Exception as exc:  # noqa: BLE001 - a check that raises
        return f"check raised {type(exc).__name__}: {exc}"


def _failure(workload, label, op, prepared, problem):
    return {"op": label, "kind": op["kind"], "problem": problem,
            "replay": workload.replay(op, prepared)}


def _speed(cal_s, cal_after, i):
    """REF_S over the median kernel time around op i; ``cal_after[j]`` is
    the number of ops done when kernel timing j was taken."""
    j = bisect.bisect_right(cal_after, i)
    window = cal_s[max(0, j - CAL_WINDOW):j + CAL_WINDOW]
    return calib.REF_S / statistics.median(window)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--ops", required=True, type=int)
    ap.add_argument("--src", default="src")
    ap.add_argument("--spans", help="write trace spans to this JSON file")
    args = ap.parse_args(argv)

    tf = _import_program(args.src)
    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer("towerforms")
    workload = WORKLOADS[args.workload](tf)
    ops = gen.generate(args.workload, args.seed, args.ops)

    failures = []
    for i, op in enumerate(gen.warmup_ops(args.workload)):
        prepared = workload.prepare(op)
        problem = _problem(workload, op, prepared, *_run(workload, prepared))
        if problem is not None:
            failures.append(_failure(workload, f"warmup-{i}", op, prepared,
                                     problem))
    warmup_failures = len(failures)
    prepared = workload.prepare(ops[0])
    ready = time.perf_counter()
    # the set-up figure is scaled by the kernel time right after set-up
    cal_s = [calib.kernel_s() for _ in range(2 * CAL_WINDOW)]
    cal_after = [0] * len(cal_s)
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "warmup_failures": warmup_failures,
                          "speed": calib.REF_S / statistics.median(cal_s)}))
        return 0

    latencies, kinds = [], []
    failed, since_cal = 0, 0.0
    for i, op in enumerate(ops):
        if i:
            prepared = workload.prepare(op)
        if tracer is not None:
            tracer.op_id = i
            tracer.on = True
        t0 = time.perf_counter()
        result, error = _run(workload, prepared)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
        latencies.append(dt)
        kinds.append(op["kind"])
        problem = _problem(workload, op, prepared, result, error)
        if problem is not None:
            failed += 1
            if len(failures) < warmup_failures + SHOW_FAILURES:
                failures.append(_failure(workload, i, op, prepared, problem))
        del prepared, result
        since_cal += dt
        if since_cal >= CAL_EVERY_S or i == len(ops) - 1:
            cal_s.append(calib.kernel_s())
            cal_after.append(i + 1)
            since_cal = 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    speeds = [_speed(cal_s, cal_after, i) for i in range(len(latencies))]
    scaled = [dt * v for dt, v in zip(latencies, speeds)]
    ms = sorted(x * 1000.0 for x in scaled)
    raw_ms = sorted(x * 1000.0 for x in latencies)
    per_kind = {}
    for kind, dt in zip(kinds, scaled):
        per_kind.setdefault(kind, []).append(dt * 1000.0)
    report = {
        "ready": ready,
        "ops": len(ms),
        "failed": failed,
        "warmup_failures": warmup_failures,
        "failures": failures,
        "timed_s": sum(latencies),
        "ops_per_s": len(ms) / sum(scaled),
        "op_p50_ms": _percentile(ms, 0.50),
        "op_p90_ms": _percentile(ms, 0.90),
        "op_max_ms": ms[-1],
        "raw_ops_per_s": len(ms) / sum(latencies),
        "raw_op_p50_ms": _percentile(raw_ms, 0.50),
        "raw_op_p90_ms": _percentile(raw_ms, 0.90),
        "speed": sum(scaled) / sum(latencies),
        "speed_range": [min(speeds), max(speeds)],
        "peak_rss_mb": peak_rss_mb,
        "per_kind": {k: {"ops": len(v), "p50_ms": _percentile(sorted(v), 0.5),
                         "p90_ms": _percentile(sorted(v), 0.9)}
                     for k, v in sorted(per_kind.items())},
        "input_digest": gen.digest(ops),
        "raw_latencies_ms": [x * 1000.0 for x in latencies],
        "kernel_s": cal_s,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.span_dump(), fh, separators=(",", ":"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
