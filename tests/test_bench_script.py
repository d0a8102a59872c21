"""scripts/bench.py writes a BENCH file of the documented shape, and its
compare reads two of them."""

import copy
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench",
                                               ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

def test_bench_document_schema_on_a_few_ops():
    doc = bench.measure(seeds=(1,), ops=4)
    assert doc["seeds"] == [1] and doc["ops"] == 4
    ctx = doc["context"]
    assert set(ctx) == {"git_sha", "git_dirty", "src_digest", "nproc", "cpu",
                        "python", "speed"}
    assert ctx["git_dirty"] in (True, False, None)
    assert len(ctx["src_digest"]) == 64 and ctx["nproc"] >= 1
    assert ctx["speed"] > 0
    assert set(doc["workloads"]) == set(bench.WORKLOADS)
    for name, w in doc["workloads"].items():
        assert set(w["scaled"]) == set(bench.SCALED)
        assert set(w["wall_clock"]) == {"setup_s", "ops_per_s", "op_p50_ms",
                                        "op_p90_ms"}
        assert all(v > 0 for v in w["scaled"].values())
        assert all(v > 0 for v in w["wall_clock"].values())
        assert w["per_kind"], name
        for st in w["per_kind"].values():
            assert set(st) == {"p50_ms", "p90_ms"}
            assert 0 < st["p50_ms"] <= st["p90_ms"]
        assert [(r["seed"], r["ops"], r["failed"], r["correct"])
                for r in w["runs"]] == [(1, 4, 0, True)]
        # the traced run keeps only its nonzero counts
        assert w["per_layer_run"] == {"seed": bench.TRACE_SEED, "ops": 4,
                                      "failed": 0, "correct": True}
        assert w["per_layer"], name
        assert all(isinstance(v, int) and v > 0
                   for v in w["per_layer"].values())
        assert all(k.endswith(".calls") or k == "pfister.rewrite_steps"
                   for k in w["per_layer"])

    lines = bench.compare(doc, doc)
    assert not any("DIFFERENT MACHINES" in line for line in lines)
    ratios = [line.split()[-1] for line in lines[1:]]
    assert ratios and set(ratios) == {"1.000"}
    assert sum("per_layer." in line for line in lines) == \
        sum(len(w["per_layer"]) for w in doc["workloads"].values())
    other = copy.deepcopy(doc)
    other["context"]["nproc"] += 1
    assert bench.compare(doc, other)[0].startswith("DIFFERENT MACHINES")

    # a count that doubles, one that drops to 0 and one that appears
    layers = other["workloads"]["global-witness"]["per_layer"]
    doubled, dropped = sorted(layers)[:2]
    layers[doubled] *= 2
    del layers[dropped]
    layers["cli.main.calls"] = 7
    ratios = {line.split()[1]: line.split()[-1]
              for line in bench.compare(doc, other)
              if line.startswith("global-witness")}
    assert ratios[f"per_layer.{doubled}"] == "2.000"
    assert ratios[f"per_layer.{dropped}"] == "0.000"
    assert ratios["per_layer.cli.main.calls"] == "n/a"


def test_micro_timings_record_seconds_or_a_timeout(monkeypatch):
    """A micro input is timed in its own interpreter; one that runs past
    the timeout is recorded with it, and compare reads both kinds.  The
    timed inputs are one small product, one small expansion and a sleep
    past a short timeout."""
    names = set(bench._micro_inputs())
    assert {f"power-{n}" for n in bench.POWERS} <= names
    assert {f"expand-{n}" for n in ("4fold", "6fold", "sparse")} <= names
    assert sum(name.startswith("product-") for name in names) == 6
    assert {"witness-gf3", "witness-gf5"} <= names
    assert {"reads-localize", "reads-linkage", "reads-certify"} <= names

    monkeypatch.setattr(bench, "_micro_inputs", lambda: {
        "small": (bench.MICRO_FIELDS[2], ["1 + t", "u"], "x * y"),
        "symbol": (bench.MICRO_FIELDS[2], ["<<t; u]]"], "pfister.expand(x)")})
    timed = bench.micro()
    assert set(timed) == {"small", "symbol"}
    assert all(set(v) == {"seconds"} and v["seconds"] > 0
               for v in timed.values())
    monkeypatch.setattr(bench, "MICRO_TIMEOUT_S", 0.5)
    monkeypatch.setattr(bench, "_micro_inputs", lambda: {
        "sleep": (bench.MICRO_FIELDS[1], [], "time.sleep(30)")})
    late = bench.micro()
    assert late == {"sleep": {"timeout_s": 0.5}}

    doc = {"context": {k: None for k in bench.MACHINE + ("speed",)},
           "workloads": {}, "micro": timed}
    doc["context"]["speed"] = 1.0
    other = copy.deepcopy(doc)
    other["micro"].update(late)
    other["micro"]["small"]["seconds"] *= 2
    lines = {line.split()[1]: line.split()[-1]
             for line in bench.compare(doc, other)[1:]}
    assert lines["small.seconds"] == "2.000"
    assert lines["sleep.timeout_s"] == "n/a"
