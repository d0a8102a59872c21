"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

They use a few ops per run, so they check wiring and answers, not speed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402

# per-layer names predicted to see no calls, per workload
PREDICTED_ZERO = {
    "laurent-linkage": ("localglobal.", "dsl.", "cli.", "qforms.isometric."),
    "global-witness": ("valuation.", "dsl.", "cli."),
    "cli-certify": ("localglobal.",),
}


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    result, _ = _result("--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "0", "--ops", "10")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] == 10
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_seeded(workload):
    a = json.dumps(gen.generate(workload, 7, 30), sort_keys=True)
    b = json.dumps(gen.generate(workload, 7, 30), sort_keys=True)
    c = json.dumps(gen.generate(workload, 8, 30), sort_keys=True)
    assert a == b
    assert a != c
    assert gen.generate(workload, 7, 10) == gen.generate(workload, 7, 30)[:10]


def test_op_count_and_inputs_follow_seconds():
    """A run's op count, and so its inputs, depend on --seconds only."""
    provenance = []
    for _ in range(2):
        proc = _bench("--workload", "cli-certify", "--seed", "4",
                      "--seconds", "0.2", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        line = next(x for x in proc.stdout.splitlines()
                    if x.startswith("provenance: "))
        provenance.append(json.loads(line[len("provenance: "):]))
    assert provenance[0]["ops"] == run.MIN_OPS
    assert provenance[0]["input_digest"] == provenance[1]["input_digest"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_inputs_parse(workload):
    """Every generated input is valid DSL: no zero slot, no 1 + 4b = 0."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from towerforms import cli, dsl
    for op in gen.generate(workload, 9, 40) + gen.warmup_ops(workload):
        if "argv" in op:
            argv = op["argv"]
            parser = cli.build_parser()
            args = parser.parse_args(argv)
            tower = dsl.parse_field(args.field)
            for text in (getattr(args, k, None)
                         for k in ("p1", "p2", "pfister")):
                if text is not None:
                    dsl.parse_pfister(tower, text)
            if getattr(args, "form", None) is not None:
                dsl.parse_form(tower, args.form)
            continue
        tower = dsl.parse_field(op["field"])
        for text in op["symbols"]:
            dsl.parse_pfister(tower, text)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_traced_run_predicted_zeros_and_repeatable_counts(workload):
    ops = "4" if workload != "cli-certify" else "20"
    args = ("--workload", workload, "--seed", "6", "--seconds", "1",
            "--trace", "1", "--ops", ops)
    first, text = _result(*args)
    second, _ = _result(*args)
    assert first["correct"] is True and second["correct"] is True
    calls = {k: v["value"] for k, v in first["metrics"].items()
             if v["unit"] == "count"}
    assert calls == {k: v["value"] for k, v in second["metrics"].items()
                     if v["unit"] == "count"}
    for name, value in calls.items():
        if name.startswith(PREDICTED_ZERO[workload]):
            assert value == 0, name
    assert calls["pfister.expand.calls"] > 0
    assert first["metrics"]["trace.overhead"]["value"] > 0
    # the printed table covers every per-layer name, zeros included
    for name in run.LAYER_NAMES:
        assert name in text


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "cli-certify", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
