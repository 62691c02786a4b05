"""The benchmark's own tests: smoke runs of every workload, and the tracer.

Run from the repository root: ``python3 -m pytest bench -q``.
"""
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from run import tail_percentile
from tracer import Tracer, summarise

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--smoke", "--seed", "7",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        rec = result["metrics"][m["name"]]
        assert rec["unit"] == m["unit"]
        assert isinstance(rec["value"], (int, float)) and math.isfinite(rec["value"])
    if trace:
        assert result["metrics"]["trace.absent"]["value"] == 0


def test_smoke_reference_counts_reference_failures():
    proc = _run("--workload", "fig2-reference", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["failed_frac"]["value"] > 0.0
    assert metrics["numerics.adaptive_failures"]["value"] > 0
    assert metrics["validate.checks"]["value"] == 11


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_reports_missing_names_as_absent():
    module = types.ModuleType("fake")
    module.present = lambda x: x + 1
    tracer = Tracer()
    tracer.wrap(module, "renamed_away", "fake.renamed_away")
    tracer.wrap(module, "present", "fake.present")
    assert tracer.absent == ["fake.renamed_away"]
    with tracer.span("op"):
        assert module.present(1) == 2
    spans, _ = tracer.drain()
    by_name = {s[1]: s for s in spans}
    assert by_name["fake.present"][4] == by_name["op"][0]
    tracer.restore()
    assert not hasattr(module.present, "__wrapped__")


def test_self_time_subtracts_the_union_of_children():
    # parent 0..100 with children 10..50 and 30..70 in parallel: they cover
    # 10..70, so self time is 40, not 100 - 80
    spans = [(1, "p", 0, 100, None, 1, True),
             (2, "c", 10, 50, 1, 2, True),
             (3, "c", 30, 70, 1, 3, True)]
    summary = summarise(spans)
    assert summary["p"]["self_ns"] == 40
    assert summary["p"]["child_ns"] == 80
    assert summary["c"]["calls"] == 2


def test_op_s_hi_keeps_ten_ops_above_it_and_stops_at_p80():
    assert tail_percentile([0.5] * 3 + [1.0]) == (100.0, 1.0)
    assert tail_percentile([float(i) for i in range(40)]) == (75.0, 29.0)
    assert tail_percentile([float(i) for i in range(50)]) == (80.0, 39.0)
    pct, value = tail_percentile([float(i) for i in range(650)])
    assert pct == 80.0 and value == 519.0
