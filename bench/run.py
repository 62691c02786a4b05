#!/usr/bin/env python3
"""Outside-in benchmark of secrelay's paper-fig2 sweeps.

Run from the repository root:

    python3 bench/run.py --workload fig2-analytic --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all                # the four, one by one
    python3 bench/run.py --workload all --smoke        # tiny grid, one op

One process runs one op at a time (closed loop, one client) for
``--seconds``.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it spends half the time untraced and half
with secrelay's public functions wrapped (see layers.py), and reports the
per-layer metrics.  Every op's output is checked; a failed check ends the
run with exit code 1.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record,
including the environment and CSV digests, goes to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
TAIL = 10  # op_s_hi is the highest percentile with this many ops above it
HI_CAP = 80.0  # ... but no higher than this one


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=1,
                   help="Monte-Carlo base seed passed in the RunConfig")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced grid, one op, every check still on")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secrelay" / "__init__.py").is_file():
        print(f"error: no secrelay sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload == "all":
        return run_all(args, names)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(names)} or all", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    try:
        return run_one(args, declared, workloads)
    except workloads.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result:
            status = proc.returncode or 1
            summary["correct"] = False
            summary["failed"] += 1
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, rec in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = rec
    print(json.dumps(summary))
    return status


def measure_setup(repeats: int) -> list[dict]:
    """Fresh-process import and lazy set-up, ``repeats`` times in a row."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup probe imported {rec['module']}, not {SRC}")
        runs.append(rec)
    return runs


def run_ops(op, seconds: float, max_ops: int, digest: str, tracer=None):
    """Ops back to back for ``seconds``; every output checked against ``digest``.

    Returns the op wall times and, when traced, the summed span summary,
    counts, summed op-span time and the spans of the first op.
    """
    from tracer import summarise
    from workloads import CheckFailed
    times = []
    summary, counts, op_ns, first_spans = {}, Counter(), 0, None
    deadline = time.perf_counter() + seconds
    while not times or (time.perf_counter() < deadline and len(times) < max_ops):
        if tracer is None:
            start = time.perf_counter()
            out = op.run()
            times.append(time.perf_counter() - start)
        else:
            with tracer.span("op"):
                start = time.perf_counter()
                out = op.run()
                times.append(time.perf_counter() - start)
            spans, op_counts = tracer.drain()
            first_spans = first_spans or spans
            for name, rec in summarise(spans).items():
                if name == "op":
                    op_ns += rec["incl_ns"]
                    continue
                acc = summary.setdefault(name, dict.fromkeys(rec, 0))
                for key, value in rec.items():
                    acc[key] += value
            counts.update(op_counts)
        checked = op.check(out)
        if checked.digest != digest:
            raise CheckFailed(f"op {len(times)} wrote different output "
                              f"(sha256 {checked.digest} != {digest})")
    return times, (summary, counts, op_ns, first_spans)


def tail_percentile(times: list[float]) -> tuple[float, float]:
    """The highest percentile, up to HI_CAP, with TAIL samples above it.

    Returns the percentile and its value.  The cap binds only on runs of
    more than 50 ops (fig2-analytic): the host alternates between a fast and
    a slow state, and above p80 a run's figure is set by how long it spent
    in the slow one and by bursts of other load.  Over ten-run sets at
    different seeds the interquartile range of p98.5 reached 31 % of its
    median, that of p95 17 % and that of p80 4-11 %.  With fewer than
    TAIL + 1 samples no percentile qualifies; the maximum is reported as
    the 100th.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL:
        return 100.0, ordered[-1]
    above = max(TAIL, math.ceil(n * (100.0 - HI_CAP) / 100.0))
    return 100.0 * (n - above) / n, ordered[n - 1 - above]


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "secrelay").rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "src_sha256": src.hexdigest()}


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args, declared, workloads) -> int:
    smoke = args.smoke
    setup = measure_setup(1 if smoke else SETUP_REPEATS)
    import secrelay
    if not Path(secrelay.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported secrelay from {secrelay.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    max_ops = 1 if smoke else sys.maxsize
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        op = workload.make_op(args.seed, smoke, workdir)
        first = op.check(op.run())
        # accuracy is a property of the program, so every workload reports
        # it from one untimed reference op (fig2-reference has just run one)
        accuracy = first
        if not first.accuracy:
            reference = workloads.ReferenceOp(args.seed, smoke)
            accuracy = reference.check(reference.run())
        determinism = workloads.determinism_probe(workdir)
        phases = {}
        if args.trace == 0:
            phases["untraced"] = run_ops(op, args.seconds, max_ops, first.digest)
        else:
            from layers import install
            from tracer import Tracer
            phases["untraced"] = run_ops(op, args.seconds / 2, max_ops, first.digest)
            tracer = Tracer()
            install(tracer)
            try:
                phases["traced"] = run_ops(op, args.seconds / 2, max_ops,
                                           first.digest, tracer)
            finally:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    times = phases["untraced"][0]
    pct, hi = tail_percentile(times)
    mc_se = first.mc_rate_se or [se for c in determinism.values() for se in c.mc_rate_se]
    acc = accuracy.accuracy
    report = {
        "setup_s": (statistics.median(r["setup_s"] for r in setup), "s",
                    f"median of n={len(setup)} fresh processes"),
        "op_s": (statistics.median(times), "s", f"median of n={len(times)} ops"),
        "op_s_hi": (hi, "s", f"p{pct:.1f} of n={len(times)} ops"),
        "failed_frac": (first.failed_units / first.units, "ratio",
                        f"{first.failed_units}/{first.units} per op, n={len(times)} ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", "n=1 process"),
        "c01_rate_rel_err": (acc["c01_rate_rel_err"], "ratio", "worst of n=64"),
        "c02_outage_abs_err": (acc["c02_outage_abs_err"], "prob", "worst of n=192"),
        "fig2_rate_rel_err": (acc["fig2_rate_rel_err"], "ratio",
                              "worst over converged references"),
        "fig2_outage_abs_err": (acc["fig2_outage_abs_err"], "prob",
                                "worst over converged references"),
        "validate_checks_failed": (acc["validate_checks_failed"], "count",
                                   f"of n={acc['validate_checks']} checks"),
        "mc_se_p50": (statistics.median(mc_se), "bit/s/Hz",
                      f"median of n={len(mc_se)} MC rate rows "
                      + ("of the op" if first.mc_rate_se else "of the determinism probe")),
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": smoke, "env": env, "setup": setup,
              "output_sha256": first.digest, "op_times_s": times,
              "op_s_hi_percentile": pct,
              "determinism_sha256": {m: c.digest for m, c in determinism.items()}}
    if args.trace == 1:
        from layers import NOTES, layer_metrics
        summary, counts, op_ns, spans = phases["traced"][1]
        traced = phases["traced"][0]
        layer = layer_metrics(summary, counts, len(traced), op_ns)
        layer["numerics.rule_build_ms"] = statistics.median(
            r["rule_build_ms"] for r in setup)
        layer["trace.op_ms"] = statistics.median(traced) * 1e3
        layer["trace.overhead"] = statistics.median(traced) / statistics.median(times) - 1
        layer["trace.absent"] = len(tracer.absent)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        for name, value in layer.items():
            note = NOTES.get(name, "per op")
            report[name] = (value, units[name], f"{note}, n={len(traced)} traced ops")
        record["absent"] = tracer.absent
        record["span_names"] = sorted(summary)
        write_spans(f"{workload.name}-seed{args.seed}", spans)

    print(f"# workload {workload.name}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}{'  smoke' if smoke else ''}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, note) in report.items():
        print(f"{name:<28} {value:<14.6g} {unit:<9} {note}")
    attempted = sum(len(phase[0]) for phase in phases.values())
    print(f"output sha256 {first.digest} identical over n={attempted + 1} ops")
    print("determinism " + ", ".join(
        f"{m} workers=1 == workers=2 ({c.digest[:16]})" for m, c in determinism.items()))
    if args.trace == 1 and tracer.absent:
        print("absent (not wrapped): " + ", ".join(tracer.absent))

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in report]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": report[m["name"]][0], "unit": m["unit"]}
               for m in wanted}
    record["metrics"] = {k: {"value": v, "unit": u, "note": n}
                         for k, (v, u, n) in report.items()}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def write_spans(stem: str, spans) -> None:
    """The first traced op's spans, one JSON object a line."""
    if not spans:
        return
    RESULTS.mkdir(exist_ok=True)
    origin = min(s[2] for s in spans)
    with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, tid, ok in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start_ns": start - origin,
                                 "end_ns": end - origin, "parent": parent,
                                 "thread": tid, "ok": ok}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
