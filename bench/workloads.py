"""The benchmark's workloads, the probes run beside them, and output checks.

Every workload runs on the ``paper-fig2`` grid (14 powers x 3 delta x 3
N_E = 126 points, rs_target 2 and 4).  One op is the unit the benchmark
times; ``Op.run`` is the timed part and ``Op.check`` the untimed check of
what it produced.  A failed check raises ``CheckFailed``; rows the program
flags, and reference evaluations that raise ``AccuracyError``, are counted
instead.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, replace

import secrelay as sr

ORDER = 24
METRICS = ("rate", "outage")

# the acceptance grids of criteria c01 (rate) and c02 (outage): one
# (mu, sigma) pair per endpoint, paired by index
MU_GRID = (-4.0, -1.0, 1.0, 4.0)
SIGMA_GRID = (0.5, 1.0, 1.5, 2.0)
C02_RS = (0.5, 2.0, 4.0)

FIG2_TEXT = """\
power_dbm = {power}
delta_db = {delta}
n_eve = {n_eve}
rs_target = 2,4
eve_mode = composite
eve_mean_snr_db = -40
eve_shadow_sd_db = 5
seed = {seed}
"""
# the reduced grid of smoke mode and of the determinism probe
SMOKE_GRIDS = {"power": "10,70", "delta": "-80", "n_eve": "2,8"}
FULL_GRIDS = {"power": "10:75:5", "delta": "-90,-80,-70", "n_eve": "2,4,8"}
PROBE_SAMPLES = 2000
# the probe checks a property of the program, not of the workload's inputs,
# so its seed is fixed and its figures read the same in every run
PROBE_SEED = 1
SMOKE_SAMPLES = 1000  # the fewest a Monte-Carlo run accepts


class CheckFailed(Exception):
    """An op produced output that is wrong or not reproducible."""


def fig2_config(seed: int, smoke: bool) -> tuple[str, sr.RunConfig]:
    """The fig2 config as text, and the RunConfig that text must parse to."""
    expected = sr.preset_run_config("paper-fig2").with_overrides(seed=seed)
    grids = FULL_GRIDS
    if smoke:
        grids = SMOKE_GRIDS
        expected = replace(expected, power_grid_dbm=(10.0, 70.0),
                           delta_grid_db=(-80.0,), n_eve_grid=(2, 8))
    return FIG2_TEXT.format(seed=seed, **grids), expected


@dataclass
class Checked:
    """What the checks learnt from one op's output."""

    digest: str
    units: int          # rows, or reference evaluations
    failed_units: int   # flagged rows, or evaluations raising AccuracyError
    mc_rate_se: list[float] = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_value(metric: str, value: float, where: str) -> None:
    _require(value is not None and math.isfinite(value),
             f"{where}: {metric} value {value!r} is not finite")
    if metric == "rate":
        _require(value >= 0.0, f"{where}: rate {value!r} < 0")
    else:
        _require(0.0 <= value <= 1.0, f"{where}: outage {value!r} outside [0, 1]")


def check_rows(spec: sr.SweepSpec, rows, csv_path: str) -> Checked:
    _require(len(rows) == spec.point_count(),
             f"{len(rows)} rows, expected {spec.point_count()}")
    flagged = 0
    se = []
    for r in rows:
        if r.status != "ok":
            flagged += 1
            continue
        where = f"row {r.power_dbm}/{r.delta_db}/{r.n_eve}/{r.rs_target}/{r.method}"
        _check_value(r.metric, r.value, where)
        if r.method != "analytic":
            _require(r.std_error is not None and math.isfinite(r.std_error)
                     and r.std_error >= 0.0,
                     f"{where}: standard error {r.std_error!r}")
            if r.metric == "rate":
                se.append(r.std_error)
    with open(csv_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return Checked(digest, len(rows), flagged, se)


class Op:
    """One timed unit of a workload."""

    def run(self):
        raise NotImplementedError

    def check(self, out) -> Checked:
        raise NotImplementedError


class AnalyticOp(Op):
    """Parse the fig2 text, then the analytic rate+outage sweep to CSV."""

    def __init__(self, seed: int, smoke: bool, csv_path: str):
        self.text, self.expected = fig2_config(seed, smoke)
        self.csv_path = csv_path

    def run(self):
        cfg = sr.parse_config_text(self.text)
        spec = sr.SweepSpec(cfg, METRICS, ("analytic",))
        return spec, sr.run_sweep(spec, self.csv_path, 1)

    def check(self, out) -> Checked:
        spec, rows = out
        _require(spec.base == self.expected,
                 "parsed fig2 text differs from preset_run_config('paper-fig2')")
        return check_rows(spec, rows, self.csv_path)


class McSweepOp(Op):
    """A Monte-Carlo rate+outage sweep of the fig2 grid to CSV."""

    def __init__(self, seed: int, smoke: bool, csv_path: str, method: str,
                 samples: int, workers: int):
        _, cfg = fig2_config(seed, smoke)
        self.spec = sr.SweepSpec(cfg.with_overrides(samples=samples),
                                 METRICS, (method,))
        self.csv_path = csv_path
        self.workers = workers

    def run(self):
        return sr.run_sweep(self.spec, self.csv_path, self.workers)

    def check(self, out) -> Checked:
        return check_rows(self.spec, out, self.csv_path)


def _acceptance_endpoints():
    for i in range(4):
        for j in range(4):
            for k in range(4):
                yield sr.Endpoints(
                    relay=sr.LogNormal(MU_GRID[i], SIGMA_GRID[i]),
                    bob=sr.LogNormal(MU_GRID[j], SIGMA_GRID[j]),
                    eve=sr.LogNormal(MU_GRID[k], SIGMA_GRID[k]))


class ReferenceOp(Op):
    """Closed forms against the adaptive reference, then run_validation.

    Covers the c01 grid (64 rates), the c02 grid (64 x 3 outages) and every
    fig2 point (126 rates + 252 outages).  Each evaluation is recorded as
    (grid, metric, closed form, reference or None when it raised).
    """

    def __init__(self, seed: int, smoke: bool):
        _, self.cfg = fig2_config(seed, smoke)

    def run(self):
        evals = []
        for ep in _acceptance_endpoints():
            evals.append(("c01", "rate", sr.avg_secrecy_rate(ep, ORDER).value,
                          _reference(sr.avg_secrecy_rate_reference, ep, 1e-9)))
        for ep in _acceptance_endpoints():
            for rs in C02_RS:
                evals.append(("c02", "outage",
                              sr.secrecy_outage(ep, rs, ORDER).value,
                              _reference(sr.secrecy_outage_reference, ep, rs, 1e-10)))
        cfg = self.cfg
        for power in cfg.power_grid_dbm:
            for delta in cfg.delta_grid_db:
                for n_eve in cfg.n_eve_grid:
                    ep = sr.endpoints_for(cfg.system(power, delta, n_eve))
                    evals.append(("fig2", "rate",
                                  sr.avg_secrecy_rate(ep, ORDER).value,
                                  _reference(sr.avg_secrecy_rate_reference, ep, 1e-9)))
                    for rs in cfg.rs_grid:
                        evals.append(("fig2", "outage",
                                      sr.secrecy_outage(ep, rs, ORDER).value,
                                      _reference(sr.secrecy_outage_reference,
                                                 ep, rs, 1e-10)))
        return evals, sr.run_validation(cfg)

    def check(self, out) -> Checked:
        evals, checks = out
        # rate errors are relative, outage errors absolute
        accuracy = dict.fromkeys(("c01_rate_rel_err", "c02_outage_abs_err",
                                  "fig2_rate_rel_err", "fig2_outage_abs_err"), 0.0)
        failed = 0
        for grid, metric, q, ref in evals:
            _check_value(metric, q, f"{grid} {metric} closed form")
            if ref is None:
                failed += 1
                continue
            _check_value(metric, ref, f"{grid} {metric} reference")
            if metric == "rate":
                key, err = f"{grid}_rate_rel_err", abs(q - ref) / (abs(ref) or 1.0)
            else:
                key, err = f"{grid}_outage_abs_err", abs(q - ref)
            accuracy[key] = max(accuracy[key], err)
        _require(len(checks) > 0, "run_validation returned no checks")
        accuracy["validate_checks_failed"] = sum(not c.passed for c in checks)
        accuracy["validate_checks"] = len(checks)
        blob = repr((evals, [(c.name, c.passed, c.measured) for c in checks]))
        return Checked(hashlib.sha256(blob.encode()).hexdigest(), len(evals),
                       failed, accuracy=accuracy)


def _reference(fn, *args):
    try:
        return fn(*args).value
    except sr.AccuracyError:
        return None


@dataclass(frozen=True)
class Workload:
    """How a workload builds its op; BENCHMARK.json says why it exists."""

    name: str
    method: str | None = None   # sweep method; None for the reference op
    samples: int = 0
    workers: int = 1

    def make_op(self, seed: int, smoke: bool, workdir: str) -> Op:
        csv_path = os.path.join(workdir, f"{self.name}.csv")
        if self.method is None:
            return ReferenceOp(seed, smoke)
        if self.method == "analytic":
            return AnalyticOp(seed, smoke, csv_path)
        samples = SMOKE_SAMPLES if smoke else self.samples
        return McSweepOp(seed, smoke, csv_path, self.method, samples,
                         self.workers)


WORKLOADS = {w.name: w for w in (
    Workload("fig2-analytic", method="analytic"),
    Workload("fig2-reference"),
    # samples chosen so a run holds 30-40 ops and op_s_hi lies above the median
    Workload("fig2-mc-composite", method="mc-composite", samples=5_000,
             workers=min(2, os.cpu_count() or 1)),
    Workload("fig2-mc-ln", method="mc-ln", samples=25_000),
)}


def determinism_probe(workdir: str) -> dict:
    """workers=1 and workers=2 must write identical bytes for both MC methods.

    Runs on the reduced grid.  Returns per method the CSV digest and the
    standard errors of its rate rows.
    """
    _, cfg = fig2_config(PROBE_SEED, smoke=True)
    cfg = cfg.with_overrides(samples=PROBE_SAMPLES)
    out = {}
    for method in ("mc-ln", "mc-composite"):
        spec = sr.SweepSpec(cfg, METRICS, (method,))
        digests = []
        for workers in (1, 2):
            path = os.path.join(workdir, f"probe-{method}-w{workers}.csv")
            checked = check_rows(spec, sr.run_sweep(spec, path, workers), path)
            digests.append(checked.digest)
        _require(digests[0] == digests[1],
                 f"{method}: workers=1 and workers=2 wrote different bytes")
        out[method] = checked
    return out
