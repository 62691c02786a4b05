"""Experiment sweeps over (power, self-interference, antennas, target rate).

Grid points may be evaluated by any number of worker threads; every
Monte-Carlo point owns a counter-based stream derived from the base seed and
the point's position in the sorted grid, and rows are emitted in sorted key
order, so the output file is byte-identical regardless of parallelism.  A
point's rows share one sample set (Monte-Carlo) or one endpoint fit (analytic).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .config import _MAX_ROWS, RunConfig
from .errors import _EVALUATION_ERRORS, ConfigurationError
from .channel import EveComposite, SystemConfig, endpoints_for
from .metrics import avg_secrecy_rate, secrecy_outage
from .montecarlo import mc_secrecy_metrics

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "preset_run_config",
           "CSV_HEADER", "PRESET_NAMES"]

CSV_HEADER = ("power_dbm,delta_db,n_eve,rs_target,metric,method,"
              "value,std_error,n_samples,seed,status")

METRICS = ("rate", "outage")
METHODS = ("analytic", "mc-ln", "mc-composite")
_MODE_OF = {"mc-ln": "ln_fit", "mc-composite": "composite"}
_SEED_STRIDE = 0x9E3779B97F4A7C15  # golden-ratio step decorrelates point streams
MAX_WORKERS = 64  # the pool starts up to this many OS threads


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: base channel settings, grids, requested metrics and methods."""

    base: RunConfig
    metrics: tuple[str, ...] = ("rate",)
    methods: tuple[str, ...] = ("analytic",)

    def __post_init__(self):
        for axis, known, name in ((self.metrics, METRICS, "metric"),
                                  (self.methods, METHODS, "method")):
            for i, m in enumerate(axis):
                if m not in known:
                    raise ConfigurationError(f"unknown {name} {m!r}")
                if m in axis[:i]:
                    raise ConfigurationError(f"{name}s repeat the entry {m!r}")
        if not self.metrics or not self.methods:
            raise ConfigurationError("metrics and methods must be non-empty")
        if self.point_count() > _MAX_ROWS:
            raise ConfigurationError(
                f"sweep would produce {self.point_count()} rows "
                f"(limit {_MAX_ROWS})")

    def point_count(self) -> int:
        n = (len(self.base.power_grid_dbm) * len(self.base.delta_grid_db)
             * len(self.base.n_eve_grid) * len(self.methods))
        per_point = 0
        if "rate" in self.metrics:
            per_point += 1
        if "outage" in self.metrics:
            per_point += len(self.base.rs_grid)
        return n * per_point


@dataclass(frozen=True)
class SweepRow:
    power_dbm: float
    delta_db: float
    n_eve: int
    rs_target: Optional[float]  # None for rate rows
    metric: str
    method: str
    value: Optional[float]
    std_error: Optional[float]
    n_samples: Optional[int]
    seed: Optional[int]
    status: str

    def sort_key(self):
        rs = -math.inf if self.rs_target is None else self.rs_target
        return (self.power_dbm, self.delta_db, self.n_eve, rs,
                self.metric, self.method)

    def to_csv(self) -> str:
        def num(v):
            return "" if v is None else repr(float(v))

        def integer(v):
            return "" if v is None else str(int(v))

        return ",".join([
            repr(float(self.power_dbm)),
            repr(float(self.delta_db)),
            str(self.n_eve),
            num(self.rs_target),
            self.metric,
            self.method,
            num(self.value),
            num(self.std_error),
            integer(self.n_samples),
            integer(self.seed),
            self.status,
        ])


def _point_rows(spec: SweepSpec, power: float, delta: float, n_eve: int,
                method: str, point_seed: int) -> list[SweepRow]:
    base = spec.base
    cfg = base.system(power, delta, n_eve)
    keys = [("rate", None)] if "rate" in spec.metrics else []
    if "outage" in spec.metrics:
        keys += [("outage", rs) for rs in base.rs_grid]

    def row(metric, rs, value=None, std_error=None, n_samples=None, seed=None,
            status="ok"):
        return SweepRow(power, delta, n_eve, rs, metric, method,
                        value, std_error, n_samples, seed, status)

    def flag_all(exc):
        return [row(*key, status=_err(exc)) for key in keys]

    if method == "analytic":
        try:
            ep = endpoints_for(cfg)
        except _EVALUATION_ERRORS as exc:
            return flag_all(exc)
        rows = []
        for metric, rs in keys:
            try:
                res = (avg_secrecy_rate(ep) if rs is None
                       else secrecy_outage(ep, rs))
                rows.append(row(metric, rs, res.value))
            except _EVALUATION_ERRORS as exc:
                rows.append(row(metric, rs, status=_err(exc)))
        return rows

    targets = base.rs_grid if "outage" in spec.metrics else ()
    try:
        rate, outages = mc_secrecy_metrics(cfg, targets, _MODE_OF[method],
                                           base.samples, point_seed)
    except _EVALUATION_ERRORS as exc:
        return flag_all(exc)
    ests = ([rate] if "rate" in spec.metrics else []) + outages
    return [row(*key, est.mean, est.std_error, base.samples, point_seed)
            for key, est in zip(keys, ests)]


def _err(exc: Exception) -> str:
    return f"error: {str(exc)}".replace(",", ";").replace("\n", " ")


def sweep_rows(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid point; rows come back sorted by their keys.

    ``workers`` threads (1 to MAX_WORKERS) share the points; it is checked
    before any thread starts.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(
            f"workers must be in [1, {MAX_WORKERS}], got {workers!r}")
    points = [(power, delta, n_eve, method)
              for power in sorted(spec.base.power_grid_dbm)
              for delta in sorted(spec.base.delta_grid_db)
              for n_eve in sorted(spec.base.n_eve_grid)
              for method in sorted(spec.methods)]
    seeds = [(spec.base.seed + (i + 1) * _SEED_STRIDE) % (2 ** 64)
             for i in range(len(points))]

    def work(args):
        (power, delta, n_eve, method), seed = args
        return _point_rows(spec, power, delta, n_eve, method, seed)

    if workers == 1:
        chunks = [work(a) for a in zip(points, seeds)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(work, zip(points, seeds)))
    rows = [r for chunk in chunks for r in chunk]
    rows.sort(key=SweepRow.sort_key)
    return rows


def write_csv(rows: Sequence[SweepRow], out_path: str) -> None:
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.to_csv() + "\n")


def run_sweep(spec: SweepSpec, out_path: str, workers: int = 1) -> list[SweepRow]:
    """Evaluate the sweep and write its CSV; returns the rows."""
    rows = sweep_rows(spec, workers=workers)
    write_csv(rows, out_path)
    return rows


PRESET_NAMES = ("paper-fig2", "paper-fig3", "sanity")


def preset_run_config(name: str) -> RunConfig:
    """Built-in experiment presets.

    The two figure presets are one sweep of transmit power against
    self-interference attenuation and eavesdropper antenna count over the
    reference geometry (30 m line, relay centred, exponent 4, m = 2, 10 dB
    shadowing).  Their eavesdropper is placed 10 m from both sources (-40 dB
    path gain, 5 dB shadowing) so her links scale with transmit power like
    every other link.  The sanity preset is the fixed single point used for
    cross-validation, with the eavesdropper given directly in nats.
    """
    if name in ("paper-fig2", "paper-fig3"):
        return RunConfig(
            power_grid_dbm=tuple(10.0 + 5.0 * i for i in range(14)),
            delta_grid_db=(-90.0, -80.0, -70.0),
            n_eve_grid=(2, 4, 8),
            rs_grid=(2.0, 4.0),
            network=SystemConfig(eve_spec=EveComposite(-40.0, 5.0)),
        )
    if name == "sanity":
        return RunConfig()
    raise ConfigurationError(f"unknown preset {name!r}; "
                             f"choose one of {', '.join(PRESET_NAMES)}")
