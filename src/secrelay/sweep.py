"""Experiment sweeps over (power, self-interference, antennas, target rate).

A sweep runs in stages: the grid of (power, delta, N_E) points of the base
network; one grid fit (``channel._grid_endpoints``), made when ``analytic``
or ``mc-ln`` asks for it and shared by both; each method as one task over
all the points, which any number of worker threads may share; the rows, in
sorted key order, so the output is byte-identical regardless of
parallelism.  The grid fit fits each distinct link once; every endpoint is
bit-identical to the point's own ``endpoints_for``.  A Monte-Carlo row's
``seed`` column holds the base seed: its value depends only on its own
(power, delta, N_E), the seed and the sample count, so adding or removing
grid values leaves every other row unchanged, and a one-point sweep
rebuilds any row.  Each row's standard error is valid on its own, but the
Monte-Carlo rows of one sweep are correlated.  A point's rows share one
sample set (Monte-Carlo) or its endpoints (analytic).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

from .config import _MAX_ROWS, RunConfig
from .errors import _EVALUATION_ERRORS, ConfigurationError
from .channel import EveComposite, SystemConfig, _grid_endpoints
from .channel import endpoints_for  # noqa: F401 -- the benchmark's tracer wraps it here
from .metrics import avg_secrecy_rate, secrecy_outage
from .montecarlo import _grid_estimates

__all__ = ["SweepSpec", "SweepRow", "run_sweep", "preset_run_config",
           "CSV_HEADER", "PRESET_NAMES"]

CSV_HEADER = ("power_dbm,delta_db,n_eve,rs_target,metric,method,"
              "value,std_error,n_samples,seed,status")

METRICS = ("rate", "outage")
METHODS = ("analytic", "mc-ln", "mc-composite")
_MODE_OF = {"mc-ln": "ln_fit", "mc-composite": "composite"}
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
        return (len(self.base.power_grid_dbm) * len(self.base.delta_grid_db)
                * len(self.base.n_eve_grid) * len(self.methods)
                * len(_row_keys(self)))


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


def _row_keys(spec: SweepSpec) -> list[tuple[str, Optional[float]]]:
    """(metric, rs_target) of each row a grid point writes, in order."""
    keys = [("rate", None)] if "rate" in spec.metrics else []
    if "outage" in spec.metrics:
        keys += [("outage", rs) for rs in spec.base.rs_grid]
    return keys


def _flagged(spec: SweepSpec, point: tuple[float, float, int], method: str,
             exc: Exception) -> list[SweepRow]:
    """Every row of a point that ``exc`` stopped, naming it in the status."""
    return [SweepRow(*point, rs, metric, method, None, None, None, None, _err(exc))
            for metric, rs in _row_keys(spec)]


def _analytic_rows(spec: SweepSpec, points: Sequence[tuple[float, float, int]],
                   fits: Sequence) -> list[SweepRow]:
    """Every grid point's analytic rows, from the grid's fit."""
    rows = []
    for point, ep in zip(points, fits):
        if isinstance(ep, Exception):
            rows += _flagged(spec, point, "analytic", ep)
            continue
        for metric, rs in _row_keys(spec):
            value, status = None, "ok"
            try:
                value = (avg_secrecy_rate(ep) if rs is None
                         else secrecy_outage(ep, rs)).value
            except _EVALUATION_ERRORS as exc:
                status = _err(exc)
            rows.append(SweepRow(*point, rs, metric, "analytic", value,
                                 None, None, None, status))
    return rows


def _mc_rows(spec: SweepSpec, points: Sequence[tuple[float, float, int]],
             fits: Sequence, method: str) -> list[SweepRow]:
    """Every grid point of one Monte-Carlo method, from one set of banks."""
    base = spec.base
    keys = _row_keys(spec)
    targets = base.rs_grid if "outage" in spec.metrics else ()
    results = _grid_estimates(base.network, fits if method == "mc-ln" else points,
                              targets, _MODE_OF[method], base.samples, base.seed)
    rows = []
    for point, result in zip(points, results):
        if isinstance(result, Exception):
            rows += _flagged(spec, point, method, result)
            continue
        rate, outages = result
        ests = ([rate] if "rate" in spec.metrics else []) + outages
        rows += [SweepRow(*point, rs, metric, method, est.mean, est.std_error,
                          base.samples, base.seed, "ok")
                 for (metric, rs), est in zip(keys, ests)]
    return rows


def _err(exc: Exception) -> str:
    return f"error: {str(exc)}".replace(",", ";").replace("\n", " ")


def sweep_rows(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate every grid point; rows come back sorted by their keys.

    Each method is one task over all the points, after the one grid fit.
    ``workers`` threads (1 to MAX_WORKERS) share the tasks; it is checked
    before any thread starts, and the thread pool is loaded only for more
    than one.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(
            f"workers must be in [1, {MAX_WORKERS}], got {workers!r}")
    points = [(power, delta, n_eve)
              for power in sorted(spec.base.power_grid_dbm)
              for delta in sorted(spec.base.delta_grid_db)
              for n_eve in sorted(spec.base.n_eve_grid)]
    # one fit serves the analytic rows and mc-ln's draws
    fits = (_grid_endpoints(spec.base.network, points)
            if {"analytic", "mc-ln"} & set(spec.methods) else None)
    tasks = [partial(_analytic_rows, spec, points, fits) if method == "analytic"
             else partial(_mc_rows, spec, points, fits, method)
             for method in sorted(spec.methods)]
    if workers == 1:
        chunks = [task() for task in tasks]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda task: task(), tasks))
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
