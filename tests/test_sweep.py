"""Sweep runner: CSV schema, ordering, determinism across worker counts."""
import hashlib
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from secrelay import (ConfigurationError, EveComposite, LogNormal, RunConfig,
                      SweepSpec, SystemConfig, lognormal, montecarlo, run_sweep,
                      sweep)
from secrelay.sweep import CSV_HEADER, preset_run_config, sweep_rows
from test_channel import EDGE_DELTAS, EDGE_N_EVES, EDGE_POWERS


def small_run_config(**kw):
    defaults = dict(power_grid_dbm=(30.0, 40.0, 50.0),
                    delta_grid_db=(-90.0, -80.0),
                    n_eve_grid=(2,),
                    rs_grid=(2.0,),
                    samples=2000,
                    seed=11)
    defaults.update(kw)
    return RunConfig(**defaults)


def test_rate_sweep_cardinality(tmp_path):
    spec = SweepSpec(base=small_run_config(), metrics=("rate",),
                     methods=("analytic",))
    out = tmp_path / "rate.csv"
    rows = run_sweep(spec, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(rows) == 6  # 3 powers x 2 deltas x 1 n_eve
    assert len(lines) == 7


def test_outage_sweep_includes_targets(tmp_path):
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("outage",), methods=("analytic",))
    rows = run_sweep(spec, str(tmp_path / "o.csv"))
    assert len(rows) == 12
    assert {r.rs_target for r in rows} == {1.0, 2.0}


def test_rows_sorted_by_keys():
    spec = SweepSpec(base=small_run_config(), metrics=("rate",),
                     methods=("analytic", "mc-ln"))
    rows = sweep_rows(spec)
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("workers", [0, sweep.MAX_WORKERS + 1])
def test_worker_count_out_of_range_starts_no_thread(tmp_path, workers):
    spec = SweepSpec(base=small_run_config(), metrics=("rate",),
                     methods=("mc-ln",))
    threads = threading.active_count()
    with pytest.raises(ConfigurationError, match=r"workers must be in \[1, 64\]"):
        run_sweep(spec, str(tmp_path / "x.csv"), workers=workers)
    assert threading.active_count() == threads
    assert not (tmp_path / "x.csv").exists()


def test_byte_identical_across_runs_and_workers(tmp_path):
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"),
                     methods=("analytic", "mc-ln", "mc-composite"))
    blobs = []
    for i, workers in enumerate((1, 4, 8)):
        path = tmp_path / f"sweep{i}.csv"
        run_sweep(spec, str(path), workers=workers)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


def test_mc_rows_carry_sampling_metadata():
    spec = SweepSpec(base=small_run_config(), metrics=("rate",),
                     methods=("mc-ln",))
    rows = sweep_rows(spec)
    for r in rows:
        assert r.status == "ok"
        assert r.n_samples == 2000
        assert r.std_error is not None and r.std_error > 0
        assert r.seed is not None


def test_analytic_rows_have_empty_sampling_fields():
    spec = SweepSpec(base=small_run_config(), metrics=("rate",),
                     methods=("analytic",))
    for r in sweep_rows(spec):
        line = r.to_csv()
        assert line.endswith(",,,ok")  # std_error, n_samples, seed empty
        assert r.rs_target is None


def test_rate_rows_monotone_in_antennas_and_si():
    base = small_run_config(power_grid_dbm=(50.0,), delta_grid_db=(-90.0, -80.0),
                            n_eve_grid=(2, 4, 8))
    rows = sweep_rows(SweepSpec(base=base, metrics=("rate",),
                                methods=("analytic",)))
    by_key = {(r.delta_db, r.n_eve): r.value for r in rows}
    assert by_key[(-90.0, 2)] > by_key[(-80.0, 2)]
    assert by_key[(-80.0, 2)] > by_key[(-80.0, 4)] > by_key[(-80.0, 8)]


def test_outage_rows_monotone_in_target():
    base = small_run_config(power_grid_dbm=(60.0,), delta_grid_db=(-80.0,),
                            rs_grid=(0.5, 2.0, 4.0), samples=5000)
    rows = sweep_rows(SweepSpec(base=base, metrics=("outage",),
                                methods=("analytic", "mc-ln")))
    for method in ("analytic", "mc-ln"):
        vals = [r.value for r in rows if r.method == method]
        assert vals == sorted(vals)


def test_metric_errors_flagged_not_fatal():
    # an overflowing link budget breaks the analytic rate; the row is flagged
    bad = RunConfig(power_grid_dbm=(2000.0,), delta_grid_db=(-80.0,),
                    n_eve_grid=(1,))
    rows = sweep_rows(SweepSpec(base=bad, metrics=("rate",),
                                methods=("analytic",)))
    assert len(rows) == 1
    assert rows[0].status.startswith("error:")
    assert rows[0].value is None


def test_grid_size_cap():
    with pytest.raises(ConfigurationError):
        SweepSpec(base=RunConfig(power_grid_dbm=tuple(float(p) for p in range(2000)),
                                 delta_grid_db=tuple(float(-d) for d in range(60))),
                  metrics=("rate",), methods=("analytic",))


# built inside the test: a bad network raises as soon as it is constructed
@pytest.mark.parametrize("bad", [lambda: dict(network=SystemConfig(d_ab_m=-1.0)),
                                 lambda: dict(n_eve_grid=())],
                         ids=["negative-distance", "empty-grid"])
def test_bad_run_config_raises_at_construction(bad):
    with pytest.raises(ConfigurationError):
        small_run_config(**bad())


def test_unknown_metric_and_method():
    with pytest.raises(ConfigurationError):
        SweepSpec(base=small_run_config(), metrics=("capacity",))
    with pytest.raises(ConfigurationError):
        SweepSpec(base=small_run_config(), methods=("exact",))


def test_repeated_metric_or_method_rejected():
    # a repeat would emit two rows with the same key
    with pytest.raises(ConfigurationError, match="repeat the entry 'analytic'"):
        SweepSpec(base=small_run_config(), methods=("analytic", "analytic"))
    with pytest.raises(ConfigurationError, match="repeat the entry 'rate'"):
        SweepSpec(base=small_run_config(), metrics=("rate", "outage", "rate"))


def test_numpy_sample_count_gives_the_int_rows():
    def rows(samples):
        spec = SweepSpec(base=small_run_config(samples=samples), metrics=("rate",),
                         methods=("mc-ln",))
        return [r.to_csv() for r in sweep_rows(spec)]

    numpy_rows = rows(np.int64(2000))
    assert all(line.endswith(",ok") for line in numpy_rows)
    assert numpy_rows == rows(2000)


def test_presets_materialise():
    for name in ("paper-fig2", "paper-fig3", "sanity"):
        cfg = preset_run_config(name)
        assert cfg.network == cfg.system(cfg.power_grid_dbm[0], cfg.delta_grid_db[0],
                                         cfg.n_eve_grid[0])
    with pytest.raises(ConfigurationError):
        preset_run_config("paper-fig9")


def test_preset_fig2_shape():
    cfg = preset_run_config("paper-fig2")
    assert cfg.power_grid_dbm[0] == 10.0 and cfg.power_grid_dbm[-1] == 75.0
    assert set(cfg.delta_grid_db) == {-70.0, -80.0, -90.0}
    assert set(cfg.n_eve_grid) == {2, 4, 8}


def counting(monkeypatch, module, name):
    """Replace module.name by a pass-through that records each call."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class RecordingStream:
    """A substream that logs each bank fill as (substream, draw, size)."""

    def __init__(self, rng, j, log):
        self.rng, self.j, self.log = rng, j, log

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def fill(*args, out):
            self.log.append((self.j, name, len(out)))
            return draw(*args, out=out)

        return fill


def test_each_link_bank_is_drawn_once_per_block(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", 1024)
    log = []
    substream = montecarlo._substream
    monkeypatch.setattr(montecarlo, "_substream", lambda seed, j: RecordingStream(
        substream(seed, j), j, log))
    base = small_run_config(rs_grid=(1.0, 2.0), n_eve_grid=(1, 3),
                            network=SystemConfig(eve_spec=EveComposite(-40.0, 5.0)))
    spec = SweepSpec(base=base, metrics=("rate", "outage"),
                     methods=("mc-ln", "mc-composite"))
    rows = sweep_rows(spec)
    assert len(rows) == 12 * 2 * 3  # 12 points, 2 methods, 3 rows each
    want = []
    for size in (1024, 976):  # the blocks of 2000 samples
        # mc-ln: relay, Bob and Eve normals
        want += [(j, "standard_normal", size) for j in (1, 2, 3)]
        # mc-composite: ar, rr, ab, rb and Eve's 2 * 3 branches, each a
        # Gamma and a shadowing draw
        want += [(j, draw, size) for j in range(4, 14)
                 for draw in ("standard_gamma", "standard_normal")]
    assert sorted(log) == sorted(want)


MC_GRID = dict(power_grid_dbm=(10.0, 40.0, 70.0), delta_grid_db=(-90.0, -80.0),
               n_eve_grid=(2, 4), samples=1000, seed=11)


def mc_csv(base, metrics=("rate", "outage"), methods=("mc-composite", "mc-ln")):
    """Each Monte-Carlo row's CSV line, by its key."""
    rows = sweep_rows(SweepSpec(base=base, metrics=metrics, methods=methods))
    return {r.sort_key(): r.to_csv() for r in rows}


@pytest.mark.parametrize("axis, value", [("power_grid_dbm", 25.0),
                                         ("delta_grid_db", -70.0),
                                         ("n_eve_grid", 1), ("n_eve_grid", 8)])
def test_mc_rows_do_not_depend_on_the_other_grid_values(axis, value):
    # a composite eavesdropper, so her prefix sums move with the N_E grid
    base = replace(preset_run_config("paper-fig2"), **MC_GRID)
    rows = mc_csv(base)
    grown = mc_csv(replace(base, **{axis: getattr(base, axis) + (value,)}))
    assert len(grown) > len(rows)
    assert {key: grown[key] for key in rows} == rows
    for drop in range(len(getattr(base, axis))):
        kept = tuple(v for i, v in enumerate(getattr(base, axis)) if i != drop)
        shrunk = mc_csv(replace(base, **{axis: kept}))
        assert 0 < len(shrunk) < len(rows)
        assert shrunk == {key: rows[key] for key in shrunk}


def test_a_one_point_sweep_rebuilds_each_mc_row_from_its_csv_line():
    base = replace(preset_run_config("paper-fig2"), **MC_GRID)
    lines = mc_csv(base).values()
    assert len(lines) == 12 * 2 * 3
    for line in lines:
        power, delta, n_eve, rs, metric, method, _, _, samples, seed, status = (
            line.split(","))
        assert status == "ok"
        one = replace(base, power_grid_dbm=(float(power),),
                      delta_grid_db=(float(delta),), n_eve_grid=(int(n_eve),),
                      rs_grid=(float(rs),) if rs else base.rs_grid,
                      samples=int(samples), seed=int(seed))
        assert list(mc_csv(one, (metric,), (method,)).values()) == [line]


@pytest.mark.parametrize("methods", ["analytic", "mc-ln", "analytic+mc-ln",
                                     "mc-composite"])
def test_a_sweep_fits_each_distinct_link_once(monkeypatch, methods):
    # paper-fig2 has 126 points but 14 powers, 42 (P, delta) and 42 (P, N_E)
    # pairs: per power the ar, ab, rb and Eve fits and Bob's sum, per
    # (P, delta) the rr fit, per (P, N_E) Eve's fold; a fit per point would
    # make 630 link fits, 126 sums and 126 folds.  analytic and mc-ln share
    # the one grid fit, and mc-composite draws its links without one
    calls = {name: counting(monkeypatch, owner, name) for owner, name in (
        (lognormal, "from_composite"), (lognormal, "sum_lognormals"),
        (lognormal.Cumulants, "scaled"))}
    base = preset_run_config("paper-fig2").with_overrides(samples=1000)
    methods = tuple(methods.split("+"))
    rows = sweep_rows(SweepSpec(base=base, metrics=("rate", "outage"),
                                methods=methods))
    assert len(rows) == 126 * 3 * len(methods)
    assert all(r.status == "ok" for r in rows)
    fits = (0, 0, 0) if methods == ("mc-composite",) else (14 * 4 + 42, 14, 42)
    assert tuple(len(c) for c in calls.values()) == fits


def test_each_method_writes_its_rows_alone():
    # the methods of one sweep share the grid's fit, never a value: each
    # method's rows are the bytes of a sweep that asks for it alone
    base = preset_run_config("paper-fig2").with_overrides(samples=1000)

    def csv(methods):
        spec = SweepSpec(base=base, metrics=("rate", "outage"), methods=methods)
        return [r.to_csv() for r in sweep_rows(spec)]

    together = csv(sweep.METHODS)
    for method in sweep.METHODS:
        assert [ln for ln in together if f",{method}," in ln] == csv((method,))


@pytest.mark.parametrize("method, networks", [("mc-ln", 0), ("mc-composite", 1)])
def test_a_mc_sweep_builds_no_network_per_point(monkeypatch, method, networks):
    # the sweep hands mc_grid_metrics the base network and its (P, delta,
    # N_E) points; composite draws its banks on one network at 0 dBm and
    # 0 dB.  A network per point, and one more per point to check that they
    # share one network, would make 252 on paper-fig2
    base = preset_run_config("paper-fig2").with_overrides(samples=1000)
    spec = SweepSpec(base=base, metrics=("rate", "outage"), methods=(method,))
    built = counting(monkeypatch, SystemConfig, "__post_init__")
    rows = sweep_rows(spec)
    assert len(rows) == 126 * 3
    assert all(r.status == "ok" for r in rows)
    assert len(built) == networks


def test_an_analytic_sweep_is_one_task(monkeypatch):
    # one grid call per metric evaluates every analytic point, so a pool of
    # four runs them all on one thread; the sleep gives the other threads
    # time to take a task, were there one
    threads = set()
    calls = []

    def on_its_thread(name):
        grid = getattr(sweep, name)

        def wrapped(endpoints, *args):
            threads.add(threading.get_ident())
            calls.append((name, len(endpoints)))
            time.sleep(0.001)
            return grid(endpoints, *args)
        monkeypatch.setattr(sweep, name, wrapped)

    on_its_thread("_rate_grid")
    on_its_thread("_outage_grid")
    spec = SweepSpec(base=preset_run_config("paper-fig2"),
                     metrics=("rate", "outage"), methods=("analytic",))
    assert len(sweep_rows(spec, workers=4)) == 126 * 3
    assert calls == [("_rate_grid", 126), ("_outage_grid", 126)]
    assert len(threads) == 1


def test_endpoint_failure_flags_every_row(monkeypatch):
    def broken(link):
        raise ValueError("no fit, for\nthis point")

    monkeypatch.setattr(lognormal, "from_composite", broken)
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"), methods=("analytic",))
    rows = sweep_rows(spec)
    assert len(rows) == 6 * 3
    assert {r.status for r in rows} == {"error: no fit; for this point"}
    assert all(r.value is None for r in rows)


def test_a_degenerate_point_flags_its_analytic_rows(monkeypatch):
    # a zero sigma stops the point's rate and outages; each row names the
    # estimator and the endpoint, and the other points are untouched
    fit = sweep._grid_endpoints

    def relay_fixed_at_first_point(network, points):
        fits = fit(network, points)
        return [replace(fits[0], relay=LogNormal(1.0, 0.0))] + fits[1:]

    monkeypatch.setattr(sweep, "_grid_endpoints", relay_fixed_at_first_point)
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"), methods=("analytic",))
    rows = sweep_rows(spec)
    first = (30.0, -90.0, 2)
    flagged = [(r.metric, r.value, r.status) for r in rows
               if (r.power_dbm, r.delta_db, r.n_eve) == first]
    degenerate = "requires non-degenerate endpoints; relay has sigma = 0"
    assert flagged == [("rate", None, f"error: avg_secrecy_rate {degenerate}"),
                       ("outage", None, f"error: secrecy_outage {degenerate}"),
                       ("outage", None, f"error: secrecy_outage {degenerate}")]
    assert sum(r.status == "ok" for r in rows) == 5 * 3


@pytest.mark.parametrize("method", ["analytic", "mc-ln"])
def test_underflowing_eve_fold_flags_its_rows(method):
    # a direct Eve at -370 nats: her fold's variance is subnormal, which
    # used to give a sigma 6.3e-4 too low with no flag
    base = small_run_config(network=SystemConfig(eve_spec=LogNormal(-370.0, 1.0)))
    rows = sweep_rows(SweepSpec(base=base, metrics=("rate", "outage"),
                                methods=(method,)))
    assert len(rows) == 6 * 2
    assert {r.status for r in rows} == {
        "error: cumulants of LogNormal(mu=-370.0; sigma=1.0) underflow: the "
        "variance 1.95e-321 is below the smallest normal float"}


def test_mc_fit_overflow_flags_rate_and_outage_rows():
    # at 2000 dBm the endpoint fit behind mc-ln overflows
    spec = SweepSpec(base=small_run_config(power_grid_dbm=(40.0, 2000.0),
                                           rs_grid=(2.0, 4.0)),
                     metrics=("rate", "outage"), methods=("mc-ln",))
    rows = sweep_rows(spec)
    bad = [r for r in rows if r.power_dbm == 2000.0]
    assert len(bad) == 2 * 3
    assert {(r.metric, r.rs_target) for r in bad} == {
        ("rate", None), ("outage", 2.0), ("outage", 4.0)}
    assert all(r.status.startswith("error: cumulants of LogNormal(")
               and r.status.endswith(") overflow") for r in bad)
    assert all(r.value is None and r.seed is None for r in bad)
    assert all(r.status == "ok" for r in rows if r.power_dbm == 40.0)


def test_mc_composite_overflow_flags_its_rows():
    # at 3500 dBm the composite draws overflow and the relay SINR reads
    # inf / inf; no nan may pass as an ok row
    spec = SweepSpec(base=small_run_config(power_grid_dbm=(3500.0,),
                                           rs_grid=(2.0, 4.0)),
                     metrics=("rate", "outage"), methods=("mc-composite",))
    rows = sweep_rows(spec)
    assert len(rows) == 2 * 3
    assert all(r.status.startswith("error: Monte-Carlo draws overflow")
               and r.value is None for r in rows)


def test_mc_sweep_csv_digest(tmp_path):
    # Both Monte-Carlo methods on common random numbers: one bank per link
    # and Philox substream, scaled per grid point.  The digest depends on
    # numpy's Philox Generator streams (numpy 2.4.6) and, through the mc-ln
    # endpoint fits, on the standard-library psi and zeta(2, m) of
    # lognormal._gamma_log_moments.
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"),
                     methods=("mc-ln", "mc-composite"))
    path = tmp_path / "mc.csv"
    run_sweep(spec, str(path), workers=2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "5a951089052fe2523b6beb911f77257cd993f88af3d91b53fe1a4a781c93f64b")


def sweep_digest(spec, tmp_path, workers=1):
    path = tmp_path / "sweep.csv"
    run_sweep(spec, str(path), workers=workers)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fig2_analytic_csv_digest(tmp_path):
    # The paper-fig2 rate and outage rows from the closed forms, which run
    # on the standard library alone: the digest depends on the platform's
    # libm (math.erfc, exp, log1p) and on the lognormal psi and zeta(2, m).
    spec = SweepSpec(base=preset_run_config("paper-fig2").with_overrides(seed=11),
                     metrics=("rate", "outage"), methods=("analytic",))
    assert sweep_digest(spec, tmp_path) == (
        "4133ac20fe448e1aaa4af0ed379c4caeb490536bde7d702cc223ad0e582d2d0c")


@pytest.mark.parametrize("eve, digest", [
    (EveComposite(-40.0, 5.0),
     "608418214877a7f88a1bfa2f201aa5c953a281947447afcf6de1ba6dd643e4bd"),
    (LogNormal(0.21, 0.76),
     "1eda07e95ffed670c506f3e556e9a6f16edee5652a1d4893354df91435be6d22"),
], ids=["composite-eve", "direct-eve"])
def test_edge_grid_csv_digest(tmp_path, eve, digest):
    # Analytic and mc-ln rows on a grid that reaches the fits' edges: the
    # endpoint fit overflows at 2000 and 3000 dBm (108 flagged rows), the
    # relay is all but free of self-interference at delta = -1e300 dB, and
    # Eve folds 2e6 branches.  The digests were recorded when every point
    # was fitted on its own, so they pin that the grid fit shares links
    # without moving a bit or an error message; since then only the mc-ln
    # outage rows at a count of 0 or n moved, to their Wilson error.
    base = RunConfig(power_grid_dbm=EDGE_POWERS, delta_grid_db=EDGE_DELTAS,
                     n_eve_grid=EDGE_N_EVES, rs_grid=(0.5, 2.0),
                     network=SystemConfig(eve_spec=eve), samples=1000, seed=11)
    spec = SweepSpec(base=base, metrics=("rate", "outage"),
                     methods=("analytic", "mc-ln"))
    path = tmp_path / "edge.csv"
    rows = run_sweep(spec, str(path))
    assert sum(r.status != "ok" for r in rows) == 108
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_no_mc_outage_row_reports_a_zero_error():
    # no sample reaches the target at 10 dBm, nor at some 70 dBm points, so
    # their count is n: such a row keeps its mean of 1 and reports the
    # one-sigma Wilson half-width, not a zero error
    base = replace(preset_run_config("paper-fig2"), power_grid_dbm=(10.0, 70.0),
                   delta_grid_db=(-80.0,), n_eve_grid=(2, 8), samples=1000, seed=11)
    rows = sweep_rows(SweepSpec(base=base, metrics=("outage",),
                                methods=("mc-composite", "mc-ln")))
    edge = [r for r in rows if r.value in (0.0, 1.0)]
    assert len(edge) == 12
    assert all(r.std_error == 0.5 / 1001 for r in edge)
    assert all(r.std_error == math.sqrt(r.value * (1.0 - r.value) / 1000)
               for r in rows if r not in edge)


def test_composite_eve_mc_csv_digest(tmp_path):
    # A composite eavesdropper on a reduced paper-fig2 grid: pins which
    # Philox substream each link and each of Eve's branches draws from, and
    # her prefix sums over the N_E grid.  It depends on numpy's Philox streams (numpy 2.4.6) and,
    # through the mc-ln endpoint fits, on the standard-library psi and
    # zeta(2, m) of lognormal._gamma_log_moments.
    base = replace(preset_run_config("paper-fig2"), power_grid_dbm=(10.0, 70.0),
                   delta_grid_db=(-80.0,), n_eve_grid=(2, 8), samples=1000, seed=11)
    spec = SweepSpec(base=base, metrics=("rate", "outage"),
                     methods=("mc-composite", "mc-ln"))
    assert sweep_digest(spec, tmp_path, workers=2) == (
        "5646930a30204be6469c887ed44baa27c902998a23bb70fa44f781d2780ed9d3")
