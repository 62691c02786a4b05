"""Sweep runner: CSV schema, ordering, determinism across worker counts."""
import hashlib
import threading
from dataclasses import replace

import numpy as np
import pytest

from secrelay import (ConfigurationError, RunConfig, SweepSpec, SystemConfig,
                      montecarlo, run_sweep, sweep)
from secrelay.sweep import CSV_HEADER, preset_run_config, sweep_rows


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


def test_mc_point_draws_its_samples_once(monkeypatch):
    calls = counting(monkeypatch, montecarlo, "_iter_rate_blocks")
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"),
                     methods=("mc-ln", "mc-composite"))
    rows = sweep_rows(spec)
    assert len(rows) == 6 * 2 * 3
    assert len(calls) == 6 * 2  # one sample set per (grid point, method)


def test_analytic_point_fits_endpoints_once(monkeypatch):
    calls = counting(monkeypatch, sweep, "endpoints_for")
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"), methods=("analytic",))
    rows = sweep_rows(spec)
    assert len(rows) == 6 * 3
    assert all(r.status == "ok" for r in rows)
    assert len(calls) == 6


def test_endpoint_failure_flags_every_row(monkeypatch):
    def broken(cfg):
        raise ValueError("no fit, for\nthis point")

    monkeypatch.setattr(sweep, "endpoints_for", broken)
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"), methods=("analytic",))
    rows = sweep_rows(spec)
    assert len(rows) == 6 * 3
    assert {r.status for r in rows} == {"error: no fit; for this point"}
    assert all(r.value is None for r in rows)


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
    # Written by the estimators that sampled rate and outage in separate
    # passes; the digest depends on numpy's Philox Generator streams and
    # was recorded with numpy 2.4.6.
    spec = SweepSpec(base=small_run_config(rs_grid=(1.0, 2.0)),
                     metrics=("rate", "outage"),
                     methods=("mc-ln", "mc-composite"))
    path = tmp_path / "mc.csv"
    run_sweep(spec, str(path), workers=2)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d3fe16b00139f7c2d6916076ca3afed2665dd2f81236f36940331ffe92534151")


def sweep_digest(spec, tmp_path, workers=1):
    path = tmp_path / "sweep.csv"
    run_sweep(spec, str(path), workers=workers)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fig2_analytic_csv_digest(tmp_path):
    # The paper-fig2 rate and outage rows from the closed forms, recorded
    # with numpy 2.4.6 and scipy 1.17.1.
    spec = SweepSpec(base=preset_run_config("paper-fig2").with_overrides(seed=11),
                     metrics=("rate", "outage"), methods=("analytic",))
    assert sweep_digest(spec, tmp_path) == (
        "26f660603b66026fa17da9a684eee2dc1f73f97e2774106abe6ee276a32f0662")


def test_composite_eve_mc_csv_digest(tmp_path):
    # A composite eavesdropper on a reduced paper-fig2 grid: pins the order
    # in which the composite oracle draws every link and antenna from the
    # Philox stream.  Recorded with numpy 2.4.6 and scipy 1.17.1.
    base = replace(preset_run_config("paper-fig2"), power_grid_dbm=(10.0, 70.0),
                   delta_grid_db=(-80.0,), n_eve_grid=(2, 8), samples=1000, seed=11)
    spec = SweepSpec(base=base, metrics=("rate", "outage"),
                     methods=("mc-composite", "mc-ln"))
    assert sweep_digest(spec, tmp_path, workers=2) == (
        "a35fea396c309d48bb81120b00001bb6d8b62b7a2b3fcce9b2eff8a66c86b165")
