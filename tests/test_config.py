"""Config file parsing."""
import math

import numpy as np
import pytest

from secrelay import (ConfigParseError, ConfigurationError, LogNormal,
                      RunConfig, SystemConfig, parse_config_text,
                      preset_run_config)
from secrelay.channel import EveComposite
from secrelay.cli import main
from secrelay.config import load_config


def test_defaults_parse():
    cfg = parse_config_text("")
    assert cfg.power_grid_dbm == (40.0,)
    assert cfg.delta_grid_db == (-80.0,)
    assert cfg.n_eve_grid == (2,)
    assert cfg.rs_grid == (2.0,)
    assert cfg.network.eve_spec == LogNormal(0.21, 0.76)
    assert cfg == RunConfig()
    assert RunConfig().network == SystemConfig()
    assert preset_run_config("sanity") == RunConfig()


def test_comments_and_blank_lines():
    cfg = parse_config_text("""
# full line comment
power_dbm = 10:20:5   # trailing comment

delta_db = -70, -80
""")
    assert cfg.power_grid_dbm == (10.0, 15.0, 20.0)
    assert cfg.delta_grid_db == (-70.0, -80.0)


def test_power_sweep_is_inclusive():
    cfg = parse_config_text("power_dbm = 0:50:10")
    assert cfg.power_grid_dbm == (0.0, 10.0, 20.0, 30.0, 40.0, 50.0)


def test_grid_lists():
    cfg = parse_config_text("n_eve = 2, 4, 8\nrs_target = 0.5,2,4\n")
    assert cfg.n_eve_grid == (2, 4, 8)
    assert cfg.rs_grid == (0.5, 2.0, 4.0)


def test_composite_eve():
    cfg = parse_config_text(
        "eve_mode = composite\neve_mean_snr_db = -40\neve_shadow_sd_db = 5\n")
    assert cfg.network.eve_spec == EveComposite(-40.0, 5.0)
    # keys of the other mode are ignored; unset ones take the spec's defaults
    cfg = parse_config_text("eve_mode = composite\neve_mean_snr_db = -30\n"
                            "eve_mu = 9\n")
    assert cfg.network.eve_spec == EveComposite(-30.0, 5.0)
    cfg = parse_config_text("eve_mean_snr_db = -30\neve_sigma = 0.5\n")
    assert cfg.network.eve_spec == LogNormal(0.21, 0.5)


def test_malformed_value_reports_key_and_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("power_dbm = 40\ndelta_db = abc\n")
    assert "delta_db" in str(err.value)
    assert err.value.line == 2


def test_unknown_key_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("powr_dbm = 40\n")
    assert err.value.line == 1


def test_duplicate_key_rejected():
    with pytest.raises(ConfigParseError):
        parse_config_text("seed = 1\nseed = 2\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigParseError) as err:
        parse_config_text("power_dbm 40\n")
    assert err.value.line == 1


def test_power_split_is_an_unknown_key(tmp_path, capsys):
    # source and relay share power_dbm; there is nothing left to split
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40\npower_split = equal\n")
    code = main(["rate-sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}:2: unknown key 'power_split'\n")


def test_quadrature_order_is_an_unknown_key(tmp_path, capsys):
    # the estimators fix their own order; a run cannot set it
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40\nquadrature_order = 24\n")
    code = main(["rate-sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}:2: unknown key 'quadrature_order'\n")
    with pytest.raises(TypeError):
        RunConfig(quadrature_order=24)


def test_composite_eve_requires_gain():
    with pytest.raises(ConfigParseError):
        parse_config_text("eve_mode = composite\n")


def test_eve_mode_typo_is_rejected():
    # the eavesdropper is one typed field in code and a checked key in files
    with pytest.raises(TypeError):
        RunConfig(eve_mode="compsite")
    with pytest.raises(ConfigParseError):
        parse_config_text("eve_mode = compsite\n")


def test_semantic_range_checks_surface_as_parse_errors():
    with pytest.raises(ConfigParseError):
        parse_config_text("relay_fraction = 1.5\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("delta_db = 10\n")
    for sigma in (-1, 0):
        with pytest.raises(ConfigParseError, match="sigma"):
            parse_config_text(f"eve_sigma = {sigma}\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("eve_mode = composite\neve_mean_snr_db = -40\n"
                          "eve_shadow_sd_db = -5\n")
    with pytest.raises(ConfigParseError, match="at least 1000 samples"):
        parse_config_text("samples = 500\n")


def test_sample_count_checked_at_construction():
    assert RunConfig(samples=np.int64(1000)).samples == 1000
    for bad in (999, True):
        with pytest.raises(ConfigurationError, match="samples"):
            RunConfig(samples=bad)
    with pytest.raises(ConfigurationError, match="samples"):
        RunConfig().with_overrides(samples=500)


def test_bad_power_sweep():
    with pytest.raises(ConfigParseError):
        parse_config_text("power_dbm = 10:5:5\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("power_dbm = 10:20\n")


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    text = "power_dbm = 30:50:10\neve_mode = composite\neve_mean_snr_db = -40\n"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg == parse_config_text(text)


def test_load_config_error_names_file(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("delta_db = abc\n")
    with pytest.raises(ConfigParseError) as err:
        load_config(str(path))
    assert "bad.cfg" in str(err.value)


def test_overrides():
    cfg = parse_config_text("samples = 5000\nseed = 3\n")
    out = cfg.with_overrides(samples=7777, seed=None)
    assert out.samples == 7777 and out.seed == 3


def test_every_grid_entry_is_range_checked():
    with pytest.raises(ConfigParseError):
        parse_config_text("delta_db = -80, 5\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("n_eve = 2, 0\n")
    with pytest.raises(ConfigParseError):
        parse_config_text("rs_target = 2, -1\n")


@pytest.mark.parametrize("grid, name, entries", [
    ("power_grid_dbm", "power_dbm", (40.0, 50.0, 40.0)),
    ("delta_grid_db", "delta_db", (-80.0, -80.0)),
    ("n_eve_grid", "n_eve", (2, 4, 2)),
    ("rs_grid", "rs_target", (2.0, 2.0))])
def test_repeated_grid_entries_rejected(grid, name, entries):
    # a repeated entry would sweep to rows with duplicate keys
    with pytest.raises(ConfigurationError, match=f"grid {name} repeats the entry "
                                                  f"{entries[-1]!r}"):
        RunConfig(**{grid: entries})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("grid, field", [("power_grid_dbm", "power_dbm"),
                                         ("delta_grid_db", "delta_db")])
def test_non_finite_grid_entries_rejected(grid, field, value):
    # SystemConfig checks each entry, the first and every later one
    for entries in ((value,), (-50.0, value)):
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{grid: entries})


def test_boolean_antenna_count_rejected():
    for grid in ((True,), (2, True)):
        with pytest.raises(ConfigurationError, match="n_eve"):
            RunConfig(n_eve_grid=grid)


def test_grids_own_the_operating_point():
    cfg = RunConfig(network=SystemConfig(power_dbm=99.0, delta_db=-5.0, n_eve=7))
    assert cfg == RunConfig()


@pytest.mark.parametrize("name, eve_spec", [
    ("paper-fig2", EveComposite(-40.0, 5.0)), ("sanity", LogNormal(0.21, 0.76))])
def test_system_at_every_grid_point(name, eve_spec):
    cfg = preset_run_config(name)
    for p in cfg.power_grid_dbm:
        for d in cfg.delta_grid_db:
            for n in cfg.n_eve_grid:
                assert repr(cfg.system(p, d, n)) == repr(SystemConfig(
                    d_ab_m=30.0, relay_fraction=0.5, path_loss_exponent=4.0,
                    nakagami_m=2.0, shadow_sd_db=10.0, power_dbm=p,
                    delta_db=d, n_eve=n, eve_spec=eve_spec))

