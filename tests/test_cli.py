"""CLI end-to-end: subcommands, exit codes, output formats."""
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secrelay
from secrelay import validate
from secrelay.cli import main

FAST_VALIDATE_CONFIG = "power_dbm = 40\nsamples = 20000\n"

# the outage reference misses its tolerance at this network
OUTAGE_REFERENCE_FAILS_CONFIG = """\
shadow_sd_db = 4
delta_db = -120
power_dbm = 80, 100
eve_mode = composite
eve_mean_snr_db = -100
eve_shadow_sd_db = 4
rs_target = 0.5
samples = 10000
"""


def test_rules_subcommand_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rules", "--kind", "laguerre", "--order", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'rules'" in capsys.readouterr().err


def test_rate_sweep_with_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 30:50:10\ndelta_db = -80,-90\nsamples = 2000\n")
    out = tmp_path / "rate.csv"
    code = main(["rate-sweep", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 2


def test_repeated_method_flag_gives_one_row_per_point(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 30:50:10\nsamples = 2000\n")
    out = tmp_path / "rate.csv"
    code = main(["rate-sweep", "--config", str(cfg), "--output", str(out),
                 "--method", "analytic", "--method", "analytic"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 3


def test_outage_sweep_with_methods(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40\nrs_target = 1,2\nsamples = 2000\n")
    out = tmp_path / "outage.csv"
    code = main(["outage-sweep", "--config", str(cfg), "--output", str(out),
                 "--method", "analytic", "--method", "mc-ln", "--seed", "5"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2


@pytest.mark.parametrize("sweep", ["0:1e308:1e-308", "0:2000000:1"],
                         ids=["infinite", "over-row-cap"])
def test_oversized_power_sweep_is_a_config_error(tmp_path, capsys, sweep):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"seed = 1\npower_dbm = {sweep}\n")
    out = tmp_path / "rate.csv"
    code = main(["rate-sweep", "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"configuration error: {cfg}:2: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_repeated_grid_entry_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40, 40\nn_eve = 2,2\nrs_target = 2,2\n")
    out = tmp_path / "outage.csv"
    code = main(["outage-sweep", "--config", str(cfg), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"configuration error: {cfg}: grid power_dbm repeats "
                   "the entry 40.0\n")
    assert not out.exists()


def test_sweep_same_bytes_for_workers(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 30:40:10\ndelta_db = -80\nsamples = 2000\n")
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    main(["rate-sweep", "--config", str(cfg), "--output", str(out1),
          "--method", "mc-ln", "--workers", "1"])
    main(["rate-sweep", "--config", str(cfg), "--output", str(out4),
          "--method", "mc-ln", "--workers", "4"])
    assert out1.read_bytes() == out4.read_bytes()


def test_too_many_workers_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["rate-sweep", "--preset", "sanity", "--output", str(out),
                 "--method", "mc-composite", "--workers", "65"])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: workers must be in [1, 64], got 65\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [2 ** 127, -2 ** 127 - 1], ids=["above", "below"])
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    code = main(["rate-sweep", "--preset", "sanity", "--output", str(out),
                 "--method", "mc-ln", "--samples", "1000", "--seed", str(seed)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: seed must be an integer in [-2**127, 2**127), "
        f"got {seed}\n")
    assert not out.exists()


def test_sweep_preset_runs(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["rate-sweep", "--preset", "paper-fig2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 14 * 3 * 3  # powers x deltas x antennas


def test_mode_alias_of_method_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rate-sweep", "--preset", "sanity", "--output",
              str(tmp_path / "x.csv"), "--mode", "mc-ln"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err


def test_too_few_samples_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("samples = 500\n")
    out = tmp_path / "x.csv"
    code = main(["rate-sweep", "--config", str(cfg), "--output", str(out),
                 "--method", "mc-ln"])
    assert code == 2
    assert "at least 1000 samples" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("power_dbm = 40\ndelta_db=abc\n")
    code = main(["rate-sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "delta_db" in err and "2" in err


@pytest.mark.parametrize("command", [
    ["rate-sweep", "--output", "unused.csv"], ["validate"]], ids=["sweep", "validate"])
def test_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"power_dbm = 40\n# caf\xe9\n")
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {cfg}: not UTF-8 text")


def test_unwritable_output_exits_3(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40\n")
    code = main(["rate-sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "missing" / "x.csv")])
    assert code == 3


def test_validate_default_config_passes(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG)
    code = main(["validate", "--config", str(cfg)])
    *checks, summary = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [tuple(ln.split(":")[0].split()) for ln in checks] == [
        ("PASS", "rate-quadrature-agreement"),
        ("PASS", "outage-quadrature-agreement"),
        ("PASS", "min-cdf-identity"),
        ("PASS", "estimator-monotonicity"),
        ("PASS", "endpoint-invariants"),
        ("PASS", "mc-ln-rate-agreement"),
        ("PASS", "mc-ln-outage-agreement"),
    ]
    assert summary == "7/7 checks passed"


def test_validate_fits_the_base_network_once(tmp_path, monkeypatch):
    # five checks use the base network's endpoints, and the MC pass two of
    # them share draws from them; one fit serves all.  A run fits the base
    # network, the two endpoint-invariant probes and the quadrature probes:
    # 4 links each with a direct Eve (one probe here), 5 with paper-fig2's
    # composite Eve and 12 for its four probes, which share their powers'
    # links
    fits = []
    fit = validate.endpoints_for
    monkeypatch.setattr(validate, "endpoints_for",
                        lambda network: fits.append(network) or fit(network))
    links = []
    link_fit = secrelay.lognormal.from_composite
    monkeypatch.setattr(secrelay.lognormal, "from_composite",
                        lambda link: links.append(link) or link_fit(link))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG)
    assert main(["validate", "--config", str(cfg)]) == 0
    assert fits.count(secrelay.load_config(str(cfg)).network) == 1
    assert len(links) == 4 * 4
    links.clear()
    checks = validate.run_validation(secrelay.preset_run_config("paper-fig2"))
    assert all(check.passed for check in checks)
    assert len(links) == 5 * 3 + 12


def test_validate_passes_with_self_interference_near_0_db(tmp_path, capsys):
    # the isolation probe must stay within delta_db <= 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG + "delta_db = -3\n")
    code = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "7/7 checks passed", out
    assert code == 0


def test_validate_low_order_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(validate, "avg_secrecy_rate",
                        functools.partial(secrelay.avg_secrecy_rate, order=2))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG)
    code = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    # the reported rate-agreement deviation is far above 1e-6
    line = next(ln for ln in out.splitlines() if "rate-quadrature-agreement" in ln)
    measured = float(line.split("measured")[1].split()[0])
    assert measured > 1e-6


def test_validate_zero_spread_estimates_are_still_judged(tmp_path, capsys,
                                                         monkeypatch):
    # rate 0 +- 0 and outage 1 +- 0 against references of about 0.095 and
    # 0.983: no spread must not mean no deviation
    monkeypatch.setattr(validate, "_grid_estimates", lambda *args: [(
        secrelay.McEstimate(0.0, 0.0), [secrelay.McEstimate(1.0, 0.0)])])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG)
    assert main(["validate", "--config", str(cfg)]) == 1
    lines = {ln.split(":")[0]: ln for ln in capsys.readouterr().out.splitlines()}
    rate = lines["FAIL  mc-ln-rate-agreement"]
    outage = lines["FAIL  mc-ln-outage-agreement"]
    # the rate is held to the quadrature gate, relative to the reference
    assert "measured 1.000e+00 vs tolerance 1.000e-02" in rate
    # the outage to the reference's binomial error at n = 20000
    assert float(outage.split("measured")[1].split()[0]) > 10.0


@pytest.mark.parametrize("text, cause, report", [
    # only the outage reference fails: the rate checks still pass
    (OUTAGE_REFERENCE_FAILS_CONFIG, "adaptive integration did not converge",
     [("PASS", "rate-quadrature-agreement"),
      ("FAIL", "outage-quadrature-agreement"),
      ("PASS", "min-cdf-identity"),
      ("PASS", "estimator-monotonicity"), ("PASS", "endpoint-invariants"),
      ("PASS", "mc-ln-rate-agreement"), ("FAIL", "mc-ln-outage-agreement")]),
    (FAST_VALIDATE_CONFIG.replace("power_dbm = 40\n", "power_dbm = 2000\n"),
     "cumulants of LogNormal(",
     [("FAIL", "rate-quadrature-agreement"),
      ("FAIL", "outage-quadrature-agreement"),
      ("FAIL", "min-cdf-identity"),
      ("FAIL", "estimator-monotonicity"), ("FAIL", "endpoint-invariants"),
      ("FAIL", "mc-ln-rate-agreement"), ("FAIL", "mc-ln-outage-agreement")]),
    # so weak an eavesdropper that her fold's variance underflows: every
    # check names the underflow, not a degenerate Eve it would fit
    (FAST_VALIDATE_CONFIG + "eve_mu = -600\n", "underflow",
     [("FAIL", "rate-quadrature-agreement"),
      ("FAIL", "outage-quadrature-agreement"),
      ("FAIL", "min-cdf-identity"),
      ("FAIL", "estimator-monotonicity"), ("FAIL", "endpoint-invariants"),
      ("FAIL", "mc-ln-rate-agreement"), ("FAIL", "mc-ln-outage-agreement")]),
], ids=["outage-reference-fails", "overflowing-power", "underflowing-eve"])
def test_validate_reports_evaluation_errors_as_fail_lines(tmp_path, capsys, text,
                                                          cause, report):
    # a check that cannot be evaluated fails; the others still run
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    code = main(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    *checks, summary = captured.out.splitlines()
    assert [tuple(ln.split(":")[0].split()) for ln in checks] == report
    for ln in checks:
        if ln.startswith("FAIL"):
            assert ": error: " in ln and cause in ln
    passed = sum(status == "PASS" for status, _ in report)
    assert summary == f"{passed}/{len(report)} checks passed"


def test_validate_missing_config_is_io_error(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 3


def _spawn(args):
    """The CLI in a child process whose stdout and stderr are pipes."""
    env = dict(os.environ, PYTHONPATH=str(Path(secrelay.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)  # block-buffered stdout, as in a shell pipe
    return subprocess.Popen([sys.executable, "-m", "secrelay.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)


def test_reader_closing_after_one_line_ends_the_sweep_quietly(tmp_path):
    # about 330 kB of rows, more than a pipe holds (64 KiB on Linux), so the
    # sweep is still writing when the reader goes away after the header
    cfg = tmp_path / "long.cfg"
    cfg.write_text("power_dbm = 0:300:0.1\nn_eve = 1, 2\n")
    with _spawn(["rate-sweep", "--config", str(cfg),
                 "--output", "/dev/stdout"]) as proc:
        assert proc.stdout.readline().startswith(b"power_dbm,")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    assert err == b""


def test_overflowing_mc_composite_sweep_flags_rows_without_warnings(tmp_path):
    # at 3500 dBm the composite draws overflow: the row is flagged, and numpy
    # prints no RuntimeWarning on the way
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 40, 3500\n")
    out = tmp_path / "p.csv"
    with _spawn(["rate-sweep", "--config", str(cfg), "--output", str(out),
                 "--method", "mc-composite", "--samples", "1000"]) as proc:
        stdout, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    assert err == b""
    assert stdout.decode() == f"wrote 2 rows to {out} (1 flagged)\n"


def test_validate_runs_in_a_cold_process(tmp_path):
    # a fresh interpreter: the references, the estimators and the
    # Monte-Carlo checks load what they need themselves
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG)
    with _spawn(["validate", "--config", str(cfg)]) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err.decode()
    assert out.decode().splitlines()[-1] == "7/7 checks passed"


@pytest.mark.parametrize("delta", ["-1e17", "-1e6", "-1e300", "-1e308",
                                   "-1.7976931348623157e308"])
def test_validate_passes_at_a_vanishing_self_interference(tmp_path, delta):
    # the isolation probe must move delta_db where a 5 dB step rounds away
    # and where doubling it overflows (the last two),
    # the rate reference must not stretch to the relay's far mean, the
    # estimators' windows must not overflow on it, and the overflowing relay
    # draws must print no warning
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG + f"delta_db = {delta}\n")
    with _spawn(["validate", "--config", str(cfg)]) as proc:
        out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, out.decode()
    assert err == b""
    assert out.decode().splitlines()[-1] == "7/7 checks passed"


@pytest.mark.parametrize("power, status", [(40, 0), (2000, 1)])
def test_validate_into_a_closed_pipe_keeps_its_status(tmp_path, power, status):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG.replace("power_dbm = 40\n",
                                                f"power_dbm = {power}\n"))
    with _spawn(["validate", "--config", str(cfg)]) as proc:
        proc.stdout.close()  # gone before the checks finish and print
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == status
    assert err == b""
