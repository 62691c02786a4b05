"""CLI end-to-end: subcommands, exit codes, output formats."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secrelay
from secrelay.cli import main
from secrelay.config import DEFAULT_CONFIG_TEXT

FAST_VALIDATE_CONFIG = DEFAULT_CONFIG_TEXT.replace("samples = 100000",
                                                   "samples = 20000")


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


def test_sweep_same_bytes_for_workers(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("power_dbm = 30:40:10\ndelta_db = -80\nsamples = 2000\n")
    out1, out4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    main(["rate-sweep", "--config", str(cfg), "--output", str(out1),
          "--method", "mc-ln", "--workers", "1"])
    main(["rate-sweep", "--config", str(cfg), "--output", str(out4),
          "--method", "mc-ln", "--workers", "4"])
    assert out1.read_bytes() == out4.read_bytes()


def test_sweep_preset_runs(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["rate-sweep", "--preset", "paper-fig2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 14 * 3 * 3  # powers x deltas x antennas


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("power_dbm = 40\ndelta_db=abc\n")
    code = main(["rate-sweep", "--config", str(cfg),
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "delta_db" in err and "2" in err


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
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_validate_low_order_fails(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG.replace("quadrature_order = 24",
                                                "quadrature_order = 2"))
    code = main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    # the reported rate-agreement deviation is far above 1e-6
    line = next(ln for ln in out.splitlines() if "rate-quadrature-agreement" in ln)
    measured = float(line.split("measured")[1].split()[0])
    assert measured > 1e-6


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


@pytest.mark.parametrize("order, status", [(24, 0), (2, 1)])
def test_validate_into_a_closed_pipe_keeps_its_status(tmp_path, order, status):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(FAST_VALIDATE_CONFIG.replace("quadrature_order = 24",
                                                f"quadrature_order = {order}"))
    with _spawn(["validate", "--config", str(cfg)]) as proc:
        proc.stdout.close()  # gone before the checks finish and print
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == status
    assert err == b""
