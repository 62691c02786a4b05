"""The RunConfig API that the benchmark's workloads rely on.

``bench/workloads.py`` is loaded and read, never edited: a config change that
would break the benchmark fails here, in the fast suite.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

from secrelay import parse_config_text

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("smoke", [False, True], ids=["full", "smoke"])
def test_fig2_text_parses_to_the_expected_config(workloads, smoke):
    text, expected = workloads.fig2_config(7, smoke)
    assert parse_config_text(text) == expected
    for power in expected.power_grid_dbm:
        for delta in expected.delta_grid_db:
            for n_eve in expected.n_eve_grid:
                system = expected.system(power, delta, n_eve)
                assert (system.power_a_dbm, system.delta_db, system.n_eve) == (
                    power, delta, n_eve)
    out = expected.with_overrides(samples=1000, seed=3)
    assert (out.samples, out.seed) == (1000, 3)
    assert out.network == expected.network
