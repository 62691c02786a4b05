"""The package API that the benchmark relies on.

``bench/workloads.py`` and ``bench/layers.py`` are loaded and read, never
edited: a config change or a refactor that would break the benchmark's
workloads or unbind a name its tracer wraps fails here, in the fast suite.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from secrelay import parse_config_text

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"
# Monte-Carlo wrappers the tracer still names; mc_secrecy_metrics replaced
# them, and the tracer is to wrap it instead (ROADMAP item 1)
STALE_TARGETS = {
    ("secrelay.sweep", "mc_avg_secrecy_rate"),
    ("secrelay.sweep", "mc_secrecy_outage_multi"),
    ("secrelay.validate", "mc_avg_secrecy_rate"),
    ("secrelay.validate", "mc_secrecy_outage"),
}


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
                assert (system.power_dbm, system.delta_db, system.n_eve) == (
                    power, delta, n_eve)
    out = expected.with_overrides(samples=1000, seed=3)
    assert (out.samples, out.seed) == (1000, 3)
    assert out.network == expected.network


def test_every_tracer_target_resolves(monkeypatch):
    # layers.py imports its sibling tracer.py as a top-level module
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(layers)
    finally:
        sys.modules.pop("tracer", None)
    targets = {(module, attr) for module, attr, _ in layers.TARGETS}
    assert STALE_TARGETS <= targets
    missing = [f"{module}.{attr}" for module, attr in sorted(targets - STALE_TARGETS)
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
    assert ("secrelay.metrics", "adaptive_integrate") in targets


def test_every_workload_op_runs_and_checks_in_smoke_mode(workloads, tmp_path):
    # one op of each workload, and the determinism probe, as the benchmark
    # runs them: a result type or signature the workloads rely on that
    # changes fails here
    for name, workload in workloads.WORKLOADS.items():
        op = workload.make_op(7, smoke=True, workdir=str(tmp_path))
        checked = op.check(op.run())
        assert checked.units > 0, name
    probe = workloads.determinism_probe(str(tmp_path))
    assert set(probe) == {"mc-ln", "mc-composite"}
