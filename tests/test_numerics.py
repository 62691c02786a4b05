"""The paper's quadrature tables (tests/paper_forms.py) and the adaptive
reference integrator."""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import secrelay
from paper_forms import gauss_hermite_rule, gauss_laguerre_rule, per_panel
from secrelay import (AccuracyError, ConfigurationError, MetricResult,
                      adaptive_integrate)

SQRT_PI = math.sqrt(math.pi)


def laguerre_eval(k, x):
    """Classical Laguerre polynomial by its three-term recurrence (oracle)."""
    p_prev, p = 1.0, 1.0 - x
    if k == 0:
        return p_prev
    for j in range(1, k):
        p_prev, p = p, ((2 * j + 1 - x) * p - j * p_prev) / (j + 1)
    return p


def hermite_eval(k, x):
    """Physicists' Hermite polynomial by recurrence (oracle)."""
    p_prev, p = 1.0, 2.0 * x
    if k == 0:
        return p_prev
    for j in range(1, k):
        p_prev, p = p, 2.0 * x * p - 2.0 * j * p_prev
    return p


class TestLaguerreRule:
    def test_order_one_closed_form(self):
        rule = gauss_laguerre_rule(1)
        assert rule.nodes == (1.0,)
        assert rule.weights == (1.0,)

    def test_order_two_closed_form(self):
        rule = gauss_laguerre_rule(2)
        np.testing.assert_allclose(
            rule.nodes, [0.5857864376269049, 3.414213562373095], rtol=1e-14)
        np.testing.assert_allclose(
            rule.weights, [0.8535533905932737, 0.1464466094067262], rtol=1e-13)

    @pytest.mark.parametrize("order", [1, 2, 8, 24, 64, 128])
    def test_structure(self, order):
        rule = gauss_laguerre_rule(order)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        assert rule.order == order and len(nodes) == len(weights) == order
        assert np.all(nodes > 0)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("order", [2, 6, 16, 24, 32])
    def test_moments_exact_to_degree_2k_minus_1(self, order):
        rule = gauss_laguerre_rule(order)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        exact = 1.0
        for degree in range(2 * order):
            if degree > 0:
                exact *= degree  # integral of x^d e^-x is d!
            got = float(weights @ nodes ** degree)
            assert got == pytest.approx(exact, rel=1e-9), f"degree {degree}"

    def test_low_degree_moments_every_order_to_32(self):
        # zeroth/first/second moments for every constructible order
        for order in range(1, 33):
            rule = gauss_laguerre_rule(order)
            w = np.array(rule.weights)
            x = np.array(rule.nodes)
            assert float(w.sum()) == pytest.approx(1.0, abs=1e-12)
            assert float(w @ x) == pytest.approx(1.0, rel=1e-10)
            if order >= 2:
                assert float(w @ x ** 2) == pytest.approx(2.0, rel=1e-10)

    def test_nodes_are_polynomial_roots(self):
        rule = gauss_laguerre_rule(24)
        for x in rule.nodes:
            residual = laguerre_eval(24, x)
            # Newton correction relative to the node itself
            slope = (laguerre_eval(24, x * (1 + 1e-7)) - residual) / (x * 1e-7)
            assert abs(residual / slope) <= 1e-10 * max(x, 1.0)

    def test_weights_match_derivative_formula(self):
        # w_k = x_k / ((K+1) L_{K+1}(x_k))^2, an independent closed form
        k = 24
        rule = gauss_laguerre_rule(k)
        for x, w in zip(rule.nodes, rule.weights):
            expected = x / ((k + 1) * laguerre_eval(k + 1, x)) ** 2
            assert w == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("bad", [0, -1, 129, 2.5])
    def test_order_range(self, bad):
        with pytest.raises(ConfigurationError):
            gauss_laguerre_rule(bad)


class TestHermiteRule:
    def test_order_one_closed_form(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes == (0.0,)
        assert rule.weights == (SQRT_PI,)

    def test_order_two_closed_form(self):
        rule = gauss_hermite_rule(2)
        c = 0.7071067811865475
        np.testing.assert_allclose(rule.nodes, [-c, c], rtol=1e-14)
        np.testing.assert_allclose(rule.weights, [SQRT_PI / 2, SQRT_PI / 2],
                                   rtol=1e-13)

    @pytest.mark.parametrize("order", [1, 2, 7, 24, 25, 64, 128])
    def test_structure(self, order):
        rule = gauss_hermite_rule(order)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert abs(weights.sum() - SQRT_PI) < 1e-10
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)

    @pytest.mark.parametrize("order", [2, 8, 24, 32])
    def test_moments_exact_to_degree_2k_minus_1(self, order):
        rule = gauss_hermite_rule(order)
        nodes = np.array(rule.nodes)
        weights = np.array(rule.weights)
        for degree in range(2 * order):
            if degree % 2:
                scale = float(weights @ np.abs(nodes) ** degree) + SQRT_PI
                assert abs(float(weights @ nodes ** degree)) < 1e-9 * scale
            else:
                # integral of x^d e^-x^2 = (d-1)!! sqrt(pi) / 2^(d/2)
                exact = SQRT_PI
                for j in range(1, degree, 2):
                    exact *= j / 2.0
                got = float(weights @ nodes ** degree)
                assert got == pytest.approx(exact, rel=1e-9), f"degree {degree}"

    def test_weights_match_closed_formula(self):
        # w_k = sqrt(pi) 2^(K-1) K! / (K^2 H_{K-1}(x_k)^2); the printed form
        # without the square fails the moment identities
        k = 16
        rule = gauss_hermite_rule(k)
        coef = SQRT_PI * 2 ** (k - 1) * math.factorial(k) / k ** 2
        for x, w in zip(rule.nodes, rule.weights):
            assert w == pytest.approx(coef / hermite_eval(k - 1, x) ** 2, rel=1e-8)

    def test_order_range(self):
        with pytest.raises(ConfigurationError):
            gauss_hermite_rule(0)
        with pytest.raises(ConfigurationError):
            gauss_hermite_rule(129)


def test_every_order_passes_validate_rule_checks():
    # the weight-sum and positivity checks `validate` ran on the tables
    # while the package still evaluated the paper's forms
    for order in range(1, 129):
        lag = gauss_laguerre_rule(order)
        herm = gauss_hermite_rule(order)
        assert abs(sum(lag.weights) - 1.0) <= 1e-10, order
        assert abs(sum(herm.weights) - SQRT_PI) <= 1e-10, order
        assert min(min(lag.weights), min(herm.weights)) > 0.0, order


class TestAdaptiveIntegrate:
    def test_exponential(self):
        est = adaptive_integrate(per_panel(lambda x: math.exp(-x)), 0.0, math.inf, 1e-10)
        assert isinstance(est, MetricResult)
        assert est.value == pytest.approx(1.0, rel=1e-10)
        assert est.error_estimate <= 1e-10

    def test_lorentzian_tail(self):
        est = adaptive_integrate(per_panel(lambda x: 1.0 / (1.0 + x * x)), 0.0, math.inf,
                                 1e-10)
        assert est.value == pytest.approx(math.pi / 2, rel=1e-10)

    def test_finite_interval(self):
        est = adaptive_integrate(per_panel(math.sin), 0.0, math.pi, 1e-12)
        assert est.value == pytest.approx(2.0, rel=1e-12)

    def test_shifted_lower_limit(self):
        est = adaptive_integrate(per_panel(lambda x: math.exp(-x)), 2.0, math.inf, 1e-10)
        assert est.value == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            adaptive_integrate(per_panel(math.exp), 0.0, 1.0, 1e-2)
        with pytest.raises(ValueError):
            adaptive_integrate(per_panel(math.exp), 0.0, 1.0, 1e-13)

    def test_nonconvergence_carries_best_estimate(self):
        # integrable but nastily oscillatory-singular; very tight tolerance
        def spiky(x):
            return math.sin(1.0 / (x + 1e-12)) / math.sqrt(x + 1e-12)

        with pytest.raises(AccuracyError) as err:
            adaptive_integrate(per_panel(spiky), 0.0, 1.0, 1e-12)
        assert math.isfinite(err.value.best_estimate)

    @pytest.mark.parametrize("b", [math.nan, -math.inf])
    def test_upper_limit_nan_or_minus_inf_rejected(self, b):
        # rather than a quiet 0 (nan) or a nan integral (-inf)
        with pytest.raises(ValueError, match="upper limit"):
            adaptive_integrate(per_panel(math.exp), 0.0, b, 1e-10)

    def test_reversed_limits_negate_the_integral(self):
        est = adaptive_integrate(per_panel(math.sin), math.pi, 0.0, 1e-12)
        assert est.value == pytest.approx(-2.0, rel=1e-12)
        assert est.error_estimate <= 1e-12
        # breakpoints between the limits are used the same way round
        exp = per_panel(math.exp)
        fwd = adaptive_integrate(exp, -1.0, 2.0, 1e-12, (0.0, 1.0, 5.0))
        back = adaptive_integrate(exp, 2.0, -1.0, 1e-12, (0.0, 1.0, 5.0))
        assert back.value == -fwd.value
        assert fwd.value == pytest.approx(math.e ** 2 - 1.0 / math.e, rel=1e-12)

    def test_breakpoints_with_an_infinite_limit_rejected(self):
        with pytest.raises(ValueError, match="breakpoints"):
            adaptive_integrate(per_panel(lambda x: math.exp(-x)), 0.0, math.inf, 1e-10,
                               (1.0,))

    @pytest.mark.parametrize("b", [1.0, math.inf])
    def test_one_call_per_panel_with_ascending_nodes(self, b):
        panels = []

        def f(xs):
            panels.append(xs)
            return [math.exp(-x) for x in xs]

        est = adaptive_integrate(f, 0.0, b, 1e-10)
        assert est.value == pytest.approx(1.0 - math.exp(-b), rel=1e-10)
        assert panels and all(len(xs) == 21 for xs in panels)
        assert all(list(xs) == sorted(set(xs)) for xs in panels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_integrand_raises(self, bad):
        # rather than a quiet MetricResult(nan, nan) or MetricResult(inf, nan)
        f = per_panel(lambda x: bad if x == 0.5 else 1.0)  # 0.5: the first centre
        with pytest.raises(ValueError, match=f"not finite.*{bad!r}"):
            adaptive_integrate(f, 0.0, 1.0, 1e-10)


# run in a fresh interpreter, whose sys.modules no other test has touched:
# the package, parsing, the CLI, an analytic sweep and the adaptive
# references load neither numpy nor scipy, validate and Monte-Carlo sweeps
# load numpy alone, and nothing loads scipy; the thread pool's
# concurrent.futures loads only for a sweep of more than one method at more
# than one worker, and logging only for an estimator's debug message
IMPORT_GRAPH_CHILD = textwrap.dedent("""
    import sys
    import secrelay as sr
    from secrelay import cli

    def loaded(*names):
        return sorted(m for m in sys.modules if m.split(".")[0] in names)

    def sweep(cfg, methods):
        spec = sr.SweepSpec(base=cfg, metrics=("rate", "outage"),
                            methods=methods)
        rows = sr.sweep.sweep_rows(spec, workers=2)
        assert rows and all(r.status == "ok" for r in rows), rows

    cfg = sr.parse_config_text(
        "power_dbm = 30, 60\\nn_eve = 2, 4\\nsamples = 1000\\n"
        "eve_mode = composite\\neve_mean_snr_db = -40\\neve_shadow_sd_db = 5\\n")
    assert isinstance(cfg.network.eve_spec, sr.EveComposite)
    assert cli.main(["rate-sweep", "--preset", "paper-fig2",
                     "--output", sys.argv[1]]) == 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1 + 126
    heavy = loaded("numpy", "scipy")
    assert not heavy, f"an analytic run loaded {heavy}"
    unused = loaded("concurrent", "logging")
    assert not unused, f"a one-worker analytic run loaded {unused}"

    ep = sr.endpoints_for(cfg.network)
    sr.avg_secrecy_rate_reference(ep, 1e-9)
    sr.secrecy_outage_reference(ep, 2.0, 1e-10)
    heavy = loaded("numpy", "scipy")
    assert not heavy, f"a reference call loaded {heavy}"

    checks = sr.run_validation(
        sr.parse_config_text("power_dbm = 40\\nsamples = 20000\\n"))
    assert all(c.passed for c in checks), checks
    assert "numpy" in sys.modules
    heavy = loaded("scipy")
    assert not heavy, f"validate loaded {heavy}"

    sweep(cfg, ("mc-composite",))
    sweep(cfg, ("mc-ln",))
    heavy = loaded("scipy")
    assert not heavy, f"a Monte-Carlo run loaded {heavy}"
""")


def test_no_route_loads_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(secrelay.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_GRAPH_CHILD,
                           str(tmp_path / "fig2.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# run in a fresh interpreter: the package loads each submodule on first use,
# so a preset or a parse compiles four modules and an analytic CLI sweep
# never compiles the sampler or the checks
COLD_IMPORT_CHILD = textwrap.dedent("""
    import sys
    import secrelay as sr

    def loaded():
        return sorted(m.partition(".")[2] for m in sys.modules
                      if m.split(".")[0] == "secrelay")

    assert loaded() == [""], loaded()
    assert getattr(sr, "gauss_laguerre_rule", None) is None
    assert callable(sr.lognormal.from_composite)
    assert loaded() == ["", "lognormal"], loaded()

    sr.preset_run_config("paper-fig2")
    sr.parse_config_text("power_dbm = 30, 60\\nn_eve = 2, 4\\n")
    assert loaded() == ["", "channel", "config", "errors", "lognormal"], loaded()

    from secrelay import cli
    assert cli.main(["rate-sweep", "--preset", "paper-fig2",
                     "--output", sys.argv[1]]) == 0
    unused = {"montecarlo", "validate"} & set(loaded())
    assert not unused, f"an analytic CLI run loaded {unused}"

    assert set(sr.__all__) <= set(dir(sr))
    star = {}
    exec("from secrelay import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(sr.__all__) and len(star) == 38, sorted(star)
""")


def test_cold_import_loads_only_what_a_run_uses(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(secrelay.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", COLD_IMPORT_CHILD,
                           str(tmp_path / "fig2.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
