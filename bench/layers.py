"""What the traced run wraps, and how its spans become per-layer metrics.

Layers are secrelay's modules.  Each target is wrapped on the module that
binds the name, since ``from .channel import endpoints_for`` gives every
consumer its own reference.  The span name is ``<layer>.<function>``.
"""
from __future__ import annotations

import importlib
import os
import time

from tracer import Tracer

# (module that binds the name, name, layer)
TARGETS = (
    ("secrelay", "parse_config_text", "config"),
    ("secrelay", "endpoints_for", "channel"),
    ("secrelay.sweep", "endpoints_for", "channel"),
    ("secrelay.montecarlo", "endpoints_for", "channel"),
    ("secrelay.validate", "endpoints_for", "channel"),
    ("secrelay.channel", "link_budget", "channel"),
    ("secrelay.montecarlo", "link_budget", "channel"),
    ("secrelay.lognormal", "from_composite", "lognormal"),
    ("secrelay.lognormal", "sum_lognormals", "lognormal"),
    ("secrelay.lognormal", "from_cumulants", "lognormal"),
    ("secrelay", "avg_secrecy_rate", "metrics"),
    ("secrelay", "secrecy_outage", "metrics"),
    ("secrelay", "avg_secrecy_rate_reference", "metrics"),
    ("secrelay", "secrecy_outage_reference", "metrics"),
    ("secrelay.sweep", "avg_secrecy_rate", "metrics"),
    ("secrelay.sweep", "secrecy_outage", "metrics"),
    ("secrelay.validate", "avg_secrecy_rate", "metrics"),
    ("secrelay.validate", "secrecy_outage", "metrics"),
    ("secrelay.validate", "avg_secrecy_rate_reference", "metrics"),
    ("secrelay.validate", "secrecy_outage_reference", "metrics"),
    ("secrelay.metrics", "adaptive_integrate", "numerics"),
    ("secrelay.sweep", "mc_avg_secrecy_rate", "montecarlo"),
    ("secrelay.sweep", "mc_secrecy_outage_multi", "montecarlo"),
    ("secrelay.validate", "mc_avg_secrecy_rate", "montecarlo"),
    ("secrelay.validate", "mc_secrecy_outage", "montecarlo"),
    ("secrelay.montecarlo", "sample_composite_snr", "montecarlo"),
    ("secrelay", "run_sweep", "sweep"),
    ("secrelay.sweep", "write_csv", "sweep"),
    ("secrelay", "run_validation", "validate"),
)
# layers reported as <layer>.self_ms; sweep.self_ms is run_sweep's own
SELF_TIME_LAYERS = ("config", "channel", "lognormal", "metrics", "numerics",
                    "montecarlo", "validate")
MC_CALLS = ("montecarlo.mc_avg_secrecy_rate", "montecarlo.mc_secrecy_outage_multi",
            "montecarlo.mc_secrecy_outage")
FITS = ("lognormal.from_composite", "lognormal.sum_lognormals",
        "lognormal.from_cumulants")
SAMPLER = "montecarlo.sample_composite_snr"
NOTES = {
    "channel.endpoints_share": "endpoints_for time / traced op time",
    "lognormal.fit_us": "self time per fit call",
    "numerics.adaptive_evals": "integrand evaluations per call",
    "numerics.rule_build_ms": "order-24 Laguerre + Hermite, cold, median of the setup processes",
    "montecarlo.draws": "composite: counted from sample_composite_snr sizes; "
                        "ln_fit: computed as 3n",
    "montecarlo.sample_share": "sample_composite_snr time / Monte-Carlo call time",
    "montecarlo.samples_per_s": "draws / Monte-Carlo call time",
    "sweep.self_ms": "run_sweep minus the union of its children",
    "sweep.worker_util": "child busy time / (run_sweep wall x workers)",
    "trace.overhead": "traced op median / untraced op median - 1",
    "trace.absent": "wrap targets not found",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _hooks(tracer: Tracer) -> dict:
    def count_evals(fn, args, kwargs):
        f = _arg(args, kwargs, 0, "f")
        if not callable(f):
            return fn(*args, **kwargs)
        evals = 0

        def counted(x):
            nonlocal evals
            evals += 1
            return f(x)

        try:
            return fn(counted, *args[1:], **kwargs)
        finally:
            tracer.count("numerics.evals", evals)

    def count_draws(fn, args, kwargs):
        size = _arg(args, kwargs, 2, "size")
        tracer.count("montecarlo.composite_draws", 1 if size is None else int(size))
        return fn(*args, **kwargs)

    def count_estimates(fn, args, kwargs):
        result = fn(*args, **kwargs)
        estimates = result if isinstance(result, list) else [result]
        tracer.count("montecarlo.estimates", len(estimates))
        # ln_fit draws three normals per realisation inside the module;
        # nothing public to wrap there, so the count is computed
        est = estimates[0] if estimates else None
        if getattr(est, "mode", None) == "ln_fit":
            tracer.count("montecarlo.ln_draws", 3 * est.n_samples)
        return result

    def sweep_outputs(fn, args, kwargs):
        spec = _arg(args, kwargs, 0, "spec")
        out_path = _arg(args, kwargs, 1, "out_path")
        workers = _arg(args, kwargs, 2, "workers") or 1
        start = time.perf_counter_ns()
        rows = fn(*args, **kwargs)
        tracer.count("sweep.capacity_ns", (time.perf_counter_ns() - start) * workers)
        base = spec.base
        tracer.count("sweep.points", len(base.power_grid_dbm) * len(base.delta_grid_db)
                     * len(base.n_eve_grid) * len(spec.methods))
        tracer.count("sweep.rows", len(rows))
        tracer.count("sweep.flagged_rows", sum(r.status != "ok" for r in rows))
        tracer.count("sweep.csv_bytes", os.path.getsize(out_path))
        return rows

    def validate_outputs(fn, args, kwargs):
        checks = fn(*args, **kwargs)
        tracer.count("validate.checks", len(checks))
        tracer.count("validate.failed", sum(not c.passed for c in checks))
        return checks

    return {
        "numerics.adaptive_integrate": count_evals,
        SAMPLER: count_draws,
        "montecarlo.mc_avg_secrecy_rate": count_estimates,
        "montecarlo.mc_secrecy_outage_multi": count_estimates,
        "montecarlo.mc_secrecy_outage": count_estimates,
        "sweep.run_sweep": sweep_outputs,
        "validate.run_validation": validate_outputs,
    }


def install(tracer: Tracer) -> None:
    """Wrap every target; a module or name that is gone is marked absent."""
    hooks = _hooks(tracer)
    for module_name, attr, layer in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{attr}")
            continue
        name = f"{layer}.{attr}"
        tracer.wrap(module, attr, name, hook=hooks.get(name),
                    adopt=(name == "sweep.run_sweep"))


def layer_metrics(summary: dict, counts, n_ops: int, op_ns: int) -> dict:
    """Per-op layer figures from the summed spans of ``n_ops`` traced ops.

    ``op_ns`` is the summed duration of the op spans themselves.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def total(names, key):
        return sum(get(n, key) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    ops = max(n_ops, 1)
    endpoints = "channel.endpoints_for"
    mc_calls = total(MC_CALLS, "calls")
    mc_ns = total(MC_CALLS, "incl_ns")
    draws = counts["montecarlo.composite_draws"] + counts["montecarlo.ln_draws"]
    sweep_children = get("sweep.run_sweep", "child_ns") - get("sweep.write_csv", "incl_ns")
    names = {
        "config.parse_calls": get("config.parse_config_text", "calls") / ops,
        "config.parse_us": ratio(get("config.parse_config_text", "incl_ns"),
                                 get("config.parse_config_text", "calls")) / 1e3,
        "channel.endpoints_calls": get(endpoints, "calls") / ops,
        "channel.endpoints_us": ratio(get(endpoints, "incl_ns"),
                                      get(endpoints, "calls")) / 1e3,
        "channel.endpoints_share": ratio(get(endpoints, "incl_ns"), op_ns),
        "channel.link_budget_calls": get("channel.link_budget", "calls") / ops,
        "lognormal.fit_calls": total(FITS, "calls") / ops,
        "lognormal.fit_us": ratio(total(FITS, "self_ns"), total(FITS, "calls")) / 1e3,
    }
    for short, fn, scale in (("rate", "avg_secrecy_rate", ("us", 1e3)),
                             ("outage", "secrecy_outage", ("us", 1e3)),
                             ("rate_ref", "avg_secrecy_rate_reference", ("ms", 1e6)),
                             ("outage_ref", "secrecy_outage_reference", ("ms", 1e6))):
        span = f"metrics.{fn}"
        names[f"metrics.{short}_calls"] = get(span, "calls") / ops
        names[f"metrics.{short}_{scale[0]}"] = ratio(get(span, "incl_ns"),
                                                     get(span, "calls")) / scale[1]
    adaptive = "numerics.adaptive_integrate"
    names.update({
        "numerics.adaptive_calls": get(adaptive, "calls") / ops,
        "numerics.adaptive_evals": ratio(counts["numerics.evals"], get(adaptive, "calls")),
        "numerics.adaptive_failures": get(adaptive, "failures") / ops,
        "montecarlo.calls": mc_calls / ops,
        "montecarlo.ms_per_call": ratio(mc_ns, mc_calls) / 1e6,
        "montecarlo.draws": draws / ops,
        "montecarlo.draws_per_row": ratio(draws, counts["montecarlo.estimates"]),
        "montecarlo.sample_share": ratio(get(SAMPLER, "incl_ns"), mc_ns),
        "montecarlo.samples_per_s": ratio(draws, mc_ns / 1e9),
        "sweep.points": counts["sweep.points"] / ops,
        "sweep.rows": counts["sweep.rows"] / ops,
        "sweep.flagged_rows": counts["sweep.flagged_rows"] / ops,
        "sweep.self_ms": get("sweep.run_sweep", "self_ns") / ops / 1e6,
        "sweep.csv_write_ms": get("sweep.write_csv", "incl_ns") / ops / 1e6,
        "sweep.csv_bytes": counts["sweep.csv_bytes"] / ops,
        "sweep.worker_util": ratio(sweep_children, counts["sweep.capacity_ns"]),
        "validate.checks": counts["validate.checks"] / ops,
        "validate.failed": counts["validate.failed"] / ops,
        "validate.ms": get("validate.run_validation", "incl_ns") / ops / 1e6,
    })
    for layer in SELF_TIME_LAYERS:
        self_ns = sum(rec["self_ns"] for name, rec in summary.items()
                      if name.startswith(layer + "."))
        names[f"{layer}.self_ms"] = self_ns / ops / 1e6
    return names
