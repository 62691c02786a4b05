"""Secrecy performance of a full-duplex decode-and-forward relay network.

The package turns a physical network description (geometry, powers,
self-interference attenuation, eavesdropper antennas) into log-normal SNR
distributions under composite Nakagami-m/log-normal fading, and evaluates
the average secrecy rate and secrecy outage probability three ways:
fixed-order quadrature of the closed forms (a log-domain trapezoid rule),
adaptive numerical integration (reference), and seeded Monte-Carlo
simulation (oracle).

``import secrelay`` loads no submodule.  Each public name is imported from
its submodule on first access (PEP 562) and then bound here, so a run
compiles only the modules it uses: building a preset or parsing a config
loads ``config``, ``channel``, ``lognormal`` and ``errors``, and an
analytic sweep adds ``sweep`` and ``metrics``.
"""
import importlib

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_EXPORTS = {
    "channel": ("Endpoints", "EveComposite", "LinkBudget", "SystemConfig",
                "endpoints_for", "link_budget"),
    "config": ("RunConfig", "load_config", "parse_config_text",
               "preset_run_config"),
    "errors": ("AccuracyError", "ConfigParseError", "ConfigurationError"),
    "lognormal": ("DB_TO_NAT", "CompositeLink", "Cumulants", "LogNormal",
                  "cumulants", "from_composite", "from_cumulants", "ratio",
                  "sum_lognormals"),
    "metrics": ("MetricResult", "adaptive_integrate", "avg_secrecy_rate",
                "avg_secrecy_rate_reference", "min_snr_cdf", "secrecy_outage",
                "secrecy_outage_reference"),
    "montecarlo": ("McEstimate", "mc_secrecy_metrics", "sample_composite_snr"),
    "sweep": ("SweepRow", "SweepSpec", "run_sweep"),
    "validate": ("CheckResult", "run_validation"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                        name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # bound here, so the next lookup, and a caller's setattr, skip this hook
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
