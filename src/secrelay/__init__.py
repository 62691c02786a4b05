"""Secrecy performance of a full-duplex decode-and-forward relay network.

The package turns a physical network description (geometry, powers,
self-interference attenuation, eavesdropper antennas) into log-normal SNR
distributions under composite Nakagami-m/log-normal fading, and evaluates
the average secrecy rate and secrecy outage probability three ways:
fixed-order quadrature of the closed forms (a log-domain trapezoid rule),
adaptive numerical integration (reference), and seeded Monte-Carlo
simulation (oracle).
"""
from .channel import (Endpoints, EveComposite, EveDirect, LinkBudget,
                      SystemConfig, endpoints_for, link_budget)
from .config import RunConfig, load_config, parse_config_text
from .errors import AccuracyError, ConfigParseError, ConfigurationError
from .lognormal import (DB_TO_NAT, CompositeLink, Cumulants, LogNormal,
                        cumulants, from_composite, from_cumulants, ratio,
                        sum_lognormals)
from .metrics import (MetricResult, adaptive_integrate, avg_secrecy_rate,
                      avg_secrecy_rate_reference, min_snr_cdf, secrecy_outage,
                      secrecy_outage_reference)
from .montecarlo import McEstimate, mc_secrecy_metrics, sample_composite_snr
from .sweep import SweepRow, SweepSpec, preset_run_config, run_sweep
from .validate import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CheckResult", "CompositeLink", "ConfigParseError",
    "ConfigurationError", "Cumulants", "DB_TO_NAT", "Endpoints",
    "EveComposite", "EveDirect", "LinkBudget",
    "LogNormal", "McEstimate", "MetricResult", "RunConfig", "SweepRow",
    "SweepSpec", "SystemConfig", "adaptive_integrate", "avg_secrecy_rate",
    "avg_secrecy_rate_reference", "cumulants", "endpoints_for",
    "from_composite", "from_cumulants", "link_budget", "load_config",
    "mc_secrecy_metrics", "min_snr_cdf", "parse_config_text",
    "preset_run_config", "ratio",
    "run_sweep", "run_validation", "sample_composite_snr", "secrecy_outage",
    "secrecy_outage_reference", "sum_lognormals", "__version__",
]
