"""Network geometry and link budgets -> the three decision SNR distributions.

The relay decodes against its self-interference (an SINR ratio), Bob combines
the direct and relayed signals (a fitted log-normal sum), and the
eavesdropper maximal-ratio-combines both sources over all antennas (cumulant
folding).  Noise is fixed at unit variance, so transmit power in dBm is read
relative to a 0 dB noise floor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import lognormal as ln
from .errors import ConfigurationError
from .lognormal import CompositeLink, LogNormal

__all__ = [
    "EveDirect",
    "EveComposite",
    "SystemConfig",
    "LinkBudget",
    "LinkSet",
    "Endpoints",
    "link_budget",
    "build_links",
    "endpoint_distributions",
    "endpoints_for",
    "sanity_preset",
]


@dataclass(frozen=True)
class EveDirect:
    """Eavesdropper per-antenna, per-source SNR given directly in nats."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class EveComposite:
    """Eavesdropper per-antenna links as composite channels in the power budget.

    gain_db is the path gain applied to each source's transmit power
    (e.g. -40 dB is 10 m at path-loss exponent 4).
    """

    gain_db: float
    shadow_sd_db: float


EveSpec = Union[EveDirect, EveComposite]


@dataclass(frozen=True)
class SystemConfig:
    """Full network description."""

    d_ab_m: float = 30.0
    relay_fraction: float = 0.5
    path_loss_exponent: float = 4.0
    nakagami_m: float = 2.0
    shadow_sd_db: float = 10.0
    power_a_dbm: float = 40.0
    power_r_dbm: float = 40.0
    delta_db: float = -80.0
    n_eve: int = 2
    eve_spec: EveSpec = EveDirect(0.21, 0.76)

    def __post_init__(self):
        if not (self.d_ab_m > 0.0):
            raise ConfigurationError(f"d_ab_m must be positive, got {self.d_ab_m!r}")
        if not (0.0 < self.relay_fraction < 1.0):
            raise ConfigurationError(
                f"relay_fraction must lie in (0, 1), got {self.relay_fraction!r}")
        if not (self.path_loss_exponent > 0.0):
            raise ConfigurationError(
                f"path_loss_exponent must be positive, got {self.path_loss_exponent!r}")
        if not (self.nakagami_m >= 0.5):
            raise ConfigurationError(
                f"nakagami_m must be >= 0.5, got {self.nakagami_m!r}")
        if not (self.shadow_sd_db >= 0.0):
            raise ConfigurationError(
                f"shadow_sd_db must be >= 0, got {self.shadow_sd_db!r}")
        if not (self.delta_db <= 0.0):
            raise ConfigurationError(
                f"delta_db must be <= 0 dB, got {self.delta_db!r}")
        if not (isinstance(self.n_eve, int) and self.n_eve >= 1):
            raise ConfigurationError(f"n_eve must be a positive integer, got {self.n_eve!r}")


@dataclass(frozen=True)
class LinkBudget:
    """Per-link composite channel specs before any log-normal fitting."""

    ar: CompositeLink
    rr: CompositeLink
    ab: CompositeLink
    rb: CompositeLink
    eve_a: EveSpec  # Alice -> Eve, per antenna
    eve_r: EveSpec  # relay -> Eve, per antenna


@dataclass(frozen=True)
class LinkSet:
    """Fitted log-normal SNR of every individual link (Eve links per antenna)."""

    gamma_ar: LogNormal
    gamma_rr: LogNormal
    gamma_ab: LogNormal
    gamma_rb: LogNormal
    gamma_ae: LogNormal
    gamma_re: LogNormal


@dataclass(frozen=True)
class Endpoints:
    """The three decision distributions: relay SINR, Bob SNR, Eve MRC SNR."""

    relay: LogNormal
    bob: LogNormal
    eve: LogNormal


def path_gain_db(distance_m: float, exponent: float) -> float:
    """Free-space style path gain -10 * nu * log10(d)."""
    if not (distance_m > 0.0):
        raise ConfigurationError(f"distance must be positive, got {distance_m!r}")
    return -10.0 * exponent * math.log10(distance_m)


def link_budget(cfg: SystemConfig) -> LinkBudget:
    """Resolve geometry and powers into per-link composite channel specs."""
    d_ar = cfg.relay_fraction * cfg.d_ab_m
    d_rb = (1.0 - cfg.relay_fraction) * cfg.d_ab_m
    nu = cfg.path_loss_exponent

    def legit(power_dbm: float, gain_db: float) -> CompositeLink:
        return CompositeLink(cfg.nakagami_m, power_dbm + gain_db, cfg.shadow_sd_db)

    ar = legit(cfg.power_a_dbm, path_gain_db(d_ar, nu))
    rb = legit(cfg.power_r_dbm, path_gain_db(d_rb, nu))
    ab = legit(cfg.power_a_dbm, path_gain_db(cfg.d_ab_m, nu))
    # self-interference sees the relay's own power through the attenuation
    # factor only, no distance term
    rr = legit(cfg.power_r_dbm, cfg.delta_db)

    if isinstance(cfg.eve_spec, EveComposite):
        eve_a = CompositeLink(cfg.nakagami_m, cfg.power_a_dbm + cfg.eve_spec.gain_db,
                              cfg.eve_spec.shadow_sd_db)
        eve_r = CompositeLink(cfg.nakagami_m, cfg.power_r_dbm + cfg.eve_spec.gain_db,
                              cfg.eve_spec.shadow_sd_db)
        return LinkBudget(ar, rr, ab, rb, eve_a, eve_r)
    return LinkBudget(ar, rr, ab, rb, cfg.eve_spec, cfg.eve_spec)


def _fit_eve(spec: EveSpec) -> LogNormal:
    if isinstance(spec, EveDirect):
        return LogNormal(spec.mu, spec.sigma)
    return ln.from_composite(spec)


def build_links(cfg: SystemConfig) -> LinkSet:
    """Fitted log-normal SNR for every link of the network."""
    budget = link_budget(cfg)
    return LinkSet(
        gamma_ar=ln.from_composite(budget.ar),
        gamma_rr=ln.from_composite(budget.rr),
        gamma_ab=ln.from_composite(budget.ab),
        gamma_rb=ln.from_composite(budget.rb),
        gamma_ae=_fit_eve(budget.eve_a),
        gamma_re=_fit_eve(budget.eve_r),
    )


def endpoint_distributions(links: LinkSet, n_eve: int) -> Endpoints:
    """Fold the link set into the three decision distributions.

    Relay: exact ratio of the desired link over the self-interference link.
    Bob: fitted sum of the direct and relayed links.
    Eve: cumulants of both per-antenna source links, scaled by the antenna
    count, refitted to a single log-normal.
    """
    if not (isinstance(n_eve, int) and n_eve >= 1):
        raise ValueError(f"n_eve must be a positive integer, got {n_eve!r}")
    relay = ln.ratio(links.gamma_ar, links.gamma_rr)
    bob = ln.sum_lognormals([links.gamma_ab, links.gamma_rb])
    per_antenna = ln.cumulants(links.gamma_ae) + ln.cumulants(links.gamma_re)
    eve = ln.from_cumulants(per_antenna.scaled(n_eve))
    return Endpoints(relay=relay, bob=bob, eve=eve)


def endpoints_for(cfg: SystemConfig) -> Endpoints:
    """Shortcut: link budget -> fitted links -> endpoint distributions."""
    return endpoint_distributions(build_links(cfg), cfg.n_eve)


def sanity_preset() -> SystemConfig:
    """The fixed cross-validation operating point used throughout the tests."""
    return SystemConfig(
        d_ab_m=30.0,
        relay_fraction=0.5,
        path_loss_exponent=4.0,
        nakagami_m=2.0,
        shadow_sd_db=10.0,
        power_a_dbm=40.0,
        power_r_dbm=40.0,
        delta_db=-80.0,
        n_eve=2,
        eve_spec=EveDirect(0.21, 0.76),
    )
