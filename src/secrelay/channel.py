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
    "Endpoints",
    "link_budget",
    "endpoints_for",
]


@dataclass(frozen=True)
class EveDirect:
    """Eavesdropper per-antenna, per-source SNR given directly in nats."""

    mu: float = 0.21
    sigma: float = 0.76


@dataclass(frozen=True)
class EveComposite:
    """Eavesdropper per-antenna links as composite channels in the power budget.

    gain_db is the path gain applied to each source's transmit power
    (e.g. -40 dB is 10 m at path-loss exponent 4).
    """

    gain_db: float
    shadow_sd_db: float = 5.0


EveSpec = Union[EveDirect, EveComposite]


@dataclass(frozen=True)
class SystemConfig:
    """Full network description; construction range-checks every field."""

    d_ab_m: float = 30.0
    relay_fraction: float = 0.5
    path_loss_exponent: float = 4.0
    nakagami_m: float = 2.0
    shadow_sd_db: float = 10.0
    power_a_dbm: float = 40.0
    power_r_dbm: float = 40.0
    delta_db: float = -80.0
    n_eve: int = 2
    eve_spec: EveSpec = EveDirect()

    def __post_init__(self):
        for name in ("d_ab_m", "relay_fraction", "path_loss_exponent", "nakagami_m",
                     "shadow_sd_db", "power_a_dbm", "power_r_dbm", "delta_db"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
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
        if (not isinstance(self.n_eve, int) or isinstance(self.n_eve, bool)
                or self.n_eve < 1):
            raise ConfigurationError(f"n_eve must be a positive integer, got {self.n_eve!r}")
        if not isinstance(self.eve_spec, (EveDirect, EveComposite)):
            raise ConfigurationError(
                f"eve_spec must be an EveDirect or an EveComposite, got {self.eve_spec!r}")
        # a zero spread is legal: a point-mass eavesdropper link
        spec = self.eve_spec
        where, spread = (("mu", "sigma") if isinstance(spec, EveDirect)
                         else ("gain_db", "shadow_sd_db"))
        if not (math.isfinite(getattr(spec, where))
                and math.isfinite(getattr(spec, spread))
                and getattr(spec, spread) >= 0.0):
            raise ConfigurationError(
                f"{type(spec).__name__} needs a finite {where} and a finite "
                f"{spread} >= 0, got {spec!r}")


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


def endpoints_for(cfg: SystemConfig) -> Endpoints:
    """Fit every link of the budget and fold the fits into the endpoints.

    Relay: exact ratio of the desired link over the self-interference link.
    Bob: fitted sum of the direct and relayed links.
    Eve: cumulants of both per-antenna source links, scaled by the antenna
    count, refitted to a single log-normal.
    """
    budget = link_budget(cfg)
    relay = ln.ratio(ln.from_composite(budget.ar), ln.from_composite(budget.rr))
    bob = ln.sum_lognormals([ln.from_composite(budget.ab),
                             ln.from_composite(budget.rb)])
    per_antenna = (ln.cumulants(_fit_eve(budget.eve_a))
                   + ln.cumulants(_fit_eve(budget.eve_r)))
    eve = ln.from_cumulants(per_antenna.scaled(cfg.n_eve))
    return Endpoints(relay=relay, bob=bob, eve=eve)
