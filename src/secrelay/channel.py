"""Network geometry and link budgets -> the three decision SNR distributions.

The relay decodes against its self-interference (an SINR ratio), Bob combines
the direct and relayed signals (a fitted log-normal sum), and the
eavesdropper maximal-ratio-combines both sources over all antennas: at one
transmit power both reach each antenna over the same link, so she sums
2 * N_E branches of it (cumulant folding).  Noise is fixed at unit variance, so transmit power in dBm is read
relative to a 0 dB noise floor.  The points of a sweep grid are fitted in
one call that fits each distinct link once; ``endpoints_for`` is its
one-point call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import lognormal as ln
from .errors import _EVALUATION_ERRORS, ConfigurationError
from .lognormal import CompositeLink, LogNormal

__all__ = [
    "EveComposite",
    "SystemConfig",
    "LinkBudget",
    "Endpoints",
    "link_budget",
    "endpoints_for",
]


@dataclass(frozen=True)
class EveComposite:
    """Eavesdropper per-antenna link as a composite channel in the power budget.

    gain_db is the path gain from either source to each antenna, applied to
    the common transmit power (e.g. -40 dB is 10 m at path-loss exponent 4).
    """

    gain_db: float
    shadow_sd_db: float = 5.0


@dataclass(frozen=True)
class SystemConfig:
    """Full network description; construction range-checks every field."""

    d_ab_m: float = 30.0
    relay_fraction: float = 0.5
    path_loss_exponent: float = 4.0
    nakagami_m: float = 2.0
    shadow_sd_db: float = 10.0
    power_dbm: float = 40.0  # of source and relay alike
    delta_db: float = -80.0
    n_eve: int = 2
    eve_spec: LogNormal | EveComposite = LogNormal(0.21, 0.76)  # Eve's link, per antenna

    def __post_init__(self):
        for name in ("d_ab_m", "relay_fraction", "path_loss_exponent", "nakagami_m",
                     "shadow_sd_db", "power_dbm", "delta_db"):
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
        # a direct link must bring its own spread; the Gamma fading keeps a
        # composite link's spread positive at zero shadowing
        spec = self.eve_spec
        if isinstance(spec, LogNormal):  # itself rejects a non-finite mu or sigma
            ok = spec.sigma > 0.0
        else:
            ok = (isinstance(spec, EveComposite) and math.isfinite(spec.gain_db)
                  and math.isfinite(spec.shadow_sd_db) and spec.shadow_sd_db >= 0.0)
        if not ok:
            raise ConfigurationError(
                "eve_spec must be a LogNormal with sigma > 0 or an EveComposite "
                f"with a finite gain_db and a finite shadow_sd_db >= 0, got {spec!r}")


@dataclass(frozen=True)
class LinkBudget:
    """Per-link channel specs: CompositeLinks, and Eve's LogNormal if direct."""

    ar: CompositeLink
    rr: CompositeLink
    ab: CompositeLink
    rb: CompositeLink
    eve: LogNormal | CompositeLink  # either source -> Eve, per antenna


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
    """Resolve geometry and the transmit power into per-link channel specs.

    Eve's entry is the one link from either source to each of her antennas:
    a LogNormal passes through, a composite spec becomes a CompositeLink at
    the transmit power.
    """
    return _budget_at(cfg, cfg.power_dbm, cfg.delta_db)


def _budget_at(network: SystemConfig, power: float, delta: float) -> LinkBudget:
    """``link_budget`` of ``network`` at the given power and delta, which
    the caller has range-checked, without building that network."""
    d_ar = network.relay_fraction * network.d_ab_m
    d_rb = (1.0 - network.relay_fraction) * network.d_ab_m
    nu = network.path_loss_exponent

    def legit(gain_db: float) -> CompositeLink:
        return CompositeLink(network.nakagami_m, power + gain_db, network.shadow_sd_db)

    ar = legit(path_gain_db(d_ar, nu))
    rb = legit(path_gain_db(d_rb, nu))
    ab = legit(path_gain_db(network.d_ab_m, nu))
    # self-interference sees the relay's own power through the attenuation
    # factor only, no distance term
    rr = legit(delta)

    eve = network.eve_spec
    if isinstance(eve, EveComposite):
        eve = CompositeLink(network.nakagami_m, power + eve.gain_db, eve.shadow_sd_db)
    return LinkBudget(ar, rr, ab, rb, eve)


def _grid_endpoints(network: SystemConfig,
                    points: Sequence[tuple[float, float, int]]
                    ) -> list[Endpoints | Exception]:
    """The endpoints at each (power, delta, N_E) point of ``network``.

    Relay: exact ratio of the desired link over the self-interference link.
    Bob: fitted sum of the direct and relayed links.  Eve: cumulants of the
    per-antenna link, scaled by the 2 * N_E branches she combines, refitted
    to a single log-normal.

    Each distinct link is fitted once: per power the ar, ab, rb and Eve
    per-antenna fits and Bob's sum, per (power, delta) the self-interference
    fit and the relay ratio, and per (power, N_E) Eve's fold.  Each fit makes
    the one-point call's budget and ``lognormal`` calls with the same
    arguments, so every endpoint and every error is bit-identical to fitting
    the point alone.  The points' values must lie in the ranges SystemConfig
    checks.  A point whose fit raises gets the error in place of its
    endpoints; an error is not kept, so each point it stops raises it afresh.
    """
    # the fits each point shares; a fit is never falsy, so
    # ``get(key) or setdefault(key, fit)`` fits only on a miss
    budgets, ars, relays, bobs, eve_links, eves = {}, {}, {}, {}, {}, {}
    out: list = []
    for power, delta, n_eve in points:
        at, eve_at = (power, delta), (power, n_eve)
        try:
            budget = budgets.get(at) or budgets.setdefault(
                at, _budget_at(network, power, delta))
            ar = ars.get(power) or ars.setdefault(power, ln.from_composite(budget.ar))
            relay = relays.get(at) or relays.setdefault(
                at, ln.ratio(ar, ln.from_composite(budget.rr)))
            bob = bobs.get(power) or bobs.setdefault(power, ln.sum_lognormals(
                [ln.from_composite(budget.ab), ln.from_composite(budget.rb)]))
            eve = eves.get(eve_at)
            if eve is None:
                link = eve_links.get(power) or eve_links.setdefault(
                    power, budget.eve if isinstance(budget.eve, LogNormal)
                    else ln.from_composite(budget.eve))
                eve = eves[eve_at] = ln.from_cumulants(
                    ln.cumulants(link).scaled(2 * n_eve))
        except _EVALUATION_ERRORS as exc:
            out.append(exc)
        else:
            out.append(Endpoints(relay=relay, bob=bob, eve=eve))
    return out


def endpoints_for(cfg: SystemConfig) -> Endpoints:
    """Fit every link of the budget and fold the fits into the endpoints.

    The one-point call of the grid fitter ``_grid_endpoints``: raises the
    error that stops the point.
    """
    (ep,) = _grid_endpoints(cfg, [(cfg.power_dbm, cfg.delta_db, cfg.n_eve)])
    if isinstance(ep, Exception):
        raise ep
    return ep
