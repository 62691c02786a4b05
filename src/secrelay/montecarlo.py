"""Stochastic oracle: empirical secrecy metrics from sampled channels.

Two modes:

* ``ln_fit``      -- draw the three decision SNRs from the fitted log-normal
                     endpoint distributions.  Estimates exactly the quantity
                     the analytic formulas integrate, so it isolates
                     quadrature error.
* ``composite``   -- draw every individual link as a true Gamma x log-normal
                     composite (per antenna for the eavesdropper) and combine
                     per the signal model.  Differences from the analytic
                     values measure the log-normal approximation error.

Streams use the counter-based Philox generator keyed directly by the caller's
seed, and samples are reduced sequentially in fixed-size blocks, so results
are bit-identical for a given (config, mode, n, seed) regardless of how many
sweep workers run concurrently.  ``mc_secrecy_metrics`` is the one estimator:
it reduces one sample set into the rate and every outage target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import EveDirect, SystemConfig, endpoints_for, link_budget
from .errors import ConfigurationError
from .lognormal import DB_TO_NAT, CompositeLink

__all__ = [
    "McEstimate",
    "sample_composite_snr",
    "mc_secrecy_metrics",
]

_BLOCK = 1 << 17  # fixed reduction block keeps accumulation order canonical
_MIN_SAMPLES = 1000


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    n_samples: int
    seed: int
    mode: str


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 128 - 1)))


def sample_composite_snr(link: CompositeLink, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw ``size`` SNR samples G * S from a composite link.

    G is Gamma(shape m, scale 1/m), i.e. mean-normalised Nakagami-m squared
    envelope; S is the log-normal shadowing with the link's dB mean and sd.
    """
    g = rng.gamma(link.m, 1.0 / link.m, size)
    db = link.mean_snr_db + link.shadow_sd_db * rng.standard_normal(size)
    return g * np.exp(DB_TO_NAT * db)


def _sample_eve_per_antenna(spec, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(spec, EveDirect):
        return np.exp(spec.mu + spec.sigma * rng.standard_normal(n))
    return sample_composite_snr(spec, rng, n)


def _check_samples(n: int) -> None:
    if not (isinstance(n, int) and n >= _MIN_SAMPLES):
        raise ConfigurationError(
            f"Monte-Carlo runs need at least {_MIN_SAMPLES} samples, got {n!r}")


def _iter_rate_blocks(cfg: SystemConfig, mode: str, n: int, seed: int):
    """Yield per-block arrays of instantaneous secrecy rates (bits/s/Hz)."""
    rng = _rng_for(seed)
    if mode == "ln_fit":
        ep = endpoints_for(cfg)
        done = 0
        while done < n:
            b = min(_BLOCK, n - done)
            z = rng.standard_normal((3, b))
            g_relay = np.exp(ep.relay.mu + ep.relay.sigma * z[0])
            g_bob = np.exp(ep.bob.mu + ep.bob.sigma * z[1])
            g_eve = np.exp(ep.eve.mu + ep.eve.sigma * z[2])
            yield np.maximum(np.log2(1.0 + np.minimum(g_relay, g_bob))
                             - np.log2(1.0 + g_eve), 0.0)
            done += b
    elif mode == "composite":
        budget = link_budget(cfg)
        done = 0
        while done < n:
            b = min(_BLOCK, n - done)
            g_ar = sample_composite_snr(budget.ar, rng, b)
            g_rr = sample_composite_snr(budget.rr, rng, b)
            g_ab = sample_composite_snr(budget.ab, rng, b)
            g_rb = sample_composite_snr(budget.rb, rng, b)
            g_eve = np.zeros(b)
            for _ in range(cfg.n_eve):
                g_eve += _sample_eve_per_antenna(budget.eve_a, rng, b)
            for _ in range(cfg.n_eve):
                g_eve += _sample_eve_per_antenna(budget.eve_r, rng, b)
            yield np.maximum(np.log2(1.0 + np.minimum(g_ar / g_rr, g_ab + g_rb))
                             - np.log2(1.0 + g_eve), 0.0)
            done += b
    else:
        raise ValueError(f"unknown Monte-Carlo mode {mode!r}")


def mc_secrecy_metrics(cfg: SystemConfig, rs_targets: Sequence[float],
                       mode: str, n: int, seed: int
                       ) -> tuple[McEstimate, list[McEstimate]]:
    """Empirical average secrecy rate and outage per target, one sample set.

    The n realisations are drawn once and reduced block by block into the
    rate's sum and sum of squares and each target's ``rates < r`` count.
    Sharing them across targets (common random numbers) makes the outage
    estimates exactly nested: a higher target never reports lower outage.
    """
    _check_samples(n)
    targets = [float(r) for r in rs_targets]
    for r in targets:
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"rs_target must be positive, got {r!r}")
    total = 0.0
    total_sq = 0.0
    counts = np.zeros(len(targets), dtype=np.int64)
    for rates in _iter_rate_blocks(cfg, mode, n, seed):
        total += float(rates.sum())
        total_sq += float((rates * rates).sum())
        for i, r in enumerate(targets):
            counts[i] += int(np.count_nonzero(rates < r))
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    rate = McEstimate(mean=mean, std_error=math.sqrt(var / n),
                      n_samples=n, seed=seed, mode=mode)
    return rate, [McEstimate(mean=float(p), std_error=math.sqrt(p * (1.0 - p) / n),
                             n_samples=n, seed=seed, mode=mode)
                  for p in counts / n]

