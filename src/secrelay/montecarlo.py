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

Each call draws its blocks into buffers it allocates once, so a yielded
block of rates is a view that the next block overwrites.  The buffers are
local to the call, never shared between sweep worker threads.
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


def _draw_composite(link: CompositeLink, rng: np.random.Generator,
                    out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fill ``out`` with SNR samples G * S of a composite link, in place.

    ``scratch`` is a work array of the same shape.  The draws and the
    arithmetic are those of rng.gamma(m, 1/m) * exp(xi * (mean + sd * z)),
    so the samples are bit-identical to that expression on the same stream.
    """
    rng.standard_gamma(link.m, out=out)
    out *= 1.0 / link.m
    rng.standard_normal(out=scratch)
    scratch *= link.shadow_sd_db
    scratch += link.mean_snr_db
    scratch *= DB_TO_NAT
    np.exp(scratch, out=scratch)
    out *= scratch
    return out


def sample_composite_snr(link: CompositeLink, rng: np.random.Generator,
                         size: int) -> np.ndarray:
    """Draw ``size`` SNR samples G * S from a composite link.

    G is Gamma(shape m, scale 1/m), i.e. mean-normalised Nakagami-m squared
    envelope; S is the log-normal shadowing with the link's dB mean and sd.
    """
    return _draw_composite(link, rng, np.empty(size), np.empty(size))


def _draw_eve_per_antenna(spec, rng: np.random.Generator, out: np.ndarray,
                          scratch: np.ndarray) -> np.ndarray:
    if isinstance(spec, EveDirect):
        rng.standard_normal(out=out)
        out *= spec.sigma
        out += spec.mu
        return np.exp(out, out=out)
    return _draw_composite(spec, rng, out, scratch)


def _check_samples(n: int) -> int:
    """n as a Python int; numpy integers pass, bools do not."""
    if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
            or n < _MIN_SAMPLES):
        raise ConfigurationError(
            f"Monte-Carlo runs need at least {_MIN_SAMPLES} samples, got {n!r}")
    return int(n)


def _secrecy_rates(main: np.ndarray, eve: np.ndarray) -> np.ndarray:
    """max(log2(1 + main) - log2(1 + eve), 0), computed in place in both."""
    main += 1.0
    eve += 1.0
    np.log2(main, out=main)
    np.log2(eve, out=eve)
    main -= eve
    return np.maximum(main, 0.0, out=main)


def _iter_rate_blocks(cfg: SystemConfig, mode: str, n: int, seed: int):
    """Yield per-block arrays of instantaneous secrecy rates (bits/s/Hz).

    Each block is drawn into buffers allocated once per call, so a yielded
    block is a view that the next block overwrites: reduce it (or copy it)
    before advancing the generator.  The buffers are local to the call, so
    concurrent calls from sweep workers share nothing.
    """
    rng = _rng_for(seed)
    size = min(_BLOCK, n)
    if mode == "ln_fit":
        ep = endpoints_for(cfg)
        buf = np.empty(3 * size)
        done = 0
        while done < n:
            b = min(_BLOCK, n - done)
            z = buf[:3 * b].reshape(3, b)  # C-contiguous: drawn row by row
            rng.standard_normal(out=z)
            for row, fit in zip(z, (ep.relay, ep.bob, ep.eve)):
                row *= fit.sigma
                row += fit.mu
            np.exp(z, out=z)
            relay, bob, eve = z
            yield _secrecy_rates(np.minimum(relay, bob, out=relay), eve)
            done += b
    elif mode == "composite":
        budget = link_budget(cfg)
        bufs = np.empty((5, size))
        done = 0
        while done < n:
            b = min(_BLOCK, n - done)
            relay, bob, eve, tmp, scratch = bufs[:, :b]  # contiguous rows
            _draw_composite(budget.ar, rng, relay, scratch)
            relay /= _draw_composite(budget.rr, rng, tmp, scratch)
            _draw_composite(budget.ab, rng, bob, scratch)
            bob += _draw_composite(budget.rb, rng, tmp, scratch)
            eve.fill(0.0)
            for _ in range(2 * cfg.n_eve):  # both sources, every antenna
                eve += _draw_eve_per_antenna(budget.eve, rng, tmp, scratch)
            yield _secrecy_rates(np.minimum(relay, bob, out=relay), eve)
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
    n = _check_samples(n)
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

