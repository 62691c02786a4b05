"""Stochastic oracle: empirical secrecy metrics from sampled channels.

Two modes:

* ``ln_fit``      -- draw the three decision SNRs from the fitted log-normal
                     endpoint distributions.  Estimates exactly the quantity
                     the analytic formulas integrate, so it isolates
                     quadrature error.
* ``composite``   -- draw every link of the budget (Gamma x log-normal
                     composites, and the eavesdropper's link once per source
                     and antenna) and combine per the signal model.
                     Differences from the analytic values measure the
                     log-normal approximation error.

Every link either mode draws is a LogNormal or a CompositeLink, and one
in-place sampler draws both kinds.  Streams use the counter-based Philox
generator keyed directly by the caller's seed, and samples are reduced
sequentially in fixed-size blocks, so results are bit-identical for a given
(config, mode, n, seed) regardless of how many sweep workers run
concurrently.  ``mc_secrecy_metrics`` is the one estimator: it reduces one
sample set into the rate and every outage target, each an ``McEstimate`` of
mean and standard error.

Each call draws its blocks into buffers it allocates once, so a yielded
block of rates is a view that the next block overwrites.  The buffers are
local to the call, never shared between sweep worker threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import SystemConfig, endpoints_for, link_budget
from .errors import ConfigurationError
from .lognormal import DB_TO_NAT, CompositeLink, LogNormal

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


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 128 - 1)))


def _draw(link: LogNormal | CompositeLink, rng: np.random.Generator,
          out: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """Fill ``out`` with SNR samples of one link, in place.

    A LogNormal draws exp(mu + sigma * z).  A composite link draws
    rng.gamma(m, 1/m) * exp(xi * (mean + sd * z)) with the same draws and
    arithmetic, so its samples are bit-identical to that expression on the
    same stream; ``scratch``, a work array of ``out``'s shape, holds the
    shadowing factor (a LogNormal needs none).
    """
    if isinstance(link, LogNormal):
        rng.standard_normal(out=out)
        out *= link.sigma
        out += link.mu
        return np.exp(out, out=out)
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
    return _draw(link, rng, np.empty(size), np.empty(size))


def _check_samples(n: int) -> int:
    """n as a Python int; numpy integers pass, bools do not."""
    if (not isinstance(n, (int, np.integer)) or isinstance(n, bool)
            or n < _MIN_SAMPLES):
        raise ConfigurationError(
            f"Monte-Carlo runs need at least {_MIN_SAMPLES} samples, got {n!r}")
    return int(n)


def _iter_rate_blocks(cfg: SystemConfig, mode: str, n: int, seed: int):
    """Yield per-block arrays of instantaneous secrecy rates (bits/s/Hz).

    Both modes run one loop over the links they draw, in stream order: the
    relay's links (divided), Bob's (added) and Eve's (added).  ``ln_fit``
    draws one fitted endpoint for each; ``composite`` draws ar over rr,
    ab plus rb, and Eve's per-antenna link 2 * N_E times.

    Each block is drawn into buffers allocated once per call, so a yielded
    block is a view that the next block overwrites: reduce it (or copy it)
    before advancing the generator.  The buffers are local to the call, so
    concurrent calls from sweep workers share nothing.
    """
    if mode == "ln_fit":
        ep = endpoints_for(cfg)
        plan, rows = ((ep.relay,), (ep.bob,), (ep.eve,)), 3
    elif mode == "composite":
        budget = link_budget(cfg)
        plan = ((budget.ar, budget.rr), (budget.ab, budget.rb),
                (budget.eve,) * (2 * cfg.n_eve))  # both sources, every antenna
        rows = 5  # plus a row to draw further links into and a work row
    else:
        raise ValueError(f"unknown Monte-Carlo mode {mode!r}")
    rng = _rng_for(seed)
    bufs = np.empty((rows, min(_BLOCK, n)))
    for done in range(0, n, _BLOCK):
        b = min(_BLOCK, n - done)
        relay, bob, eve, *work = bufs[:, :b]  # contiguous rows
        tmp, scratch = work or (None, None)  # ln_fit draws lone LogNormals
        for out, combine, (first, *rest) in zip((relay, bob, eve),
                                                (np.divide, np.add, np.add), plan):
            _draw(first, rng, out, scratch)
            for link in rest:
                combine(out, _draw(link, rng, tmp, scratch), out=out)
        # max(log2(1 + min(relay, bob)) - log2(1 + eve), 0), in place
        main = np.minimum(relay, bob, out=relay)
        main += 1.0
        eve += 1.0
        np.log2(main, out=main)
        np.log2(eve, out=eve)
        main -= eve
        yield np.maximum(main, 0.0, out=main)


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
    # overflow is reported below, not warned of; errstate is per thread
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rates in _iter_rate_blocks(cfg, mode, n, seed):
            total += float(rates.sum())
            total_sq += float((rates * rates).sum())
            for i, r in enumerate(targets):
                counts[i] += int(np.count_nonzero(rates < r))
    if not math.isfinite(total):  # overflowing draws, e.g. inf / inf in the relay SINR
        raise OverflowError(
            f"Monte-Carlo draws overflow: the secrecy rates sum to {total!r}")
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    rate = McEstimate(mean=mean, std_error=math.sqrt(var / n))
    return rate, [McEstimate(mean=float(p), std_error=math.sqrt(p * (1.0 - p) / n))
                  for p in counts / n]

