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

``mc_grid_metrics`` estimates (power, delta, N_E) points of one network from
common random numbers.  Each link owns a bank of draws from its own Philox
substream, ``Philox(key=seed).jumped(j)``, drawn once per call:

* ``ln_fit`` draws standard normals z for the relay (j = 1), Bob (2) and
  Eve (3); a point takes exp(mu + sigma * z) with its fitted endpoints;
* ``composite`` draws each link at 0 dBm transmit power and 0 dB
  isolation -- ar (4), rr (5), ab (6), rb (7), and Eve's link once per
  branch i (8 + i), two branches per antenna -- and a point scales them:
  the relay SINR ar / rr by e^(-xi delta), Bob's ab + rb and a composite
  Eve by e^(xi P).  Eve sums her first 2 N_E branches, so the N_E axis is
  a prefix sum.

So a point's estimates depend on its own values, the seed and n, never on
the other points of the call nor on how many sweep workers run.  Each
point's standard error is its own, but the points of one call are
correlated.  ``mc_secrecy_metrics`` is the one-point call.  A sweep or
``validate`` hands its own grid fit to ``ln_fit`` (``_grid_estimates``), so
a run fits its grid once.  Banks are drawn
in fixed-size blocks into buffers allocated once per call, never shared
between sweep worker threads, and each point's arithmetic runs over
cache-sized slices of a block.

The secrecy rate is max(log2(1 + min(relay, Bob)) - log2(1 + Eve), 0), and
at one power the main side varies with delta alone and Eve's side with N_E
alone.  So, per slice, the points that share Bob's side (his fitted
endpoint, or the power gain) share capacity rows: each distinct main side
and each distinct Eve side is formed once, and a point costs one
subtraction and one clip.  Only one power's rows are held at a time,
(distinct delta + distinct N_E) slices of float64; the grouping decides
what is shared, never a value, so a point's bytes are those of its
one-point call.

This is the package's one numpy module, and numpy is imported inside the
functions that draw: importing the package loads the standard library only,
and the first Monte-Carlo call pays for numpy, once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence, Union

from .channel import EveComposite, SystemConfig, _grid_endpoints, link_budget
from .channel import endpoints_for  # noqa: F401 -- the benchmark's tracer wraps it here
from .config import _check_samples, _check_seed
from .lognormal import DB_TO_NAT, CompositeLink, LogNormal

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "McEstimate",
    "sample_composite_snr",
    "mc_secrecy_metrics",
]

_BLOCK = 1 << 17  # fixed reduction block keeps accumulation order canonical
_SLICE = 1 << 13  # samples of a block that one point's arithmetic spans at a time
_MODES = ("ln_fit", "composite")
_LN_STREAMS = (1, 2, 3)  # relay, Bob, Eve
_LINK_STREAMS = (4, 5, 6, 7)  # ar, rr, ab, rb
_EVE_STREAM = 8  # Eve's branch i draws from substream 8 + i


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


# one point's estimates, or the error that stopped it
PointResult = Union[tuple[McEstimate, list[McEstimate]], Exception]


def _draw(link: LogNormal | CompositeLink, rng: np.random.Generator,
          out: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    """Fill ``out`` with SNR samples of one link, in place.

    A LogNormal draws exp(mu + sigma * z).  A composite link draws
    rng.gamma(m, 1/m) * exp(xi * (mean + sd * z)) with the same draws and
    arithmetic, so its samples are bit-identical to that expression on the
    same stream; ``scratch``, a work array of ``out``'s shape, holds the
    shadowing factor (a LogNormal needs none).
    """
    import numpy as np
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
    import numpy as np
    return _draw(link, rng, np.empty(size), np.empty(size))


def _substream(seed: int, j: int) -> np.random.Generator:
    """Substream j of the seed's Philox key: one bank's own stream."""
    import numpy as np
    key = int(seed) & (2 ** 128 - 1)  # one key per seed in [-2**127, 2**127)
    return np.random.Generator(np.random.Philox(key=key).jumped(j))


def _gain(db: float) -> float:
    """The power ratio e^(xi * db); inf where a float64 cannot hold it."""
    try:
        return math.exp(DB_TO_NAT * db)
    except OverflowError:
        return math.inf


def _point_scalars(network: SystemConfig, inputs: Sequence, mode: str) -> list:
    """What each point multiplies the banks by, or the error that stops it.

    ``ln_fit`` reads each point's fitted endpoints (or its fit's error):
    their (mu, sigma) for relay, Bob and Eve.  ``composite`` reads each
    (power, delta, N_E): the relay's isolation gain e^(-xi delta), which may
    be inf (the relay then never limits), the power gain e^(xi P) of Bob and
    of Eve (1 for a direct Eve), and the number of branches Eve sums.
    """
    if mode == "ln_fit":
        return [ep if isinstance(ep, Exception) else
                (ep.relay.mu, ep.relay.sigma, ep.bob.mu, ep.bob.sigma,
                 ep.eve.mu, ep.eve.sigma)
                for ep in inputs]
    eve = isinstance(network.eve_spec, EveComposite)
    out: list = []
    for power_dbm, delta_db, n_eve in inputs:
        power = _gain(power_dbm)
        if power == math.inf:  # as the analytic route's endpoint fit overflows
            out.append(OverflowError(f"Monte-Carlo draws overflow: {power_dbm!r} "
                                     "dBm is past a float64 power ratio"))
            continue
        out.append((_gain(-delta_db), power, power if eve else 1.0, 2 * n_eve))
    return out


def _iter_rate_slices(network: SystemConfig, scalars: Sequence[tuple | Exception],
                      mode: str, n: int, seed: int):
    """Yield (i, rates): point i's instantaneous secrecy rates (bits/s/Hz)
    on one slice of samples, slice by slice and, within a slice, one Bob
    side (one power) at a time; a point whose scalars are an error is
    skipped.

    Every block draws each bank once, from its own substream, for all the
    points.  ``network`` sets what ``composite`` draws: its links at 0 dBm
    and 0 dB isolation.  Within a slice, the points that share Bob's side
    share capacity rows: each distinct main side log2(1 + min(relay, Bob))
    and each distinct Eve side log2(1 + Eve) is formed once (a direct Eve's,
    which no power changes, once for all the powers), and a point is their
    clipped difference.  A yielded slice is a view that the next one
    overwrites: reduce it (or copy it) before advancing.  The buffers are
    local to the call, so concurrent calls from sweep workers share nothing.
    """
    import numpy as np
    live = [i for i, s in enumerate(scalars) if not isinstance(s, Exception)]
    if not live:
        return
    if mode == "ln_fit":
        normals = [_substream(seed, j) for j in _LN_STREAMS]
        sums = ()
        # (Bob's side, main side, Eve side) of each point
        keys = {i: (scalars[i][2:4], scalars[i][:4], scalars[i][4:]) for i in live}
    else:
        unit = link_budget(replace(network, power_dbm=0.0, delta_db=0.0))
        links = list(zip((unit.ar, unit.rr, unit.ab, unit.rb),
                         [_substream(seed, j) for j in _LINK_STREAMS]))
        sums = sorted({scalars[i][3] for i in live})  # Eve's branch counts
        branches = [_substream(seed, _EVE_STREAM + k) for k in range(sums[-1])]
        # Eve's side is her power gain and the bank row of her branch sum
        keys = {i: (scalars[i][1], scalars[i][:2],
                    (scalars[i][2], 4 + sums.index(scalars[i][3]))) for i in live}
    # per Bob side: its distinct main and Eve sides, each numbered by its
    # row, and each point's (i, main row, Eve row)
    groups: dict = {}
    for i in live:
        bob, main, eve = keys[i]
        mains, eves, members = groups.setdefault(bob, ({}, {}, []))
        members.append((i, mains.setdefault(main, len(mains)),
                        eves.setdefault(eve, len(eves))))
    # a direct Eve's side does not depend on the power: when every power
    # has the same Eve sides, their rows are formed once per slice
    eve_sides = [eves for _, eves, _ in groups.values()]
    shared_eves = all(eves == eve_sides[0] for eves in eve_sides)
    bufs = np.empty((3 if mode == "ln_fit" else 4 + len(sums), min(_BLOCK, n)))
    x, y = np.empty((2, min(_SLICE, n)))
    rows = np.empty((max(len(m) + len(e) for m, e, _ in groups.values()),
                     min(_SLICE, n)))
    for done in range(0, n, _BLOCK):
        b = min(_BLOCK, n - done)
        banks = bufs[:, :b]  # contiguous rows
        if mode == "ln_fit":
            for rng, row in zip(normals, banks):
                rng.standard_normal(out=row)
        else:
            # relay = ar / rr and bob = ab + rb, with a draw row and a work row
            relay, bob, tmp, scratch, *eve = banks
            (ar, s_ar), (rr, s_rr), (ab, s_ab), (rb, s_rb) = links
            _draw(ar, s_ar, relay, scratch)
            relay /= _draw(rr, s_rr, tmp, scratch)
            _draw(ab, s_ab, bob, scratch)
            bob += _draw(rb, s_rb, tmp, scratch)
            # Eve's prefix sums: each row continues the one before it
            drawn = 0
            for r, count in enumerate(sums):
                if r:
                    np.copyto(eve[r], eve[r - 1])
                for k in range(drawn, count):
                    if k:
                        eve[r] += _draw(unit.eve, branches[k], tmp, scratch)
                    else:
                        _draw(unit.eve, branches[0], eve[r], scratch)
                drawn = count
        for lo in range(0, b, _SLICE):
            w = min(_SLICE, b - lo)
            part = banks[:, lo:lo + w]
            rates, work = x[:w], y[:w]
            for g, (mains, eves, members) in enumerate(groups.values()):
                eve_rows = rows[:len(eves), :w]
                main_rows = rows[len(eves):len(eves) + len(mains), :w]
                if g == 0 or not shared_eves:
                    for key, r in eves.items():
                        _eve_capacity(mode, part, key, eve_rows[r])
                for key, r in mains.items():
                    _main_capacity(mode, part, key, main_rows[r], work)
                for i, m, e in members:
                    np.subtract(main_rows[m], eve_rows[e], out=rates)
                    np.maximum(rates, 0.0, out=rates)
                    yield i, rates


def _main_capacity(mode, part, key, out, work):
    """log2(1 + min(relay, Bob)) of one main side into ``out``, in place.

    ``ln_fit``: key = (mu_r, sigma_r, mu_b, sigma_b) on the normal banks;
    ``composite``: key = (isolation, power) on the 0 dBm relay and Bob banks.
    """
    import numpy as np
    if mode == "ln_fit":
        mu_r, sigma_r, mu_b, sigma_b = key
        np.multiply(part[0], sigma_r, out=out)
        out += mu_r
        np.multiply(part[1], sigma_b, out=work)
        work += mu_b
        # exp is increasing, so min(relay, bob) is taken on the exponents
        np.minimum(out, work, out=out)
        np.exp(out, out=out)
    else:
        isolation, power = key
        np.multiply(part[0], isolation, out=out)
        np.multiply(part[1], power, out=work)
        np.minimum(out, work, out=out)
    out += 1.0
    np.log2(out, out=out)


def _eve_capacity(mode, part, key, out):
    """log2(1 + Eve) of one Eve side into ``out``, in place.

    ``ln_fit``: key = (mu_e, sigma_e) on Eve's normal bank; ``composite``:
    key = (power gain, bank row of her branch sum).
    """
    import numpy as np
    if mode == "ln_fit":
        mu_e, sigma_e = key
        np.multiply(part[2], sigma_e, out=out)
        out += mu_e
        np.exp(out, out=out)
    else:
        power, row = key
        np.multiply(part[row], power, out=out)
    out += 1.0
    np.log2(out, out=out)


def mc_grid_metrics(network: SystemConfig, points: Sequence[tuple[float, float, int]],
                    rs_targets: Sequence[float], mode: str, n: int, seed: int
                    ) -> list[PointResult]:
    """Empirical average secrecy rate and outage per target at each point.

    The points are (power, delta, N_E) of ``network``, in the ranges that
    SystemConfig checks, as for ``channel._grid_endpoints``.  Each point's n
    realisations are reduced block by block into the rate's sum and sum of
    squares and each target's ``rates < r`` count; sharing them across
    targets makes a point's outage estimates exactly nested: a higher target
    never reports lower outage.  A point whose endpoint fit or power gain
    overflows, or whose rates do not sum to a finite number, gets the error
    in place of its estimates; an invalid n, seed, target or mode raises.
    """
    inputs = _grid_endpoints(network, points) if mode == "ln_fit" else points
    return _grid_estimates(network, inputs, rs_targets, mode, n, seed)


def _grid_estimates(network: SystemConfig, inputs: Sequence,
                    rs_targets: Sequence[float], mode: str, n: int, seed: int
                    ) -> list[PointResult]:
    """``mc_grid_metrics`` on each point's ``_point_scalars`` input: for
    ``ln_fit`` the grid's fit, which a caller that holds it hands over."""
    import numpy as np
    n = _check_samples(n)
    seed = _check_seed(seed)
    targets = [float(r) for r in rs_targets]
    for r in targets:
        if not (r > 0.0 and math.isfinite(r)):
            raise ValueError(f"rs_target must be positive, got {r!r}")
    if mode not in _MODES:
        raise ValueError(f"unknown Monte-Carlo mode {mode!r}")
    scalars = _point_scalars(network, inputs, mode)
    results = [s if isinstance(s, Exception) else None for s in scalars]
    total = [0.0] * len(scalars)
    total_sq = [0.0] * len(scalars)
    counts = [[0] * len(targets) for _ in scalars]
    # overflow is reported below, not warned of; errstate is per thread
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        square = np.empty(min(_SLICE, n))
        below = np.empty(min(_SLICE, n), dtype=bool)
        for i, rates in _iter_rate_slices(network, scalars, mode, n, seed):
            w = len(rates)
            total[i] += float(rates.sum())
            total_sq[i] += float(np.multiply(rates, rates, out=square[:w]).sum())
            for t, r in enumerate(targets):
                counts[i][t] += int(np.count_nonzero(np.less(rates, r, out=below[:w])))
    for i in range(len(scalars)):
        if results[i] is not None:
            continue
        if not math.isfinite(total[i]):  # e.g. inf - inf: main and Eve overflow
            results[i] = OverflowError(
                f"Monte-Carlo draws overflow: the secrecy rates sum to {total[i]!r}")
            continue
        mean = total[i] / n
        var = max(total_sq[i] / n - mean * mean, 0.0) * n / (n - 1)
        # an outage count of 0 or n has no binomial spread: it reports the
        # one-sigma Wilson half-width 0.5 / (n + 1), never a zero error
        results[i] = (McEstimate(mean=mean, std_error=math.sqrt(var / n)),
                      [McEstimate(mean=p, std_error=math.sqrt(p * (1.0 - p) / n)
                                  if 0.0 < p < 1.0 else 0.5 / (n + 1))
                       for p in (c / n for c in counts[i])])
    return results


def mc_secrecy_metrics(cfg: SystemConfig, rs_targets: Sequence[float],
                       mode: str, n: int, seed: int
                       ) -> tuple[McEstimate, list[McEstimate]]:
    """Empirical average secrecy rate and outage per target at one point.

    The one-point call of ``mc_grid_metrics``, so a sweep row reproduces
    from its own (power, delta, N_E, seed, samples); raises the error that
    stops the point.
    """
    (result,) = mc_grid_metrics(cfg, [(cfg.power_dbm, cfg.delta_db, cfg.n_eve)],
                                rs_targets, mode, n, seed)
    if isinstance(result, Exception):
        raise result
    return result
