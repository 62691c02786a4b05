"""Flat key=value experiment configuration files.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Grid-valued keys take comma lists; ``power_dbm`` additionally
accepts an inclusive ``start:stop:step`` sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from .channel import EveComposite, SystemConfig
from .errors import ConfigParseError, ConfigurationError
from .lognormal import LogNormal
from .montecarlo import _check_samples

__all__ = ["RunConfig", "load_config", "parse_config_text"]

# a sweep's row cap; a longer power sweep is rejected while it is parsed
_MAX_ROWS = 100_000


@dataclass(frozen=True)
class RunConfig:
    """Experiment settings: one network plus the sweep grids over it.

    The grids own the operating point: construction stores ``network`` at the
    first grid point, and builds the network at every other power, delta and
    antenna entry, so SystemConfig range-checks each of them.  No grid may be
    empty or repeat an entry, so each grid point has one row.  A RunConfig
    built in code is held to the same ranges as one parsed from a file.
    """

    power_grid_dbm: tuple[float, ...] = (40.0,)
    delta_grid_db: tuple[float, ...] = (-80.0,)
    n_eve_grid: tuple[int, ...] = (2,)
    rs_grid: tuple[float, ...] = (2.0,)
    network: SystemConfig = SystemConfig()
    samples: int = 100_000
    seed: int = 1

    def __post_init__(self):
        for grid, name in ((self.power_grid_dbm, "power_dbm"),
                           (self.delta_grid_db, "delta_db"),
                           (self.n_eve_grid, "n_eve"),
                           (self.rs_grid, "rs_target")):
            if not grid:
                raise ConfigurationError(f"grid {name} is empty")
            seen = set()
            for value in grid:
                if value in seen:
                    raise ConfigurationError(f"grid {name} repeats the entry {value!r}")
                seen.add(value)
        point = self.system(self.power_grid_dbm[0], self.delta_grid_db[0],
                            self.n_eve_grid[0])
        object.__setattr__(self, "network", point)
        for p in self.power_grid_dbm[1:]:
            self.system(p, point.delta_db, point.n_eve)
        for d in self.delta_grid_db[1:]:
            self.system(point.power_dbm, d, point.n_eve)
        for n in self.n_eve_grid[1:]:
            self.system(point.power_dbm, point.delta_db, n)
        for rs in self.rs_grid:
            if not (math.isfinite(rs) and rs > 0.0):
                raise ConfigurationError(
                    f"rs_target grid entry {rs!r} must be positive")
        _check_samples(self.samples)

    def system(self, power_dbm: float, delta_db: float, n_eve: int) -> SystemConfig:
        """The network at one grid point."""
        return replace(self.network, power_dbm=power_dbm, delta_db=delta_db,
                       n_eve=n_eve)

    def with_overrides(self, samples: int | None = None,
                       seed: int | None = None) -> "RunConfig":
        out = self
        if samples is not None:
            out = replace(out, samples=samples)
        if seed is not None:
            out = replace(out, seed=seed)
        return out


def _parse_float(key: str, raw: str, path, line) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigParseError(f"key {key!r}: expected a number, got {raw!r}",
                               path, line) from None
    if not math.isfinite(v):
        raise ConfigParseError(f"key {key!r}: value must be finite, got {raw!r}",
                               path, line)
    return v


def _parse_int(key: str, raw: str, path, line) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigParseError(f"key {key!r}: expected an integer, got {raw!r}",
                               path, line) from None


def _parse_list(item, key: str, raw: str, path, line) -> tuple:
    """A comma list, each entry read by the ``item`` parser."""
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigParseError(f"key {key!r}: empty list", path, line)
    return tuple(item(key, s, path, line) for s in items)


def _parse_power(key: str, raw: str, path, line) -> tuple[float, ...]:
    if ":" not in raw:
        return _parse_list(_parse_float, key, raw, path, line)
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigParseError(
            f"key 'power_dbm': sweep must be start:stop:step, got {raw!r}",
            path, line)
    start, stop, step = (_parse_float(key, p.strip(), path, line) for p in parts)
    if step <= 0 or stop < start:
        raise ConfigParseError(
            f"key 'power_dbm': need step > 0 and stop >= start, got {raw!r}",
            path, line)
    span = (stop - start) / step + 1e-9
    if not span < _MAX_ROWS:  # also an infinite span
        raise ConfigParseError(
            f"key 'power_dbm': sweep {raw!r} has more than {_MAX_ROWS} points",
            path, line)
    return tuple(start + i * step for i in range(int(math.floor(span)) + 1))


def _parse_eve_mode(key: str, raw: str, path, line) -> str:
    if raw not in ("direct", "composite"):
        raise ConfigParseError(
            f"key 'eve_mode': expected 'direct' or 'composite', got {raw!r}",
            path, line)
    return raw


# each key of a config file: the class whose field it sets (None for keys
# that only select), that field, and its parser
_KEYS = {
    "d_ab_m": (SystemConfig, "d_ab_m", _parse_float),
    "relay_fraction": (SystemConfig, "relay_fraction", _parse_float),
    "path_loss_exponent": (SystemConfig, "path_loss_exponent", _parse_float),
    "nakagami_m": (SystemConfig, "nakagami_m", _parse_float),
    "shadow_sd_db": (SystemConfig, "shadow_sd_db", _parse_float),
    "power_dbm": (RunConfig, "power_grid_dbm", _parse_power),
    "delta_db": (RunConfig, "delta_grid_db", partial(_parse_list, _parse_float)),
    "n_eve": (RunConfig, "n_eve_grid", partial(_parse_list, _parse_int)),
    "eve_mode": (None, "eve_mode", _parse_eve_mode),
    "eve_mu": (LogNormal, "mu", _parse_float),
    "eve_sigma": (LogNormal, "sigma", _parse_float),
    "eve_mean_snr_db": (EveComposite, "gain_db", _parse_float),
    "eve_shadow_sd_db": (EveComposite, "shadow_sd_db", _parse_float),
    "rs_target": (RunConfig, "rs_grid", partial(_parse_list, _parse_float)),
    "samples": (RunConfig, "samples", _parse_int),
    "seed": (RunConfig, "seed", _parse_int),
}


def parse_config_text(text: str, path: str | None = None) -> RunConfig:
    """Parse config file content; malformed lines report their line number."""
    given: dict = {owner: {} for owner, _, _ in _KEYS.values()}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected key = value, got {rawline.strip()!r}",
                                   path, lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigParseError(f"unknown key {key!r}", path, lineno)
        owner, field_name, parser = _KEYS[key]
        if field_name in given[owner]:
            raise ConfigParseError(f"duplicate key {key!r}", path, lineno)
        if not value:
            raise ConfigParseError(f"key {key!r}: missing value", path, lineno)
        given[owner][field_name] = parser(key, value, path, lineno)

    composite = given[None].get("eve_mode") == "composite"
    if composite and "gain_db" not in given[EveComposite]:
        raise ConfigParseError(
            "eve_mode = composite requires eve_mean_snr_db", path, None)
    # keys of the other mode are accepted and ignored
    try:
        eve = (EveComposite(**given[EveComposite]) if composite
               else replace(SystemConfig.eve_spec, **given[LogNormal]))
        network = SystemConfig(eve_spec=eve, **given[SystemConfig])
        return RunConfig(network=network, **given[RunConfig])
    except (ConfigurationError, ValueError) as exc:  # LogNormal raises ValueError
        raise ConfigParseError(str(exc), path, None) from exc


def load_config(path: str) -> RunConfig:
    """Read and parse a config file; one that is not UTF-8 does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigParseError(f"not UTF-8 text ({exc.reason} at byte "
                                   f"{exc.start})", path=path) from None
    return parse_config_text(text, path=path)
