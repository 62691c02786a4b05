"""Flat key=value experiment configuration files.

One ``key = value`` pair per line, ``#`` starts a comment, blank lines are
ignored.  Grid-valued keys take comma lists; ``power_dbm`` additionally
accepts an inclusive ``start:stop:step`` sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from .channel import EveComposite, EveDirect, EveSpec, SystemConfig
from .errors import ConfigParseError, ConfigurationError
from .numerics import _check_order

__all__ = ["RunConfig", "load_config", "parse_config_text", "DEFAULT_CONFIG_TEXT"]

DEFAULT_CONFIG_TEXT = """\
# secrelay experiment configuration (defaults shown)
d_ab_m = 30
relay_fraction = 0.5
path_loss_exponent = 4
nakagami_m = 2
shadow_sd_db = 10
power_dbm = 40
power_split = equal
delta_db = -80
n_eve = 2
eve_mode = direct
eve_mu = 0.21
eve_sigma = 0.76
rs_target = 2
quadrature_order = 24
samples = 100000
seed = 1
"""


@dataclass(frozen=True)
class RunConfig:
    """Experiment settings: a base system plus sweep grids.

    Construction validates every field, so a RunConfig built in code is held
    to the same ranges as one parsed from a file.
    """

    power_grid_dbm: tuple[float, ...] = (40.0,)
    delta_grid_db: tuple[float, ...] = (-80.0,)
    n_eve_grid: tuple[int, ...] = (2,)
    rs_grid: tuple[float, ...] = (2.0,)
    d_ab_m: float = 30.0
    relay_fraction: float = 0.5
    path_loss_exponent: float = 4.0
    nakagami_m: float = 2.0
    shadow_sd_db: float = 10.0
    eve_spec: EveSpec = EveDirect()
    quadrature_order: int = 24
    samples: int = 100_000
    seed: int = 1

    def __post_init__(self):
        for grid, name in ((self.power_grid_dbm, "power_dbm"),
                           (self.delta_grid_db, "delta_db"),
                           (self.n_eve_grid, "n_eve"),
                           (self.rs_grid, "rs_target")):
            if not grid:
                raise ConfigurationError(f"grid {name} is empty")
        self.base_system()  # range checks on the assembled system
        for p in self.power_grid_dbm:
            if not math.isfinite(p):
                raise ConfigurationError(f"power grid entry {p!r} is not finite")
        for d in self.delta_grid_db:
            if not (math.isfinite(d) and d <= 0.0):
                raise ConfigurationError(
                    f"delta_db grid entry {d!r} must be finite and <= 0")
        for n in self.n_eve_grid:
            if not (isinstance(n, int) and n >= 1):
                raise ConfigurationError(
                    f"n_eve grid entry {n!r} must be a positive integer")
        for rs in self.rs_grid:
            if not (math.isfinite(rs) and rs > 0.0):
                raise ConfigurationError(
                    f"rs_target grid entry {rs!r} must be positive")
        _check_order(self.quadrature_order)

    def system(self, power_dbm: float, delta_db: float, n_eve: int) -> SystemConfig:
        """Materialise the system description at one grid point."""
        return SystemConfig(
            d_ab_m=self.d_ab_m,
            relay_fraction=self.relay_fraction,
            path_loss_exponent=self.path_loss_exponent,
            nakagami_m=self.nakagami_m,
            shadow_sd_db=self.shadow_sd_db,
            power_a_dbm=power_dbm,
            power_r_dbm=power_dbm,
            delta_db=delta_db,
            n_eve=n_eve,
            eve_spec=self.eve_spec,
        )

    def base_system(self) -> SystemConfig:
        return self.system(self.power_grid_dbm[0], self.delta_grid_db[0],
                           self.n_eve_grid[0])

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


def _parse_float_list(key: str, raw: str, path, line) -> tuple[float, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigParseError(f"key {key!r}: empty list", path, line)
    return tuple(_parse_float(key, s, path, line) for s in items)


def _parse_int_list(key: str, raw: str, path, line) -> tuple[int, ...]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigParseError(f"key {key!r}: empty list", path, line)
    return tuple(_parse_int(key, s, path, line) for s in items)


def _parse_power(raw: str, path, line) -> tuple[float, ...]:
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigParseError(
                f"key 'power_dbm': sweep must be start:stop:step, got {raw!r}",
                path, line)
        start, stop, step = (_parse_float("power_dbm", p.strip(), path, line)
                             for p in parts)
        if step <= 0 or stop < start:
            raise ConfigParseError(
                f"key 'power_dbm': need step > 0 and stop >= start, got {raw!r}",
                path, line)
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return tuple(start + i * step for i in range(count))
    if "," in raw:
        return _parse_float_list("power_dbm", raw, path, line)
    return (_parse_float("power_dbm", raw, path, line),)


def parse_config_text(text: str, path: str | None = None) -> RunConfig:
    """Parse config file content; malformed lines report their line number."""
    seen: set[str] = set()
    updates: dict = {}
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
        if key not in _VALIDATORS:
            raise ConfigParseError(f"unknown key {key!r}", path, lineno)
        if key in seen:
            raise ConfigParseError(f"duplicate key {key!r}", path, lineno)
        if not value:
            raise ConfigParseError(f"key {key!r}: missing value", path, lineno)
        seen.add(key)
        field_name, parsed = _VALIDATORS[key](value, path, lineno)
        if field_name is not None:
            updates[field_name] = parsed

    given = {key: updates.pop(key) for key in _EVE_FIELDS if key in updates}
    eve_type = EveComposite if updates.pop("eve_mode", None) == "composite" else EveDirect
    if eve_type is EveComposite and "eve_mean_snr_db" not in given:
        raise ConfigParseError(
            "eve_mode = composite requires eve_mean_snr_db", path, None)
    # keys of the other mode are accepted and ignored
    fields = {name: given[key] for key, (owner, name) in _EVE_FIELDS.items()
              if owner is eve_type and key in given}
    updates["eve_spec"] = eve_type(**fields)
    try:
        return RunConfig(**updates)
    except ConfigurationError as exc:
        raise ConfigParseError(str(exc), path, None) from exc


def _scalar(field_name: str, parser):
    def check(value, path, line):
        return field_name, parser(field_name, value, path, line)
    return check


def _power_key(value, path, line):
    return "power_grid_dbm", _parse_power(value, path, line)


def _power_split_key(value, path, line):
    if value != "equal":
        raise ConfigParseError(
            f"key 'power_split': only 'equal' is supported, got {value!r}",
            path, line)
    return None, None


def _eve_mode_key(value, path, line):
    if value not in ("direct", "composite"):
        raise ConfigParseError(
            f"key 'eve_mode': expected 'direct' or 'composite', got {value!r}",
            path, line)
    return "eve_mode", value


# eavesdropper keys of a config file: the spec type each belongs to, and its field
_EVE_FIELDS = {
    "eve_mu": (EveDirect, "mu"),
    "eve_sigma": (EveDirect, "sigma"),
    "eve_mean_snr_db": (EveComposite, "gain_db"),
    "eve_shadow_sd_db": (EveComposite, "shadow_sd_db"),
}

_VALIDATORS = {
    "d_ab_m": _scalar("d_ab_m", _parse_float),
    "relay_fraction": _scalar("relay_fraction", _parse_float),
    "path_loss_exponent": _scalar("path_loss_exponent", _parse_float),
    "nakagami_m": _scalar("nakagami_m", _parse_float),
    "shadow_sd_db": _scalar("shadow_sd_db", _parse_float),
    "power_dbm": _power_key,
    "power_split": _power_split_key,
    "delta_db": lambda v, p, ln: ("delta_grid_db", _parse_float_list("delta_db", v, p, ln)),
    "n_eve": lambda v, p, ln: ("n_eve_grid", _parse_int_list("n_eve", v, p, ln)),
    "eve_mode": _eve_mode_key,
    "eve_mu": _scalar("eve_mu", _parse_float),
    "eve_sigma": _scalar("eve_sigma", _parse_float),
    "eve_mean_snr_db": _scalar("eve_mean_snr_db", _parse_float),
    "eve_shadow_sd_db": _scalar("eve_shadow_sd_db", _parse_float),
    "rs_target": lambda v, p, ln: ("rs_grid", _parse_float_list("rs_target", v, p, ln)),
    "quadrature_order": _scalar("quadrature_order", _parse_int),
    "samples": _scalar("samples", _parse_int),
    "seed": _scalar("seed", _parse_int),
}


def load_config(path: str) -> RunConfig:
    """Read and parse a config file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), path=path)
