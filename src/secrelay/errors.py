"""Exception types shared across the package."""


class ConfigurationError(Exception):
    """A setting is outside its permitted range or a grid is malformed."""


class ConfigParseError(ConfigurationError):
    """A config file could not be parsed; carries the offending line."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
        if line is not None:
            prefix += f"{line}: "
        elif path is not None:
            prefix += " "
        super().__init__(prefix + message)


class AccuracyError(Exception):
    """An adaptive routine failed to meet its tolerance; carries its best estimate."""

    def __init__(self, message: str, best_estimate: float, rel_error: float):
        self.best_estimate = best_estimate
        self.rel_error = rel_error
        super().__init__(f"{message} (best estimate {best_estimate!r}, "
                         f"estimated relative error {rel_error:.3e})")


# what evaluating a grid point may raise: a sweep flags the point's rows,
# validate fails the check
_EVALUATION_ERRORS = (ValueError, ConfigurationError, OverflowError,
                      AccuracyError)
