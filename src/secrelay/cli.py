"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error.  A reader that closes the pipe early (``| head``) is not an
I/O error: the command ends quietly with the status it reached.
"""
from __future__ import annotations

import argparse
import os
import sys

from .config import RunConfig, load_config
from .errors import ConfigurationError
from .sweep import METHODS, PRESET_NAMES, SweepSpec, preset_run_config, run_sweep
from .validate import run_validation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy metrics of a full-duplex decode-and-forward "
                    "relay network under composite fading.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("rate-sweep", "average secrecy rate sweep"),
                            ("outage-sweep", "secrecy outage probability sweep")):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="experiment config file")
        src.add_argument("--preset", choices=PRESET_NAMES,
                         help="built-in experiment preset")
        p.add_argument("--output", required=True, help="CSV output path")
        p.add_argument("--method", "--mode", action="append", dest="method",
                       choices=METHODS,
                       help="evaluation method (repeatable; default analytic)")
        p.add_argument("--samples", type=int, help="Monte-Carlo sample count")
        p.add_argument("--seed", type=int, help="Monte-Carlo base seed")
        p.add_argument("--workers", type=int, default=1,
                       help="worker threads over grid points")

    val = sub.add_parser("validate", help="run the self-validation checks")
    val.add_argument("--config", required=True)
    val.add_argument("--samples", type=int, help="override configured sample count")
    val.add_argument("--seed", type=int, help="override configured seed")
    return parser


def _load_run_config(args) -> RunConfig:
    if getattr(args, "preset", None):
        cfg = preset_run_config(args.preset)
    else:
        cfg = load_config(args.config)
    return cfg.with_overrides(samples=args.samples, seed=args.seed)


def _cmd_sweep(args, metric: str) -> tuple[int, str]:
    cfg = _load_run_config(args)
    methods = tuple(dict.fromkeys(args.method)) if args.method else ("analytic",)
    spec = SweepSpec(base=cfg, metrics=(metric,), methods=methods)
    rows = run_sweep(spec, args.output, workers=args.workers)
    bad = sum(1 for r in rows if r.status != "ok")
    return EXIT_OK, (f"wrote {len(rows)} rows to {args.output}"
                     + (f" ({bad} flagged)" if bad else "") + "\n")


def _cmd_validate(args) -> tuple[int, str]:
    cfg = load_config(args.config).with_overrides(samples=args.samples,
                                                  seed=args.seed)
    checks = run_validation(cfg)
    failed = [c for c in checks if not c.passed]
    lines = [check.line() for check in checks]
    lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return (EXIT_VALIDATION if failed else EXIT_OK), "\n".join(lines) + "\n"


_COMMANDS = {
    "rate-sweep": lambda args: _cmd_sweep(args, "rate"),
    "outage-sweep": lambda args: _cmd_sweep(args, "outage"),
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    status = EXIT_OK
    try:
        status, text = _COMMANDS[args.command](args)
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early, as `| head` does; output is the
        # last thing a command does, so report the status it reached, and
        # point stdout at /dev/null so the interpreter's last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return status


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
