"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error.
"""
from __future__ import annotations

import argparse
import sys

from .config import RunConfig, load_config
from .errors import ConfigurationError
from .numerics import gauss_hermite_rule, gauss_laguerre_rule
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

    rules = sub.add_parser("rules", help="dump quadrature nodes and weights as CSV")
    rules.add_argument("--kind", required=True, choices=("laguerre", "hermite"))
    rules.add_argument("--order", required=True, type=int)
    rules.add_argument("--output", default="-", help="output path, '-' for stdout")

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


def _cmd_rules(args) -> int:
    builder = gauss_laguerre_rule if args.kind == "laguerre" else gauss_hermite_rule
    rule = builder(args.order)
    lines = ["index,node,weight"]
    lines += [f"{i},{x:.17g},{w:.17g}"
              for i, (x, w) in enumerate(zip(rule.nodes, rule.weights))]
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _load_run_config(args) -> RunConfig:
    if getattr(args, "preset", None):
        cfg = preset_run_config(args.preset)
    else:
        cfg = load_config(args.config)
    return cfg.with_overrides(samples=args.samples, seed=args.seed)


def _cmd_sweep(args, metric: str) -> int:
    cfg = _load_run_config(args)
    methods = tuple(dict.fromkeys(args.method)) if args.method else ("analytic",)
    spec = SweepSpec(base=cfg, metrics=(metric,), methods=methods)
    rows = run_sweep(spec, args.output, workers=args.workers)
    bad = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {len(rows)} rows to {args.output}"
          + (f" ({bad} flagged)" if bad else ""))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = load_config(args.config).with_overrides(samples=args.samples,
                                                  seed=args.seed)
    checks = run_validation(cfg)
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_VALIDATION if failed else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "rules":
            return _cmd_rules(args)
        if args.command == "rate-sweep":
            return _cmd_sweep(args, "rate")
        if args.command == "outage-sweep":
            return _cmd_sweep(args, "outage")
        if args.command == "validate":
            return _cmd_validate(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
