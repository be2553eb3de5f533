"""Command line front end: sweep / codebook / grouping / oracle-check."""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ConfigError,
    ExperimentAssertionError,
    MeasurementFloorError,
    ScenarioConfig,
    load_config,
    run_codebook_experiment,
    run_grouping_experiment,
    run_oracle_check,
    run_sweep,
)


def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="scenario JSON (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, metavar="N", help="override the master seed")
    parser.add_argument("--out", default="results", metavar="DIR", help="output directory")
    parser.add_argument(
        "--parallel",
        type=_worker_count,
        default=1,
        metavar="N",
        help="worker processes for independent points (N >= 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rissim",
        description="Deterministic bench-scale simulator for surface-assisted links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="greedy optimization over the configured receiver spots")
    _add_common(p_sweep)

    p_book = sub.add_parser("codebook", help="build a reference codebook and replay the path")
    _add_common(p_book)
    p_book.add_argument(
        "--load-codebook", metavar="PATH", help="reuse a saved codebook instead of regenerating"
    )

    p_group = sub.add_parser("grouping", help="compare element grouping sizes")
    _add_common(p_group)
    p_group.add_argument(
        "--group-sizes",
        metavar="LIST",
        help='comma-separated sizes, e.g. "1,2,4" (default: all supported)',
    )

    p_oracle = sub.add_parser("oracle-check", help="greedy vs. exhaustive search on a small panel")
    _add_common(p_oracle)

    return parser


def _build_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if getattr(args, "group_sizes", None):
        try:
            sizes = tuple(int(s) for s in args.group_sizes.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --group-sizes value {args.group_sizes!r}") from exc
        import dataclasses

        config = dataclasses.replace(config, grouping_sizes=sizes)
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "sweep":
            summary = run_sweep(config, args.out, parallel=args.parallel)
        elif args.command == "codebook":
            summary = run_codebook_experiment(
                config, args.out, parallel=args.parallel, load_codebook=args.load_codebook
            )
        elif args.command == "grouping":
            summary = run_grouping_experiment(config, args.out, parallel=args.parallel)
        elif args.command == "oracle-check":
            summary = run_oracle_check(config, args.out, parallel=args.parallel)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, MeasurementFloorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentAssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 3
    errors = summary.get("errors", [])
    for err in errors:
        print(f"error: point {err['point']}: {err['error']}", file=sys.stderr)
    if errors:
        return 2
    for key, value in summary.items():
        if not isinstance(value, (dict, list)):
            print(f"{key}: {value}")
    print(f"wrote {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
