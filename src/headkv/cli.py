"""Command-line entry point.

    headkv profile   --config cfg.json --out results/
    headkv generate  --config cfg.json --out results/ [--with-oracle] [--seed N]
    headkv budget    --config cfg.json --out results/ [--counts L,A,M]
    headkv stability --config cfg.json --out results/

Exit codes: 0 success, 2 configuration error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .commands import cmd_budget, cmd_generate, cmd_profile, cmd_stability
from .config import load_config
from .errors import ConfigError, IntegrityError, SequencingError


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    sub.add_argument("--seed", type=int, default=None, help="override model seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="headkv",
                                     description="head-heterogeneous KV-cache simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="profile head roles and write the role map")
    _add_common(p)

    g = subs.add_parser("generate", help="run a rollout under the configured strategy")
    _add_common(g)
    g.add_argument("--with-oracle", action="store_true",
                   help="force the recompute-oracle fidelity column (default: only for runs <= 64 blocks)")

    b = subs.add_parser("budget", help="emit the frame-slot budget table")
    _add_common(b)
    b.add_argument("--counts", default=None,
                   help="explicit local,anchor,memory head counts instead of a role map")

    s = subs.add_parser("stability", help="cross-run classification stability")
    _add_common(s)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.model = replace(cfg.model, seed=args.seed)
        if args.command == "profile":
            paths = cmd_profile(cfg, args.out)
        elif args.command == "generate":
            if args.with_oracle:
                cfg.with_oracle = True
            paths = cmd_generate(cfg, args.out)
        elif args.command == "budget":
            counts = None
            if args.counts is not None:
                try:
                    counts = tuple(int(x) for x in args.counts.split(","))
                except ValueError as exc:
                    raise ConfigError(f"--counts must be three integers, got {args.counts!r}") from exc
            paths = cmd_budget(cfg, args.out, counts=counts)
        else:
            paths = cmd_stability(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (IntegrityError, SequencingError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
