"""Command-line front end.

Subcommands: gradcheck (finite-difference verification), count (gate
parameter/MAC accounting), train (baseline-vs-gated experiment runner),
heatmap (gate-weight visualizations for an existing run).

Exit codes: 0 success, 1 validation failure, 2 usage or configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .artifacts import (
    RESOLVED_CONFIG,
    SUMMARY_CSV,
    export_scene,
    heatmap_files,
    summary_csv,
    variant_name,
    write_files,
    write_seed_dirs,
)
from .config import parse_config, parse_entries
from .errors import ConfigError, DomainError, ProbanetError
from .gate import mac_count, param_count, param_megabytes
from .gradcheck import CHECKS, DEFAULT_SHAPES, REL_TOL, run_suite
from .sim import SimConfig
from .training import TrainConfig, run_experiment, run_partial


def _positive(kind):
    """An argparse type: a finite number of the given kind above zero."""

    def parse(text: str):
        value = kind(text)
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid ... value"
    return parse


def _shapes(text: str) -> tuple[tuple[int, int, int], ...]:
    """An argparse type: a comma-separated list of positive HxWxC sizes."""
    shapes = []
    for tok in text.split(","):
        parts = tok.strip().split("x")
        if len(parts) != 3 or not all(p.isdigit() and int(p) > 0 for p in parts):
            raise argparse.ArgumentTypeError(
                f"bad shape {tok!r}, expected HxWxC of positive sizes"
            )
        shapes.append(tuple(int(p) for p in parts))
    return tuple(shapes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probanet",
        description=(
            "Proposal-weighting gate with threshold truncation and a "
            "variance-constraint loss, on a synthetic imbalance simulator."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p_count = sub.add_parser(
        "count", help="report the gate's extra parameters and MACs"
    )
    p_count.add_argument("--channels", type=int, required=True)
    p_count.add_argument("--anchors", type=int, required=True)
    p_count.add_argument("--reduction", type=int, required=True)
    p_count.add_argument("--height", type=int, default=38)
    p_count.add_argument("--width", type=int, default=50)
    p_count.set_defaults(func=cmd_count)

    p_grad = sub.add_parser(
        "gradcheck", help="verify analytic gradients against differencing"
    )
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument(
        "--eps", type=_positive(float), default=1e-5, help="central-difference step"
    )
    p_grad.add_argument(
        "--shapes",
        type=_shapes,
        default=DEFAULT_SHAPES,
        help="comma-separated HxWxC list, e.g. 4x4x4,6x6x8",
    )
    p_grad.add_argument(
        "--op", choices=sorted(CHECKS), default=None, help="check one op only"
    )
    p_grad.add_argument("--seeds", type=_positive(int), default=5)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_train = sub.add_parser(
        "train", help="run the paired experiment (or one variant)"
    )
    p_train.add_argument("--config", type=str, default=None)
    p_train.add_argument("--out", type=str, required=True)
    group = p_train.add_mutually_exclusive_group()
    group.add_argument("--baseline", action="store_true")
    group.add_argument("--probanet", action="store_true")
    p_train.add_argument("--seeds", type=_positive(int), default=10)
    p_train.set_defaults(func=cmd_train)

    p_heat = sub.add_parser(
        "heatmap", help="render gate-weight images for an existing run"
    )
    p_heat.add_argument("--run", type=str, required=True)
    p_heat.add_argument("--channel", type=int, required=True)
    p_heat.add_argument("--step", type=int, required=True)
    p_heat.add_argument("--scale", type=_positive(int), default=16)
    p_heat.add_argument(
        "--plain", action="store_true", help="emit P2/P3 instead of P5/P6"
    )
    p_heat.set_defaults(func=cmd_heatmap)

    return parser


def cmd_count(args) -> int:
    params = param_count(args.channels, args.anchors, args.reduction)
    macs = mac_count(
        args.height, args.width, args.channels, args.anchors, args.reduction
    )
    mb = param_megabytes(params)
    giga = macs / 1e9
    print(
        f"extra cost of the gate (C={args.channels}, C'={args.anchors}, "
        f"r={args.reduction}, grid {args.height}x{args.width})"
    )
    print(f"params {params} ({mb:.2f} MB), macs {macs} ({giga:.2f} G)")
    return 0


def cmd_gradcheck(args) -> int:
    ops = [args.op] if args.op else None
    results = run_suite(
        seed=args.seed, h=args.eps, shapes=args.shapes, ops=ops, n_seeds=args.seeds
    )
    failed = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.op}: worst relative error {res.worst:.3e} [{status}]")
        if not res.passed:
            failed.append(res.op)
    if failed:
        print(f"gradcheck FAIL (tolerance {REL_TOL:g}): {', '.join(failed)}")
        return 1
    print(f"gradcheck PASS (tolerance {REL_TOL:g})")
    return 0


def _load_configs(path: str | None) -> tuple[TrainConfig, SimConfig, dict]:
    """The file's configs, else the defaults, and the entries it sets."""
    if path is None:
        return TrainConfig(), SimConfig(), {}
    try:  # utf-8-sig: a leading byte-order mark is not part of the first key
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
        return (*parse_config(text), parse_entries(text))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}", field=exc.field) from exc


def cmd_train(args) -> int:
    train_cfg, sim_cfg, entries = _load_configs(args.config)
    gated = (args.probanet,) if args.baseline or args.probanet else (False, True)
    if "probanet_enabled" in entries:  # a config that sets it trains one variant
        lineno, enabled = entries["probanet_enabled"]
        if len(gated) == 1 and gated != (enabled,):
            flag = "--probanet" if args.probanet else "--baseline"
            raise ConfigError(
                f"{args.config}: line {lineno}: probanet_enabled contradicts {flag}"
            )
        gated = (enabled,)
    configs = tuple(replace(train_cfg, probanet_enabled=g) for g in gated)

    # write_seed_dirs creates args.out, after run_experiment has checked
    # the seed range, so a rejected run leaves no directory behind.
    def write_seed(results, export):
        run_dirs = write_seed_dirs(args.out, results, sim_cfg, export)
        base, seed = results[0], results[0].config.seed
        if len(results) == 1:
            print(
                f"{variant_name(base.config)} seed {seed}: "
                f"tail hard ratio {base.tail_hard_ratio:.4f} -> {run_dirs[0]}"
            )
        else:
            uplift = results[1].tail_hard_ratio - base.tail_hard_ratio
            print(
                f"seed {seed}: baseline {base.tail_hard_ratio:.4f}, "
                f"probanet {results[1].tail_hard_ratio:.4f}, uplift {uplift:+.4f}"
            )

    report = run_experiment(configs, args.seeds, sim_cfg, write_seed, export_scene)
    if len(configs) == 1:
        return 0
    [summary_path] = write_files(args.out, {SUMMARY_CSV: summary_csv(report)})
    print(
        f"mean uplift {report.mean_uplift():+.4f} over {len(report.runs)} seeds "
        f"({report.uplift_wins()} wins) -> {summary_path}"
    )
    return 0


def cmd_heatmap(args) -> int:
    train_cfg, sim_cfg, _ = _load_configs(os.path.join(args.run, RESOLVED_CONFIG))
    if not 0 <= args.channel < sim_cfg.anchors_per_cell:
        raise ConfigError(
            f"channel must lie in [0, {sim_cfg.anchors_per_cell}), "
            f"got {args.channel}"
        )
    # Scene 0, as train renders it, so the final step reproduces its files.
    state, pool, _ = run_partial(train_cfg, sim_cfg, args.step)
    files = heatmap_files(
        state, pool.scenes[0], sim_cfg, channel=args.channel, step=args.step,
        scale=args.scale, raw=not args.plain,
    )
    for path in write_files(args.run, files):
        print(path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ProbanetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
