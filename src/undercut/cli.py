"""Command-line entry point: run, sweep, synth and check subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import engine, experiment, strategy, trace
from .mempool import ChainParams, RankTable, check_negligible
from .probability import race_win, win_prob_series


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="undercut-sim",
        description="Simulate and analyze fee-based undercutting mining attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded simulation; prints per-miner earnings")
    _add_population_opts(p_run)
    _add_chain_opts(p_run)
    _add_trace_opts(p_run)
    p_run.add_argument("--depth", type=int, default=1, choices=tuple(strategy.DEPTHS), help="give-up depth D")
    p_run.add_argument("--honest", default="0.0", help="honest power fraction")
    p_run.add_argument("--seed", type=int, default=0, help="RNG seed")

    p_sweep = sub.add_parser("sweep", help="repetition sweep; writes a results CSV")
    _add_population_opts(p_sweep)
    _add_chain_opts(p_sweep)
    _add_trace_opts(p_sweep)
    p_sweep.add_argument("--depth", default="1", help="give-up depth(s), e.g. 1 or 1,2")
    p_sweep.add_argument(
        "--honest", default="0,0.1,0.2,0.3,0.4,0.5", help="honest fractions, comma separated"
    )
    p_sweep.add_argument("--repetitions", type=int, default=50, help="runs per cell")
    p_sweep.add_argument("--seed", type=int, default=0, help="base seed for seed derivation")
    p_sweep.add_argument("--output", required=True, help="results CSV path")
    p_sweep.add_argument(
        "--jobs", type=int, default=1, help="parallel workers over cells and repetition chunks"
    )

    p_synth = sub.add_parser("synth", help="write a synthetic Poisson-arrival trace")
    p_synth.add_argument("--output", required=True, help="trace CSV path")
    p_synth.add_argument(
        "--rate", type=float, required=True, help="transactions per second (with --whales: the dust's)"
    )
    p_synth.add_argument("--duration", type=float, required=True, help="trace length in seconds")
    p_synth.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_synth.add_argument(
        "--whales",
        type=float,
        help="whales per 600 s block interval: the whale regime over dust, with its own fees and sizes",
    )
    # no defaults here, so a --whales run can tell an option given from one left out
    p_synth.add_argument("--fee-dist", choices=("uniform", "pareto"), help="default uniform")
    p_synth.add_argument("--fee-args", help="lo,hi or shape,scale (default 1000,100000)")
    p_synth.add_argument("--size-dist", choices=("uniform", "fixed"), help="default uniform")
    p_synth.add_argument("--size-args", help="lo,hi or size (default 200,2000)")

    p_check = sub.add_parser("check", help="evaluate the analytical attack conditions")
    p_check.add_argument("--bu", type=float, required=True, help="undercutter power fraction")
    p_check.add_argument("--bh", type=float, required=True, help="honest power fraction")
    p_check.add_argument("--gamma", type=float, required=True, help="bandwidth-set / head fee ratio")
    p_check.add_argument("--depth", type=int, default=1, choices=tuple(strategy.DEPTHS), help="give-up depth D")
    p_check.add_argument("--negligible", type=float, default=0.01, help="negligible gamma bound")

    return parser


def _add_population_opts(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=trace.PRESET_NAMES, help="built-in miner population")
    group.add_argument("--powers-file", help="miner population file (miner_id,power,kind lines)")


def _add_chain_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--interval", type=float, default=None, help="block interval in seconds")
    p.add_argument("--block-limit", type=int, default=None, help="block size limit in size units")
    p.add_argument("--negligible", type=float, default=None, help="negligible gamma bound")


def _add_trace_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", required=True, help="transaction trace file")
    p.add_argument("--trace-format", default="csv", choices=trace.TRACE_FORMATS)
    p.add_argument("--avoidance", default="off", help="off|experimental|exact|strict=<f>")


def _population(args) -> tuple[trace.PowerDistribution, ChainParams]:
    if args.powers_file:
        dist = trace.load_powers(args.powers_file)
        params = trace.BITCOIN_PARAMS
    else:
        dist, params = trace.preset(args.preset or "bitcoin16")
    overrides = dict(
        block_interval=args.interval,
        block_size_limit=args.block_limit,
        negligible_fee_threshold=args.negligible,
    )
    return dist, dataclasses.replace(params, **{k: v for k, v in overrides.items() if v is not None})


def _load_trace(args) -> RankTable:
    path = Path(args.trace)
    if not path.exists():
        raise FileNotFoundError(f"trace file not found: {path}")
    return trace.load_trace(path, fmt=args.trace_format)


def _number(option: str, text: str, kind: type = float) -> float:
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{option}: {text!r} is not {'an integer' if kind is int else 'a number'}") from None


def _numbers(option: str, text: str, kind: type = float) -> list[float]:
    # the comma-separated values of ``option``; empty parts are skipped
    parts = (part.strip() for part in text.split(","))
    return [_number(option, part, kind) for part in parts if part]


def _cmd_run(args) -> int:
    dist, params = _population(args)
    honest = _number("--honest", args.honest)
    population = dist.with_honest_fraction(honest)
    miners = engine.profiles(population.entries)
    avoidance = engine.parse_avoidance(args.avoidance)
    records = _load_trace(args)
    result = engine.run(
        records, miners, params, depth=args.depth, avoidance=avoidance, seed=args.seed
    )
    print(
        f"blocks={result.blocks} confirmed_fee={result.confirmed_fee} attacks={result.attacks}"
        f" fork_wins={result.fork_wins} fork_losses={result.fork_losses}"
    )
    if result.attack_branches:
        tags = ", ".join(f"{k}={v}" for k, v in sorted(result.attack_branches.items()))
        print(f"attack branches: {tags}")
    print(f"{'miner':<8} {'kind':<12} {'power':>8} {'earned':>14} {'share':>8}")
    for m in miners:
        print(
            f"{m.id:<8} {m.kind:<12} {m.power:>8.4f} "
            f"{result.earnings[m.id]:>14d} {result.share(m.id):>8.4f}"
        )
    return 0


def _cmd_sweep(args) -> int:
    dist, params = _population(args)
    records = _load_trace(args)
    config = experiment.ExperimentConfig(
        powers=dist,
        params=params,
        honest_fractions=tuple(_numbers("--honest", args.honest)),
        depths=tuple(_numbers("--depth", args.depth, int)),
        avoidance=engine.parse_avoidance(args.avoidance),
        repetitions=args.repetitions,
        base_seed=args.seed,
    )
    summary = experiment.run_experiment(config, records, jobs=args.jobs)
    experiment.emit_results(summary, args.output)
    print(f"wrote {len(summary.cells)} cells to {args.output}")
    return 0


def _cmd_synth(args) -> int:
    if args.whales is not None:
        names = ("fee_dist", "fee_args", "size_dist", "size_args")
        given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
        if given:
            raise ValueError(f"--whales fixes the fees and sizes; it takes no {', '.join(given)}")
        for name, value in (("rate", args.rate), ("whales", args.whales)):
            if not 0.0 <= value < math.inf:  # named before the library scales them to per-interval rates
                raise ValueError(f"{name} must be non-negative and finite, got {value}")
        # --rate is the dust's per second; the library takes rates per 600 s interval
        records = trace.synthesize_whale_trace(args.seed, args.duration, args.rate * 600.0, args.whales)
    else:
        records = trace.synthesize_trace(
            rate=args.rate,
            duration=args.duration,
            seed=args.seed,
            fee_dist=args.fee_dist or "uniform",
            fee_args=_numbers("--fee-args", args.fee_args or "1000,100000"),
            size_dist=args.size_dist or "uniform",
            size_args=_numbers("--size-args", args.size_args or "200,2000"),
        )
    trace.write_trace(records, args.output)
    print(f"wrote {len(records)} transactions to {args.output}")
    return 0


def _cmd_check(args) -> int:
    check_negligible(args.negligible)
    split = strategy.PowerSplit.of(args.bu, args.bh)
    gamma = args.gamma
    model = strategy.DEPTHS[args.depth]
    action, branch, tag = model.branches(split, gamma, args.negligible)
    threshold = model.join_threshold(split)
    join = 1.0 if gamma < threshold else 0.0
    effective = min(split.undercutter + split.rational * join, 1.0)
    if args.depth == 1:
        returns = strategy.expected_returns_d1(split, gamma, delta=split.rational * join)
    else:
        returns = strategy.expected_returns_d2(split, gamma)
    print(f"depth={args.depth} bu={args.bu} bh={args.bh} gamma={gamma}")
    print(f"decision: {action}" + (f" (branch {branch}) [{tag}]" if branch else ""))
    print(
        f"thresholds: limited={model.limited_bound(split):.6g} sufficient={model.sufficient_bound(split):.6g}"
        f" {model.join_label}={threshold:.6g}"
    )
    if args.depth == 1:
        canonical = strategy.rational_shift_general(
            0,
            split.undercutter,
            depth=1,
            claimable_main=gamma,
            claimable_fork=1.0,
            owned_main=split.rational / (1.0 - split.undercutter) if split.undercutter < 1 else 0.0,
            owned_fork=0.0,
            movable=max(split.rational, 0.0),  # PowerSplit lets rounding take it a hair below 0
        )
        print(f"rational join at tie: x={join:g} (shift objective: x={canonical:g})")
        print(f"fork win probability at tie: {race_win(effective, 1):.6g}")
    else:
        print(f"rational join at tie: x={join:g}")
        print(f"fork win probability at tie (series): {win_prob_series(effective, 2):.6g}")
        print(f"fork win probability at tie (walk): {race_win(effective, 2):.6g}")
    print(f"expected returns: attack={returns.attack_return:.6g} baseline={returns.baseline_return:.6g}")
    return 0


COMMANDS = {"run": _cmd_run, "sweep": _cmd_sweep, "synth": _cmd_synth, "check": _cmd_check}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (OSError, ValueError, engine.StalledSimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
