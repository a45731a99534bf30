"""Benchmark workloads: seeded traces, the runs over them, and their checks.

Every workload replays one synthetic whale trace (a dust floor plus rare
Pareto-fee whales, the regime in which wealthy heads appear and attack
conditions fire) through the ``bitcoin16`` population at honest fraction
0.3.  The trace is built from the benchmark seed and goes through
``write_trace``/``load_trace``, the path ``undercut-sim run --trace``
takes.  The program only ever sees the loaded trace.

Each run yields a fingerprint of its output.  At the default seed the
fingerprint must equal the one recorded in ``fingerprints.json``; at any
seed the run must satisfy the invariants in ``sim_violations`` and
``sweep_violations``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from undercut import engine, experiment, trace

DEFAULT_SEED = 707
SIM_SEED = 1
HONEST_FRACTION = 0.3
PRESET = "bitcoin16"
INTERVAL = 600.0
WHALE_RATE = 0.25  # whales per block interval

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def whale_trace(seed: int, dust_rate: float, duration: float) -> list:
    """Dust floor plus rare heavy-tailed whales, merged in arrival order.

    ``dust_rate`` is in transactions per block interval.  Whale fees are
    Pareto(1.5, 2,000,000), so a whale dwarfs a block full of dust.
    """
    dust = trace.synthesize_trace(
        rate=dust_rate / INTERVAL,
        duration=duration,
        seed=seed,
        fee_dist="uniform",
        fee_args=(1, 60),
        size_dist="uniform",
        size_args=(1500, 2500),
        id_prefix="d",
    )
    whales = trace.synthesize_trace(
        rate=WHALE_RATE / INTERVAL,
        duration=duration,
        seed=seed + 1,
        fee_dist="pareto",
        fee_args=(1.5, 2_000_000),
        size_dist="uniform",
        size_args=(2000, 4000),
        id_prefix="w",
    )
    return sorted(dust + whales, key=lambda t: (t.arrival_time, t.id))


def population():
    """(miners, chain params): the preset at HONEST_FRACTION honest power."""
    dist, params = trace.preset(PRESET)
    return engine.profiles(dist.with_honest_fraction(HONEST_FRACTION).entries), params


@dataclass(frozen=True)
class SimRun:
    """One ``engine.run`` call over the workload trace."""

    name: str
    depth: int
    avoidance: str = "off"
    jobs = 1

    def in_process(self) -> "SimRun":
        return self

    def execute(self, records) -> tuple[float, dict, list[str]]:
        """(seconds in the program, output fingerprint, invariant violations)."""
        miners, params = population()
        start = time.perf_counter()
        result = engine.run(
            records,
            miners,
            params,
            depth=self.depth,
            avoidance=engine.parse_avoidance(self.avoidance),
            seed=SIM_SEED,
        )
        seconds = time.perf_counter() - start
        fingerprint = {
            "blocks": result.blocks,
            "confirmed_fee": result.confirmed_fee,
            "attacks": result.attacks,
            "attack_branches": dict(sorted(result.attack_branches.items())),
            "fork_wins": result.fork_wins,
            "fork_losses": result.fork_losses,
        }
        return seconds, fingerprint, sim_violations(result, sum(tx.fee for tx in records))


@dataclass(frozen=True)
class SweepRun:
    """One ``experiment.run_experiment`` call at give-up depth 1."""

    name: str
    honest_fractions: tuple[float, ...]
    repetitions: int
    jobs: int

    def in_process(self) -> "SweepRun":
        """The same sweep on one process (tracing sees only this one)."""
        return replace(self, jobs=1)

    def execute(self, records) -> tuple[float, dict, list[str]]:
        dist, params = trace.preset(PRESET)
        config = experiment.ExperimentConfig(
            powers=dist,
            params=params,
            honest_fractions=self.honest_fractions,
            depths=(1,),
            repetitions=self.repetitions,
            base_seed=SIM_SEED,
        )
        start = time.perf_counter()
        summary = experiment.run_experiment(config, records, jobs=self.jobs)
        seconds = time.perf_counter() - start
        cells = [asdict(cell) for cell in summary.cells]
        return seconds, {"cells": cells}, sweep_violations(cells, self.repetitions)


@dataclass(frozen=True)
class Workload:
    name: str
    dust_rate: float  # dust transactions per block interval
    duration: float  # trace length in seconds
    runs: tuple

    @property
    def parallel(self) -> bool:
        """Whether a pass uses worker processes (and so has an in-process
        reference run that must produce the same output)."""
        return any(run.jobs > 1 for run in self.runs)


# Each workload loads one layer and bypasses another; README.md gives
# the layer-to-metric table these choices come from.
WORKLOADS = {
    w.name: w
    for w in (
        # ~400 kB arrives per 1 MB block, so the pool never backs up: the
        # time goes to per-arrival pool inserts and the attack ladders,
        # and avoidance is bypassed.
        Workload(
            "attack",
            dust_rate=200,
            duration=150_000,
            runs=(SimRun("d1-off", 1), SimRun("d2-off", 2)),
        ),
        # Arrivals exceed block capacity and the backlog grows to ~20k
        # transactions: greedy packing over a large pool, pool rebuilds
        # on removal, and experimental avoidance's repacks.
        Workload(
            "congested",
            dust_rate=700,
            duration=60_000,
            runs=(SimRun("d1-off", 1), SimRun("d1-experimental", 1, "experimental")),
        ),
        # Small pools, so nearly all time is exact avoidance crafting and
        # the candidate claims it tries; the pool layer does little.
        Workload(
            "avoid_exact",
            dust_rate=20,
            duration=600_000,
            runs=(SimRun("d1-exact", 1, "exact"), SimRun("d2-exact", 2, "exact")),
        ),
        # The paper's own use: many short seeded runs per cell, with the
        # per-run Simulation set-up and the process pool of run_experiment.
        Workload(
            "sweep",
            dust_rate=20,
            duration=150_000,
            runs=(SweepRun("d1-h0.1-0.3", (0.1, 0.3), repetitions=25, jobs=2),),
        ),
    )
}


def setup(workload: Workload, seed: int, path: Path):
    """Generate, write and reload the trace, and build the population.

    This is the benchmark's set-up; returns the loaded trace.
    """
    trace.write_trace(whale_trace(seed, workload.dust_rate, workload.duration), path)
    records = trace.load_trace(path)
    population()
    return records


def sim_violations(result, trace_fee: int) -> list[str]:
    """Invariants of one engine run that hold for any trace and seed."""
    out = []
    if sum(result.earnings.values()) != result.confirmed_fee:
        out.append(f"earnings sum {sum(result.earnings.values())} != confirmed_fee {result.confirmed_fee}")
    if result.total_trace_fee != trace_fee:
        out.append(f"total_trace_fee {result.total_trace_fee} != trace fee sum {trace_fee}")
    if result.confirmed_fee > result.total_trace_fee:
        out.append(f"confirmed_fee {result.confirmed_fee} > total_trace_fee {result.total_trace_fee}")
    if sum(result.attack_branches.values()) != result.attacks:
        out.append(f"branch counts sum to {sum(result.attack_branches.values())}, attacks {result.attacks}")
    if result.fork_wins + result.fork_losses > result.attacks:
        out.append(f"fork_wins {result.fork_wins} + fork_losses {result.fork_losses} > attacks {result.attacks}")
    return out


def sweep_violations(cells: list[dict], repetitions: int) -> list[str]:
    """Invariants of one sweep's cells that hold for any trace and seed."""
    out = []
    for cell in cells:
        label = f"cell hf={cell['honest_fraction']}"
        if sum(cell["branch_counts"].values()) != cell["attacks"]:
            out.append(f"{label}: branch counts do not sum to attacks {cell['attacks']}")
        if cell["repetitions"] != repetitions:
            out.append(f"{label}: {cell['repetitions']} repetitions, expected {repetitions}")
        if not 0.0 <= cell["mean_share"] <= 1.0:
            out.append(f"{label}: mean_share {cell['mean_share']} outside [0, 1]")
    return out


def expected_fingerprints(seed: int) -> dict | None:
    """Recorded fingerprints per workload and run, or None off the
    default seed (only the invariants are checked there)."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(FINGERPRINTS.read_text())["workloads"]

