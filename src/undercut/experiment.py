"""Sweeps and statistics: profit shares per (depth, honest power, avoidance).

Each cell of a sweep runs the same trace through independently seeded
simulations and reports the undercutter's mean profit share with a 95%
confidence interval, plus how often it attacked and through which
decision branch.  Seeds derive from (base seed, cell index, repetition
index) alone, so results do not depend on execution order and any
single run can be reproduced in isolation.
"""

from __future__ import annotations

import csv
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .engine import AvoidancePolicy, RunResult, Simulation, check_seed, profiles
from .mempool import ChainParams, RankTable, Transaction
from .strategy import DEPTHS
from .trace import PowerDistribution

# Normal-approximation 95% interval; swap the constant for a t quantile
# if small-repetition widths ever matter.
Z95 = 1.959963984540054

DEFAULT_HONEST_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

RESULT_COLUMNS = ("depth", "honest_fraction", "avoidance", "mean_share", "ci_low", "ci_high", "attacks")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: population, chain constants, and the cell grid."""

    powers: PowerDistribution
    params: ChainParams
    honest_fractions: tuple[float, ...] = DEFAULT_HONEST_FRACTIONS
    depths: tuple[int, ...] = (1,)
    avoidance: AvoidancePolicy | None = None
    repetitions: int = 50
    base_seed: int = 0

    def __post_init__(self) -> None:
        _check_count("repetitions", self.repetitions)
        check_seed(self.base_seed)
        if not self.depths or any(d not in DEPTHS for d in self.depths):
            raise ValueError("depths must be drawn from {1, 2}")
        if not self.honest_fractions:
            raise ValueError("honest fractions must not be empty")
        # a repeated value would run its cells twice, with other seeds
        for label, values in (("depth", self.depths), ("honest fraction", self.honest_fractions)):
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValueError(f"{label} {value} is repeated")
        beta_u = self.powers.undercutter_power
        for hf in self.honest_fractions:
            if not hf >= 0.0:
                raise ValueError(f"honest fraction {hf} must be non-negative")
            if hf + beta_u > 1.0 + 1e-9:
                raise ValueError(f"honest fraction {hf} plus undercutter power {beta_u} exceeds 1")

    def avoidance_label(self) -> str:
        return self.avoidance.label() if self.avoidance is not None else "off"

    def cells(self) -> list[tuple[int, int, float]]:
        """(cell index, depth, honest fraction) in sweep order."""
        return [
            (i, depth, hf)
            for i, (depth, hf) in enumerate(
                (d, h) for d in self.depths for h in self.honest_fractions
            )
        ]


@dataclass(frozen=True)
class CellResult:
    """Aggregated statistics for one parameter cell."""

    depth: int
    honest_fraction: float
    avoidance: str
    mean_share: float
    ci_half_width: float
    attacks: int
    branch_counts: dict[str, int]
    miner_mean_shares: dict[str, float]
    repetitions: int

    @property
    def ci_low(self) -> float:
        return self.mean_share - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean_share + self.ci_half_width


@dataclass(frozen=True)
class ExperimentSummary:
    cells: tuple[CellResult, ...]


def _check_count(name: str, value: object) -> None:
    # a bool is an int to Python, but no count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def derive_seed(base_seed: int, cell_index: int, repetition: int) -> int:
    """Pure seed derivation; the whole sweep is reproducible from it."""
    ss = np.random.SeedSequence([int(base_seed), int(cell_index), int(repetition)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_reps(
    config: ExperimentConfig, table: RankTable, index: int, depth: int, hf: float, reps: range
) -> list[RunResult]:
    """The cell's runs for the repetitions in ``reps``, in order."""
    miners = profiles(config.powers.with_honest_fraction(hf).entries)
    return [
        Simulation(
            table,
            miners,
            config.params,
            depth=depth,
            avoidance=config.avoidance,
            seed=derive_seed(config.base_seed, index, rep),
        ).run()
        for rep in reps
    ]


def _cell_result(config: ExperimentConfig, depth: int, hf: float, runs: Sequence[RunResult]) -> CellResult:
    """Aggregate one cell's runs, given in repetition order."""
    miners = profiles(config.powers.with_honest_fraction(hf).entries)
    undercutter = next(m.id for m in miners if m.kind == "undercutter")
    per_miner = {m.id: [result.share(m.id) for result in runs] for m in miners}
    branches: Counter[str] = Counter()
    for result in runs:
        branches.update(result.attack_branches)
    shares = per_miner[undercutter]
    mean = float(np.mean(shares))
    half = float(Z95 * np.std(shares, ddof=1) / np.sqrt(len(shares))) if len(shares) > 1 else 0.0
    return CellResult(
        depth=depth,
        honest_fraction=hf,
        avoidance=config.avoidance_label(),
        mean_share=mean,
        ci_half_width=half,
        attacks=sum(result.attacks for result in runs),
        branch_counts=dict(branches),
        miner_mean_shares={mid: float(np.mean(v)) for mid, v in per_miner.items()},
        repetitions=config.repetitions,
    )


def _tasks(config: ExperimentConfig, jobs: int) -> list[tuple[int, int, float, int, int]]:
    """(cell index, depth, honest fraction, first, end repetition) per task, in sweep order.

    Each cell's repetitions are split into ``jobs`` contiguous ranges of
    near-equal length (fewer when there are fewer repetitions), so even a
    one-cell sweep keeps every worker busy.
    """
    parts = min(jobs, config.repetitions)
    bounds = [config.repetitions * k // parts for k in range(parts + 1)]
    return [(i, d, h, lo, hi) for i, d, h in config.cells() for lo, hi in zip(bounds, bounds[1:])]


# A worker process's sweep and its prepared trace, set once by _start_worker.
_worker: tuple[ExperimentConfig, RankTable] | None = None


def _start_worker(config: ExperimentConfig, trace: Sequence[Transaction]) -> None:
    global _worker
    _worker = (config, RankTable(trace))


def _run_task(index: int, depth: int, hf: float, first: int, end: int) -> list[RunResult]:
    config, table = _worker
    return _run_reps(config, table, index, depth, hf, range(first, end))


def run_experiment(
    config: ExperimentConfig, trace: Sequence[Transaction], jobs: int = 1
) -> ExperimentSummary:
    """Execute repetitions x cells seeded runs and aggregate per cell.

    With ``jobs`` > 1 a pool of up to ``jobs`` worker processes runs the
    cells in chunks of contiguous repetitions.  Each worker receives the
    trace once, when it starts (it inherits it under the ``fork`` start
    method), and prepares one RankTable for all of its chunks; a task
    carries only indices.  The parent puts the runs back in (cell,
    repetition) order and aggregates them as ``jobs=1`` does, so the
    output is identical for any job count: every run's seed is a pure
    function of its cell and repetition indices.
    """
    _check_count("jobs", jobs)
    cells = config.cells()
    tasks = _tasks(config, jobs)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_start_worker, initargs=(config, trace)
        ) as pool:
            chunks = list(pool.map(_run_task, *zip(*tasks)))
    else:
        table = RankTable(trace)  # one prepared trace for every cell
        chunks = [_run_reps(config, table, i, d, h, range(first, end)) for i, d, h, first, end in tasks]
    runs: dict[int, list[RunResult]] = {i: [] for i, _, _ in cells}
    for (i, *_), chunk in zip(tasks, chunks):
        runs[i].extend(chunk)
    return ExperimentSummary(cells=tuple(_cell_result(config, d, h, runs[i]) for i, d, h in cells))


def emit_results(summary: ExperimentSummary, path: str | Path) -> None:
    """Write one CSV row per cell in a stable column order."""
    path = Path(path)
    try:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_COLUMNS)
            for c in summary.cells:
                writer.writerow(
                    [
                        c.depth,
                        repr(float(c.honest_fraction)),
                        c.avoidance,
                        repr(c.mean_share),
                        repr(c.ci_low),
                        repr(c.ci_high),
                        c.attacks,
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path: str | Path) -> list[dict]:
    """Parse a results CSV back into row dicts (inverse of emit_results)."""
    rows = []
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            rows.append(
                {
                    "depth": int(row["depth"]),
                    "honest_fraction": float(row["honest_fraction"]),
                    "avoidance": row["avoidance"],
                    "mean_share": float(row["mean_share"]),
                    "ci_low": float(row["ci_low"]),
                    "ci_high": float(row["ci_high"]),
                    "attacks": int(row["attacks"]),
                }
            )
    return rows
