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
from typing import Iterable, Sequence

import numpy as np

from .engine import AvoidancePolicy, RunResult, Simulation, profiles
from .mempool import ChainParams, RankTable, Transaction, check_integer
from .strategy import check_depth
from .trace import PowerDistribution

# Normal-approximation 95% interval; swap the constant for a t quantile
# if small-repetition widths ever matter.
Z95 = 1.959963984540054

DEFAULT_HONEST_FRACTIONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)

# The results CSV: each column, in file order, names the CellResult
# attribute it holds and parses back with its type.  A float is written
# as its repr, so it reads back exactly.
RESULT_FIELDS = (
    ("depth", int),
    ("honest_fraction", float),
    ("avoidance", str),
    ("mean_share", float),
    ("ci_low", float),
    ("ci_high", float),
    ("attacks", int),
)
RESULT_COLUMNS = tuple(name for name, _ in RESULT_FIELDS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: population, chain constants, and the cells to run."""

    powers: PowerDistribution
    params: ChainParams
    honest_fractions: tuple[float, ...] = DEFAULT_HONEST_FRACTIONS
    depths: tuple[int, ...] = (1,)
    avoidance: AvoidancePolicy | None = None
    repetitions: int = 50
    base_seed: int = 0

    def __post_init__(self) -> None:
        check_integer("repetitions", self.repetitions, 1)
        check_integer("seed", self.base_seed, 0)
        if not self.depths:
            raise ValueError("depths must be drawn from {1, 2}")
        for depth in self.depths:
            check_depth(depth, "depths must be drawn from {1, 2}")
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
    # an honest fraction reassigns kinds only: the ids, their order and the undercutter stay
    entries = config.powers.entries
    undercutter = next(mid for mid, _, kind in entries if kind == "undercutter")
    per_miner = {mid: [result.share(mid) for result in runs] for mid, _, _ in entries}
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


def _start_worker(config: ExperimentConfig, table: RankTable) -> None:
    global _worker
    _worker = (config, table)


def _run_task(index: int, depth: int, hf: float, first: int, end: int) -> list[RunResult]:
    config, table = _worker
    return _run_reps(config, table, index, depth, hf, range(first, end))


def run_experiment(
    config: ExperimentConfig, trace: Iterable[Transaction], jobs: int = 1
) -> ExperimentSummary:
    """Execute repetitions x cells seeded runs and aggregate per cell.

    Every run reads one prepared trace: ``trace`` itself when it is a
    ``RankTable`` (what ``trace.load_trace`` returns), else the table
    built from it once, here.  With ``jobs`` > 1 a pool of up to ``jobs``
    worker processes runs the cells in chunks of contiguous repetitions.
    Each worker receives the table once, when it starts (it inherits it
    under the ``fork`` start method; a table pickles as its columns); a
    task carries only indices.  The parent puts the runs back in (cell,
    repetition) order and aggregates them as ``jobs=1`` does, so the output is
    identical for any job count: every run's seed is a pure function of
    its cell and repetition indices.
    """
    check_integer("jobs", jobs, 1)
    cells = config.cells()
    tasks = _tasks(config, jobs)
    table = RankTable.of(trace)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), initializer=_start_worker, initargs=(config, table)
        ) as pool:
            chunks = list(pool.map(_run_task, *zip(*tasks)))
    else:
        chunks = [_run_reps(config, table, i, d, h, range(first, end)) for i, d, h, first, end in tasks]
    runs: dict[int, list[RunResult]] = {i: [] for i, _, _ in cells}
    for (i, *_), chunk in zip(tasks, chunks):
        runs[i].extend(chunk)
    return ExperimentSummary(cells=tuple(_cell_result(config, d, h, runs[i]) for i, d, h in cells))


def emit_results(summary: ExperimentSummary, path: str | Path) -> None:
    """Write one CSV row per cell in a stable column order."""
    path = Path(path)
    try:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_COLUMNS)
            for c in summary.cells:
                writer.writerow(
                    [
                        repr(float(getattr(c, name))) if parse is float else getattr(c, name)
                        for name, parse in RESULT_FIELDS
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results(path: str | Path) -> list[dict]:
    """Parse a results CSV back into row dicts (inverse of emit_results).

    A missing column or a cell its parser rejects raises ``ValueError``
    naming the line (the header is line 1) and the column.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for name in RESULT_COLUMNS:
            if name not in (reader.fieldnames or ()):
                raise ValueError(f"line 1: missing column {name!r}")
        return [_parse_row(reader.line_num, row) for row in reader]


def _parse_row(line_no: int, row: dict) -> dict:
    out = {}
    for name, parse in RESULT_FIELDS:
        cell = row[name]
        if cell is None:  # a row shorter than the header
            raise ValueError(f"line {line_no}: column {name!r} is missing")
        try:
            out[name] = parse(cell)
        except ValueError:
            raise ValueError(f"line {line_no}: column {name!r} must be {parse.__name__}, got {cell!r}") from None
    return out
