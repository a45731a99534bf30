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

from .engine import AvoidancePolicy, RankTable, Simulation, profiles
from .mempool import ChainParams, Transaction
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
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
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


def derive_seed(base_seed: int, cell_index: int, repetition: int) -> int:
    """Pure seed derivation; the whole sweep is reproducible from it."""
    ss = np.random.SeedSequence([int(base_seed), int(cell_index), int(repetition)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_cell(
    config: ExperimentConfig, trace: Sequence[Transaction], index: int, depth: int, hf: float
) -> CellResult:
    miners = profiles(config.powers.with_honest_fraction(hf).entries)
    undercutter = next(m.id for m in miners if m.kind == "undercutter")
    per_miner: dict[str, list[float]] = {m.id: [] for m in miners}
    attacks = 0
    branches: Counter[str] = Counter()
    ranks = RankTable(trace)  # one prepared trace for every repetition
    for rep in range(config.repetitions):
        result = Simulation(
            ranks,
            miners,
            config.params,
            depth=depth,
            avoidance=config.avoidance,
            seed=derive_seed(config.base_seed, index, rep),
        ).run()
        for mid in per_miner:
            per_miner[mid].append(result.share(mid))
        attacks += result.attacks
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
        attacks=attacks,
        branch_counts=dict(branches),
        miner_mean_shares={mid: float(np.mean(v)) for mid, v in per_miner.items()},
        repetitions=config.repetitions,
    )


def run_experiment(
    config: ExperimentConfig, trace: Sequence[Transaction], jobs: int = 1
) -> ExperimentSummary:
    """Execute repetitions x cells seeded runs and aggregate per cell.

    ``jobs`` parallelizes across cells; output is identical for any job
    count because every run's seed is a pure function of its cell and
    repetition indices.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    cells = config.cells()
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_run_cell, *zip(*[(config, trace, i, d, h) for i, d, h in cells]))
            )
    else:
        results = [_run_cell(config, trace, i, d, h) for i, d, h in cells]
    return ExperimentSummary(cells=tuple(results))


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
