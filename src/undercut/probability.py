"""Block-rate thinning and chain-winning probabilities for fork races.

Block discovery is a Poisson process; splitting mining power across
competing chains thins it into independent Poisson sub-processes whose
rates are proportional to the power on each chain.  The functions below
give the probability that the trailing or leading side of a race
finishes first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mempool import check_integer


class InvalidShiftError(ValueError):
    """Effective fork power left the [0, 1] range."""


# Per-term cutoff for the diagnostic series evaluation.
SERIES_TERM_CUTOFF = 1e-12


@dataclass(frozen=True)
class RacePoint:
    """Snapshot of a two-chain race for the decision model.

    ``fork_power`` is the effective power mining the fork (base power
    plus any shift).  ``lead`` is fork height minus main height; a race
    is only live while ``|lead| < safe_depth``.
    """

    fork_power: float
    safe_depth: int
    lead: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fork_power <= 1.0:
            raise ValueError("fork_power must lie in [0, 1]")
        check_integer("safe_depth", self.safe_depth)
        check_integer("lead", self.lead)
        if self.safe_depth < 1:
            raise ValueError("safe_depth must be at least 1")
        if abs(self.lead) >= self.safe_depth:
            raise ValueError("|lead| must be smaller than safe_depth")


def win_prob_d1(fork_power: float, shift_delta: float) -> float:
    """Fork-win probability in a one-confirmation tie: power plus shift."""
    p = fork_power + shift_delta
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise InvalidShiftError(f"effective fork power {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def win_prob_series(point: RacePoint) -> float:
    """Decision-model probability that the fork closes a multi-block gap.

    Closed form of the geometric series with per-step fork probability
    ``a``: a**(D - lead) / (1 - a*(1 - a)).  This is the quantity the
    strategy layer reasons with; the simulated race in the engine is the
    ground truth it is checked against.
    """
    a = point.fork_power
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    gap = point.safe_depth - point.lead
    return a**gap / (1.0 - a * (1.0 - a))


def win_prob_series_truncated(point: RacePoint, term_cutoff: float = SERIES_TERM_CUTOFF) -> float:
    """Direct summation of the race series, stopping below ``term_cutoff``.

    Exists to cross-check the closed form; production code uses
    win_prob_series.  A cutoff that is not positive (NaN included) is
    rejected: the terms underflow to 0.0, which never falls below it.
    """
    if not term_cutoff > 0.0:
        raise ValueError(f"term_cutoff must be positive, got {term_cutoff}")
    a = point.fork_power
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    gap = point.safe_depth - point.lead
    total = 0.0
    term = a**gap
    while term >= term_cutoff:
        total += term
        term *= a * (1.0 - a)
    return total


def deep_catchup_bound(fork_power: float, gap: int) -> float:
    """Probability of closing a gap of five-plus blocks; capped by 1/24.

    For any fork power at or below one half the value never exceeds
    1/24, which is why races deeper than two confirmations are not worth
    modelling.
    """
    if not 0.0 <= fork_power <= 0.5:
        raise ValueError("fork_power must lie in [0, 0.5]")
    check_integer("gap", gap)
    if gap < 5:
        raise ValueError("gap must be at least 5")
    return win_prob_series(RacePoint(fork_power, gap))
