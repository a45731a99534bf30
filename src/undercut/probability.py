"""Block-rate thinning and chain-winning probabilities for fork races.

Block discovery is a Poisson process; splitting mining power across
competing chains thins it into independent Poisson sub-processes whose
rates are proportional to the power on each chain.  The functions below
give the probability that the trailing or leading side of a race
finishes first.  Each takes the race as ``(fork_power, depth, lead)``:
the power mining the fork, the give-up depth D, and fork height minus
main height.
"""

from __future__ import annotations

import math

from .mempool import check_integer

# Per-term cutoff for the diagnostic series evaluation.
SERIES_TERM_CUTOFF = 1e-12


def _check_race(fork_power: float, depth: int, lead: int, decided: bool) -> None:
    """Reject race arguments by name; ``|lead| == depth`` (a decided race) only when ``decided`` is false."""
    if not 0.0 <= fork_power <= 1.0:
        raise ValueError(f"fork_power must lie in [0, 1], got {fork_power}")
    check_integer("depth", depth, 1)
    check_integer("lead", lead)
    if abs(lead) > depth:
        raise ValueError(f"|lead| must be at most depth, got lead={lead}, depth={depth}")
    if abs(lead) == depth and not decided:
        raise ValueError(f"race already decided: lead={lead}, depth={depth}")


def win_prob_series(fork_power: float, depth: int, lead: int = 0) -> float:
    """The paper's probability that the fork closes a multi-block gap.

    Closed form of the geometric series with per-step fork probability
    ``a = fork_power``: a**(D - lead) / (1 - a*(1 - a)), for a race still
    live (``|lead| < depth``).  ``deep_catchup_bound`` and ``undercut-sim
    check`` read it; no decision does.  It is not the engine's race,
    which is ``race_win``: the engine ends a race once either side leads
    by D, and at D=2 that walk is won more often than the series says
    (from a tie at fork power 0.3, 0.155 against the series' 0.114).
    """
    _check_race(fork_power, depth, lead, decided=False)
    a = fork_power
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    return a ** (depth - lead) / (1.0 - a * (1.0 - a))


def race_win(fork_power: float, depth: int, lead: int = 0) -> float:
    """The probability that the fork wins the engine's race: a ±1 walk from ``lead`` to ±``depth``.

    With fixed powers each block extends the fork with probability
    ``a = fork_power``, and the race ends once either side leads by
    ``depth``.  Gambler's ruin gives (1 − r^(D+L)) / (1 − r^(2D)) with
    r = (1 − a)/a, and (D + L)/(2D) at a = 1/2.  At D=1 from a tie that
    is ``a``, returned as it is: the one-block race, whose fork power
    after a shift is the base power plus the shift.  ``|lead|`` may
    equal ``depth``: a race that is already decided.

    Every power is taken of the ratio below one, (1 − a)/a or a/(1 − a),
    so no power overflows however deep the race.  Near a = 1/2 that ratio
    is close to one, and 1 − ratio^k would cancel, so each such difference
    is ``-expm1(k * log1p(x))``, where x = ratio − 1 is (1 − 2a)/a or
    (2a − 1)/(1 − a), and 1 − 2a and 2a − 1 are exact.
    """
    _check_race(fork_power, depth, lead, decided=True)
    a, span = fork_power, 2 * depth
    if abs(lead) == depth:
        return float(lead > 0)
    if a == 0.5:
        return (depth + lead) / span
    if depth == 1:
        return a
    if a > 0.5:
        log_r = math.log1p((1.0 - 2.0 * a) / a)
        return math.expm1((depth + lead) * log_r) / math.expm1(span * log_r)
    log_s = math.log1p((2.0 * a - 1.0) / (1.0 - a))  # s = 1/r: the same law times s^(2D) over s^(2D)
    return math.exp((depth - lead) * log_s) * math.expm1((depth + lead) * log_s) / math.expm1(span * log_s)


def win_prob_series_truncated(
    fork_power: float, depth: int, lead: int = 0, *, term_cutoff: float = SERIES_TERM_CUTOFF
) -> float:
    """Direct summation of the race series, stopping below ``term_cutoff``.

    Exists to cross-check the closed form; production code uses
    win_prob_series.  A cutoff that is not positive (NaN included) is
    rejected: the terms underflow to 0.0, which never falls below it.
    """
    _check_race(fork_power, depth, lead, decided=False)
    if not term_cutoff > 0.0:
        raise ValueError(f"term_cutoff must be positive, got {term_cutoff}")
    a = fork_power
    if a == 0.0:
        return 0.0
    if a == 1.0:
        return 1.0
    total = 0.0
    term = a ** (depth - lead)
    while term >= term_cutoff:
        total += term
        term *= a * (1.0 - a)
    return total


def deep_catchup_bound(fork_power: float, gap: int) -> float:
    """Probability of closing a gap of five-plus blocks; capped by 1/24.

    For any fork power at or below one half the value never exceeds
    1/24.  That races deeper than two confirmations are not worth
    modelling rests on this bound, and so on ``win_prob_series``, which
    at D=2 already gives less than the engine's race.
    """
    if not 0.0 <= fork_power <= 0.5:
        raise ValueError("fork_power must lie in [0, 0.5]")
    check_integer("gap", gap)
    if gap < 5:
        raise ValueError("gap must be at least 5")
    return win_prob_series(fork_power, gap)
