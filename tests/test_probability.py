import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

import undercut
from undercut import probability
from undercut.probability import (
    deep_catchup_bound,
    race_win,
    win_prob_series,
    win_prob_series_truncated,
)

SERIES = (win_prob_series, win_prob_series_truncated)

# (fork_power, depth, lead) that every race function rejects, and the message naming the argument
BAD_RACE_ARGS = [
    ((1.2, 2, 0), r"fork_power must lie in \[0, 1\], got 1.2"),
    ((math.nan, 2, 0), r"fork_power must lie in \[0, 1\], got nan"),
    ((0.3, 0, 0), "depth must be a positive integer, got 0"),
    ((0.3, 2.0, 0), "depth must be a positive integer, got 2.0"),
    ((0.3, 2, 0.5), "lead must be an integer, got 0.5"),
    ((0.3, 2, True), "lead must be an integer, got True"),
    ((0.3, 2, -3), r"\|lead\| must be at most depth, got lead=-3, depth=2"),
    ((-0.1, 2, 0), r"fork_power must lie in \[0, 1\], got -0.1"),
    ((0.3, 2.5, 0), "depth must be a positive integer, got 2.5"),
    ((0.3, True, 0), "depth must be a positive integer, got True"),
    ((0.3, 2, False), "lead must be an integer, got False"),
]


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("args, message", BAD_RACE_ARGS)
def test_the_series_reject_the_arguments_race_win_rejects(series, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        series(*args)


@pytest.mark.parametrize("race", (race_win, *SERIES))
def test_every_race_function_takes_numpy_block_counts(race):
    assert race(0.3, np.int64(2), np.int32(-1)) == race(0.3, 2, -1)


@pytest.mark.parametrize("series", SERIES)
@pytest.mark.parametrize("lead", [2, -2])
def test_the_series_reject_a_decided_race_which_race_win_accepts(series, lead):
    with pytest.raises(ValueError, match=f"^race already decided: lead={lead}, depth=2$"):
        series(0.5, 2, lead)
    assert race_win(0.5, 2, lead) == (lead > 0)


def test_win_prob_series_tie_values():
    # truncated-summation oracle at one-half power: 1/3, 1/6, 2/3
    for lead, expected in [(0, 1 / 3), (-1, 1 / 6), (1, 2 / 3)]:
        assert win_prob_series_truncated(0.5, 2, lead) == pytest.approx(expected, abs=1e-9)
        assert win_prob_series(0.5, 2, lead) == pytest.approx(expected)


def test_win_prob_series_degenerate_limits():
    assert win_prob_series(0.0, 2, 0) == 0.0
    assert win_prob_series(1.0, 2, 0) == 1.0
    assert win_prob_series_truncated(0.0, 2, 1) == 0.0
    assert win_prob_series_truncated(1.0, 2, -1) == 1.0


@pytest.mark.parametrize("cutoff", [0.0, -1e-12, math.nan])
def test_truncated_series_rejects_a_cutoff_that_is_not_positive(cutoff):
    # terms underflow to 0.0, which no cutoff at or below zero stops; NaN stops at once
    with pytest.raises(ValueError, match="term_cutoff must be positive"):
        win_prob_series_truncated(0.3, 2, term_cutoff=cutoff)


def test_closed_form_matches_truncated_series():
    for a in np.arange(0.05, 0.96, 0.05):
        for depth in (1, 2):
            for lead in (-1, 0, 1):
                if abs(lead) >= depth:
                    continue
                point = (float(a), depth, lead)
                assert abs(win_prob_series(*point) - win_prob_series_truncated(*point)) < 1e-9


def test_win_prob_series_monotone():
    grid = np.arange(0.05, 0.96, 0.05)
    for depth, lead in [(1, 0), (2, -1), (2, 0), (2, 1)]:
        values = [win_prob_series(float(a), depth, lead) for a in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    for a in grid:
        by_lead = [win_prob_series(float(a), 2, lead) for lead in (-1, 0, 1)]
        assert by_lead[0] < by_lead[1] < by_lead[2]


def test_deep_catchup_bound():
    assert deep_catchup_bound(0.5, 5) == pytest.approx(1 / 24, abs=1e-12)
    for a in np.arange(0.01, 0.5, 0.01):
        assert deep_catchup_bound(float(a), 5) < 1 / 24
    assert deep_catchup_bound(0.0, 5) == 0.0
    assert deep_catchup_bound(1e-9, 7) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        deep_catchup_bound(0.6, 5)
    with pytest.raises(ValueError):
        deep_catchup_bound(0.4, 4)
    for gap in (5.5, 6.0, True):
        with pytest.raises(ValueError, match="gap must be an integer"):
            deep_catchup_bound(0.3, gap)


def test_monte_carlo_race_matches_d1_probability():
    rng = np.random.default_rng(123)
    interval = 600.0
    for fork_power, shift in [(0.2, 0.0), (0.3, 0.1)]:
        effective = fork_power + shift
        main_rate, fork_rate = (1 - effective) / interval, effective / interval
        n = 100_000
        fork_times = rng.exponential(1 / fork_rate, n)
        main_times = rng.exponential(1 / main_rate, n)
        freq = float(np.mean(fork_times < main_times))
        assert abs(freq - race_win(fork_power + shift, 1)) < 0.01


def test_exponential_clock_means():
    rng = np.random.default_rng(7)
    draws = rng.exponential(600.0, 100_000)
    assert 594 <= float(np.mean(draws)) <= 606
    draws_half = rng.exponential(600.0 / 0.5, 100_000)
    assert math.isclose(float(np.mean(draws_half)), 1200.0, rel_tol=0.01)


@pytest.mark.parametrize("fork_power", [0.0, 0.1, 0.176, 0.3, 0.5, 0.7, 1.0])
def test_race_win_at_depth_one_from_a_tie_is_the_fork_power(fork_power):
    assert race_win(fork_power, 1, 0) == fork_power


def test_race_win_at_depth_one_is_the_fork_power_bit_for_bit():
    powers = np.random.default_rng(68).random(200_000).tolist()
    assert [race_win(p, 1) for p in powers] == powers


def _ruin(a, depth, lead):
    # the gambler's-ruin law in exact rationals
    if a == Fraction(1, 2):
        return Fraction(depth + lead, 2 * depth)
    r = (1 - a) / a
    return (1 - r ** (depth + lead)) / (1 - r ** (2 * depth))


@pytest.mark.parametrize("offset", [1e-9, -1e-9, 1e-12, -1e-12, 2**-50, -(2**-50)])
def test_race_win_keeps_its_digits_near_one_half(offset):
    # 1 − r^k cancels as r nears one; within a few roundings of the exact law
    a = 0.5 + offset
    for depth in (1, 2, 3):
        for lead in range(1 - depth, depth):
            exact = _ruin(Fraction(a), depth, lead)
            assert abs(Fraction(race_win(a, depth, lead)) / exact - 1) <= 2**-50, (depth, lead)
    assert race_win(0.500000001, 2) == pytest.approx(0.500000002, rel=1e-15)


@pytest.mark.parametrize(
    "fork_power, lead, expected",
    [(0.176, 0, 0.044), (0.3, -1, 0.047), (0.3, 0, 0.155), (0.45, 0, 0.401), (0.704, 0, 0.850)],
)
def test_race_win_matches_the_walk_law_table(fork_power, lead, expected):
    assert round(race_win(fork_power, 2, lead), 3) == expected


def test_race_win_is_the_gamblers_ruin_law_and_decided_races_are_decided():
    for a in (0.2, 0.5, 0.8):
        for depth in (1, 2, 3):
            # from each lead, the walk's next step averages its two neighbours
            for lead in range(1 - depth, depth):
                step = a * race_win(a, depth, lead + 1) + (1 - a) * race_win(a, depth, lead - 1)
                assert race_win(a, depth, lead) == pytest.approx(step, abs=1e-12)
            assert (race_win(a, depth, depth), race_win(a, depth, -depth)) == (1.0, 0.0)
            # the fork's and the main chain's chances sum to one
            assert race_win(a, depth, 0) + race_win(1 - a, depth, 0) == pytest.approx(1.0)
    assert race_win(0.5, 2, -1) == 0.25 and race_win(0.5, 4, 2) == 0.75


def test_race_win_does_not_overflow_at_large_depth():
    # r ** (2D) alone overflows a float at these depths
    for a in (0.01, 0.3, 0.49, 0.51, 0.7, 0.99):
        for lead in (-1999, 0, 1999):
            p = race_win(a, 2000, lead)
            assert 0.0 <= p <= 1.0 and math.isfinite(p)
    assert race_win(0.3, 2000, 0) == 0.0 and race_win(0.7, 2000, 0) == 1.0
    # one block short of winning, the fork climbs one step with probability a/(1−a)
    assert race_win(0.3, 2000, 1999) == pytest.approx(3 / 7)


@pytest.mark.parametrize("args, message", BAD_RACE_ARGS)
def test_race_win_rejects_bad_arguments_by_name(args, message):
    with pytest.raises(ValueError, match=message):
        race_win(*args)


def test_monte_carlo_walk_matches_race_win():
    # a seeded ±1 walk, each step +1 with the fork's power, ended at ±depth
    rng = np.random.default_rng(2007)
    n = 40_000
    for fork_power, depth, lead in [(0.3, 2, 0), (0.3, 2, -1), (0.45, 2, 0), (0.6, 3, 1)]:
        position = np.full(n, lead)
        live = np.ones(n, dtype=bool)
        while live.any():
            steps = np.where(rng.random(live.sum()) < fork_power, 1, -1)
            position[live] += steps
            live &= np.abs(position) < depth
        freq = float(np.mean(position == depth))
        p = race_win(fork_power, depth, lead)
        assert abs(freq - p) < 4 * math.sqrt(p * (1 - p) / n)


def test_the_package_exports_every_public_probability_function():
    public = [
        name
        for name, function in inspect.getmembers(probability, inspect.isfunction)
        if not name.startswith("_") and function.__module__ == probability.__name__
    ]
    assert "race_win" in public
    for name in public:
        assert getattr(undercut, name, None) is getattr(probability, name), name
