"""Miner decision logic for fee-based fork races.

Three groups of functions:

* expected-return formulas and the thresholds on the wealth ratio gamma
  (next claimable template vs. the chain head) that make forking the
  head pay better than extending it, for give-up depths 1 and 2;
  ``DEPTHS`` maps each depth to its limited and sufficient bounds, its
  rational join threshold and its decision ladder.  A ladder decides on
  gamma alone; ``undercut_template`` builds the attack block only once a
  ladder attacks;
* rational-miner shifting rules: when to move power onto a fork;
* avoidance crafting: how a miner claims fees so that its own block
  fails every attack condition a conservative adversary could check.

All functions are pure over immutable snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Callable, Collection, Iterator, Sequence

from .mempool import (
    EMPTY_TEMPLATE,
    BandwidthSetResult,
    ChainParams,
    MempoolView,
    bandwidth_set,
    check_integer,
    claim_partial,
    gamma_of_fees,
    split_equal_fee,
)


class DegenerateRaceError(ValueError):
    """No mining power behind the fork side of a race."""


@dataclass(frozen=True)
class PowerSplit:
    """Global mining-power fractions by behaviour.

    The boundary value ``undercutter == 0.5`` is accepted so the
    analytical formulas can be evaluated at their published limits;
    simulated populations stay strictly below one half.

    A split also holds the limited and sufficient bounds of each depth,
    worked out once, when it is made, by ``limited_bound_d1`` and the
    other bound functions: the decision ladders read them on every call.
    They are plain attributes, not fields, so equality, hashing, ``repr``
    and ``dataclasses.asdict`` see only the three fractions.
    """

    undercutter: float
    honest: float
    rational: float

    def __post_init__(self) -> None:
        total = self.undercutter + self.honest + self.rational
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"power fractions must sum to 1, got {total}")
        if not 0.0 <= self.undercutter <= 0.5:
            raise ValueError("undercutter power must lie in [0, 0.5]")
        if not (self.honest >= -1e-12 and self.rational >= -1e-12):
            raise ValueError("power fractions must be non-negative")
        object.__setattr__(self, "_bounds_d1", (limited_bound_d1(self), sufficient_bound_d1(self)))
        object.__setattr__(self, "_bounds_d2", (limited_bound_d2(self), sufficient_bound_d2(self)))

    @classmethod
    def of(cls, undercutter: float, honest: float) -> "PowerSplit":
        return cls(undercutter=undercutter, honest=honest, rational=1.0 - undercutter - honest)


@dataclass(frozen=True)
class ReturnEstimate:
    """Expected fee income (head-block units) from attacking vs. not."""

    attack_return: float
    baseline_return: float


# ---------------------------------------------------------------------------
# gamma thresholds
# ---------------------------------------------------------------------------


def limited_bound_d1(split: PowerSplit) -> float:
    """Below this ratio the depth-1 attack pays even with no followers."""
    return split.undercutter / (1.0 - split.undercutter)


def join_threshold_d1(split: PowerSplit) -> float:
    """Rational miners join a depth-1 fork when gamma is below this."""
    return split.honest / (1.0 - split.undercutter)


def sufficient_bound_d1(split: PowerSplit) -> float:
    """Depth-1 attack bound when the attacker needs rational followers."""
    ratio = split.undercutter / split.honest if split.honest > 0 else math.inf
    return min(join_threshold_d1(split), ratio)


def limited_bound_d2(split: PowerSplit) -> float:
    """Below this ratio the depth-2 attack pays with no followers."""
    b = split.undercutter
    return b * b / (2.0 * (1.0 - b) ** 2)


def tie_threshold_d2(split: PowerSplit) -> float:
    """Rational endpoint rule for joining a depth-2 fork in a tie.

    The expected return is a convex quadratic in the shifted fraction, so
    the optimum is an endpoint; comparing the two reduces to this gamma.
    At one-half attacker power the comparison holds for every gamma, so
    the threshold degenerates to infinity.
    """
    b, h = split.undercutter, split.honest
    if b >= 0.5:
        return math.inf
    return (h * h / (1.0 - b) + b - h) / (1.0 - 2.0 * b)


def sufficient_bound_d2(split: PowerSplit) -> float:
    """Depth-2 attack bound when rational followers are required."""
    b, h = split.undercutter, split.honest
    with_joiners = b * (1.0 - h) / (1.0 + h - b)
    return min(tie_threshold_d2(split), with_joiners)


# ---------------------------------------------------------------------------
# expected returns
# ---------------------------------------------------------------------------


def expected_returns_d1(split: PowerSplit, gamma: float, delta: float = 0.0) -> ReturnEstimate:
    """Expected attacker income for a depth-1 race, in head-block units.

    ``delta`` is the rational power expected to join the fork.  The
    baseline is what the same miner earns extending the head instead.
    """
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    effective = split.undercutter + delta
    if effective <= 0.0:
        raise DegenerateRaceError("no power behind the fork")
    if effective > 1.0 + 1e-12:
        raise ValueError("undercutter power plus shift exceeds 1")
    attack = (gamma + split.undercutter / effective) * split.undercutter * effective
    baseline = split.undercutter * gamma
    return ReturnEstimate(attack_return=attack, baseline_return=baseline)


def expected_returns_d2(split: PowerSplit, gamma: float) -> ReturnEstimate:
    """Expected attacker income for a depth-2 race, in head-block units."""
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    b = split.undercutter
    if b <= 0.0:
        raise DegenerateRaceError("no power behind the fork")
    attack = b * b * (2.0 * gamma + b) / (1.0 - b * (1.0 - b))
    baseline = 2.0 * b * gamma
    return ReturnEstimate(attack_return=attack, baseline_return=baseline)


# ---------------------------------------------------------------------------
# undercutter decisions
# ---------------------------------------------------------------------------


def undercut_decision_d1(split: PowerSplit, gamma: float, negligible: float) -> tuple[str, int, str]:
    """Depth-1 decision ladder on gamma alone: (action, branch, tag).

    ``branch`` is the 1-based position in the ladder (0 for stay); runs
    count attacks per ``tag``.  The bounds are ``limited_bound_d1`` and
    ``sufficient_bound_d1`` of the split, read as the split holds them:
    worked out once per split, not on each call.
    """
    if gamma <= negligible:
        return "undercut", 1, "negligible-mempool"
    limited, sufficient = split._bounds_d1
    if gamma < limited:
        return "undercut", 2, "limited-mempool"
    if gamma < sufficient:
        return "undercut", 3, "sufficient-mempool"
    return "stay", 0, "stay"


def undercut_decision_d2(split: PowerSplit, gamma: float, negligible: float) -> tuple[str, int, str]:
    """Depth-2 decision ladder on gamma alone: (action, branch, tag).

    Branch 2 (lone set) is not a gamma condition: ``undercut_template``
    relabels an attack at branch 3 or 4 when the pool holds one set.  The
    bounds are ``limited_bound_d2`` and ``sufficient_bound_d2`` of the
    split, worked out once per split, as for depth 1.
    """
    if gamma <= negligible:
        return "undercut", 1, "negligible-mempool"
    limited, sufficient = split._bounds_d2
    if gamma < limited:
        return "undercut", 3, "limited-mempool"
    if gamma < sufficient:
        return "undercut", 4, "sufficient-mempool"
    return "stay", 0, "stay"


@dataclass(frozen=True)
class DepthModel:
    """The gamma thresholds and the decision ladder of one give-up depth.

    ``join_threshold`` is the tie rule: rational miners join a fork tied
    at one block when gamma is below it.  ``join_label`` names it in
    ``undercut-sim check`` output.  ``lone_set_split`` marks a ladder
    whose attack on a pool of one bandwidth set splits that set in two.
    """

    limited_bound: Callable[[PowerSplit], float]
    sufficient_bound: Callable[[PowerSplit], float]
    join_threshold: Callable[[PowerSplit], float]
    join_label: str
    branches: Callable[[PowerSplit, float, float], tuple[str, int, str]]
    lone_set_split: bool


DEPTHS = {
    1: DepthModel(
        limited_bound_d1, sufficient_bound_d1, join_threshold_d1, "join", undercut_decision_d1, False
    ),
    2: DepthModel(
        limited_bound_d2, sufficient_bound_d2, tie_threshold_d2, "tie", undercut_decision_d2, True
    ),
}


def check_depth(depth: object, rule: str = "depth must be 1 or 2") -> None:
    """Reject a give-up depth that is no integer key of ``DEPTHS``, naming the value.

    ``True`` and ``2.0`` are keys by equality alone, and a run on them
    would fail at its first attack, so the integer check comes first.
    ``rule`` opens the message for a depth that is no key.
    """
    check_integer("depth", depth)
    if depth not in DEPTHS:
        raise ValueError(f"{rule}, got {depth!r}")


def one_set_left(pool: MempoolView, params: ChainParams) -> bool:
    """True when removing one bandwidth set leaves only negligible fees."""
    first = pool.packed(params.block_size_limit)
    return _lone_set(first.totals[0], pool.fee_left(range(len(first.ranks)), params.block_size_limit), params)


def _lone_set(first_fee: int, second_fee: int, params: ChainParams) -> bool:
    return first_fee > 0 and second_fee <= params.negligible_fee_threshold * first_fee


def undercut_template(
    depth: int,
    branch: int,
    tag: str,
    params: ChainParams,
    pool: MempoolView,
    head: MempoolView,
) -> tuple[str, BandwidthSetResult]:
    """The attack block of a ladder that attacked at ``branch``: (tag, block).

    A drained mempool (branch 1) means the attack block takes the
    lightest of ``depth + 1`` equal-fee parts of the head, so the fork
    itself cannot be undercut.  Otherwise the attack block is the current
    bandwidth set, leaving the head's fees on the table; at a depth with
    ``lone_set_split``, a pool of one non-negligible set is the lone-set
    branch instead, and the block takes the lighter half of that set.
    Either part is the first that ``split_equal_fee`` returns.

    ``pool`` and the attacked ``head`` are views over one table, and the
    block is a template of one of them.  A split orders its input by fee
    and id, so the parts do not depend on the order of ``head``.
    """
    if branch == 1:
        return tag, head.template(split_equal_fee(head, depth + 1, params)[0])
    if DEPTHS[depth].lone_set_split and one_set_left(pool, params):
        first = pool.packed(params.block_size_limit)
        return "lone-set", first.template(split_equal_fee(first, 2, params)[0])
    return tag, bandwidth_set(pool, params)


# ---------------------------------------------------------------------------
# rational shifting
# ---------------------------------------------------------------------------


def rational_shift_general(
    lead: int,
    fork_power: float,
    depth: int,
    claimable_main: float,
    claimable_fork: float,
    owned_main: float,
    owned_fork: float,
    movable: float,
) -> float:
    """Fraction of the ``movable`` rational power to shift onto the fork: 1.0 or 0.0.

    ``lead`` is fork height minus main height and ``fork_power`` the
    power mining the fork, oriented so the deciding miner sits on the
    main side.
    Claimable fees must already be capped at what fits in the blocks
    each side still needs to win.  The objective weighs fees already
    owned and fees still claimable on each side by rough win
    probabilities (power raised to the remaining block count) and by the
    miner's power share on that side.  Every term is a non-negative
    product of linear factors in the shifted fraction that all grow, or
    all shrink, as it grows, so with non-negative fees the objective is
    convex and its maximum lies at an endpoint.  Moving wins only if it
    beats staying; a tie stays.
    """
    check_integer("lead", lead)
    check_integer("depth", depth)
    if abs(lead) >= depth:
        raise ValueError("race already decided: |lead| >= depth")
    movable = min(movable, 1.0 - fork_power)

    def objective(x: float) -> float:
        on_fork = fork_power + x * movable
        on_main = 1.0 - on_fork
        p_fork = on_fork ** (depth - lead)
        p_main = on_main ** (depth + lead)
        stay_share = (1.0 - x) * movable / on_main if on_main > 0.0 else 0.0
        move_share = x * movable / on_fork if on_fork > 0.0 else 0.0
        return (
            owned_main * p_main
            + owned_fork * p_fork
            + claimable_main * stay_share * p_main
            + claimable_fork * move_share * p_fork
        )

    return 1.0 if objective(1.0) > objective(0.0) else 0.0


# ---------------------------------------------------------------------------
# avoidance crafting
# ---------------------------------------------------------------------------


# Adversary power the avoidance defence is sized against: one half is
# the conservative worst case, the most power an undercutter can hold.
AVOIDANCE_ADVERSARY_POWER = 0.5

AVOIDANCE_MODES = ("exact", "experimental", "strict")


def required_gamma(split: PowerSplit, depth: int, negligible: float) -> float:
    """Smallest post-claim gamma that defeats every attack condition."""
    model = DEPTHS[depth]
    return max(model.limited_bound(split), model.sufficient_bound(split), negligible)


def craft_avoidance_block(
    pool: MempoolView,
    params: ChainParams,
    depth: int = 1,
    assumed_honest_power: float = 0.0,
    mode: str = "exact",
    strict_factor: float = 0.8,
) -> BandwidthSetResult:
    """Craft a block that is not worth undercutting.

    ``exact`` searches for the largest claim whose post-claim state
    (recomputed residual bandwidth set against the claimed fee) makes
    every decision ladder stay for an adversary of
    ``AVOIDANCE_ADVERSARY_POWER``.  Its candidates are the prefixes and
    suffixes of the first bandwidth set B (plus, at depth 2, the lighter
    half of a lone set), tried richest first, and the search stops at the
    first claim the ladder lets stand.  The ladder stays on an
    upward-closed set of gammas, so a claim whose gamma on an upper bound
    of its fee left attacks needs no exact value; the search puts a claim
    to a pack only when the ladder stays on its bounds.

    * Bound A is the pool's fee less the claim's.  It is exact when the
      pool less the claim fits one block, as greedy packing then takes
      all of it.  Its gamma falls as the claim's fee grows, so the claims
      the ladder attacks on it are the richest ones.  A bisection over
      B's prefix sums, and one over the few suffixes it leaves open, start
      the walk past all of them in O(log |B|) ladder calls, and the walk
      yields only claims that bound A lets stand: a claim whose rest fits
      one block is accepted as it comes.
    * Bound B, for a prefix or a suffix whose rest overflows a block, is
      the fractional-knapsack fill of the pool less the claim
      (``MempoolView.fee_bound``): built once per block, on the first
      such claim, in O(pool), then one binary search per claim.  Only a
      claim that it, too, lets stand, and the lone-set part, take one
      greedy pack of the pool less the claim (``MempoolView.fee_left``).

    B is the pool's memoized greedy pack, and the pool's fee and size are
    its view's ``totals``, which a chain keeps, so a block costs O(|B|)
    for the prefix sums over B's ``column`` lists, O(log |B|) ladder
    calls, one pack for a memo miss, one for the second set's fee at a
    depth with ``lone_set_split``, and, over a backlog, bound B's prefix
    sums and one bound and a ladder call per claim the walk yields.  On a
    backlog the bounds leave about one pack a block.  The accepted claim
    is B's template at the claimed positions, given the fee and size its
    prefix sums (or, for the lone-set half, the same column lists) hold,
    so nothing is summed twice.

    ``experimental`` reproduces the cheaper procedure used in the profit
    experiments: derive a target fee from the visible fees in the first
    two bandwidth sets and claim it from the current set without
    recomputing what the leftovers repack into, which can leave the
    condition satisfiable and hands the attacker a small edge.  It
    makes one pack for the second set's fee, and ``claim_partial`` claims
    the target from B, the pool's memoized pack, by one first fit by fee.

    ``strict`` scales the experimental target down by ``strict_factor``.

    Whatever the mode, the claim never exceeds the bandwidth-set fee,
    and a pool with nothing claimable yields the empty template (wait).
    """
    check_depth(depth)
    if mode not in AVOIDANCE_MODES:
        raise ValueError(f"unknown avoidance mode {mode!r}")
    # the assumed adversary plus assumed honest mass cannot exceed 1
    split = _avoidance_split(min(assumed_honest_power, 1.0 - AVOIDANCE_ADVERSARY_POWER))
    limit = params.block_size_limit
    first = pool.packed(limit)
    first_fee = first.totals[0]
    if first_fee == 0:
        return EMPTY_TEMPLATE
    # The second set's fee is read only by the lone-set test and the
    # experimental target, so exact avoidance at depth 1 skips its scan.
    lone_set_split = DEPTHS[depth].lone_set_split
    residual = pool.fee_left(range(len(first.ranks)), limit) if lone_set_split or mode != "exact" else 0
    lone = lone_set_split and _lone_set(first_fee, residual, params)

    if mode == "exact":
        # A candidate is (fee, size, claimed): ``claimed`` holds first-set
        # positions in claim order, a range for a prefix or a suffix and
        # a list for the lone-set part, the lighter half of a split.
        fees, sizes = first.column("fees"), first.column("sizes")
        fee_at = [0, *accumulate(fees)]
        size_at = [0, *accumulate(sizes)]
        lone_claim = None
        if lone:
            part = split_equal_fee(first, 2, params)[0]
            lone_claim = (sum(map(fees.__getitem__, part)), sum(map(sizes.__getitem__, part)), part)
        pool_fee, pool_size = pool.totals
        negligible = params.negligible_fee_threshold

        def stays(left: int, fee: int) -> bool:
            # One ladder decides for both depths: at adversary power 0.5 the
            # depth-1 bounds are limited 1 and sufficient at most 1, every
            # depth-2 bound lies at or below 1, and the negligible test is
            # shared.  It stays on an upward-closed set of gammas, so a claim
            # it attacks on a bound of its fee left it attacks on that fee.
            return undercut_decision_d1(split, gamma_of_fees(left, fee), negligible)[0] == "stay"

        # take the richest claim that the assumed adversary would not fork;
        # the walk yields only claims that bound A lets stand
        bound = None
        for fee, size, claimed in _claims_richest_first(fee_at, size_at, lone_claim, lambda f: stays(pool_fee - f, f)):
            if pool_size - size > limit:
                if isinstance(claimed, range):
                    bound = bound or pool.fee_bound(limit)
                    if not stays(bound(claimed.start, claimed.stop), fee):
                        continue
                if not stays(pool.fee_left(claimed, limit), fee):
                    continue
            # the prefix sums hold its fee and size; summing them again in
            # template costs a few percent of a small pool's crafting
            return first.template(claimed, (fee, size))
        return EMPTY_TEMPLATE

    if lone:
        target = first_fee / 2.0
    else:
        visible = first_fee + residual
        target = visible / (1.0 + required_gamma(split, depth, params.negligible_fee_threshold))
    if mode == "strict":
        target *= strict_factor
    target = min(target, float(first_fee))
    return claim_partial(pool, int(target), params)


@cache
def _avoidance_split(honest: float) -> PowerSplit:
    # the adversary's split, built once per assumed honest power (fixed for a run)
    return PowerSplit.of(AVOIDANCE_ADVERSARY_POWER, honest)


def _claims_richest_first(
    fee_at: Sequence[int],
    size_at: Sequence[int],
    lone: tuple[int, int, Collection[int]] | None,
    safe: Callable[[int], bool],
) -> Iterator[tuple[int, int, Collection[int]]]:
    # Exact avoidance's candidate claims, richest first, as (fee, size,
    # claimed): every prefix and every proper suffix of the first set, plus
    # the lone-set part if there is one, less every claim whose fee is not
    # ``safe``.  Prefixes keep the densest transactions, suffixes claim
    # around an indivisible wealthy one.  ``fee_at`` and ``size_at`` are
    # the set's prefix sums.  The prefix fees (longest first) and the
    # suffix fees (longest first) are both non-increasing, so two pointers
    # merge them lazily; on a fee tie the lone-set part comes first, then
    # the prefix, then the suffix.
    #
    # ``safe`` holds on a downward-closed set of fees, so the claims it
    # rejects lead each sequence, and the pointers start past them.  One
    # bisection over the prefix sums finds k, the longest safe prefix: every
    # fee up to fee_at[k] is safe, and every fee from fee_at[k + 1] up is
    # not.  Only the suffixes whose fees fall between are left open, found
    # by plain bisection.  The richest of them is asked first: when B's
    # first transaction is a whale that no safe prefix can hold, no suffix
    # holds it either, and that one call usually finds them all safe.
    # Otherwise a bisection settles the rest.  So the pointers cost
    # O(log n) calls of ``safe``, and every claim the walk yields is safe.
    n = len(fee_at) - 1
    total = fee_at[n]
    k = bisect_left(fee_at, True, 1, n + 1, key=lambda fee: not safe(fee)) - 1  # the next prefix is range(k)
    unsafe = fee_at[k + 1] if k < n else math.inf
    lo = bisect_right(fee_at, total - unsafe, 1, n)  # suffixes before lo are unsafe
    hi = bisect_left(fee_at, total - fee_at[k], lo, n) if k else n  # and from hi on safe
    j = lo  # the next suffix is range(j, n)
    if lo < hi and not safe(total - fee_at[lo]):
        j = bisect_left(fee_at, True, lo + 1, hi, key=lambda fee: safe(total - fee))
    if lone is not None and not safe(lone[0]):
        lone = None
    while k > 0 or j < n:
        prefix = fee_at[k] if k > 0 else -1
        suffix = total - fee_at[j] if j < n else -1
        if lone is not None and lone[0] >= max(prefix, suffix):
            yield lone
            lone = None
        elif prefix >= suffix:
            yield prefix, size_at[k], range(k)
            k -= 1
        else:
            yield suffix, size_at[n] - size_at[j], range(j, n)
            j += 1
    if lone is not None:
        yield lone
