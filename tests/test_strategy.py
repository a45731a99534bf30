import ast
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undercut import strategy
from undercut.mempool import (
    EMPTY_TEMPLATE,
    ChainParams,
    MempoolView,
    bandwidth_set,
    gamma_of_fees,
    gamma_ratio,
    split_equal_fee,
)
from undercut.strategy import (
    AVOIDANCE_ADVERSARY_POWER,
    DEPTHS,
    DegenerateRaceError,
    PowerSplit,
    craft_avoidance_block,
    expected_returns_d1,
    expected_returns_d2,
    join_threshold_d1,
    limited_bound_d1,
    limited_bound_d2,
    one_set_left,
    rational_shift_general,
    required_gamma,
    sufficient_bound_d1,
    sufficient_bound_d2,
    tie_threshold_d2,
    undercut_decision_d1,
    undercut_decision_d2,
    undercut_template,
)

from conftest import (
    assert_carries_its_ranks,
    full_scan_pack,
    pending_reads,
    pool_of,
    ranked_view,
    scan_shift,
    shift_objective,
    template_of,
    tx,
)


def split_of(bu, bh):
    return PowerSplit.of(bu, bh)


def test_power_split_validation():
    with pytest.raises(ValueError):
        PowerSplit(undercutter=0.55, honest=0.2, rational=0.25)
    with pytest.raises(ValueError):
        PowerSplit(undercutter=0.2, honest=0.2, rational=0.2)
    boundary = split_of(0.5, 0.2)  # analysis boundary is allowed
    assert boundary.rational == pytest.approx(0.3)


def test_expected_returns_d1_examples():
    r = expected_returns_d1(split_of(0.2, 0.1), 0.25)
    assert r.attack_return == pytest.approx(0.05)
    assert r.baseline_return == pytest.approx(0.05)
    r = expected_returns_d1(split_of(0.5, 0.2), 1.0)
    assert r.attack_return == pytest.approx(0.5) and r.baseline_return == pytest.approx(0.5)
    r = expected_returns_d1(split_of(0.3, 0.1), 0.0)
    assert r.baseline_return == 0.0
    assert r.attack_return == pytest.approx(0.3**2)
    with pytest.raises(DegenerateRaceError):
        expected_returns_d1(split_of(0.0, 0.5), 0.2)


def test_expected_returns_d2_examples():
    r = expected_returns_d2(split_of(0.5, 0.2), 0.5)
    assert r.attack_return == pytest.approx(0.5) and r.baseline_return == pytest.approx(0.5)
    r = expected_returns_d2(split_of(0.2, 0.1), 0.03)
    assert r.attack_return > r.baseline_return
    assert r.attack_return == pytest.approx(r.baseline_return, rel=0.05)
    r = expected_returns_d2(split_of(0.2, 0.1), 0.0)
    assert r.baseline_return == 0.0 < r.attack_return


def test_thresholds():
    assert limited_bound_d1(split_of(0.2, 0.1)) == pytest.approx(0.25)
    assert limited_bound_d2(split_of(0.5, 0.2)) == pytest.approx(0.5)
    assert limited_bound_d2(split_of(0.3, 0.2)) == pytest.approx(0.09 / 0.98)
    assert sufficient_bound_d1(split_of(0.2, 0.5)) == pytest.approx(0.4)
    assert join_threshold_d1(split_of(0.176, 0.5)) == pytest.approx(0.5 / 0.824)
    assert tie_threshold_d2(split_of(0.5, 0.1)) == math.inf
    assert tie_threshold_d2(split_of(0.3, 0.5)) == pytest.approx((0.25 / 0.7 + 0.3 - 0.5) / 0.4)
    assert sufficient_bound_d2(split_of(0.45, 0.1)) == pytest.approx(0.405 / 0.65)


def test_undercut_branches_d1_examples():
    assert undercut_decision_d1(split_of(0.2, 0.1), 0.2, 0.01)[0:2] == ("undercut", 2)
    assert undercut_decision_d1(split_of(0.2, 0.5), 0.3, 0.01)[0:2] == ("undercut", 3)
    assert undercut_decision_d1(split_of(0.2, 0.5), 0.5, 0.01)[0] == "stay"
    assert undercut_decision_d1(split_of(0.2, 0.5), 0.005, 0.01)[1] == 1


def test_undercut_branches_d2_examples():
    assert undercut_decision_d2(split_of(0.3, 0.2), 0.05, 0.01)[0:2] == ("undercut", 3)
    assert undercut_decision_d2(split_of(0.5, 0.2), 0.4, 0.01)[0:2] == ("undercut", 3)
    assert undercut_decision_d2(split_of(0.45, 0.1), 0.6, 0.01)[0:2] == ("undercut", 4)
    assert undercut_decision_d2(split_of(0.2, 0.3), 0.5, 0.01)[0] == "stay"
    # at one-half power the first sufficient-branch term degenerates and
    # only the second one binds
    assert undercut_decision_d2(split_of(0.5, 0.1), 0.6, 0.01)[0:2] == ("undercut", 4)
    assert undercut_decision_d2(split_of(0.5, 0.1), 0.8, 0.01)[0] == "stay"


def test_undercut_decision_templates():
    params = ChainParams(block_size_limit=10, block_interval=600)

    def attack(depth, split, gamma, pool, head):
        decide = undercut_decision_d1 if depth == 1 else undercut_decision_d2
        action, branch, tag = decide(split, gamma, params.negligible_fee_threshold)
        assert action == "undercut"
        return (branch, *undercut_template(depth, branch, tag, params, pool, head))

    head = pool_of(tx("h1", 1, 6), tx("h2", 1, 4))
    pool = pool_of(tx("p1", 1, 1))
    branch, _, template = attack(1, split_of(0.2, 0.3), 0.0, pool, head)
    assert branch == 1
    assert template.total_fee == 4  # lighter half of the head
    branch, _, template = attack(1, split_of(0.2, 0.3), 0.2, pool, head)
    assert branch == 2 and template.tx_ids == ("p1",)

    head3 = pool_of(tx("h1", 1, 5), tx("h2", 1, 4), tx("h3", 1, 3))
    branch, _, template = attack(2, split_of(0.3, 0.3), 0.0, pool_of(), head3)
    assert branch == 1
    assert template.total_fee == 3  # lightest third of the head

    lone_pool = pool_of(tx("a", 1, 6), tx("b", 1, 6))
    gamma = gamma_ratio(lone_pool, 100, params)
    _, tag, template = attack(2, split_of(0.45, 0.1), gamma, lone_pool, head)
    assert tag == "lone-set"
    assert template.total_fee == 6  # half of the only set left
    # gamma 0.6 sits at branch 4 on the ladder; a lone set relabels it too
    branch, tag, template = attack(2, split_of(0.45, 0.1), 0.6, lone_pool, head)
    assert (branch, tag, template.total_fee) == (4, "lone-set", 6)

    # two non-negligible sets: branches 3 and 4 claim the bandwidth set
    two_sets = pool_of(*(tx(f"s{i}", 5, 10 - i) for i in range(4)))
    assert not one_set_left(two_sets, params)
    for split, gamma, expected_branch, expected_tag in (
        (split_of(0.3, 0.2), 0.05, 3, "limited-mempool"),
        (split_of(0.45, 0.1), 0.6, 4, "sufficient-mempool"),
    ):
        branch, tag, template = attack(2, split, gamma, two_sets, head)
        assert (branch, tag) == (expected_branch, expected_tag)
        assert template == bandwidth_set(two_sets, params)


def test_rational_join_d1_examples():
    assert 0.5 < join_threshold_d1(split_of(0.176, 0.5))
    assert 0.0 < join_threshold_d1(split_of(0.2, 0.3))
    weak_honest = split_of(0.3, 0.1)
    assert not limited_bound_d1(weak_honest) < join_threshold_d1(weak_honest)


def test_rational_shift_d2_tie_examples():
    assert 100.0 < tie_threshold_d2(split_of(0.5, 0.2))
    assert not 0.9 < tie_threshold_d2(split_of(0.3, 0.5))
    assert 0.0 < tie_threshold_d2(split_of(0.3, 0.5))


def test_depth_table_holds_each_depths_model():
    split = split_of(0.3, 0.2)
    for depth, (limited, sufficient, join, label) in {
        1: (limited_bound_d1, sufficient_bound_d1, join_threshold_d1, "join"),
        2: (limited_bound_d2, sufficient_bound_d2, tie_threshold_d2, "tie"),
    }.items():
        model = DEPTHS[depth]
        assert model.limited_bound(split) == limited(split)
        assert model.sufficient_bound(split) == sufficient(split)
        assert model.join_threshold(split) == join(split)
        assert model.join_label == label
        assert required_gamma(split, depth, 0.01) == max(limited(split), sufficient(split), 0.01)
    assert DEPTHS[1].branches(split, 0.1, 0.01) == undercut_decision_d1(split, 0.1, 0.01)
    assert DEPTHS[2].branches(split, 0.1, 0.01) == undercut_decision_d2(split, 0.1, 0.01)
    assert not DEPTHS[1].lone_set_split and DEPTHS[2].lone_set_split


def _tie_objective_endpoint(split, gamma, x):
    # independent evaluation of the depth-2 tie expected-return curve
    bu, bh, br = split.undercutter, split.honest, split.rational
    pm = bu * (1 - bu - x * br) ** 2
    pf = bu * (bu + x * br) * (bu + x * br + bh)
    value = br / (br + bh) * pm if br + bh > 0 else 0.0
    if bh + (1 - x) * br > 0:
        value += (1 - x) * br / (bh + (1 - x) * br) * 2 * gamma * pm
    if x * br + bu > 0:
        value += x * br / (x * br + bu) * gamma * pf
    value += x * br / (x * br + bu + bh) * pf
    return value


def test_tie_rule_matches_endpoint_objective():
    rng = np.random.default_rng(21)
    for _ in range(500):
        bu = float(rng.uniform(0.05, 0.5))
        bh = float(rng.uniform(0.0, 1.0 - bu - 0.05))
        gamma = float(rng.uniform(0.0, 1.2))
        split = split_of(bu, bh)
        expected = _tie_objective_endpoint(split, gamma, 0.0) < _tie_objective_endpoint(
            split, gamma, 1.0
        )
        assert (gamma < tie_threshold_d2(split)) == expected


def test_decision_matches_return_formulas_d1():
    # attack fires exactly when the expected-return gap is positive, with
    # the shift given by the rational join rule
    rng = np.random.default_rng(33)
    for _ in range(1000):
        bu = float(rng.uniform(0.05, 0.499))
        bh = float(rng.uniform(0.0, 1.0 - bu - 0.01))
        gamma = float(rng.uniform(0.0, 1.2))
        split = split_of(bu, bh)
        action, _, _ = undercut_decision_d1(split, gamma, 0.01)
        delta = split.rational if gamma < join_threshold_d1(split) else 0.0
        estimate = expected_returns_d1(split, gamma, delta)
        assert (action == "undercut") == (estimate.attack_return > estimate.baseline_return)


def test_shift_general_trivial_and_dominant_cases():
    assert rational_shift_general(0, 0.3, 2, 0, 0, 0, 0, 0.5) == 0.0
    assert rational_shift_general(0, 0.3, 2, 10.0, 10.0, 0.0, 500.0, 0.5) == 1.0
    for lead, depth in ((1, 1), (-1, 1), (2, 2), (-2, 2)):
        with pytest.raises(ValueError, match="race already decided"):
            rational_shift_general(lead, 0.3, depth, 0, 0, 0, 0, 0.5)


@pytest.mark.parametrize(
    "name, value",
    [
        ("lead", 0.5),  # returned 1.0
        ("lead", True),
        ("depth", 2.0),
        ("depth", True),
    ],
)
def test_shift_general_rejects_a_lead_depth_or_grid_that_is_no_integer(name, value):
    args = {"lead": 0, "depth": 2, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        rational_shift_general(args["lead"], 0.3, args["depth"], 0, 0, 0, 0, 0.5)


@st.composite
def shift_cases(draw):
    depth = draw(st.integers(1, 3))
    lead = draw(st.integers(1 - depth, depth - 1))
    fork_power = draw(st.floats(0.0, 1.0))
    fee = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_subnormal=False))
    fees = [draw(fee) for _ in range(4)]
    movable = draw(st.one_of(st.just(1.0 - fork_power), st.floats(0.0, 1.0)))
    return (lead, fork_power, depth, *fees, movable)


@settings(max_examples=1000, deadline=None)
@given(shift_cases())
def test_shift_general_is_the_best_point_of_a_scan(args):
    # the objective is convex in the shifted fraction, so no grid point beats both endpoints
    x, best = rational_shift_general(*args), scan_shift(*args)
    if best in (0.0, 1.0):
        assert x == best
    else:
        # only rounding: a flat objective, such as 3(1 - a) + 3a for equal owned fees at
        # depth 1, reads a few ulps of the fees above its endpoints between them
        objective = shift_objective(*args)
        assert objective(best) <= objective(x) + 1e-12 * sum(args[3:7])


def test_shift_general_reduces_to_join_rule_at_depth_one():
    rng = np.random.default_rng(55)
    for _ in range(300):
        bu = float(rng.uniform(0.05, 0.499))
        bh = float(rng.uniform(0.01, 1.0 - bu - 0.02))
        gamma = float(rng.uniform(0.0, 1.2))
        split = split_of(bu, bh)
        x = rational_shift_general(
            0,
            bu,
            1,
            claimable_main=gamma,
            claimable_fork=1.0,
            owned_main=split.rational / (1.0 - bu),
            owned_fork=0.0,
            movable=split.rational,
        )
        assert x == (1.0 if gamma < join_threshold_d1(split) else 0.0)


def test_one_set_left():
    params = ChainParams(block_size_limit=4, block_interval=600)
    assert one_set_left(pool_of(tx("a", 2, 50), tx("b", 2, 40)), params)
    assert not one_set_left(pool_of(tx("a", 2, 50), tx("b", 2, 40), tx("c", 2, 30)), params)
    assert not one_set_left(pool_of(), params)


def test_craft_avoidance_wait_on_empty_pool(params):
    assert craft_avoidance_block(pool_of(), params).total_fee == 0
    zero = pool_of(tx("a", 1, 0))
    assert craft_avoidance_block(zero, params).total_fee == 0
    with pytest.raises(ValueError, match="unknown avoidance mode"):
        craft_avoidance_block(zero, params, mode="bogus")
    with pytest.raises(ValueError, match="depth"):
        craft_avoidance_block(zero, params, depth=3)


@pytest.mark.parametrize("depth", [True, 2.0, 3])
def test_craft_avoidance_rejects_a_depth_that_is_not_the_integer_1_or_2(params, depth):
    pool = pool_of(tx("a", 1, 5))
    with pytest.raises(ValueError, match=rf"^depth must be (an integer|1 or 2), got {re.escape(repr(depth))}$"):
        craft_avoidance_block(pool, params, depth=depth)


def test_craft_avoidance_lone_set_halves():
    params = ChainParams(block_size_limit=10, block_interval=600)
    pool = pool_of(tx("a", 1, 5), tx("b", 1, 5), tx("c", 1, 5), tx("d", 1, 5))
    claim = craft_avoidance_block(pool, params, depth=2, mode="exact")
    assert claim.total_fee == 10  # one of two equal-fee halves


def test_craft_avoidance_experimental_matches_visible_fee_rule():
    # two one-block sets of fees 4 and 2; conservative adversary needs a
    # post-claim ratio of one, so the target claim is half the visible 6
    params = ChainParams(block_size_limit=3, block_interval=600)
    pool = pool_of(
        tx("a", 1, 2), tx("b", 1, 1), tx("c", 1, 1), tx("d", 1, 1), tx("e", 1, 1)
    )
    assert bandwidth_set(pool, params).total_fee == 4
    claim = craft_avoidance_block(pool, params, depth=1, mode="experimental")
    assert claim.total_fee == 3


def test_craft_avoidance_strict_scales_experimental_claim():
    params = ChainParams(block_size_limit=10, block_interval=600)
    txs = [tx(f"a{i}", 1, 1) for i in range(10)] + [tx(f"b{i}", 1, 1) for i in range(6)]
    pool = pool_of(*txs)
    experimental = craft_avoidance_block(pool, params, depth=1, mode="experimental")
    strict = craft_avoidance_block(pool, params, depth=1, mode="strict", strict_factor=0.8)
    assert experimental.total_fee == 8
    assert strict.total_fee == 6  # floor of 0.8 * 8


def test_craft_avoidance_exact_defeats_both_decision_ladders():
    rng = np.random.default_rng(77)
    params = ChainParams(block_size_limit=20, block_interval=600)
    split = split_of(0.5, 0.3)

    def both_stay(pool, claim_ids, claim_fee):
        gamma = gamma_ratio(pool.without(claim_ids), claim_fee, params)
        return (
            undercut_decision_d1(split, gamma, params.negligible_fee_threshold)[0] == "stay"
            and undercut_decision_d2(split, gamma, params.negligible_fee_threshold)[0] == "stay"
        )

    for trial in range(200):
        n = int(rng.integers(1, 13))
        txs = [
            tx(f"t{trial}_{i}", int(rng.integers(1, 6)), int(rng.integers(1, 1000)))
            for i in range(n)
        ]
        pool = pool_of(*txs)
        depth = 1 if trial % 2 else 2
        claim = craft_avoidance_block(pool, params, depth=depth, assumed_honest_power=0.3)
        assert both_stay(pool, claim.tx_ids, claim.total_fee)
        # the claim is the richest one that passes: no richer prefix or
        # suffix of the first bandwidth set makes both ladders stay
        first = pool.packed(params.block_size_limit).pending
        for part in [first[:k] for k in range(1, len(first) + 1)] + [first[j:] for j in range(len(first))]:
            fee = sum(t.fee for t in part)
            if fee > claim.total_fee:
                assert not both_stay(pool, [t.id for t in part], fee)


def test_depth_one_stay_implies_depth_two_stay_against_the_avoidance_adversary():
    # exact avoidance asks only the depth-1 ladder; this is why that is enough
    for honest in np.linspace(0.0, 0.5, 51):
        split = PowerSplit.of(AVOIDANCE_ADVERSARY_POWER, float(honest))
        for negligible in (0.0, 0.01, 0.5, 0.99):
            assert undercut_decision_d1(split, 1.0, negligible)[0] == "stay"
            grid = [negligible, 0.5, 1.0, math.inf] + [float(g) for g in np.linspace(0.0, 3.0, 301)]
            for gamma in grid:
                if undercut_decision_d1(split, gamma, negligible)[0] == "stay":
                    assert undercut_decision_d2(split, gamma, negligible)[0] == "stay", (honest, gamma)
                    assert gamma >= 1.0


def test_craft_avoidance_never_exceeds_bandwidth_set_fee():
    rng = np.random.default_rng(99)
    params = ChainParams(block_size_limit=15, block_interval=600)
    for trial in range(150):
        n = int(rng.integers(1, 12))
        txs = [
            tx(f"t{trial}_{i}", int(rng.integers(1, 6)), int(rng.integers(0, 500)))
            for i in range(n)
        ]
        pool = pool_of(*txs)
        cap = bandwidth_set(pool, params).total_fee
        for mode in ("exact", "experimental", "strict"):
            claim = craft_avoidance_block(pool, params, depth=2, mode=mode)
            assert claim.total_fee <= cap
            assert claim.total_size <= params.block_size_limit


@pytest.fixture
def params():
    return ChainParams(block_size_limit=100, block_interval=600.0)


def reference_exact_claim(pool, params, depth, assumed_honest_power, tried=None):
    """Exact avoidance the direct way: all candidates sorted up front, and
    each copies the pool with ``without`` and repacks it through
    ``gamma_ratio``.  ``tried``, if given, collects the fee of each claim
    put to the ladder."""
    honest = min(assumed_honest_power, 1.0 - AVOIDANCE_ADVERSARY_POWER)
    split = PowerSplit.of(AVOIDANCE_ADVERSARY_POWER, honest)

    def fee(txs):
        return sum(t.fee for t in txs)

    pack = pool.packed(params.block_size_limit)
    first = pack.pending
    second = pool.without(t.id for t in first).packed(params.block_size_limit).pending
    if fee(first) == 0:
        return EMPTY_TEMPLATE
    candidates = []
    if DEPTHS[depth].lone_set_split and fee(second) <= params.negligible_fee_threshold * fee(first):
        halves = [[first[i] for i in part] for part in split_equal_fee(pack, 2, params)]
        candidates.append(min(halves, key=fee))
    candidates.extend(first[:k] for k in range(len(first), 0, -1))
    candidates.extend(first[j:] for j in range(1, len(first)))
    candidates.sort(key=lambda c: -fee(c))
    for claim in candidates:
        gamma = gamma_ratio(pool.without(t.id for t in claim), fee(claim), params)
        if tried is not None:
            tried.append(fee(claim))
        if undercut_decision_d1(split, gamma, params.negligible_fee_threshold)[0] == "stay":
            return template_of(pool, claim)
    return EMPTY_TEMPLATE


@st.composite
def avoidance_cases(draw):
    """A pool, chain params sized so it fits one block or overflows it,
    a depth and an assumed honest power."""
    n = draw(st.integers(0, 30))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    fees = draw(st.lists(st.one_of(st.just(0), st.integers(1, 1000)), min_size=n, max_size=n))
    pool = pool_of(*(tx(f"t{i:02d}", s, f) for i, (s, f) in enumerate(zip(sizes, fees))))
    total = sum(sizes)
    if draw(st.booleans()):
        limit = total + draw(st.integers(0, 5))  # the pool fits one block
    else:
        limit = total // draw(st.integers(2, 5))  # it overflows one
    params = ChainParams(block_size_limit=max(1, limit), block_interval=600)
    return pool, params, draw(st.sampled_from((1, 2))), draw(st.floats(0.0, 0.5))


@settings(max_examples=300, deadline=None)
@given(avoidance_cases())
def test_craft_avoidance_exact_matches_pool_copying_reference(case):
    pool, params, depth, honest = case
    # The search skips every claim that a bound on its fee left already
    # rejects, so it asks the ladder about other claims than the
    # reference's walk, and never skips the claim the walk accepts.  It
    # packs only claims the walk tries, in the walk's order.
    fees, packed, tried = [], [], []
    column = pool.packed(params.block_size_limit).column("fees")
    fee_left = MempoolView.fee_left

    def gamma(left, fee):
        fees.append(fee)
        return gamma_of_fees(left, fee)

    def pack(view, claimed, budget):
        if fees:  # at depth 2 the second set's fee is packed before the search
            packed.append(sum(column[i] for i in claimed))
        return fee_left(view, claimed, budget)

    with mock.patch("undercut.strategy.gamma_of_fees", gamma), mock.patch.object(MempoolView, "fee_left", pack):
        claim = craft_avoidance_block(pool, params, depth=depth, assumed_honest_power=honest, mode="exact")
    assert claim == reference_exact_claim(pool, params, depth, honest, tried)
    walk = iter(tried)
    assert all(fee in walk for fee in packed)  # a subsequence, in the walk's order


def test_craft_avoidance_exact_searches_a_pool_that_fits_one_block_by_bisection():
    # every claim's fee left is the pool's less the claim, so two
    # bisections find the answer and the walk accepts the first claim
    rng = np.random.default_rng(5)
    txs = [tx(f"t{i:04d}", int(rng.integers(1, 10)), int(rng.integers(0, 1000))) for i in range(1000)]
    pool = pool_of(*txs)
    params = ChainParams(block_size_limit=sum(t.size for t in txs), block_interval=600)
    for depth in (1, 2):
        calls = []

        def ladder(*args):
            calls.append(args)
            return undercut_decision_d1(*args)

        with mock.patch("undercut.strategy.undercut_decision_d1", ladder):
            claim = craft_avoidance_block(pool, params, depth=depth)
        assert claim == reference_exact_claim(pool, params, depth, 0.0)
        assert 0 < claim.total_fee and len(calls) <= 2 * math.ceil(math.log2(1001)) + 2


def test_craft_avoidance_exact_at_the_whole_pool_boundary():
    # first set t1, t2; claiming t1 alone leaves exactly one block, which
    # greedy packs whole: residual 10 against a claim of 5 is safe, while
    # the whole first set leaves 5 against 10
    params = ChainParams(block_size_limit=10, block_interval=600)
    pool = pool_of(tx("t1", 5, 5), tx("t2", 5, 5), tx("t3", 5, 5))
    claim = craft_avoidance_block(pool, params, depth=1, mode="exact")
    assert claim == template_of(pool, pool.pending[:1])
    assert sum(t.size for t in pool.pending) - claim.total_size == params.block_size_limit
    assert claim == reference_exact_claim(pool, params, 1, 0.0)


@settings(max_examples=200, deadline=None)
@given(avoidance_cases(), st.data())
def test_fee_left_reads_the_repacked_pool_fee(case, data):
    pool, params, _, _ = case
    pack = pool.packed(params.block_size_limit)
    first = pack.pending
    lo = data.draw(st.integers(0, len(first)))
    hi = data.draw(st.integers(lo, len(first)))
    # a drawn span of the first set, and the whole set (the second set's fee)
    for span in (range(lo, hi), range(len(first))):
        left = pool.fee_left(span, params.block_size_limit)
        assert left == bandwidth_set(pool.without(first[i].id for i in span), params).total_fee


@st.composite
def crowded_heads(draw):
    """A view and a size budget.

    Fee-dense transactions rank first, and all but one of them are too
    large to share the budget, so their skips can push a greedy scan past
    the ``budget // size_floor + 1`` positions of the pool's head.
    """
    budget = draw(st.integers(1, 12))
    dense = draw(st.lists(st.integers(budget // 2 + 1, budget + 6), max_size=budget + 6))
    sparse = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(0, 20)), max_size=2 * budget + 8))
    pool = pool_of(
        *(tx(f"d{i:02d}", size, 100 * size) for i, size in enumerate(dense)),
        *(tx(f"s{i:02d}", size, fee) for i, (size, fee) in enumerate(sparse)),
    )
    offset = draw(st.one_of(st.none(), st.integers(0, 3)))
    return (pool if offset is None else ranked_view(pool, offset)), budget


@settings(max_examples=300, deadline=None)
@given(crowded_heads(), st.data())
def test_head_scans_equal_full_scans(case, data):
    view, budget = case
    txs = full_scan_pack(view.pending, budget)
    lo = data.draw(st.integers(0, len(txs)))
    hi = data.draw(st.integers(lo, len(txs)))
    spans = (range(lo, hi), range(len(txs)))
    # packing and fee_left read the columns: no view's pending is built
    with pending_reads() as reads:
        pack = view.packed(budget)
        lefts = [view.fee_left(span, budget) for span in spans]
    assert reads == []
    assert pack.template() == template_of(view, txs)
    assert_carries_its_ranks(pack.template(), view)
    for span, left in zip(spans, lefts):
        claimed = {txs[i].id for i in span}
        rest = full_scan_pack([t for t in view.pending if t.id not in claimed], budget)
        assert left == sum(t.fee for t in rest)


@settings(max_examples=200, deadline=None)
@given(avoidance_cases(), st.integers(0, 5))
def test_templates_of_a_ranked_view_carry_the_ranks_of_their_transactions(case, offset):
    pool, params, depth, honest = case
    view = ranked_view(pool, offset)
    for mode in ("exact", "experimental", "strict"):
        claims = [
            craft_avoidance_block(p, params, depth=depth, assumed_honest_power=honest, mode=mode) for p in (view, pool)
        ]
        assert claims[0] == claims[1]
        assert_carries_its_ranks(claims[0], view)
    # the attack blocks: the bandwidth set or the lone-set half at branch 3,
    # and at branch 1 the lightest part of a head, with the head's ranks
    none = pool_of()
    template = undercut_template(depth, 3, "limited-mempool", params, view, none)[1]
    assert template == undercut_template(depth, 3, "limited-mempool", params, pool, none)[1]
    assert_carries_its_ranks(template, view)
    head = view.packed(params.block_size_limit)
    template = undercut_template(depth, 1, "negligible-mempool", params, none, head)[1]
    first = pool.packed(params.block_size_limit)
    assert template == undercut_template(depth, 1, "negligible-mempool", params, none, first)[1]
    assert_carries_its_ranks(template, view)


def test_strategy_leaves_pool_mechanics_to_mempool():
    # strategy decides on fees: how a pool is scanned, packed and cut into
    # templates stays behind MempoolView's methods
    tree = ast.parse(Path(strategy.__file__).read_text())
    # strategy reads fees and sizes by position through MempoolView.column
    # and never touches a transaction
    internals = {"scan", "_scan", "size_floor", "_pending", "pending", "table"}
    read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in internals]
    built = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "BandwidthSetResult"
    ]
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert read == [] and built == [] and "Transaction" not in imported
    assert not hasattr(strategy, "_fee_left")
    # a split names its lightest part first, so only exact avoidance, which
    # takes prefix sums, reads a column
    readers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "column"
    ]
    assert set(readers) == {"craft_avoidance_block"}
    assert not hasattr(strategy, "_lightest_part")
