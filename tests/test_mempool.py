import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undercut.mempool import (
    BandwidthSetResult,
    ChainParams,
    InstanceTooLargeError,
    InvalidCandidateError,
    MempoolView,
    RankTable,
    Transaction,
    UnsplittableError,
    bandwidth_set,
    claim_partial,
    claimable_fees,
    gamma_ratio,
    is_near_bandwidth_set,
    split_equal_fee,
)

from conftest import (
    assert_carries_its_ranks,
    full_scan_pack,
    oracle_best_fee,
    pool_of,
    random_pool,
    ranked_view,
    template_of,
    tx,
)


def test_transaction_validation():
    with pytest.raises(ValueError):
        tx("a", 0, 5)
    with pytest.raises(ValueError):
        tx("a", 3, -1)
    assert tx("a", 3, 0).fee_rate == 0.0


@pytest.mark.parametrize(
    "round_trip", [lambda t: pickle.loads(pickle.dumps(t)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_transaction_round_trips_as_a_compact_equal_object(round_trip):
    original = Transaction(id="a\x00é", arrival_time=12.5, size=250, fee=2**70)
    again = round_trip(original)
    assert again == original and hash(again) == hash(original)
    assert type(again) is Transaction
    assert not hasattr(again, "__dict__") and not hasattr(original, "__dict__")


def test_unpickled_transactions_are_validated_again():
    # __reduce__ rebuilds through the constructor, so its checks run
    state = pickle.dumps(Transaction(id="a", arrival_time=0.0, size=5, fee=1), protocol=4).replace(b"K\x05", b"K\x00")
    with pytest.raises(ValueError, match="size must be positive, got 0"):
        pickle.loads(state)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(block_size_limit=0, block_interval=600)
    with pytest.raises(ValueError):
        ChainParams(block_size_limit=10, block_interval=0)
    with pytest.raises(ValueError):
        ChainParams(block_size_limit=10, block_interval=600, negligible_fee_threshold=1.0)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match=f"block_interval must be positive and finite, got {bad}"):
            ChainParams(block_size_limit=10, block_interval=float(bad))


def test_mempool_view_rejects_overlap_and_duplicates():
    a = tx("a", 1, 1)
    with pytest.raises(ValueError, match="duplicate transaction ids"):
        MempoolView.of((a, tx("a", 2, 2)))


def test_mempool_view_orders_by_fee_rate_then_fee_then_id():
    a, b, c = tx("a", 2, 4), tx("b", 1, 2), tx("c", 4, 8)
    # all rate 2; richer first, then id
    view = pool_of(b, c, a)
    assert tuple(t.id for t in view.pending) == ("c", "a", "b")


def test_bandwidth_set_whole_pool_when_it_fits(params):
    pool = pool_of(tx("a", 30, 5), tx("b", 40, 7))
    result = bandwidth_set(pool, params)
    assert set(result.tx_ids) == {"a", "b"}
    assert result.total_fee == 12 and result.total_size == 70


def test_bandwidth_set_exact_small_example():
    params = ChainParams(block_size_limit=4, block_interval=600)
    pool = pool_of(tx("t1", 2, 10), tx("t2", 2, 8), tx("t3", 3, 9))
    result = bandwidth_set(pool, params, mode="exact")
    assert set(result.tx_ids) == {"t1", "t2"}
    assert result.total_fee == 18


def test_greedy_can_be_suboptimal():
    params = ChainParams(block_size_limit=4, block_interval=600)
    pool = pool_of(tx("t1", 3, 9), tx("t2", 2, 5), tx("t3", 2, 5))
    assert bandwidth_set(pool, params).total_fee == 9
    assert bandwidth_set(pool, params, mode="exact").total_fee == 10


def test_exact_mode_rejects_large_pools(params):
    pool = pool_of(*[tx(f"t{i}", 1, 1) for i in range(26)])
    with pytest.raises(InstanceTooLargeError):
        bandwidth_set(pool, params, mode="exact")


def test_exact_matches_enumeration_oracle_and_dominates_greedy():
    rng = np.random.default_rng(8)
    for trial in range(300):
        pool, params = random_pool(rng)
        exact = bandwidth_set(pool, params, mode="exact")
        greedy = bandwidth_set(pool, params)
        assert exact.total_fee == oracle_best_fee(pool, params)
        assert_carries_its_ranks(exact, pool)
        # the same pool as a strict subset of a larger table
        view = ranked_view(pool, trial % 4)
        from_view = bandwidth_set(view, params, mode="exact")
        assert from_view == exact
        assert_carries_its_ranks(from_view, view)
        assert greedy.total_fee <= exact.total_fee
        assert exact.total_size <= params.block_size_limit
        assert greedy.total_size <= params.block_size_limit


def test_near_bandwidth_set_trivial_cases(params):
    pool = pool_of(tx("a", 40, 9), tx("b", 50, 6), tx("c", 30, 4))
    best = bandwidth_set(pool, params, mode="exact")
    assert is_near_bandwidth_set(best.tx_ids, pool, params, 1.0)
    assert not is_near_bandwidth_set((), pool, params, 0.5)


def test_near_bandwidth_set_against_enumeration():
    params = ChainParams(block_size_limit=10, block_interval=600)
    txs = [tx("a", 2, 10), tx("b", 2, 8), tx("c", 2, 6), tx("d", 2, 4), tx("e", 2, 2), tx("f", 2, 1)]
    pool = pool_of(*txs)
    best = bandwidth_set(pool, params, mode="exact")
    assert set(best.tx_ids) == {"a", "b", "c", "d", "e"}
    # drop the lowest-rate member of the set: 28/30 of the fees remain
    candidate = set(best.tx_ids) - {"e"}
    assert is_near_bandwidth_set(candidate, pool, params, 0.9)
    assert not is_near_bandwidth_set(candidate, pool, params, 0.95)


def test_near_bandwidth_set_rejects_unknown_and_oversized(params):
    pool = pool_of(tx("a", 40, 9))
    with pytest.raises(InvalidCandidateError):
        is_near_bandwidth_set({"zz"}, pool, params, 0.5)
    big = pool_of(tx("a", 80, 9), tx("b", 80, 8))
    with pytest.raises(InvalidCandidateError):
        is_near_bandwidth_set({"a", "b"}, big, params, 0.5)


def test_gamma_ratio_cases(params):
    assert gamma_ratio(pool_of(), 100, params) == 0.0
    pool = pool_of(tx("a", 50, 25))
    assert gamma_ratio(pool, 100, params) == 0.25
    assert gamma_ratio(pool, 0, params) == float("inf")
    zero_fee = pool_of(tx("a", 50, 0))
    assert gamma_ratio(zero_fee, 0, params) == 0.0


def test_gamma_ratio_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pool, params = random_pool(rng, fee_max=30)
        head = int(rng.integers(1, 200))
        for c in (2, 7, 100):
            scaled = pool_of(*[tx(t.id, t.size, t.fee * c) for t in pool.pending])
            assert gamma_ratio(scaled, head * c, params) == pytest.approx(
                gamma_ratio(pool, head, params)
            )


def test_split_equal_fee_examples(params):
    txs = [tx("a", 1, 4), tx("b", 1, 3), tx("c", 1, 2), tx("d", 1, 1)]
    assert split_equal_fee(txs, 1, params) == [txs]
    parts = split_equal_fee(txs, 2, params)
    assert sorted(sum(t.fee for t in p) for p in parts) == [5, 5]
    thirds = split_equal_fee([tx("a", 1, 3), tx("b", 1, 3), tx("c", 1, 3)], 3, params)
    assert [sum(t.fee for t in p) for p in thirds] == [3, 3, 3]


def test_split_equal_fee_partition_property(params):
    rng = np.random.default_rng(5)
    for _ in range(100):
        txs = [
            tx(f"t{i}", int(rng.integers(1, 10)), int(rng.integers(0, 50)))
            for i in range(int(rng.integers(1, 12)))
        ]
        k = int(rng.integers(1, 4))
        parts = split_equal_fee(txs, k, params)
        assert len(parts) == k
        flat = [t for p in parts for t in p]
        assert sorted(t.id for t in flat) == sorted(t.id for t in txs)
        for p in parts:
            assert sum(t.size for t in p) <= params.block_size_limit


def test_split_equal_fee_unsplittable():
    params = ChainParams(block_size_limit=3, block_interval=600)
    with pytest.raises(UnsplittableError):
        split_equal_fee([tx("a", 3, 1), tx("b", 3, 1), tx("c", 3, 1)], 2, params)


def reference_split(txs, k):
    """The sort-based split: parts re-sorted by (fee, index) for every
    transaction, in fee order.  For a set that fits one block."""
    parts, fees = [[] for _ in range(k)], [0] * k
    for t in sorted(txs, key=lambda t: (-t.fee, t.id)):
        j = sorted(range(k), key=lambda j: (fees[j], j))[0]
        parts[j].append(t)
        fees[j] += t.fee
    return parts


@st.composite
def split_cases(draw):
    # few distinct fees make ties; a limit near the total size sends
    # some sets under it and some over it
    n = draw(st.integers(0, 10))
    txs = [tx(f"t{i}", draw(st.integers(1, 9)), draw(st.sampled_from((0, 1, 2, 5, 9)))) for i in range(n)]
    k = draw(st.sampled_from((1, 2, 3)))
    limit = max(1, sum(t.size for t in txs) + draw(st.integers(-6, 6)))
    return txs, k, ChainParams(block_size_limit=limit, block_interval=600.0)


@settings(max_examples=600, deadline=None)
@given(split_cases())
def test_split_equal_fee_matches_the_sort_based_split(case):
    txs, k, params = case
    if sum(t.size for t in txs) > params.block_size_limit:
        with pytest.raises(UnsplittableError):
            split_equal_fee(txs, k, params)
        return
    assert split_equal_fee(txs, k, params) == reference_split(txs, k)


@st.composite
def pools_and_budgets(draw):
    n = draw(st.integers(0, 12))
    txs = [tx(f"t{i:02d}", draw(st.integers(1, 8)), draw(st.integers(0, 20))) for i in range(n)]
    return pool_of(*txs), draw(st.lists(st.integers(0, 60), max_size=8))


@settings(max_examples=300, deadline=None)
@given(pools_and_budgets())
def test_packed_equals_greedy_pack_and_memo_is_not_part_of_the_value(case):
    pool, budgets = case
    fresh = MempoolView(pool.table, pool.ranks)
    for budget in budgets:
        expected = tuple(full_scan_pack(pool.pending, budget))
        assert pool.packed(budget).txs == expected
        assert pool.packed(budget) is pool.packed(budget)
    # the value is the pending set, whatever table the view reads it from
    for other in (fresh, ranked_view(pool, 2)):
        assert pool == other and hash(pool) == hash(other)
        assert repr(pool) == repr(other)


@settings(max_examples=300, deadline=None)
@given(pools_and_budgets(), st.integers(0, 5))
def test_a_ranked_view_packs_and_claims_with_the_ranks_of_its_transactions(case, offset):
    pool, budgets = case
    view = ranked_view(pool, offset)
    for budget in budgets:
        txs, ranks = view.packed(budget)
        assert txs == pool.packed(budget).txs
        assert_carries_its_ranks(BandwidthSetResult.from_transactions(txs, ranks), view)
        if txs == pool.pending[: len(txs)]:
            assert ranks.base is view.ranks  # a prefix pack's ranks are a slice of the view's
        params = ChainParams(block_size_limit=max(budget, 1), block_interval=600)
        fee = sum(t.fee for t in txs)
        for template in (bandwidth_set(view, params), claim_partial(view.pending, fee // 2, params, view.ranks)):
            assert_carries_its_ranks(template, view)


def test_claim_partial_examples():
    params = ChainParams(block_size_limit=6, block_interval=600)
    pool = pool_of(tx("a", 2, 10), tx("b", 2, 8), tx("c", 2, 4))
    full = bandwidth_set(pool, params)
    assert claim_partial(pool.pending, full.total_fee, params, pool.ranks).total_fee == full.total_fee
    assert claim_partial(pool.pending, 0, params, pool.ranks).tx_ids == ()
    partial = claim_partial(pool.pending, 13, params, pool.ranks)
    assert partial.tx_ids == ("a",) and partial.total_fee == 10


def test_claim_partial_never_exceeds_target():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pool, params = random_pool(rng)
        target = int(rng.integers(0, 80))
        claim = claim_partial(pool.pending, target, params, pool.ranks)
        assert claim.total_fee <= target
        assert claim.total_size <= params.block_size_limit


def test_size_floor_is_exact_for_lists_and_inherited_by_without():
    pool = pool_of(tx("a", 5, 1), tx("b", 3, 9), tx("c", 7, 2))
    assert pool.table.size_floor == 3
    smaller = pool.without(["b"])
    assert smaller.table is pool.table and smaller.ranks.tolist() == [1, 2]
    assert [t.id for t in smaller.pending] == ["c", "a"]
    assert pool_of().table.size_floor == 1
    # a sub-view reads its table's floor, which a smaller transaction left out lowers
    table = RankTable([*pool.pending, tx("dust", 1, 0)])
    assert MempoolView(table, np.arange(3)).table.size_floor == 1


def test_early_exit_packing_equals_full_scan():
    rng = np.random.default_rng(23)
    for _ in range(500):
        pool, params = random_pool(rng)
        limit = params.block_size_limit
        # the exact floor, and every looser one: a sub-view of a table that
        # also holds a transaction of that size, which the view leaves out
        for floor in range(1, pool.table.size_floor + 1):
            table = RankTable([*pool.pending, tx("~floor", floor, 0)])
            view = MempoolView(table, np.array([r for r, t in enumerate(table.txs) if t.id != "~floor"]))
            assert view.pending == pool.pending and table.size_floor == floor
            expected = full_scan_pack(pool.pending, limit)
            assert bandwidth_set(view, params) == template_of(pool, expected)
            for blocks in (1, 2, 3):
                reference = full_scan_pack(pool.pending, blocks * limit)
                assert claimable_fees(view, params, blocks) == sum(t.fee for t in reference)


def test_claimable_fees_budget(params):
    pool = pool_of(tx("a", 100, 10), tx("b", 100, 8), tx("c", 100, 6))
    assert claimable_fees(pool, params, 1) == 10
    assert claimable_fees(pool, params, 2) == 18
    assert claimable_fees(pool, params, 0) == 0
