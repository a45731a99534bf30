import ast
import copy
import math
import pickle
import re
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from undercut import mempool
from undercut.mempool import (
    ChainParams,
    InstanceTooLargeError,
    MempoolView,
    RankTable,
    Transaction,
    UnsplittableError,
    bandwidth_set,
    claim_partial,
    claimable_fees,
    gamma_ratio,
    split_equal_fee,
)

from conftest import (
    assert_carries_its_ranks,
    assert_same_columns,
    full_scan_pack,
    heap_lpt_split,
    oracle_best_fee,
    pool_of,
    random_pool,
    ranked_view,
    selection_key,
    template_of,
    tx,
    walk_first_fit,
)


def test_transaction_validation():
    with pytest.raises(ValueError):
        tx("a", 0, 5)
    with pytest.raises(ValueError):
        tx("a", 3, -1)
    assert tx("a", 3, 0).fee == 0
    # RankTable's integer columns would truncate a float: fee 4.7 would pack as 4
    for size, fee in [(3, 4.7), (3.0, 4), (True, 4), (3, False)]:
        with pytest.raises(TypeError, match=f"transaction 'b': size and fee must be integers, got {size} and {fee}"):
            Transaction("b", 0.0, size, fee)
    numpy = tx("b", np.int64(3), np.int32(4))
    assert (numpy.size, numpy.fee) == (3, 4)
    # RankTable's float time column would parse "5" and read True as 1.0
    for time in ["5", True, np.True_, None, b"5", 1j]:
        message = f"transaction 'a': arrival_time must be a real number, got {time!r}"
        with pytest.raises(TypeError, match=re.escape(message)):
            Transaction("a", time, 10, 5)
    for time in [5, np.int64(5), np.float32(5.5), np.float64(5.5), Fraction(11, 2)]:
        assert Transaction("a", time, 10, 5).arrival_time == time


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
    # a float limit would fail as a slice bound only once a pool overflows a block
    for bad in (10.0, True):
        with pytest.raises(ValueError, match=f"block_size_limit must be a positive integer, got {bad}"):
            ChainParams(block_size_limit=bad, block_interval=600)
    assert ChainParams(block_size_limit=np.int64(10), block_interval=600).block_size_limit == 10
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
        pool_of(a, tx("a", 2, 2))


def test_mempool_view_orders_by_fee_rate_then_fee_then_id():
    a, b, c = tx("a", 2, 4), tx("b", 1, 2), tx("c", 4, 8)
    # all rate 2; richer first, then id
    view = pool_of(b, c, a)
    assert tuple(t.id for t in view.pending) == ("c", "a", "b")
    assert view.pending == tuple(sorted((a, b, c), key=selection_key))


def test_bandwidth_set_whole_pool_when_it_fits(params):
    pool = pool_of(tx("a", 30, 5), tx("b", 40, 7))
    result = bandwidth_set(pool, params)
    assert set(result.tx_ids) == {"a", "b"}
    assert result.total_fee == 12 and result.total_size == 70


def test_bandwidth_set_exact_small_example(params):
    small = ChainParams(block_size_limit=4, block_interval=600)
    pool = pool_of(tx("t1", 2, 10), tx("t2", 2, 8), tx("t3", 3, 9))
    result = bandwidth_set(pool, small, mode="exact")
    assert set(result.tx_ids) == {"t1", "t2"}
    assert result.total_fee == 18
    # two of three fit the 100 limit; the richest pair wins
    best = bandwidth_set(pool_of(tx("a", 40, 9), tx("b", 50, 6), tx("c", 30, 4)), params, mode="exact")
    assert set(best.tx_ids) == {"a", "b"} and best.total_fee == 15
    # five of six equal sizes fit: all but the poorest
    txs = [tx("a", 2, 10), tx("b", 2, 8), tx("c", 2, 6), tx("d", 2, 4), tx("e", 2, 2), tx("f", 2, 1)]
    best = bandwidth_set(pool_of(*txs), ChainParams(block_size_limit=10, block_interval=600), mode="exact")
    assert set(best.tx_ids) == {"a", "b", "c", "d", "e"} and best.total_fee == 30


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


def part_txs(view, parts):
    """The transactions of each part of a split of ``view``, in assignment order."""
    return [[view.pending[i] for i in part] for part in parts]


def test_split_equal_fee_examples(params):
    pool = pool_of(tx("a", 1, 4), tx("b", 1, 3), tx("c", 1, 2), tx("d", 1, 1))
    assert split_equal_fee(pool, 1, params) == [[0, 1, 2, 3]]
    parts = part_txs(pool, split_equal_fee(pool, 2, params))
    assert sorted(sum(t.fee for t in p) for p in parts) == [5, 5]
    thirds = pool_of(tx("a", 1, 3), tx("b", 1, 3), tx("c", 1, 3))
    assert [sum(t.fee for t in p) for p in part_txs(thirds, split_equal_fee(thirds, 3, params))] == [3, 3, 3]


def test_split_equal_fee_partition_property(params):
    rng = np.random.default_rng(5)
    for _ in range(100):
        txs = [
            tx(f"t{i}", int(rng.integers(1, 10)), int(rng.integers(0, 50)))
            for i in range(int(rng.integers(1, 12)))
        ]
        k = int(rng.integers(1, 4))
        pool = pool_of(*txs)
        parts = part_txs(pool, split_equal_fee(pool, k, params))
        assert len(parts) == k
        flat = [t for p in parts for t in p]
        assert sorted(t.id for t in flat) == sorted(t.id for t in txs)
        for p in parts:
            assert sum(t.size for t in p) <= params.block_size_limit


def test_split_equal_fee_unsplittable():
    params = ChainParams(block_size_limit=3, block_interval=600)
    with pytest.raises(UnsplittableError):
        split_equal_fee(pool_of(tx("a", 3, 1), tx("b", 3, 1), tx("c", 3, 1)), 2, params)


def reference_split(txs, k):
    """The sort-based split: parts re-sorted by (fee, index) for every
    transaction, in fee order, and returned in that order.  For a set
    that fits one block."""
    parts, fees = [[] for _ in range(k)], [0] * k
    for t in sorted(txs, key=lambda t: (-t.fee, t.id)):
        j = sorted(range(k), key=lambda j: (fees[j], j))[0]
        parts[j].append(t)
        fees[j] += t.fee
    return [parts[j] for j in sorted(range(k), key=lambda j: (fees[j], j))]


# ids whose string order is neither their numeric order ("t10" < "t9")
# nor their creation order (a case draws them shuffled), and that differ
# only in a trailing NUL
SPLIT_IDS = ("t9", "t10", "t1", "t1\x00", "t2", "t20", "t0\x00", "t0", "t11", "t100")


@st.composite
def split_cases(draw):
    # few distinct fees make ties; a limit near the total size sends
    # some sets under it and some over it; fees scaled past 2**63 put
    # the table's columns in Python ints
    n = draw(st.integers(0, 10))
    ids = draw(st.permutations(SPLIT_IDS))[:n]
    scale = draw(st.sampled_from((1, 2**63 + 1)))
    txs = [tx(i, draw(st.integers(1, 9)), draw(st.sampled_from((0, 1, 2, 5, 9))) * scale) for i in ids]
    k = draw(st.sampled_from((1, 2, 3)))
    limit = max(1, sum(t.size for t in txs) + draw(st.integers(-6, 6)))
    return txs, k, ChainParams(block_size_limit=limit, block_interval=600.0)


@settings(max_examples=600, deadline=None)
@given(split_cases(), st.one_of(st.none(), st.integers(0, 3)))
def test_split_equal_fee_matches_the_sort_based_split(case, offset):
    # a ranked view is a strict subset of its table, so positions are not ranks
    txs, k, params = case
    view = pool_of(*txs) if offset is None else ranked_view(pool_of(*txs), offset)
    if sum(t.size for t in txs) > params.block_size_limit:
        with pytest.raises(UnsplittableError):
            split_equal_fee(view, k, params)
        return
    parts = part_txs(view, split_equal_fee(view, k, params))
    reference = reference_split(txs, k)
    assert parts == reference
    # the first part is the lightest, the one every attack template takes
    fees = [sum(t.fee for t in part) for part in parts]
    assert fees[0] == min(fees)
    assert parts[0] == min(reference, key=lambda part: sum(t.fee for t in part))


def index_loop_split(fees, order, k):
    """The LPT loop as the split ran it before its heap: each position in
    ``order`` goes to the first least-loaded part, ``loads.index(min(loads))``,
    and the parts come back by (load, part number)."""
    parts, loads = [[] for _ in range(k)], [0] * k
    for i in order:
        j = loads.index(min(loads))
        parts[j].append(i)
        loads[j] += fees[i]
    return [parts[j] for j in sorted(range(k), key=loads.__getitem__)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=30),
    st.sampled_from((1, 2, 3)),
    st.sampled_from((1, 2**63 + 1)),
)
def test_split_equal_fee_heap_matches_the_index_loop(fee_steps, k, scale):
    # few distinct fees tie loads often, where the lowest-numbered part must win
    txs = [tx(f"t{i:02d}", 1, fee * scale) for i, fee in enumerate(fee_steps)]
    view = pool_of(*txs)
    params = ChainParams(block_size_limit=max(1, len(txs)), block_interval=600.0)
    fees = view.column("fees")
    order = sorted(range(len(txs)), key=lambda i: (-fees[i], view.pending[i].id))
    assert split_equal_fee(view, k, params) == index_loop_split(fees, order, k)


@settings(max_examples=400, deadline=None)
@given(split_cases(), st.one_of(st.none(), st.integers(0, 3)))
@example(([tx("t1", 1, 7)], 1, None), None)  # a single transaction
@example(([tx("t1", 1, 7)], 3, None), 2)
@example(([tx(i, 1, 0) for i in SPLIT_IDS], 3, None), None)  # zero fees: every load ties
@example(([tx(i, 1 + len(i) % 3, 5) for i in SPLIT_IDS], 2, None), 1)  # fee ties broken by id order
def test_split_equal_fee_matches_the_heap_lpt(case, offset):
    # the same parts, in the same order, as the split's earlier heap; the
    # limit fits every set, as every caller's set fits one block
    txs, k, _ = case
    view = pool_of(*txs) if offset is None else ranked_view(pool_of(*txs), offset)
    params = ChainParams(block_size_limit=max(1, sum(t.size for t in txs)), block_interval=600.0)
    assert split_equal_fee(view, k, params) == heap_lpt_split(view, k)


def test_a_rank_table_is_its_trace_in_arrival_order():
    trace = [tx("b", 3, 7, t=2.0), tx("a", 5, 0, t=2.0), tx("c", 1, 2, t=0.5)]
    table = RankTable(trace)
    in_order = sorted(trace, key=lambda t: (t.arrival_time, t.id))
    assert len(table) == 3 and list(table) == in_order
    # its ranks follow selection order, whatever order the trace came in
    assert table.txs.tolist() == sorted(trace, key=selection_key)
    assert_same_columns(RankTable(in_order), table)
    assert len(RankTable([])) == 0 and list(RankTable([])) == []


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
        assert pool.packed(budget).pending == expected
        assert pool.packed(budget) is pool.packed(budget)
    # the pending set is the same whatever table the view reads it from
    for other in (fresh, ranked_view(pool, 2)):
        assert other.pending == pool.pending


@settings(max_examples=300, deadline=None)
@given(pools_and_budgets(), st.integers(0, 5))
def test_a_ranked_view_packs_and_claims_with_the_ranks_of_its_transactions(case, offset):
    pool, budgets = case
    view = ranked_view(pool, offset)
    for budget in budgets:
        pack = view.packed(budget)
        assert pack.pending == pool.packed(budget).pending
        assert_carries_its_ranks(pack.template(), view)
        if pack.pending == pool.pending[: len(pack.pending)]:
            assert pack.ranks.base is view.ranks  # a prefix pack's ranks are a slice of the view's
        params = ChainParams(block_size_limit=max(budget, 1), block_interval=600)
        fee = sum(t.fee for t in pack.pending)
        for template in (bandwidth_set(view, params), claim_partial(view, fee // 2, params)):
            assert_carries_its_ranks(template, view)


@settings(max_examples=300, deadline=None)
@given(pools_and_budgets(), st.integers(0, 5), st.data())
def test_template_is_the_template_of_the_views_transactions_at_the_positions(case, offset, data):
    pool, budgets = case
    view = ranked_view(pool, offset)
    for part in (view, *(view.packed(budget) for budget in budgets)):
        # a view's pending are the table's own objects, read at its ranks
        own = part.table.txs[part.ranks].tolist()
        assert len(part.pending) == len(own) and all(a is b for a, b in zip(part.pending, own))
        n = len(part.pending)
        positions = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
        lo = data.draw(st.integers(0, n))
        span = range(lo, data.draw(st.integers(lo, n)))  # read as slices
        for at in (positions, span, None):
            picked = part.pending if at is None else [part.pending[i] for i in at]
            expected_ranks = part.ranks if at is None else part.ranks[np.array(list(at), dtype=np.intp)]
            totals = (sum(t.fee for t in picked), sum(t.size for t in picked))
            # summed by template, or handed over by a caller that holds them
            for template in (part.template(at), part.template(at, totals)):
                assert template.tx_ids == tuple(t.id for t in picked)
                assert (template.total_fee, template.total_size) == totals
                assert template.ranks.tolist() == expected_ranks.tolist()
                assert_carries_its_ranks(template, view)


@settings(max_examples=300, deadline=None)
@given(pools_and_budgets(), st.integers(0, 5), st.data())
def test_fee_left_packs_a_view_it_reads_first(case, offset, data):
    # fee_left reads the view's own pack, also when nothing packed it before
    pool, budgets = case
    for budget in budgets:
        first = full_scan_pack(pool.pending, budget)
        lo = data.draw(st.integers(0, len(first)))
        for span in (range(lo, data.draw(st.integers(lo, len(first)))), range(len(first))):
            view = ranked_view(pool, offset)
            left = full_scan_pack(pool.without(first[i].id for i in span).pending, budget)
            assert view.fee_left(span, budget) == sum(t.fee for t in left)
            assert view.packed(budget).pending == tuple(first)


@st.composite
def tables_and_views(draw):
    """A table and a view of some of its ranks.  Fees scaled past 2**63 put
    the table's fee column, and its prefix sums, in Python ints; tied
    times tie arrivals, which fall back to the id."""
    n = draw(st.integers(0, 12))
    scale = draw(st.sampled_from((1, 2**63 + 1)))
    size, fee, time = st.integers(1, 8), st.integers(0, 20), st.sampled_from((0.0, 1.0, 2.5))
    txs = [tx(f"t{i:02d}", draw(size), draw(fee) * scale, draw(time)) for i in range(n)]
    table = RankTable(txs)
    big = any(t.fee > 2**63 for t in txs)
    columns = (table.fees, table.sizes, table.arrived_fee, table.arrived_size)
    assert {c.dtype for c in columns} == {np.dtype(object) if big else np.dtype(np.int64)}
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return table, MempoolView(table, np.flatnonzero(kept))


@settings(max_examples=300, deadline=None)
@given(tables_and_views(), st.data())
def test_arrival_prefix_sums_total_every_run_of_arrivals(case, data):
    table, _ = case
    start = data.draw(st.integers(0, len(table)))
    end = data.draw(st.integers(start, len(table)))
    assert table.arrival_totals(start, end) == table.totals(table.arrivals[start:end])
    assert table.total_fee == sum(t.fee for t in table)


@settings(max_examples=200, deadline=None)
@given(tables_and_views(), st.data())
def test_a_pack_carries_the_totals_of_its_cut_and_fee_left_matches_a_copied_pool(case, data):
    # every budget up to the view's size: ones it fits, ones that cut only
    # a prefix, and ones whose pack scans past the first skip
    table, view = case
    for budget in range(view.totals[1] + 1):
        pack = view.packed(budget)
        assert pack.pending == tuple(full_scan_pack(view.pending, budget))
        assert pack.totals == table.totals(pack.ranks)
        n = len(pack.ranks)
        some = data.draw(st.lists(st.integers(0, n - 1), unique=True) if n else st.just([]))
        for claimed in (some, range(n)):
            left = full_scan_pack(view.without(pack.pending[i].id for i in claimed).pending, budget)
            assert view.fee_left(claimed, budget) == sum(t.fee for t in left)


@st.composite
def bound_cases(draw):
    """A view and a size budget for the fee bounds of exact avoidance.

    Fees are zero, tie on a few values, or are scaled to 2**50 or 2**70 plus
    a small offset: past 2**53 the columns hold Python ints, and there the
    rates of different exact values round to one float, so selection order
    can put a transaction of a lower exact rate first."""
    n = draw(st.integers(1, 20))
    scale = draw(st.sampled_from((1, 2**50, 2**70)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    steps = st.one_of(st.just(0), st.sampled_from((3, 6, 12)), st.integers(1, 60))
    fees = [step * scale + draw(st.integers(0, 3)) for step in draw(st.lists(steps, min_size=n, max_size=n))]
    pool = pool_of(*(tx(f"t{i:02d}", size, fee) for i, (size, fee) in enumerate(zip(sizes, fees))))
    budget = max(1, draw(st.integers(1, 3)) * sum(sizes) // draw(st.integers(2, 6)))
    return ranked_view(pool, draw(st.integers(0, 3))), budget


@settings(max_examples=300, deadline=None)
@given(bound_cases())
def test_fee_bounds_are_never_below_the_fee_left(case):
    # bound A, the pool's fee less the claim's, and bound B, the fractional
    # fill, for every prefix and every suffix of the pack
    view, budget = case
    pack = view.packed(budget)
    fees = pack.column("fees")
    bound = view.fee_bound(budget)
    pool_fee, pool_size = view.totals
    n = len(pack.ranks)
    for claimed in [range(k) for k in range(1, n + 1)] + [range(j, n) for j in range(1, n)]:
        left = view.fee_left(claimed, budget)
        bound_a = pool_fee - sum(fees[i] for i in claimed)
        assert bound(claimed.start, claimed.stop) >= left and bound_a >= left
        if pool_size - sum(pack.column("sizes")[i] for i in claimed) <= budget:
            assert bound(claimed.start, claimed.stop) == bound_a == left


def test_fee_bound_covers_a_float_rate_tie():
    # t and u have exact rates k + 1/3 and k + 1/2, which round to one
    # float at k = 2**51, so t (the larger fee) ranks first.  Once c is
    # claimed, the fill cuts t at room 2 (a fee of 2k) where greedy packs u
    # (2k + 1): the fractional value alone is one below the fee left.
    k = 2**51
    pool = pool_of(tx("c", 1, 2**52), tx("t", 3, 3 * k + 1), tx("u", 2, 2 * k + 1))
    assert pool.table.fees.dtype == np.int64
    assert [t.id for t in pool.pending] == ["c", "t", "u"]
    assert [t.id for t in pool.packed(2).pending] == ["c"]
    left = pool.fee_left(range(1), 2)
    assert left == 2 * k + 1 > (3 * k + 1) * 2 // 3
    assert pool.fee_bound(2)(0, 1) >= left


def test_claim_partial_examples():
    params = ChainParams(block_size_limit=6, block_interval=600)
    pool = pool_of(tx("a", 2, 10), tx("b", 2, 8), tx("c", 2, 4))
    full = bandwidth_set(pool, params)
    assert claim_partial(pool, full.total_fee, params).total_fee == full.total_fee
    assert claim_partial(pool, 0, params).tx_ids == ()
    partial = claim_partial(pool, 13, params)
    assert partial.tx_ids == ("a",) and partial.total_fee == 10


def test_claim_partial_never_exceeds_target():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pool, params = random_pool(rng)
        target = int(rng.integers(0, 80))
        claim = claim_partial(pool, target, params)
        assert claim.total_fee <= target
        assert claim.total_size <= params.block_size_limit


def first_fit_by_fee(txs, target):
    """Reference fee claim: walks every transaction, skipping one that would burst the target."""
    chosen, room = [], target
    for t in txs:
        if t.fee <= room:
            chosen.append(t)
            room -= t.fee
    return chosen


@settings(max_examples=200, deadline=None)
@given(tables_and_views(), st.data())
def test_claim_partial_is_a_first_fit_by_fee_over_the_bandwidth_set(case, data):
    # limits below the view's size claim from its bandwidth set; targets
    # equal to a prefix sum of the set's fees leave no room, and the
    # zero-fee transactions after it are still claimed
    _, view = case
    size = view.totals[1]
    for limit in {size + 1, *data.draw(st.lists(st.integers(1, size + 1), min_size=1, max_size=3))}:
        params = ChainParams(block_size_limit=limit, block_interval=600)
        first = full_scan_pack(view.pending, limit)
        prefixes = list(accumulate((t.fee for t in first), initial=0))
        drawn = data.draw(st.lists(st.integers(0, prefixes[-1] + 1), max_size=3))
        for target in {*prefixes, prefixes[-1] + 1, *drawn}:
            claim = claim_partial(view, target, params)
            expected = first_fit_by_fee(first, target)
            assert claim.tx_ids == tuple(t.id for t in expected)
            assert claim.total_fee == sum(t.fee for t in expected)
            assert claim.total_size == sum(t.size for t in expected)
            assert_carries_its_ranks(claim, view)


def test_claim_partial_keeps_no_walk_of_its_own():
    # a fee claim is _first_fit by fee, the walk that packs by size
    tree = ast.parse(Path(mempool.__file__).read_text())
    (claim,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "claim_partial"]
    loops = [node.lineno for node in ast.walk(claim) if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    called = [node.func for node in ast.walk(claim) if isinstance(node, ast.Call)]
    assert loops == [] and "_first_fit" in [func.id for func in called if isinstance(func, ast.Name)]


@st.composite
def first_fit_columns(draw):
    """A weights and an others column, a view of some of their ranks, and budgets.

    Three shapes: random weights, zeros among them when ``lo`` is 0;
    alternating weights, where a 1 fits and the weight after it fits the
    room before that pick but not after, so every step picks one rank;
    and stuck weights, a prefix that fits and then weights that never
    fit, so the steps read the whole tail.  Budgets lie below, at and
    above the view's total.  Scaling past 2**63 puts both columns in
    Python ints.
    """
    shape = draw(st.sampled_from(("random", "alternating", "stuck")))
    if shape == "random":
        lo = draw(st.integers(0, 3))
        weights = draw(st.lists(st.integers(lo, 12), max_size=40))
        kept = np.flatnonzero(draw(st.lists(st.booleans(), min_size=len(weights), max_size=len(weights))))
        budgets = draw(st.lists(st.integers(0, sum(weights) + 2), max_size=4))
    elif shape == "alternating":
        room = draw(st.integers(2, 30))
        weights = [w for left in range(room, 1, -1) for w in (1, left)]
        kept, budgets = np.arange(len(weights)), [room]
    else:
        room, fit = draw(st.integers(1, 20)), draw(st.integers(0, 20))
        weights = [1] * fit + [room + 1] * draw(st.integers(1, 40))
        kept, budgets = np.arange(len(weights)), [fit + room]
    scale = draw(st.sampled_from((1, 2**63 + 1)))
    dtype = object if scale > 1 else np.int64
    others = draw(st.lists(st.integers(0, 50), min_size=len(weights), max_size=len(weights)))
    columns = (np.array([w * scale for w in column], dtype=dtype) for column in (weights, others))
    total = sum(weights[r] for r in kept.tolist())
    budgets = {*(b * scale for b in budgets), total * scale, total * scale + 1}
    return *columns, kept.astype(np.intp), sorted(budgets)


@settings(max_examples=400, deadline=None)
@given(first_fit_columns(), st.booleans())
def test_first_fit_cuts_pick_what_the_walk_picks(case, by_floor):
    # floor 0, as a fee claim, or the columns' least weight, as a pack's
    # size_floor: its head of budget // floor + 1 ranks is often shorter
    # than the view
    weights, others, ranks, budgets = case
    floor = int(weights.min()) if by_floor and len(weights) else 0
    for budget in budgets:
        picked, used, other = mempool._first_fit(weights, others, ranks, budget, floor)
        expected, expected_used, expected_other = walk_first_fit(weights, others, ranks, budget, floor)
        assert picked.tolist() == expected.tolist() and picked.dtype == np.intp
        assert (used, other) == (expected_used, expected_other)
        assert type(used) is int and type(other) is int


@pytest.mark.parametrize("floor", [0, 1])
def test_first_fit_takes_one_step_per_pick_past_the_first_skip(floor):
    # each step picks a 1 and skips the weight after it; one cumsum cuts
    # the prefix, and each step that picks takes one more
    room = 300
    weights = np.array([w for left in range(room, 1, -1) for w in (1, left)], dtype=np.int64)
    ranks = np.arange(len(weights), dtype=np.intp)
    with mock.patch.object(mempool.np, "cumsum", wraps=np.cumsum) as cumsum:
        picked, used, other = mempool._first_fit(weights, weights, ranks, room, floor)
    assert picked.tolist() == list(range(0, len(weights), 2)) and used == other == room - 1
    assert cumsum.call_count == len(picked)
    # nothing fits after the cut: the steps read the whole tail once and pick nothing
    stuck = np.array([1, 1, 1] + [5] * 400, dtype=np.int64)
    ranks = np.arange(len(stuck), dtype=np.intp)
    with mock.patch.object(mempool.np, "cumsum", wraps=np.cumsum) as cumsum:
        picked, used, _ = mempool._first_fit(stuck, stuck, ranks, 7, floor)
    assert picked.tolist() == [0, 1, 2] and used == 3 and cumsum.call_count == 1


def test_first_fit_walks_no_position_in_python():
    tree = ast.parse(Path(mempool.__file__).read_text())
    (fit,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_first_fit"]
    loops = [node.lineno for node in ast.walk(fit) if isinstance(node, (ast.For, ast.comprehension))]
    called = [node.func for node in ast.walk(fit) if isinstance(node, ast.Call)]
    methods = [func.attr for func in called if isinstance(func, ast.Attribute)]
    assert loops == [] and "tolist" not in methods


SELECTOR_CALLS = {
    "blocks": lambda pool, params, value: claimable_fees(pool, params, value),
    "target_fee": lambda pool, params, value: claim_partial(pool, value, params),
    "head_block_fee": lambda pool, params, value: gamma_ratio(pool, value, params),
    "k": lambda pool, params, value: split_equal_fee(pool, value, params),
}


@pytest.mark.parametrize(
    "name, value",
    [
        ("blocks", 1.5),  # failed deep in the pack on a slice bound
        ("blocks", True),  # counted as one block
        ("target_fee", 9.5),
        ("target_fee", True),
        ("target_fee", math.nan),
        ("target_fee", math.inf),
        ("target_fee", -1),
        ("head_block_fee", math.nan),  # gave a gamma of nan
        ("head_block_fee", 2.5),
        ("head_block_fee", -1),
        ("k", True),  # split as if k were 1
        ("k", 2.0),
    ],
)
def test_the_selectors_reject_a_count_or_fee_that_is_no_integer(params, name, value):
    pool = pool_of(tx("a", 50, 3), tx("b", 80, 2))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        SELECTOR_CALLS[name](pool, params, value)


def test_check_integer_names_the_argument_and_its_bound():
    for least, kind in ((None, "an integer"), (0, "a non-negative integer"), (1, "a positive integer")):
        with pytest.raises(ValueError, match=re.escape(f"x must be {kind}, got '3'")):
            mempool.check_integer("x", "3", least)
        mempool.check_integer("x", np.int64(1), least)
    with pytest.raises(ValueError, match="^x must be a non-negative integer, got -1$"):
        mempool.check_integer("x", -1, 0)
    with pytest.raises(ValueError, match="^x must be a positive integer, got 0$"):
        mempool.check_integer("x", 0, 1)


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


BIG = 2**60  # past float64's exact range, as are fees at or past 2**63


@pytest.mark.parametrize(
    "fees",
    [
        (2**64, 2**70, 2**63, 2**63 + 5, 7),  # past int64
        (16, 1024, 8, 8, 0),  # small fees over huge sizes
    ],
)
def test_object_columns_pack_like_the_full_scan(fees):
    # selection order b, d, a, c, e; sizes 5, 1, 3, 2 and 4 BIG
    sizes = (3 * BIG, 5 * BIG, 2 * BIG, BIG, 4 * BIG)
    pool = pool_of(*(tx(i, size, fee) for i, size, fee in zip("abcde", sizes, fees)))
    table = pool.table
    assert table.fees.dtype == object and table.sizes.dtype == object
    assert [t.id for t in pool.pending] == list("bdace")
    assert pool.totals == (sum(fees), sum(sizes))
    # 15 BIG: the whole pool fits; 8 BIG: the prefix b, d breaks at a, then c fits
    for budget in (15 * BIG, 8 * BIG, 7 * BIG, BIG - 1):
        expected = full_scan_pack(pool.pending, budget)
        pack = pool.packed(budget)
        assert pack.pending == tuple(expected)
        assert pack.template() == template_of(pool, expected)
        assert pack.totals == (sum(t.fee for t in expected), sum(t.size for t in expected))
        left = full_scan_pack([t for t in pool.pending if t not in expected], budget)
        assert pool.fee_left(range(len(expected)), budget) == sum(t.fee for t in left)
    assert [t.id for t in pool.packed(8 * BIG).pending] == ["b", "d", "c"]
    assert pool.packed(15 * BIG).ranks.base is pool.ranks


def test_claimable_fees_budget(params):
    pool = pool_of(tx("a", 100, 10), tx("b", 100, 8), tx("c", 100, 6))
    assert claimable_fees(pool, params, 1) == 10
    assert claimable_fees(pool, params, 2) == 18
    assert claimable_fees(pool, params, 0) == 0
