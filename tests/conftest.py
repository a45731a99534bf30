from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from undercut.mempool import BandwidthSetResult, ChainParams, MempoolView, RankTable, Transaction
from undercut.trace import synthesize_whale_trace


@pytest.fixture
def params():
    return ChainParams(block_size_limit=100, block_interval=600.0)


def tx(id_, size, fee, t=0.0):
    return Transaction(id=id_, arrival_time=t, size=size, fee=fee)


def selection_key(t):
    """Reference selection order, which ``RankTable`` numbers its ranks in:
    highest fee rate first, then higher fee, then id."""
    return (-t.fee / t.size, -t.fee, t.id)


def pool_of(*txs):
    """A view of all of ``txs``, over a table built from them."""
    return MempoolView(RankTable(txs), np.arange(len(txs), dtype=np.intp))


def view_ids(view):
    """The ids of a view's transactions, read from its table's id column."""
    return frozenset(view.table.ids[view.ranks].tolist())


def ranked_view(pool, offset):
    """``pool`` as a chain hands it out: a strict subset of a larger RankTable.

    ``offset`` small, rich fillers rank first, and a filler twin of each
    transaction (same size and fee, its id plus ``~``) ranks right after
    it, so ranks differ from positions and the table's size floor may lie
    below the pool's.
    """
    lead = [tx(f"~lead{i}", 1, 10**9) for i in range(offset)]
    twins = [tx(f"{t.id}~", t.size, t.fee) for t in pool.pending]
    table = RankTable([*pool.pending, *lead, *twins])
    mine = view_ids(pool)
    ranks = np.array([r for r, t in enumerate(table.txs) if t.id in mine], dtype=np.intp)
    return MempoolView(table, ranks)


@contextmanager
def pending_reads():
    """Collect every view whose ``pending`` is read inside the block."""
    reads = []
    read = MempoolView.pending.fget

    def spy(view):
        reads.append(view)
        return read(view)

    with mock.patch.object(MempoolView, "pending", property(spy)):
        yield reads


def template_of(view, txs):
    """The template of ``txs``, which ``view`` holds, with their ranks."""
    rank = dict(zip(view.pending, view.ranks.tolist()))
    return BandwidthSetResult(
        table=view.table,
        ranks=np.array([rank[t] for t in txs], dtype=np.intp),
        total_fee=sum(t.fee for t in txs),
        total_size=sum(t.size for t in txs),
    )


TABLE_COLUMNS = ("ids", "fees", "sizes", "id_order", "arrivals", "times", "arrived_fee", "arrived_size")


def assert_same_columns(table, other):
    """The two tables hold equal columns of equal dtypes, and equal totals."""
    for name in TABLE_COLUMNS:
        a, b = getattr(table, name), getattr(other, name)
        assert (name, a.dtype, a.tolist()) == (name, b.dtype, b.tolist())
    assert (table.size_floor, table.total_fee) == (other.size_floor, other.total_fee)


def assert_carries_its_ranks(template, view):
    """The template names its transactions by their ranks in the view's table, and the view holds them."""
    assert template.table is view.table or not len(template.ranks)
    assert set(template.ranks.tolist()) <= set(view.ranks.tolist())


def full_scan_pack(txs, budget):
    """Reference first-fit packing: walks the whole pool, no early exit."""
    chosen, room = [], budget
    for t in txs:
        if t.size <= room:
            chosen.append(t)
            room -= t.size
    return chosen


def random_pool(rng, n_max=15, size_max=10, fee_max=40):
    n = int(rng.integers(1, n_max + 1))
    txs = [
        tx(f"t{i:02d}", int(rng.integers(1, size_max + 1)), int(rng.integers(0, fee_max + 1)))
        for i in range(n)
    ]
    total = sum(t.size for t in txs)
    limit = max(1, int(total * float(rng.uniform(0.3, 0.9))))
    return pool_of(*txs), ChainParams(block_size_limit=limit, block_interval=600.0)


def oracle_best_fee(pool, params):
    """Independent exhaustive maximum-fee subset via numpy bitmasks."""
    txs = pool.pending
    n = len(txs)
    if n == 0:
        return 0
    masks = np.arange(1 << n, dtype=np.uint32)
    members = (masks[:, None] >> np.arange(n)) & 1  # subset x tx matrix
    sizes = members @ np.array([t.size for t in txs])
    fees = members @ np.array([t.fee for t in txs])
    return int(fees[sizes <= params.block_size_limit].max())


def whale_trace(seed, interval, duration, dust_rate=20.0, whale_rate=0.25):
    """``trace.synthesize_whale_trace`` with the interval second, as the tests pass it."""
    return synthesize_whale_trace(seed, duration, dust_rate, whale_rate, interval)
