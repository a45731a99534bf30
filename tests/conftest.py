import numpy as np
import pytest

from undercut.mempool import BandwidthSetResult, ChainParams, MempoolView, RankTable, Transaction
from undercut.trace import synthesize_trace


@pytest.fixture
def params():
    return ChainParams(block_size_limit=100, block_interval=600.0)


def tx(id_, size, fee, t=0.0):
    return Transaction(id=id_, arrival_time=t, size=size, fee=fee)


def pool_of(*txs):
    return MempoolView.of(txs)


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
    mine = pool.ids()
    ranks = np.array([r for r, t in enumerate(table.txs) if t.id in mine], dtype=np.intp)
    return MempoolView(table, ranks)


def template_of(view, txs):
    """The template of ``txs``, which ``view`` holds, with their ranks."""
    rank = dict(zip(view.pending, view.ranks.tolist()))
    return BandwidthSetResult.from_transactions(txs, np.array([rank[t] for t in txs], dtype=np.intp))


def assert_carries_its_ranks(template, view):
    """Each of the template's ids comes with its rank in the view's table, and the view holds it."""
    assert [t.id for t in view.table.txs[template.ranks]] == list(template.tx_ids)
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
    """Dust floor plus rare heavy-tailed whales: the regime in which
    wealthy heads appear and attack conditions actually fire."""
    dust = synthesize_trace(
        rate=dust_rate / interval,
        duration=duration,
        seed=seed,
        fee_dist="uniform",
        fee_args=(1, 60),
        size_dist="uniform",
        size_args=(1500, 2500),
        id_prefix="d",
    )
    whales = synthesize_trace(
        rate=whale_rate / interval,
        duration=duration,
        seed=seed + 1,
        fee_dist="pareto",
        fee_args=(1.5, 2_000_000),
        size_dist="uniform",
        size_args=(2000, 4000),
        id_prefix="w",
    )
    return sorted(dust + whales, key=lambda t: (t.arrival_time, t.id))
