import numpy as np
import pytest

from undercut.mempool import ChainParams, MempoolView, Transaction
from undercut.trace import synthesize_trace


@pytest.fixture
def params():
    return ChainParams(block_size_limit=100, block_interval=600.0)


def tx(id_, size, fee, t=0.0):
    return Transaction(id=id_, arrival_time=t, size=size, fee=fee)


def pool_of(*txs):
    return MempoolView(pending=tuple(txs))


def ranked_view(pool, offset):
    """``pool`` as a chain hands it out: presorted, with increasing ranks."""
    ranks = np.arange(len(pool.pending), dtype=np.intp) * 3 + offset
    return MempoolView(pending=pool.pending, presorted=True, size_floor=pool.size_floor, ranks=ranks)


def assert_carries_its_ranks(template, view):
    """Each of the template's ids comes with the rank the view gives it."""
    rank = {t.id: r for t, r in zip(view.pending, view.ranks.tolist())}
    assert template.ranks.tolist() == [rank[i] for i in template.tx_ids]


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
