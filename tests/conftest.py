import csv
from contextlib import contextmanager
from itertools import chain
from unittest import mock

import numpy as np
import pytest

from undercut.mempool import BandwidthSetResult, ChainParams, MempoolView, RankTable, Transaction
from undercut.trace import TRACE_COLUMNS, _time_number, synthesize_trace, synthesize_whale_trace


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


def walk_first_fit(weights, others, ranks, budget, floor):
    """Reference ``mempool._first_fit``: its earlier walk, position by position in Python past the first skip.

    The ranks it picks from ranks within budget of the weights column, the
    budget they use and their sum of the others column.  One cumsum over
    the head of budget // floor + 1 ranks (the whole view at floor 0) cuts
    the longest prefix that fits; a Python scan goes on past the rank it
    skipped until the room left is below floor.
    """
    head = ranks[: budget // floor + 1] if floor else ranks
    filled = np.cumsum(weights[head])
    n = int(filled.searchsorted(budget, "right"))
    room = budget - (int(filled[n - 1]) if n else 0)
    other = int(others[ranks[:n]].sum())
    if room < floor:
        return ranks[:n], budget - room, other
    picked = []
    scanned = chain(weights[head[n + 1 :]].tolist(), _column_from(weights, ranks, len(head)))
    for i, weight in enumerate(scanned, n + 1):
        if weight <= room:
            picked.append(i)
            room -= weight
            if room < floor:
                break
    if not picked:
        return ranks[:n], budget - room, other
    extra = ranks[picked]
    return np.concatenate((ranks[:n], extra)), budget - room, other + sum(others[extra].tolist())


def _column_from(column, ranks, start):
    # read only once the scan gets past the head
    yield from column[ranks[start:]].tolist()


def shift_objective(lead, fork_power, depth, claimable_main, claimable_fork, owned_main, owned_fork, movable):
    """The objective ``strategy.rational_shift_general`` compares at x = 0 and x = 1, as a function of x."""
    movable = min(movable, 1.0 - fork_power)

    def objective(x):
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

    return objective


def scan_shift(*args, grid=100):
    """Reference ``strategy.rational_shift_general``: its earlier scan of the objective over grid + 1 points.

    The best of x = 0, 1/grid, ..., 1; ties resolve toward the smaller
    x, so toward staying.
    """
    objective = shift_objective(*args)
    best_x = 0.0
    best_value = objective(0.0)
    for i in range(1, grid + 1):
        x = i / grid
        value = objective(x)
        if value > best_value:
            best_x, best_value = x, value
    return best_x


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


def backlog_trace(seed, intervals, dust_rate, whale_scale, whale_rate=0.25, interval=600.0):
    """A backlog regime: dust with uniform fees 1..600 and sizes 150..650
    (ids ``d…``, drawn from ``seed``), plus Pareto(1.5, ``whale_scale``)
    whales of sizes 2,000..4,000 (ids ``w…``, from ``seed + 1``), over
    ``intervals`` block intervals.  Rates are per interval.  At 3,000 dust
    an interval, a scale of 2,000,000 and a 1 MB limit it is the chain-scale
    backlog of ROADMAP item 11; about 1.2 blocks of dust arrive per block."""
    duration = intervals * interval
    dust = synthesize_trace(
        dust_rate / interval, duration, seed, "uniform", (1, 600), "uniform", (150, 650), id_prefix="d"
    )
    whales = synthesize_trace(
        whale_rate / interval, duration, seed + 1, "pareto", (1.5, whale_scale), "uniform", (2000, 4000), id_prefix="w"
    )
    return sorted(dust + whales, key=lambda t: (t.arrival_time, t.id))


def csv_writer_trace(records, path):
    """Reference CSV ``trace.write_trace``: its earlier writer, one ``csv.writer`` row per transaction.

    A csv.writer quotes a field holding "\\n" but not a lone "\\r", where
    the reader also ends a line, so an id holding "\\r" goes through a
    second writer that quotes every field that is no number.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        writer.writerow(TRACE_COLUMNS)
        for t in records:
            row = [t.id, _time_number(t.arrival_time), t.size, t.fee]
            (quoted if "\r" in t.id else writer).writerow(row)
