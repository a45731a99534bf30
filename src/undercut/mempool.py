"""Unconfirmed-transaction pools and fee-weighted block template selection.

The central object is the "bandwidth set": the subset of pending
transactions that maximizes total fees while fitting the block size
limit.  Every set a block is cut from is a ``MempoolView``: a chain's
pool, a greedy pack of it, or an attacked head.  One first-fit walk,
``_first_fit``, packs by size (greedy packs, ``fee_left``) and claims by
fee (``claim_partial``, whose template holds the ranks it picked); every
other template comes from ``MempoolView.template``, and everything else
that crafts a block (attack templates, splits, exact avoidance) reads
fees and sizes by position through ``MempoolView.column``.

A trace is prepared once as a ``RankTable``: its transactions as
columns (ids, fees, sizes, times), numbered in selection order.  Inside a
run a transaction is named by its rank in that table alone: a view is a
set of ranks, a template holds the ranks of its transactions, and a split
orders a view by the table's ``id_order`` column.  No selector reads a
``Transaction``, and none is built during a run: ids are gathered from
the table's id column only when a caller asks for a template's
``tx_ids``.  Tables and views compare by identity; a ``Transaction`` is
built from the columns only for a reader outside a run, which iterates a
table or reads a view's ``pending``.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapreplace
from collections.abc import Collection, Iterable, Iterator, Sequence
from itertools import chain

import numpy as np


class InstanceTooLargeError(ValueError):
    """Exact selection requested on a pool too big to enumerate."""


class UnsplittableError(ValueError):
    """Set to split into equal-fee parts exceeds the block size limit."""


# Exhaustive selection is only allowed up to this many transactions.
EXACT_SELECTION_LIMIT = 25


@dataclass(frozen=True, slots=True)
class Transaction:
    """One fee-bearing transaction: the atom of pools and blocks.

    Fees are integers in base currency units (satoshi / piconero scale)
    so that conservation checks never see floating-point drift.  Sizes
    are integers in whatever unit the trace declares (bytes or weight
    units), one convention per trace; ``RankTable``'s columns would
    truncate a float, so a float or bool fee or size is rejected.  The
    arrival time is a real number, not a bool: ``RankTable`` reads times
    into a float column, which would parse a string.

    A trace held as a list holds one object per row, so the class has
    slots and no per-object ``__dict__`` (a loaded trace is a
    ``RankTable`` and holds none).  ``__reduce__`` rebuilds a pickled or
    copied transaction through the constructor: a sweep worker that
    unpickles a list trace then holds the same compact, validated
    objects as the process that built it.
    """

    id: str
    arrival_time: float
    size: int
    fee: int

    def __post_init__(self) -> None:
        size, fee, t = self.size, self.fee, self.arrival_time
        if not (type(size) is int and type(fee) is int or _is_integer(size) and _is_integer(fee)):
            raise TypeError(f"transaction {self.id!r}: size and fee must be integers, got {size!r} and {fee!r}")
        if type(t) is not float and (isinstance(t, bool) or not isinstance(t, numbers.Real)):
            raise TypeError(f"transaction {self.id!r}: arrival_time must be a real number, got {t!r}")
        if size <= 0:
            raise ValueError(f"transaction {self.id!r}: size must be positive, got {size}")
        if fee < 0:
            raise ValueError(f"transaction {self.id!r}: fee must be non-negative, got {fee}")

    def __reduce__(self):
        return type(self), (self.id, self.arrival_time, self.size, self.fee)


@dataclass(frozen=True)
class ChainParams:
    """Chain-level constants: block size limit, target interval, negligible bound."""

    block_size_limit: int
    block_interval: float
    negligible_fee_threshold: float = 0.01

    def __post_init__(self) -> None:
        check_integer("block_size_limit", self.block_size_limit, 1)
        if not 0.0 < self.block_interval < math.inf:
            raise ValueError(f"block_interval must be positive and finite, got {self.block_interval}")
        check_negligible(self.negligible_fee_threshold)


def _is_integer(value: object) -> bool:
    # an int or a numpy integer; bool is an int subclass but no count
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_INTEGER_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def check_integer(name: str, value: object, least: int | None = None) -> None:
    """Reject a value that is no integer (a bool included), or one below ``least``, with a named message.

    ``least`` is None, 0 or 1; the message names the value by its ``repr``.
    """
    if (type(value) is int or _is_integer(value)) and (least is None or value >= least):
        return
    raise ValueError(f"{name} must be {_INTEGER_KINDS[least]}, got {value!r}")


def check_negligible(threshold: float) -> None:
    """Reject a negligible-fee bound outside [0, 1), NaN included, with a named message."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"negligible_fee_threshold must lie in [0, 1), got {threshold}")


class RankTable:
    """A prepared trace: its transactions as columns, numbered once in selection order.

    ``trace.load_trace`` returns one, parsed straight into columns, so
    runs on a loaded trace share it and no run builds a table of its own.
    ``len`` is the number of transactions, and iterating a table builds
    them from the columns in ``(arrival_time, id)`` order, as
    ``write_trace`` writes them.  A table pickles as its columns and
    compares by identity.

    Selection order is the order of every pool, in which templates are
    packed greedily: highest fee rate first, ties broken by higher
    absolute fee, then by id, so replays are deterministic.  Inside a run
    a transaction is its rank: its position in selection order, so a set
    of ranks read in increasing order is a pool in selection order (a
    ``MempoolView``).  ``ids[r]``, ``fees[r]`` and ``sizes[r]`` are the
    id, fee and size of rank ``r``: the columns that packs, templates and
    ``tx_ids`` read.
    ``id_order[r]`` is its position in id order, the column a split
    breaks fee ties by.  ``arrivals[i]`` is the rank of the i-th arrival,
    at ``times[i]``, and ``size_floor`` the smallest size, a lower bound
    for every view.  ``arrived_fee[i]`` and ``arrived_size[i]`` are the
    fee and size of the first ``i`` arrivals, n + 1 prefix sums each, so
    ``arrival_totals`` sums any run of arrivals with two differences (the
    totals every arrival hands a chain), and ``total_fee``, the trace's
    fee, is the last fee prefix.  The table maps no id to a rank:
    templates carry the ranks of their transactions.  ``txs[r]``, the
    ``Transaction`` of rank ``r``, is built from the columns the first
    time it is read (by ``MempoolView.pending``); no run reads it.

    Both constructors go through one build from columns:
    ``RankTable(transactions)`` reads the columns of its transactions,
    and ``from_columns`` takes them parsed.  The build is the one place a
    pool is sorted and checked: for repeated ids, and for an arrival time
    that is not finite (an inf or NaN time has no place in the arrival
    order, and no run could reach it).  It makes one Python sort, by id,
    and orders everything else with stable array sorts over that id
    order, so every tie falls back to the id: one ``np.lexsort`` on (fee
    rate, fee) descending gives exactly selection order, and one
    stable ``np.argsort`` on the times gives ``(arrival_time, id)`` order.
    Ids are kept and compared as Python strings (a numpy ``'U'`` array
    would drop trailing NULs).  A repeated id shows as two equal
    neighbours in the id order.  Times are read into a float64 column.

    The fee and size columns are int64, and the fee rates their float64
    quotients, while every fee and size lies below 2**53 (so float64
    holds it, and divides it with the one rounding Python's ``fee /
    size`` makes) and no sum of them can pass int64.  Otherwise they hold
    Python ints, the rates are Python's own quotients, and every sort and
    sum stays exact.  Each prefix column has its column's dtype.
    """

    __slots__ = (
        "ids",
        "fees",
        "sizes",
        "id_order",
        "size_floor",
        "arrivals",
        "times",
        "arrived_fee",
        "arrived_size",
        "_txs",
    )
    _COLUMNS = __slots__[:-1]

    def __init__(self, trace: Iterable[Transaction]):
        txs = list(trace)
        times = np.fromiter((tx.arrival_time for tx in txs), float, len(txs))
        self._build([tx.id for tx in txs], times, [tx.size for tx in txs], [tx.fee for tx in txs])

    @classmethod
    def from_columns(
        cls, ids: list[str], times: np.ndarray, sizes: Sequence[int], fees: Sequence[int]
    ) -> "RankTable":
        """The table of the rows whose id, time, size and fee these are, in any order.

        The rows must be ones ``Transaction`` accepts: integer sizes and
        fees, sizes positive and fees non-negative.
        """
        table = cls.__new__(cls)
        table._build(ids, times, sizes, fees)
        return table

    @classmethod
    def of(cls, trace: Iterable[Transaction]) -> "RankTable":
        """``trace`` itself if it is a table, else the table built from it."""
        return trace if isinstance(trace, cls) else cls(trace)

    def _build(self, ids: list[str], times: np.ndarray, sizes: Sequence[int], fees: Sequence[int]) -> None:
        n = len(ids)
        by_id = np.fromiter(sorted(range(n), key=ids.__getitem__), np.intp, n)
        ids = np.array(ids, dtype=object)[by_id]
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("duplicate transaction ids in trace")
        # each temporary goes once read, which keeps the build's peak memory low
        fees, sizes = _int_columns(fees, sizes)
        fees, sizes, times = fees[by_id], sizes[by_id], times[by_id]
        del by_id
        finite = np.isfinite(times)
        if not finite.all():
            bad = int(finite.argmin())
            raise ValueError(f"transaction {ids[bad]!r}: arrival_time must be finite, got {times[bad]}")
        del finite
        if fees.dtype == object:
            rates = np.array([fee / size for fee, size in zip(fees.tolist(), sizes.tolist())], dtype=float)
        else:
            rates = fees / sizes
        np.negative(rates, out=rates)  # rate descending, then fee descending; ties keep id order
        self.id_order = ordered = np.lexsort((-fees, rates))
        del rates
        self.ids = ids[ordered]
        self.fees = fees[ordered]
        self.sizes = sizes[ordered]
        del ids, fees, sizes
        self.size_floor = int(self.sizes.min()) if n else 1
        arriving = np.argsort(times, kind="stable")
        self.times = times[arriving]
        del times
        rank = np.empty(n, dtype=np.intp)
        rank[ordered] = np.arange(n)
        self.arrivals = rank[arriving]
        del rank, arriving
        self.arrived_fee = _prefix_sums(self.fees[self.arrivals])
        self.arrived_size = _prefix_sums(self.sizes[self.arrivals])
        self._txs = None

    @property
    def total_fee(self) -> int:
        """The fee of the whole trace: the last arrival prefix."""
        return int(self.arrived_fee[-1])

    def arrival_totals(self, start: int, end: int) -> tuple[int, int]:
        """The fee and size of the arrivals ``start`` to ``end - 1``: a difference of two prefixes each."""
        fee, size = self.arrived_fee, self.arrived_size
        return int(fee[end] - fee[start]), int(size[end] - size[start])

    @property
    def txs(self) -> np.ndarray:
        """The ``Transaction`` of each rank, built from the columns on first read."""
        if self._txs is None:
            times = np.empty_like(self.times)
            times[self.arrivals] = self.times
            columns = (self.ids.tolist(), times.tolist(), self.sizes.tolist(), self.fees.tolist())
            self._txs = np.fromiter(map(Transaction, *columns), object, len(self))
        return self._txs

    def totals(self, ranks: np.ndarray | Sequence[int]) -> tuple[int, int]:
        """The fee and size of the transactions of ``ranks``, summed from the columns.

        Python sums over ``tolist``: exact for either dtype, and on the few
        ranks callers pass cheaper than two numpy reductions.  Inside a run
        only the template of a split part sums its ranks; every other set
        carries the totals some earlier step summed (see ``MempoolView``).
        """
        return sum(self.fees[ranks].tolist()), sum(self.sizes[ranks].tolist())

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Transaction]:
        """The trace's transactions in ``(arrival_time, id)`` order, built from the columns."""
        at = self.arrivals
        columns = (self.ids[at].tolist(), self.times.tolist(), self.sizes[at].tolist(), self.fees[at].tolist())
        return map(Transaction, *columns)

    def __getstate__(self) -> dict[str, object]:
        return {name: getattr(self, name) for name in self._COLUMNS}

    def __setstate__(self, state: dict[str, object]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._txs = None


# Below this, an integer and its float64 are equal, so a quotient of two
# such integers rounds once in numpy as it does in Python.
_FLOAT_EXACT = 2**53
_INT64_LIMIT = 2**63


def _prefix_sums(column: np.ndarray) -> np.ndarray:
    # 0, then the running sums of column, summed in place into the array
    # returned; an object column sums exact Python ints
    sums = np.zeros(len(column) + 1, dtype=column.dtype)
    np.cumsum(column, out=sums[1:])
    return sums


def _int_columns(fees: Sequence[int], sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    # The fee and size columns, int64 where RankTable's fast path is
    # exact for them, else Python ints.
    n = len(fees)
    try:
        fee_column = np.fromiter(fees, np.int64, n)
        size_column = np.fromiter(sizes, np.int64, n)
    except OverflowError:  # past int64
        pass
    else:
        top = int(max(fee_column.max(initial=0), size_column.max(initial=0)))
        if top < _FLOAT_EXACT and top * n < _INT64_LIMIT:
            return fee_column, size_column
    return np.fromiter(fees, object, n), np.fromiter(sizes, object, n)


class MempoolView:
    """Snapshot of one chain's unconfirmed transactions: a set of ranks over a ``RankTable``.

    ``ranks`` holds them in increasing order, so position ``i`` of a view
    is rank ``ranks[i]``, in selection order.  Its fee and size are
    ``column("fees")[i]`` and ``column("sizes")[i]``.  Packs, ``fee_left``
    and fee claims run ``_first_fit`` over the table's columns at the
    view's ranks; splits and avoidance read the columns by position, and
    ``template`` builds the template of a set of positions, which carries
    their ranks.  ``engine.Chain.view`` views the ranks a chain holds; a
    greedy pack (``packed``) and an attacked head are views too.  A view
    is never changed after it is made, and compares by identity.

    ``totals`` is the view's (fee, size): the totals a chain keeps, a
    block's for an attacked head, a pack's from its cut, or, for a view
    built outside a run, summed from the columns the first time they are
    read.  A view that fits the budget packs whole, with no scan, and its
    pack has its totals.  Otherwise the pack takes the longest prefix that
    fits, cut by one ``cumsum`` over the sizes of the pool's head (no pack
    holds more than ``budget // size_floor`` transactions), and scans on
    in Python only past the first skip; the cut gives the pack's totals:
    its size is the budget less the room left, and its fee one sum over
    the prefix's fees and one over those the scan picked.

    ``packed`` memoizes the greedy pack of each size budget asked for, so
    a snapshot that ``bandwidth_set``, ``gamma_ratio`` and
    ``claimable_fees`` all read is packed once per budget.

    No run reads ``pending``, the view's transactions (``table.txs`` at
    its ranks, gathered on each read), or ``without``, which drops
    transactions by id; benchmark tracing and tests do.
    """

    __slots__ = ("table", "ranks", "_totals", "_packs")

    def __init__(self, table: RankTable, ranks: np.ndarray, totals: tuple[int, int] | None = None):
        self.table = table
        self.ranks = ranks
        self._totals = totals
        self._packs: dict[int, MempoolView] = {}

    @property
    def pending(self) -> tuple[Transaction, ...]:
        """The view's transactions, in selection order."""
        return tuple(self.table.txs[self.ranks].tolist())

    @property
    def totals(self) -> tuple[int, int]:
        """The (fee, size) of the view's transactions."""
        totals = self._totals
        if totals is None:
            totals = self._totals = self.table.totals(self.ranks)
        return totals

    def column(self, name: str) -> list[int]:
        """The table's ``"fees"`` or ``"sizes"`` column at the view's ranks: a list by position."""
        return getattr(self.table, name)[self.ranks].tolist()

    def packed(self, size_budget: int) -> "MempoolView":
        """The view of the greedy pack of the pool within ``size_budget``, memoized.

        A pack's ranks are the pool's, in order; those of a prefix pack
        (the whole pool's, when it fits) are a slice of the pool's.
        """
        pack = self._packs.get(size_budget)
        if pack is None:
            table, ranks, totals = self.table, self.ranks, self.totals
            if totals[1] <= size_budget:
                pack = MempoolView(table, ranks[:], totals)
            else:
                picked, size, fee = _first_fit(table.sizes, table.fees, ranks, size_budget, table.size_floor)
                pack = MempoolView(table, picked, (fee, size))
            self._packs[size_budget] = pack
        return pack

    def fee_left(self, claimed: Collection[int], size_budget: int) -> int:
        """The fee greedy packs within ``size_budget`` once the ``claimed`` positions of its pack are mined.

        The pack is this view's memoized ``packed(size_budget)``, and
        ``claimed`` holds distinct positions in it.  The fee is that of the
        bandwidth set of ``without`` them (with all claimed, the second
        set's), packed from the pool's ranks less the claimed ones, without
        building a view, and read from the cut of that pack.  When the pool
        fits the budget, greedy packs all that is left, so the fee is the
        pool's less the claimed transactions': the pack's own fee when all
        are claimed.
        """
        table = self.table
        pack = self.packed(size_budget)
        whole = len(claimed) == len(pack.ranks)
        gone = pack.ranks if whole else pack.ranks[_index(claimed)]
        if len(pack.ranks) == len(self.ranks):
            return self.totals[0] - (pack.totals[0] if whole else sum(table.fees[gone].tolist()))
        rest = np.delete(self.ranks, self.ranks.searchsorted(gone))
        return _first_fit(table.sizes, table.fees, rest, size_budget, table.size_floor)[2]

    def template(
        self, positions: Collection[int] | None = None, totals: tuple[int, int] | None = None
    ) -> "BandwidthSetResult":
        """The template of each of ``positions``, in that order, or of all of them.

        A range of positions is read as a slice.  ``totals`` is their (fee,
        size) when the caller already holds it; otherwise it is the view's
        ``totals`` for all of them, or summed from the table's columns.
        """
        ranks = self.ranks if positions is None else self.ranks[_index(positions)]
        if totals is None:
            totals = self.totals if positions is None else self.table.totals(ranks)
        return BandwidthSetResult(self.table, ranks, *totals)

    def without(self, tx_ids: Iterable[str]) -> "MempoolView":
        """Pool after the given transactions were mined on this chain."""
        gone = frozenset(tx_ids)
        keep = [i for i, tx in enumerate(self.pending) if tx.id not in gone]
        return MempoolView(self.table, self.ranks[keep])


def _first_fit(
    weights: np.ndarray, others: np.ndarray, ranks: np.ndarray, budget: int, floor: int
) -> tuple[np.ndarray, int, int]:
    # The one first-fit walk: the ranks it picks from ranks (in increasing
    # order) within budget of the weights column, the budget they use and
    # their sum of the others column.  Packs weigh sizes with floor
    # size_floor; a fee claim weighs fees with floor 0, which bounds no head
    # (a fee may be 0).  No pick outgrows the head of budget // floor + 1
    # ranks: one cumsum over its weights cuts the longest prefix that fits,
    # then a Python scan goes on past the rank it skipped until the room
    # left is below floor, reading weights past the head only if it gets
    # there.  The others' sum is one sum over the prefix (exact for either
    # dtype: an int64 column's sums fit int64) plus one over the scan's.
    head = ranks[: budget // floor + 1] if floor else ranks
    filled = np.cumsum(weights[head])
    n = int(filled.searchsorted(budget, "right"))
    room = budget - (int(filled[n - 1]) if n else 0)
    other = int(others[ranks[:n]].sum())
    if room < floor:
        return ranks[:n], budget - room, other
    picked: list[int] = []
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


def _column_from(column: np.ndarray, ranks: np.ndarray, start: int) -> Iterator[int]:
    yield from column[ranks[start:]].tolist()


def _index(positions: Collection[int]) -> slice | np.ndarray:
    # positions as an array index: a range with a positive step as its slice
    if isinstance(positions, range) and positions.step > 0:
        return slice(positions.start, positions.stop, positions.step)
    return np.fromiter(positions, np.intp, len(positions))


@dataclass(frozen=True, eq=False)
class BandwidthSetResult:
    """A block template: the ranks of its transactions in a ``RankTable``, plus fee/size totals.

    ``ranks`` preserves selection order (fee-rate descending for the
    greedy path), which callers use to carve prefixes off a template.
    ``MempoolView.template`` fills it from the ranks of its view, and the
    engine removes a published template by them.  The template stores
    no ids: ``tx_ids`` gathers them from ``table`` on each read, and is
    ``()`` for no ranks (``EMPTY_TEMPLATE`` has no table); they are read
    from the table's ``ids`` column.

    Two templates are equal when their ``tx_ids``, ``total_fee`` and
    ``total_size`` are, whatever their tables; a template is not hashable.
    """

    table: RankTable | None
    ranks: np.ndarray
    total_fee: int
    total_size: int

    @property
    def tx_ids(self) -> tuple[str, ...]:
        return tuple(self.table.ids[self.ranks].tolist()) if len(self.ranks) else ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.tx_ids, self.total_fee, self.total_size) == (other.tx_ids, other.total_fee, other.total_size)


EMPTY_TEMPLATE = BandwidthSetResult(table=None, ranks=np.empty(0, dtype=np.intp), total_fee=0, total_size=0)


def _exact_best_subset(fees: Sequence[int], sizes: Sequence[int], limit: int) -> list[int]:
    # The positions, in increasing order, of a maximum-fee subset of the
    # transactions of these fees and sizes that fits limit.  Meet-in-the-
    # middle over the power set: exhaustive, deterministic, and fast
    # enough for the 25-transaction cap.
    half = len(fees) // 2
    txs = list(zip(fees, sizes))

    def enumerate_side(side: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
        out = []
        for mask in range(1 << len(side)):
            size = fee = 0
            for i, (tx_fee, tx_size) in enumerate(side):
                if mask >> i & 1:
                    size += tx_size
                    fee += tx_fee
            if size <= limit:
                out.append((size, fee, mask))
        return out

    left_sets = enumerate_side(txs[:half])
    right_sets = enumerate_side(txs[half:])
    # For each size, keep the best right-side fee at or below it.
    right_sets.sort(key=lambda t: (t[0], -t[1], t[2]))
    best_by_size: list[tuple[int, int, int]] = []
    best_fee = -1
    for size, fee, mask in right_sets:
        if fee > best_fee:
            best_fee = fee
            best_by_size.append((size, fee, mask))

    sizes = [t[0] for t in best_by_size]
    best = (-1, 0, 0)  # fee, left mask, right mask
    for size, fee, mask in left_sets:
        idx = bisect_right(sizes, limit - size) - 1
        if idx < 0:
            continue
        _, rfee, rmask = best_by_size[idx]
        if fee + rfee > best[0]:
            best = (fee + rfee, mask, rmask)
    _, lmask, rmask = best
    chosen = lmask | rmask << half
    return [i for i in range(len(txs)) if chosen >> i & 1]


def bandwidth_set(pool: MempoolView, params: ChainParams, mode: str = "greedy") -> BandwidthSetResult:
    """Select a maximum-fee template fitting the block size limit.

    ``greedy`` packs first-fit in selection order: what real miners run,
    and what the simulation engine uses.  ``exact`` enumerates subsets
    and is intended for oracle testing only; it refuses pools above
    EXACT_SELECTION_LIMIT transactions.
    """
    if mode == "greedy":
        return pool.packed(params.block_size_limit).template()
    if mode == "exact":
        if len(pool.ranks) > EXACT_SELECTION_LIMIT:
            raise InstanceTooLargeError(
                f"exact selection limited to {EXACT_SELECTION_LIMIT} transactions, "
                f"pool has {len(pool.ranks)}"
            )
        best = _exact_best_subset(pool.column("fees"), pool.column("sizes"), params.block_size_limit)
        return pool.template(best)
    raise ValueError(f"unknown selection mode {mode!r}")


def gamma_ratio(pool: MempoolView, head_block_fee: int, params: ChainParams) -> float:
    """Wealth ratio of the next claimable template to the chain head block.

    Returns ``inf`` when the head carries no fees but the pool does, and
    0.0 when nothing claimable remains.
    """
    check_integer("head_block_fee", head_block_fee, 0)
    return gamma_of_fees(claimable_fees(pool, params, 1), head_block_fee)


def gamma_of_fees(next_fee: int, head_block_fee: int) -> float:
    """``gamma_ratio`` once the next template's fee is known."""
    if next_fee == 0:
        return 0.0
    if head_block_fee == 0:
        return float("inf")
    return next_fee / head_block_fee


def split_equal_fee(pool: MempoolView, k: int, params: ChainParams) -> list[list[int]]:
    """Split a view that fits one block into ``k`` fee-balanced parts of its positions, lightest first.

    Longest-processing-time heuristic: assign in descending fee order
    (ties by id, read from the table's ``id_order``) to the part with the
    least fee, the lowest-numbered part on a fee tie: the top of a heap of
    (fee, part number), one ``heapreplace`` per transaction.  The parts come
    back in (fee, part number) order, so ``[0]`` is the lightest part,
    the one every attack template takes.  Each part lists positions in
    ``pool`` in the order they were assigned.  Every caller splits a set
    that fits one block (a head block or a bandwidth set), so every part
    fits one too; a view larger than ``block_size_limit`` raises
    ``UnsplittableError``.
    """
    check_integer("k", k)
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    size = pool.totals[1]
    if size > params.block_size_limit:
        raise UnsplittableError(
            f"cannot split {len(pool.ranks)} transactions of size {size} over the block size limit "
            f"{params.block_size_limit}"
        )
    table, ranks = pool.table, pool.ranks
    fees = table.fees[ranks]
    order = np.lexsort((table.id_order[ranks], -fees)).tolist()  # by fee descending, then id
    fees = fees.tolist()
    parts: list[list[int]] = [[] for _ in range(k)]
    loads = [(0, j) for j in range(k)]  # (fee, part number): a heap, lightest and then lowest-numbered on top
    for i in order:
        load, j = loads[0]
        parts[j].append(i)
        heapreplace(loads, (load + fees[i], j))
    return [parts[j] for _, j in sorted(loads)]


def claim_partial(pool: MempoolView, target_fee: int, params: ChainParams) -> BandwidthSetResult:
    """Claim from the bandwidth set of ``pool``, in selection order, without exceeding ``target_fee``.

    A first fit by fee over ``pool.packed(block_size_limit)``, which fits
    one block: a transaction that would burst the target is skipped and the
    walk goes on, so a claim can reach around an indivisible wealthy
    transaction, and zero-fee ones are claimed once the target is met.  The
    template holds the ranks picked.
    """
    check_integer("target_fee", target_fee, 0)
    table = pool.table
    first = pool.packed(params.block_size_limit)
    picked, fee, size = _first_fit(table.fees, table.sizes, first.ranks, target_fee, 0)
    return BandwidthSetResult(table, picked, fee, size)


def claimable_fees(pool: MempoolView, params: ChainParams, blocks: int) -> int:
    """Fees reachable by greedy packing within ``blocks`` block size limits.

    Single budget of ``blocks * block_size_limit``: the horizon a miner
    weighs when deciding which side of a fork can still pay it.
    """
    check_integer("blocks", blocks)
    if blocks <= 0:
        return 0
    return pool.packed(blocks * params.block_size_limit).totals[0]
