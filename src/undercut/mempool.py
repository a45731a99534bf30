"""Unconfirmed-transaction pools and fee-weighted block template selection.

The central object is the "bandwidth set": the subset of pending
transactions that maximizes total fees while fitting the block size
limit.  Every set a block is cut from is a ``MempoolView``: a chain's
pool, a greedy pack of it, or an attacked head.  Everything that crafts
a block (honest packing, attack templates, avoidance claims) goes
through the helpers here, and every template comes from
``MempoolView.template``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter, eq
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np


class InstanceTooLargeError(ValueError):
    """Exact selection requested on a pool too big to enumerate."""


class InvalidCandidateError(ValueError):
    """Candidate set references transactions not in the pool, or oversized."""


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
    units), one convention per trace.

    A run holds one object per trace row, so the class has slots and no
    per-object ``__dict__``.  ``__reduce__`` rebuilds a pickled or copied
    transaction through the constructor: a sweep worker that unpickles
    its trace then holds the same compact, validated objects as the
    process that loaded it.
    """

    id: str
    arrival_time: float
    size: int
    fee: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"transaction {self.id!r}: size must be positive, got {self.size}")
        if self.fee < 0:
            raise ValueError(f"transaction {self.id!r}: fee must be non-negative, got {self.fee}")

    def __reduce__(self):
        return type(self), (self.id, self.arrival_time, self.size, self.fee)

    @property
    def fee_rate(self) -> float:
        return self.fee / self.size


@dataclass(frozen=True)
class ChainParams:
    """Chain-level constants: block size limit, target interval, negligible bound."""

    block_size_limit: int
    block_interval: float
    negligible_fee_threshold: float = 0.01

    def __post_init__(self) -> None:
        if self.block_size_limit <= 0:
            raise ValueError("block_size_limit must be positive")
        if not 0.0 < self.block_interval < math.inf:
            raise ValueError(f"block_interval must be positive and finite, got {self.block_interval}")
        check_negligible(self.negligible_fee_threshold)


def check_negligible(threshold: float) -> None:
    """Reject a negligible-fee bound outside [0, 1), NaN included, with a named message."""
    if not 0.0 <= threshold < 1.0:
        raise ValueError(f"negligible_fee_threshold must lie in [0, 1), got {threshold}")


def selection_key(tx: Transaction) -> tuple:
    """Selection order: the order of every pool, in which templates are packed greedily.

    Highest fee rate first; ties broken by higher absolute fee, then by
    id, so replays are deterministic.  ``RankTable`` numbers its
    transactions in this order with array sorts.
    """
    return (-tx.fee_rate, -tx.fee, tx.id)


class RankTable:
    """An immutable prepared set of transactions, numbered once in selection order.

    A transaction's rank is its position in ``selection_key`` order, so a
    set of ranks read in increasing order is a pool in selection order
    (a ``MempoolView``).  ``txs[r]`` is the transaction of rank ``r``,
    ``arrivals[i]`` the rank of the i-th arrival, at ``times[i]``, and
    ``size_floor`` the smallest size, a lower bound for every view.  The
    table maps no id to a rank: templates carry the ranks of their
    transactions.  Runs may share one table.

    It is the one place a pool is sorted and checked for repeated ids.
    The build makes one Python sort, by id, and orders everything else
    with stable array sorts over that id order, so every tie falls back
    to the id: one ``np.lexsort`` on (fee rate, fee) descending gives
    exactly ``selection_key`` order, and one stable ``np.argsort`` on the
    times gives ``(arrival_time, id)`` order.  Ids are compared as Python
    strings (a numpy ``'U'`` array would drop trailing NULs), and a fee
    past int64 makes its key an object array, which still sorts exactly.
    A repeated id shows as two equal neighbours in the id order.
    """

    __slots__ = ("txs", "size_floor", "arrivals", "times", "total_fee")

    def __init__(self, trace: Iterable[Transaction]):
        by_id = sorted(trace, key=attrgetter("id"))
        ids = [tx.id for tx in by_id]
        if any(map(eq, ids, ids[1:])):
            raise ValueError("duplicate transaction ids in trace")
        n = len(by_id)
        # selection_key's own float and sign for -fee_rate, then -fee; ties keep id order
        ordered = np.lexsort(
            (np.array([-tx.fee for tx in by_id]), np.array([-tx.fee / tx.size for tx in by_id]))
        )
        rank = np.empty(n, dtype=np.intp)
        rank[ordered] = np.arange(n)
        txs = np.fromiter(by_id, dtype=object, count=n)
        arriving = np.argsort(np.array([tx.arrival_time for tx in by_id]), kind="stable")
        self.txs = txs[ordered]
        self.size_floor = min([tx.size for tx in by_id], default=1)
        self.arrivals = rank[arriving]
        self.times = tuple([tx.arrival_time for tx in txs[arriving]])
        self.total_fee = sum([tx.fee for tx in by_id])


class MempoolView:
    """Snapshot of one chain's unconfirmed transactions: a set of ranks over a ``RankTable``.

    ``ranks`` holds them in increasing order and ``pending`` is their
    transactions, ``table.txs[ranks]``, so ``pending`` is in selection
    order and ``ranks[i]`` is the rank of ``pending[i]``.  The table has
    sorted and duplicate-checked its transactions; a view does neither.
    ``of`` builds a table of a list and views all of it, ``without``
    keeps the table and drops ranks, and ``engine.Chain.view`` views the
    ranks a chain holds.  A greedy pack (``packed``) and an attacked head
    are views too.  ``template`` builds the block template of a view's
    transactions, which carries their ranks.  Greedy packing stops once
    the room left is below ``table.size_floor``.  A view is never changed
    after it is made: ``table`` and ``ranks`` are not to be assigned or
    written.

    ``pending`` is built the first time it is read, then kept.  ``packed``
    and ``fee_left`` (what greedy still packs once part of the view's own
    pack is mined) read the pool through the private ``_scan``, which
    builds only the head of a large pool: a congested pool of thousands
    of transactions packs from its first few hundred, and never builds
    ``pending``.

    The view's value is ``pending``: ``table``, ``ranks`` and the memo of
    ``packed`` (the greedy pack of each size budget asked for, so a
    snapshot that ``bandwidth_set``, ``gamma_ratio`` and
    ``claimable_fees`` all read is packed once per budget) are left out
    of equality, hashing and ``repr``.
    """

    __slots__ = ("table", "ranks", "_pending", "_packs")

    def __init__(self, table: RankTable, ranks: np.ndarray):
        self.table = table
        self.ranks = ranks
        self._pending: tuple[Transaction, ...] | None = None
        self._packs: dict[int, MempoolView] = {}

    @property
    def pending(self) -> tuple[Transaction, ...]:
        pending = self._pending
        if pending is None:
            pending = self._pending = tuple(self.table.txs[self.ranks].tolist())
        return pending

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pending == other.pending

    def __hash__(self) -> int:
        return hash((self.pending,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(pending={self.pending!r})"

    @classmethod
    def of(cls, txs: Iterable[Transaction]) -> "MempoolView":
        """A view of all of ``txs``, over a table built from them."""
        table = RankTable(txs)
        return cls(table, np.arange(len(table.txs), dtype=np.intp))

    def ids(self) -> frozenset[str]:
        return frozenset(tx.id for tx in self.pending)

    def _scan(self, head: int) -> Iterable[Transaction]:
        """The pool in selection order, for a scan that reads about its first ``head`` transactions.

        Only those are built at once; the rest are built if the scan
        reads past them.  When ``head`` covers the pool this is
        ``pending``, built once and kept.
        """
        if head >= len(self.ranks):
            return self.pending
        return chain(self.table.txs[self.ranks[:head]].tolist(), self._tail(head))

    def _tail(self, start: int) -> Iterator[Transaction]:
        yield from self.table.txs[self.ranks[start:]].tolist()

    def packed(self, size_budget: int) -> "MempoolView":
        """The view of the greedy pack of the pool within ``size_budget``, memoized.

        No pack holds more than ``size_budget // table.size_floor``
        transactions, so the pack asks ``_scan`` for one more than that:
        the scan reads past them only after skipping a transaction too
        large for the room left.  The pack's ``pending`` is the
        transactions the scan picked, the table's own objects, so no pack
        reads the table twice.  A prefix pack's ranks are a slice of the
        pool's.
        """
        pack = self._packs.get(size_budget)
        if pack is None:
            floor = self.table.size_floor
            txs, skipped = _greedy_pack(self._scan(size_budget // floor + 1), size_budget, floor)
            n = len(txs)
            if skipped and skipped[0] < n:  # not a prefix: the positions read, less the skipped
                ranks = np.delete(self.ranks[: n + len(skipped)], skipped)
            else:
                ranks = self.ranks[:n]
            pack = self._packs[size_budget] = MempoolView(self.table, ranks)
            pack._pending = tuple(txs)
        return pack

    def fee_left(self, claimed: Collection[int], size_budget: int) -> int:
        """The fee greedy packs within ``size_budget`` once the ``claimed`` positions of its pack are mined.

        The pack is this view's memoized ``packed(size_budget)``.  The fee
        is that of the bandwidth set of ``without`` them (with all claimed,
        the second set's), in one scan of the pool's head that copies no
        view.  The pack holds the table's own objects in selection order,
        so one cursor finds each of them, by identity, as the scan passes.
        """
        members = self.packed(size_budget).pending
        fee = 0
        room = size_budget
        floor = self.table.size_floor
        k, n = 0, len(members)
        for tx in self._scan(size_budget // floor + 1 + n):
            if k < n and tx is members[k]:
                k += 1
                if k - 1 in claimed:
                    continue
            if tx.size <= room:
                fee += tx.fee
                room -= tx.size
                if room < floor:
                    break
        return fee

    def template(
        self, positions: Iterable[int] | None = None, totals: tuple[int, int] | None = None
    ) -> "BandwidthSetResult":
        """The template of ``pending[i]`` for each of ``positions``, in that order, or of all of them.

        A range of positions is read as slices.  ``totals`` is their (fee,
        size) when the caller already holds it; otherwise it is summed.
        """
        pending = self.pending
        if positions is None:
            txs, ranks = pending, self.ranks
        elif isinstance(positions, range) and positions.step > 0:
            at = slice(positions.start, positions.stop, positions.step)
            txs, ranks = pending[at], self.ranks[at]
        else:
            txs, ranks = [pending[i] for i in positions], self.ranks[np.fromiter(positions, np.intp)]
        if totals is None:
            totals = sum(map(attrgetter("fee"), txs)), sum(map(attrgetter("size"), txs))
        return BandwidthSetResult(tuple(map(attrgetter("id"), txs)), *totals, ranks)

    def without(self, tx_ids: Iterable[str]) -> "MempoolView":
        """Pool after the given transactions were mined on this chain."""
        gone = frozenset(tx_ids)
        keep = [i for i, tx in enumerate(self.pending) if tx.id not in gone]
        return MempoolView(self.table, self.ranks[keep])


@dataclass(frozen=True)
class BandwidthSetResult:
    """A block template: selected ids plus fee/size totals.

    ``tx_ids`` preserves selection order (fee-rate descending for the
    greedy path), which callers use to carve prefixes off a template.

    ``ranks`` holds the rank of each of ``tx_ids``, in the same order.
    ``MempoolView.template`` fills it from the ranks of its view, and the
    engine removes a published template by them.  It is not part of the
    template's value.
    """

    tx_ids: tuple[str, ...]
    total_fee: int
    total_size: int
    ranks: np.ndarray = field(compare=False, repr=False)


EMPTY_TEMPLATE = BandwidthSetResult(
    tx_ids=(), total_fee=0, total_size=0, ranks=np.empty(0, dtype=np.intp)
)


def _greedy_pack(
    txs: Iterable[Transaction], size_budget: int, size_floor: int
) -> tuple[list[Transaction], list[int]]:
    # First fit over txs, which must already be in selection order: the
    # pack, and the positions in txs that the scan read and skipped because
    # they did not fit the room left.  No transaction is smaller than
    # size_floor, so the scan ends once the room left is below it.
    picked: list[Transaction] = []
    skipped: list[int] = []
    room = size_budget
    for i, tx in enumerate(txs):
        if tx.size <= room:
            picked.append(tx)
            room -= tx.size
            if room < size_floor:
                break
        else:
            skipped.append(i)
    return picked, skipped


def _exact_best_subset(txs: Sequence[Transaction], limit: int) -> list[int]:
    # The positions in txs, in increasing order, of a maximum-fee subset
    # that fits limit.  Meet-in-the-middle over the power set: exhaustive,
    # deterministic, and fast enough for the 25-transaction cap.
    half = len(txs) // 2
    left, right = txs[:half], txs[half:]

    def enumerate_side(side: Sequence[Transaction]) -> list[tuple[int, int, int]]:
        out = []
        for mask in range(1 << len(side)):
            size = fee = 0
            for i, tx in enumerate(side):
                if mask >> i & 1:
                    size += tx.size
                    fee += tx.fee
            if size <= limit:
                out.append((size, fee, mask))
        return out

    left_sets = enumerate_side(left)
    right_sets = enumerate_side(right)
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
        if len(pool.pending) > EXACT_SELECTION_LIMIT:
            raise InstanceTooLargeError(
                f"exact selection limited to {EXACT_SELECTION_LIMIT} transactions, "
                f"pool has {len(pool.pending)}"
            )
        return pool.template(_exact_best_subset(pool.pending, params.block_size_limit))
    raise ValueError(f"unknown selection mode {mode!r}")


def is_near_bandwidth_set(
    candidate: Iterable[str],
    pool: MempoolView,
    params: ChainParams,
    proportion: float,
) -> bool:
    """True when a size-feasible subset carries at least ``proportion`` of
    the exact bandwidth set's fees (measured on the overlap).

    Diagnostic predicate only; no decision logic depends on it, and no
    default proportion is baked in.
    """
    if not 0.0 < proportion <= 1.0:
        raise ValueError("proportion must lie in (0, 1]")
    candidate_ids = frozenset(candidate)
    by_id = {tx.id: tx for tx in pool.pending}
    unknown = candidate_ids - by_id.keys()
    if unknown:
        raise InvalidCandidateError(f"candidate ids not in pool: {sorted(unknown)[:3]}")
    cand_size = sum(by_id[i].size for i in candidate_ids)
    if cand_size > params.block_size_limit:
        raise InvalidCandidateError(
            f"candidate size {cand_size} exceeds block size limit {params.block_size_limit}"
        )
    reference = bandwidth_set(pool, params, mode="exact")
    overlap_fee = sum(by_id[i].fee for i in candidate_ids & set(reference.tx_ids))
    return overlap_fee >= proportion * reference.total_fee


def gamma_ratio(pool: MempoolView, head_block_fee: int, params: ChainParams) -> float:
    """Wealth ratio of the next claimable template to the chain head block.

    Returns ``inf`` when the head carries no fees but the pool does, and
    0.0 when nothing claimable remains.
    """
    if head_block_fee < 0:
        raise ValueError("head_block_fee must be non-negative")
    return gamma_of_fees(claimable_fees(pool, params, 1), head_block_fee)


def gamma_of_fees(next_fee: int, head_block_fee: int) -> float:
    """``gamma_ratio`` once the next template's fee is known."""
    if next_fee == 0:
        return 0.0
    if head_block_fee == 0:
        return float("inf")
    return next_fee / head_block_fee


def split_equal_fee(
    txs: Iterable[Transaction], k: int, params: ChainParams
) -> list[list[Transaction]]:
    """Partition a set that fits one block into ``k`` fee-balanced parts.

    Longest-processing-time heuristic: assign in descending fee order
    (ties by id) to the part with the least fee, the lowest-numbered
    part on a fee tie.  Every caller splits a set that fits one block (a
    head block or a bandwidth set), so every part fits one too; a set
    larger than ``block_size_limit`` raises ``UnsplittableError``.
    """
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2 or 3")
    txs = list(txs)
    size = sum(t.size for t in txs)
    if size > params.block_size_limit:
        raise UnsplittableError(
            f"cannot split {len(txs)} transactions of size {size} over the block size limit "
            f"{params.block_size_limit}"
        )
    parts: list[list[Transaction]] = [[] for _ in range(k)]
    fees = [0] * k
    for tx in sorted(txs, key=lambda t: (-t.fee, t.id)):
        j = fees.index(min(fees))
        parts[j].append(tx)
        fees[j] += tx.fee
    return parts


def claim_partial(pool: MempoolView, target_fee: int, params: ChainParams) -> BandwidthSetResult:
    """Claim from ``pool``, in selection order, without exceeding ``target_fee``.

    A transaction that would burst the fee target or the size budget is
    skipped and the walk goes on, so a claim can reach around an
    indivisible wealthy transaction.  The claim is a template of the
    view, so it carries the ranks of its transactions.
    """
    if target_fee < 0:
        raise ValueError("target_fee must be non-negative")
    chosen: list[int] = []
    fee = 0
    room = params.block_size_limit
    for i, tx in enumerate(pool.pending):
        if tx.size <= room and fee + tx.fee <= target_fee:
            chosen.append(i)
            fee += tx.fee
            room -= tx.size
    return pool.template(chosen)


def claimable_fees(pool: MempoolView, params: ChainParams, blocks: int) -> int:
    """Fees reachable by greedy packing within ``blocks`` block size limits.

    Single budget of ``blocks * block_size_limit``: the horizon a miner
    weighs when deciding which side of a fork can still pay it.
    """
    if blocks <= 0:
        return 0
    return sum(map(attrgetter("fee"), pool.packed(blocks * params.block_size_limit).pending))
