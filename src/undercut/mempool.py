"""Unconfirmed-transaction pools and fee-weighted block template selection.

The central object is the "bandwidth set": the subset of pending
transactions that maximizes total fees while fitting the block size
limit.  Everything that crafts a block (honest packing, attack
templates, avoidance claims) goes through the helpers here.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

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
    """Total order used everywhere a template is packed greedily.

    Highest fee rate first; ties broken by higher absolute fee, then by
    id, so replays are deterministic.
    """
    return (-tx.fee_rate, -tx.fee, tx.id)


class Pack(NamedTuple):
    """A greedy pack: its transactions in selection order, and their ranks.

    ``ranks`` is None for a view without ranks.  When the pack is a
    prefix of the pool it is a slice of the view's ranks.
    """

    txs: tuple[Transaction, ...]
    ranks: np.ndarray | None


def ranks_at(ranks: np.ndarray | None, pick: slice | list[int]) -> np.ndarray | None:
    """The ranks at positions ``pick`` (a slice or a list), or None without ranks."""
    return None if ranks is None else ranks[pick]


@dataclass(frozen=True)
class MempoolView:
    """Immutable snapshot of one chain's unconfirmed transaction set.

    Pending transactions are held in selection order.  ``presorted``
    skips the normalization pass for callers (the simulation engine)
    that maintain that order themselves.

    ``size_floor`` is a lower bound on the size of every pending
    transaction; greedy packing stops once the room left is below it.
    It must never exceed any pending size.  A view built from a list
    computes it exactly, ``without`` keeps its parent's bound (removing
    transactions cannot lower the minimum), and presorted callers
    supply one; the default of 1 holds for any pool, as sizes are
    positive.

    ``ranks`` names each pending transaction by its rank in the
    simulation's ``RankTable``: ``ranks[i]`` is the rank of
    ``pending[i]``.  ``engine.Chain.view`` sets it, and every template
    built from the view carries the ranks of its transactions, so the
    engine never maps ids back to ranks.  Views built from a list, and
    views from ``without``, have None, and so do their templates.  It is
    not part of the view's value.

    ``packed`` memoizes the greedy pack of each size budget it is asked
    for, so a snapshot that ``bandwidth_set``, ``gamma_ratio`` and
    ``claimable_fees`` all read is packed once per budget.  The memo is
    not part of the view's value: it is left out of equality, hashing
    and ``repr``.
    """

    pending: tuple[Transaction, ...] = ()
    presorted: InitVar[bool] = False
    size_floor: int = field(default=1, compare=False)
    ranks: np.ndarray | None = field(default=None, compare=False, repr=False)
    _packs: dict[int, Pack] = field(init=False, compare=False, repr=False)

    def __post_init__(self, presorted: bool) -> None:
        object.__setattr__(self, "_packs", {})
        if presorted:
            return
        pending = tuple(sorted(self.pending, key=selection_key))
        object.__setattr__(self, "pending", pending)
        if pending:
            object.__setattr__(self, "size_floor", min(tx.size for tx in pending))
        ids = [tx.id for tx in pending]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate transaction ids in pending set")

    def ids(self) -> frozenset[str]:
        return frozenset(tx.id for tx in self.pending)

    def packed(self, size_budget: int) -> Pack:
        """The greedy pack of the pool within ``size_budget``, memoized."""
        pack = self._packs.get(size_budget)
        if pack is None:
            at = _greedy_pack(self.pending, size_budget, self.size_floor)
            if not at or at[-1] == len(at) - 1:  # nothing skipped: a prefix
                pick = slice(len(at))
                txs = self.pending[pick]
            else:
                pick = at
                txs = tuple(map(self.pending.__getitem__, at))
            pack = self._packs[size_budget] = Pack(txs, ranks_at(self.ranks, pick))
        return pack

    def without(self, tx_ids: Iterable[str]) -> "MempoolView":
        """Pool after the given transactions were mined on this chain."""
        gone = frozenset(tx_ids)
        return MempoolView(
            pending=tuple(tx for tx in self.pending if tx.id not in gone),
            presorted=True,
            size_floor=self.size_floor,
        )


@dataclass(frozen=True)
class BandwidthSetResult:
    """A block template: selected ids plus fee/size totals.

    ``tx_ids`` preserves selection order (fee-rate descending for the
    greedy path), which callers use to carve prefixes off a template.

    ``ranks`` holds the rank of each of ``tx_ids``, in the same order.
    Every builder the engine calls (greedy ``bandwidth_set``,
    ``claim_partial``, ``strategy.undercut_template`` and
    ``strategy.craft_avoidance_block``) fills it from the ranks of its
    view, and the engine removes a published template by them.  A
    template built from a view without ranks has None, except the empty
    template, whose ranks are empty.  It is not part of the template's
    value.
    """

    tx_ids: tuple[str, ...]
    total_fee: int
    total_size: int
    ranks: np.ndarray | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_transactions(
        txs: Sequence[Transaction], ranks: np.ndarray | None = None
    ) -> "BandwidthSetResult":
        return BandwidthSetResult(
            tx_ids=tuple(map(attrgetter("id"), txs)),
            total_fee=sum(map(attrgetter("fee"), txs)),
            total_size=sum(map(attrgetter("size"), txs)),
            ranks=ranks,
        )

    @staticmethod
    def at(
        txs: Sequence[Transaction], ranks: np.ndarray | None, positions: list[int]
    ) -> "BandwidthSetResult":
        """The template of ``txs[i]`` for each of ``positions``, in that order."""
        return BandwidthSetResult.from_transactions(
            [txs[i] for i in positions], ranks_at(ranks, positions)
        )


EMPTY_TEMPLATE = BandwidthSetResult(
    tx_ids=(), total_fee=0, total_size=0, ranks=np.empty(0, dtype=np.intp)
)


def _greedy_pack(txs: Sequence[Transaction], size_budget: int, size_floor: int) -> list[int]:
    # The positions in txs of the pack.  txs must already be in selection
    # order; first-fit, skipping what does not fit the remaining budget.
    # No transaction is smaller than size_floor, so the scan ends once the
    # room left is below it.
    chosen: list[int] = []
    room = size_budget
    for i, tx in enumerate(txs):
        if tx.size <= room:
            chosen.append(i)
            room -= tx.size
            if room < size_floor:
                break
    return chosen


def _exact_best_subset(txs: Sequence[Transaction], limit: int) -> list[Transaction]:
    # Meet-in-the-middle over the power set: exhaustive, deterministic,
    # and fast enough for the 25-transaction cap.
    txs = sorted(txs, key=selection_key)
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

    import bisect

    sizes = [t[0] for t in best_by_size]
    best = (-1, 0, 0)  # fee, left mask, right mask
    for size, fee, mask in left_sets:
        idx = bisect.bisect_right(sizes, limit - size) - 1
        if idx < 0:
            continue
        _, rfee, rmask = best_by_size[idx]
        if fee + rfee > best[0]:
            best = (fee + rfee, mask, rmask)
    _, lmask, rmask = best
    chosen = [tx for i, tx in enumerate(left) if lmask >> i & 1]
    chosen += [tx for i, tx in enumerate(right) if rmask >> i & 1]
    return sorted(chosen, key=selection_key)


def bandwidth_set(pool: MempoolView, params: ChainParams, mode: str = "greedy") -> BandwidthSetResult:
    """Select a maximum-fee template fitting the block size limit.

    ``greedy`` sorts by fee rate and packs first-fit: what real miners
    run, and what the simulation engine uses.  ``exact`` enumerates
    subsets and is intended for oracle testing only; it refuses pools
    above EXACT_SELECTION_LIMIT transactions.
    """
    if mode == "greedy":
        return BandwidthSetResult.from_transactions(*pool.packed(params.block_size_limit))
    if mode == "exact":
        if len(pool.pending) > EXACT_SELECTION_LIMIT:
            raise InstanceTooLargeError(
                f"exact selection limited to {EXACT_SELECTION_LIMIT} transactions, "
                f"pool has {len(pool.pending)}"
            )
        chosen = _exact_best_subset(pool.pending, params.block_size_limit)
        return BandwidthSetResult.from_transactions(chosen)
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


def claim_partial(
    txs: Sequence[Transaction], target_fee: int, params: ChainParams, ranks: np.ndarray | None = None
) -> BandwidthSetResult:
    """Claim from ``txs``, in order, without exceeding ``target_fee``.

    A transaction that would burst the fee target or the size budget is
    skipped and the walk goes on, so a claim can reach around an
    indivisible wealthy transaction.  ``ranks``, if given, holds the rank
    of each of ``txs``, and the claim carries the ranks of its part.
    """
    if target_fee < 0:
        raise ValueError("target_fee must be non-negative")
    chosen: list[int] = []
    fee = 0
    room = params.block_size_limit
    for i, tx in enumerate(txs):
        if tx.size <= room and fee + tx.fee <= target_fee:
            chosen.append(i)
            fee += tx.fee
            room -= tx.size
    return BandwidthSetResult.at(txs, ranks, chosen)


def claimable_fees(pool: MempoolView, params: ChainParams, blocks: int) -> int:
    """Fees reachable by greedy packing within ``blocks`` block size limits.

    Single budget of ``blocks * block_size_limit``: the horizon a miner
    weighs when deciding which side of a fork can still pay it.
    """
    if blocks <= 0:
        return 0
    return sum(map(attrgetter("fee"), pool.packed(blocks * params.block_size_limit).txs))
