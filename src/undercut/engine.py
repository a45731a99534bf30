"""Event-driven simulation of fee-based mining with an undercutting miner.

One run replays a transaction trace through a population of honest,
rational and undercutting miners on one main chain and at most one fork.
Each event is a block discovery: the chain with the earlier sampled
discovery time extends, a worker on it is drawn by power, the block
template follows the owner's strategy, and every miner then re-evaluates
which chain to work on.  A race ends once one side leads by the give-up
depth, and earnings settle from the blocks of the main chain.

Each event is one ``Simulation.step()``; ``run()`` loops over it.

Runs are deterministic per seed, also across processes: no result
depends on ``PYTHONHASHSEED``.  Runs share one immutable
``mempool.RankTable``, the trace as columns numbered in selection order:
``trace.load_trace`` returns it, and ``run`` builds one only for a trace
given as ``Transaction`` objects.  A table is columns, not a sequence:
the engine reads its columns and its ``len``.

Inside a run a transaction is named by its rank in that table alone.
A chain's pool is a set of ranks, and ``Chain.view`` hands them to a
``MempoolView`` over the table; every template built from the view
holds the ranks of its transactions, and a published block keeps them:
the engine confirms a block, and forks a head, by ranks alone and never
maps an id back to a rank.  No template or block stores an id; their
``tx_ids`` are gathered from the table's id column for a reader outside
the run, and no run builds a ``Transaction``.
An attacked head is handed to the strategy as the view of its ranks,
sorted, with the block's fee and size as its totals.

A chain keeps its pool's fee and size totals beside its mask, so no
decision sums a pool.  The totals follow the mask, and each change comes
with the totals an earlier step already summed: the arrivals of an event
add the difference of the table's arrival prefix sums (worked out once,
for every live chain), an attacked head adds its block's ``fee_total``
and ``size_total``, every published template subtracts its
``total_fee`` and ``total_size`` as its ranks are cleared, and a fork
copies its parent's mask and totals together.  No event gathers a
column to sum it, save for the template of a split part.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .mempool import (
    BandwidthSetResult,
    ChainParams,
    MempoolView,
    RankTable,
    Transaction,
    bandwidth_set,
    check_integer,
    claimable_fees,
    gamma_ratio,
    slot_setters,
)
from .strategy import (
    AVOIDANCE_MODES,
    DEPTHS,
    PowerSplit,
    check_depth,
    craft_avoidance_block,
    rational_shift_general,
    undercut_decision_d1,
    undercut_decision_d2,
    undercut_template,
)
from .trace import MINER_KINDS

# Consecutive zero-fee blocks after the trace is consumed before a run
# is declared stuck on unclaimable dust.
STAGNATION_LIMIT = 8

# A run's event cap is this many times (the trace's span in block
# intervals plus its transaction count), plus EVENT_CAP_FLOOR.  Blocks
# arrive once per interval across the live chains while the trace plays
# (a Poisson count, so four times its mean is out of reach), and after it
# nearly every block confirms a transaction; no valid run comes close.
# ``Simulation.step()`` counts every event against the cap.
EVENT_CAP_MARGIN = 4
EVENT_CAP_FLOOR = 1000


class StalledSimulationError(RuntimeError):
    """No live chain can produce another block."""


@dataclass(frozen=True, slots=True, init=False)
class Block:
    """A published block: owner, claimed transactions, position.

    ``ranks`` holds the rank in ``table`` of each claimed transaction,
    in the order of the template the engine published (genesis holds
    none, and needs no table).  The block stores no ids: ``tx_ids``
    gathers them from the table on each read.  Neither is part of the
    block's value.

    Every event publishes one, so the class has slots, and its
    constructor is written by hand, as ``mempool.Transaction``'s is: it
    sets the seven slots through their own descriptors, with no frozen
    ``__setattr__`` round trip.
    """

    owner: str
    fee_total: int
    size_total: int
    creation_time: float
    height: int
    ranks: np.ndarray = field(compare=False, repr=False)
    table: RankTable | None = field(default=None, compare=False, repr=False)

    def __init__(
        self,
        owner: str,
        fee_total: int,
        size_total: int,
        creation_time: float,
        height: int,
        ranks: np.ndarray,
        table: RankTable | None = None,
    ) -> None:
        _set_owner(self, owner)
        _set_fee_total(self, fee_total)
        _set_size_total(self, size_total)
        _set_creation_time(self, creation_time)
        _set_height(self, height)
        _set_ranks(self, ranks)
        _set_table(self, table)

    @property
    def tx_ids(self) -> tuple[str, ...]:
        return tuple(self.table.ids[self.ranks].tolist()) if len(self.ranks) else ()


_set_owner, _set_fee_total, _set_size_total, _set_creation_time, _set_height, _set_ranks, _set_table = (
    slot_setters(Block)
)


@dataclass(frozen=True)
class MinerProfile:
    """Mining power plus behavioural kind; earnings live in RunResult."""

    id: str
    power: float
    kind: str  # "honest" | "rational" | "undercutter"

    def __post_init__(self) -> None:
        if self.kind not in MINER_KINDS:
            raise ValueError(f"unknown miner kind {self.kind!r}")
        if not self.power >= 0.0:
            raise ValueError(f"power must be non-negative, got {self.power}")


@dataclass(frozen=True)
class AvoidancePolicy:
    """How block builders restrain their fee claims.

    ``factor`` scales the strict mode's claim down and must lie in
    (0, 1].  The assumed adversary is ``strategy.AVOIDANCE_ADVERSARY_POWER``.
    """

    mode: str  # one of strategy.AVOIDANCE_MODES
    factor: float = 0.8

    def __post_init__(self) -> None:
        if self.mode not in AVOIDANCE_MODES:
            raise ValueError(f"unknown avoidance mode {self.mode!r}")
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"strict factor must lie in (0, 1], got {self.factor}")

    def label(self) -> str:
        """The mode, or ``strict:`` and the factor's float repr, which keeps every digit."""
        return f"strict:{float(self.factor)!r}" if self.mode == "strict" else self.mode


def parse_avoidance(text: str) -> AvoidancePolicy | None:
    """Parse an avoidance flag: off | experimental | exact | strict=<f>."""
    text = text.strip()
    if text == "off":
        return None
    if text in ("experimental", "exact"):
        return AvoidancePolicy(mode=text)
    for sep in ("=", ":"):
        if text.startswith(f"strict{sep}"):
            value = text.split(sep, 1)[1]
            try:
                factor = float(value)
            except ValueError:
                raise ValueError(f"strict factor must be a number, got {value!r}") from None
            return AvoidancePolicy(mode="strict", factor=factor)
    if text == "strict":
        return AvoidancePolicy(mode="strict")
    raise ValueError(f"unknown avoidance setting {text!r}")


@dataclass
class RunResult:
    """Terminal accounting of one seeded run."""

    earnings: dict[str, int]
    confirmed_fee: int
    total_trace_fee: int
    blocks: int
    attacks: int
    attack_branches: dict[str, int]
    fork_wins: int
    fork_losses: int
    seed: int

    def share(self, miner_id: str) -> float:
        if self.confirmed_fee == 0:
            return 0.0
        return self.earnings.get(miner_id, 0) / self.confirmed_fee


class Chain:
    """One live chain: blocks since genesis plus its own pool.

    The pool is a boolean mask over the run's ranks: ``pending[r]`` is
    set while the transaction of rank ``r`` has arrived and this chain
    has not confirmed it.  Adding or removing a transaction flips one
    flag, a fork copies the mask, and a view reads the set ranks in
    increasing order, which is selection order, so templates never
    re-sort.  Each transaction is added once, on arrival, to the chains
    live then; a fork starts from a copy of its parent's mask, so no
    chain sees a transaction it confirmed come back.

    ``pool_fee`` and ``pool_size`` are the totals of the set ranks, kept
    beside the mask, so no event rescans the pool: ``add_pending`` adds
    the totals it is handed with the ranks it sets (an event's arrivals,
    or an attacked head), ``remove_pending`` subtracts the ``total_fee`` and
    ``total_size`` of the published template whose ranks it clears, and
    a fork starts from its parent's totals.

    ``view`` is cached until ``add_pending`` or ``remove_pending`` changes
    the mask.  It is the ``MempoolView`` of the set ranks over ``table``,
    handed the chain's totals, so every template built from it carries
    the ranks that ``remove_pending`` takes.  A chain starts from a copy
    of the pool of the ``parent`` it is given (a fork), or an empty one.

    ``workers`` is a frozenset, frozen from the workers the chain is
    given, so ``Simulation.owners`` keys its owner draws by the set itself.
    A move never changes a set in place: it rebinds ``workers`` to a new
    one (``-=`` and ``|=``).
    """

    __slots__ = (
        "blocks",
        "table",
        "pending",
        "pool_fee",
        "pool_size",
        "workers",
        "next_time",
        "committed",
        "base_height",
        "_view",
    )

    def __init__(self, blocks: list[Block], workers: Iterable[str], table: RankTable, parent: Chain | None = None):
        self.blocks = blocks
        self.table = table
        if parent is None:
            self.pending = np.zeros(len(table), dtype=bool)
            self.pool_fee = self.pool_size = 0
        else:
            self.pending = parent.pending.copy()
            self.pool_fee, self.pool_size = parent.pool_fee, parent.pool_size
        self.workers = frozenset(workers)
        self.next_time = math.inf
        self.committed: BandwidthSetResult | None = None
        self.base_height = 0  # fork point height; 0 for the original chain
        self._view: MempoolView | None = None  # the pool's view until the next change

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def add_pending(self, ranks: Sequence[int], totals: tuple[int, int]) -> None:
        """Add the transactions of ``ranks``, none of them pending here yet, of (fee, size) ``totals``."""
        # most events bring no arrival: an empty slice keeps the cached view
        if len(ranks):
            self.pending[ranks] = True
            fee, size = totals
            self.pool_fee += fee
            self.pool_size += size
            self._view = None

    def remove_pending(self, template: BandwidthSetResult) -> None:
        """Remove the transactions of a template built from this chain's view."""
        if len(template.ranks):
            self.pending[template.ranks] = False
            self.pool_fee -= template.total_fee
            self.pool_size -= template.total_size
            self._view = None

    def view(self) -> MempoolView:
        if self._view is None:
            self._view = MempoolView(self.table, self.pending.nonzero()[0], (self.pool_fee, self.pool_size))
        return self._view


# ---------------------------------------------------------------------------
# event primitives
# ---------------------------------------------------------------------------


def next_chain_to_extend(main: Chain, fork: Chain | None) -> Chain:
    """The chain whose next block comes first; the main chain wins ties."""
    chain = fork if fork is not None and fork.next_time < main.next_time else main
    if chain.next_time == math.inf:
        raise StalledSimulationError("no chain with mining power can extend")
    return chain


class OwnerDraw(NamedTuple):
    """One worker set, ready to draw block owners from."""

    ids: tuple[str, ...]  # sorted
    cum: tuple[float, ...]  # running power sums in ``ids`` order
    power: float  # exactly rounded total: set order (it varies with PYTHONHASHSEED) cannot move it

    @classmethod
    def of(cls, workers: Iterable[str], powers: dict[str, float]) -> OwnerDraw:
        ids = tuple(sorted(workers))
        weights = [powers[w] for w in ids]
        return cls(ids, tuple(accumulate(weights)), math.fsum(weights))


def select_next_block_miner(draw: OwnerDraw, rng: np.random.Generator) -> str:
    """Draw the block owner among a chain's workers, weighted by power.

    The owner is the first worker whose running power sum exceeds the
    draw, so a zero-power worker is never drawn unless rounding leaves
    the draw at the full sum, which falls to the last worker.
    """
    if not draw.ids:
        raise StalledSimulationError("chain has no workers")
    if draw.cum[-1] <= 0.0:
        raise StalledSimulationError("chain workers have no power")
    u = rng.random() * draw.cum[-1]
    return draw.ids[min(bisect_right(draw.cum, u), len(draw.ids) - 1)]


def sample_next_block_time(
    worker_power: float, now: float, params: ChainParams, rng: np.random.Generator
) -> float:
    """Next discovery time for a chain worked by ``worker_power``.

    Power splitting thins the block process, so each chain sees its own
    exponential clock with mean interval / power.
    """
    if worker_power <= 0.0:
        raise StalledSimulationError("cannot sample block time with zero power")
    return now + rng.exponential(params.block_interval / worker_power)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


class Simulation:
    """One seeded run: ``main``, and ``fork`` while a race is live; a winning fork becomes ``main``.

    ``step()`` runs one event, ``run()`` is the loop over it, and
    ``step()`` holds the event cap, so the cap binds every caller.
    """

    def __init__(
        self,
        table: RankTable,
        miners: Sequence[MinerProfile],
        params: ChainParams,
        depth: int = 1,
        avoidance: AvoidancePolicy | None = None,
        seed: int = 0,
    ):
        check_depth(depth)
        check_integer("seed", seed, 0)  # what numpy's generators take, and no bool
        total_power = sum(m.power for m in miners)
        if abs(total_power - 1.0) > 1e-9:
            raise ValueError(f"miner powers must sum to 1, got {total_power}")
        for mid, count in Counter(m.id for m in miners).items():
            if count > 1:
                raise ValueError(f"duplicate miner id {mid!r}")
        undercutters = [m for m in miners if m.kind == "undercutter"]
        if len(undercutters) > 1:
            raise ValueError("at most one undercutter")

        self.params = params
        self.depth = depth
        self.avoidance = avoidance
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.miners = {m.id: m for m in miners}
        self.powers = {m.id: m.power for m in miners}
        # powers are fixed for a run, so a worker set's draw never goes stale
        self._draws: dict[frozenset[str], OwnerDraw] = {}
        self.undercutter_id = undercutters[0].id if undercutters else None
        honest = sum(m.power for m in miners if m.kind == "honest")
        beta_u = undercutters[0].power if undercutters else 0.0
        self.split = PowerSplit.of(beta_u, honest)
        self.table = table
        self.next_arrival = 0

        t0 = float(table.times[0]) if len(table.times) else 0.0
        span = float(table.times[-1]) - t0 if len(table.times) else 0.0
        self.max_events = (
            EVENT_CAP_MARGIN * (math.ceil(span / params.block_interval) + len(table)) + EVENT_CAP_FLOOR
        )
        self.events = 0  # events stepped so far
        no_ranks = np.empty(0, dtype=np.intp)
        genesis = Block(owner="", fee_total=0, size_total=0, creation_time=t0, height=0, ranks=no_ranks)
        self.main = Chain(blocks=[genesis], workers={m.id for m in miners}, table=table)
        self.fork: Chain | None = None
        self.attacks = 0
        self.attack_branches: Counter[str] = Counter()
        self.fork_wins = 0
        self.fork_losses = 0
        self.stagnant_blocks = 0
        self._resample(t0)

    # -- event loop --------------------------------------------------------

    def step(self) -> Block | None:
        """Run one event and return its block, or ``None`` once drained; the cap is checked first."""
        if self.events >= self.max_events:
            raise StalledSimulationError(f"run needed {self.max_events} events or more; it is stuck")
        if self._drained():
            return None
        chain = next_chain_to_extend(self.main, self.fork)
        now = chain.next_time
        miner_id = select_next_block_miner(self.owners(chain), self.rng)
        block = self.publish_block(miner_id, chain, now)
        self.update_chains(chain, block)
        # Arrivals land before miners re-decide: a decision made at
        # the event time sees everything that arrived before it.
        # Block templates still lag one window, as published blocks
        # are cut from the pool of the previous event.
        self.update_mempool(now)
        self.update_miners(chain, block)
        self._resample(now)
        self.events += 1
        return block

    def run(self) -> RunResult:
        """Step until the run is drained, then settle it; a stepped run finishes here too."""
        while self.step() is not None:
            pass
        return self._settle()

    def _drained(self) -> bool:
        if self.next_arrival < len(self.table.times) or self.fork is not None:
            return False
        # the ladders' negligible rule; a fee-less head gives inf and falls through
        gamma = gamma_ratio(self.main.view(), self.main.tip.fee_total, self.params)
        if gamma <= self.params.negligible_fee_threshold:
            return True
        # Unclaimable dust: deterministic strategies over a static pool
        # keep publishing empty blocks; cut the run after a few.
        return self.stagnant_blocks >= STAGNATION_LIMIT

    def _settle(self) -> RunResult:
        terminal = self.main
        earnings = {mid: 0 for mid in self.miners}
        confirmed = 0
        for block in terminal.blocks[1:]:  # genesis pays no one
            earnings[block.owner] += block.fee_total
            confirmed += block.fee_total
        return RunResult(
            earnings=earnings,
            confirmed_fee=confirmed,
            total_trace_fee=self.table.total_fee,
            blocks=len(terminal.blocks) - 1,
            attacks=self.attacks,
            attack_branches=dict(self.attack_branches),
            fork_wins=self.fork_wins,
            fork_losses=self.fork_losses,
            seed=self.seed,
        )

    def owners(self, chain: Chain) -> OwnerDraw:
        """The owner draw of the chain's current worker set, built once per set.

        The set itself is the key: a frozenset caches its hash, so a
        lookup builds nothing.
        """
        workers = chain.workers
        draw = self._draws.get(workers)
        if draw is None:
            draw = self._draws[workers] = OwnerDraw.of(workers, self.powers)
        return draw

    @property
    def chains(self) -> tuple[Chain, ...]:
        """The live chains, main first."""
        return (self.main,) if self.fork is None else (self.main, self.fork)

    # -- per-event steps ----------------------------------------------------

    def publish_block(self, miner_id: str, chain: Chain, now: float) -> Block:
        """Build the owner's template, publish it, and consume its txs by their ranks."""
        if chain is self.fork and chain.committed is not None:
            template = chain.committed
            chain.committed = None
        elif self.avoidance is not None:
            template = craft_avoidance_block(
                chain.view(),
                self.params,
                depth=self.depth,
                assumed_honest_power=self.split.honest,
                mode=self.avoidance.mode,
                strict_factor=self.avoidance.factor,
            )
        else:
            template = bandwidth_set(chain.view(), self.params)
        block = Block(
            owner=miner_id,
            fee_total=template.total_fee,
            size_total=template.total_size,
            creation_time=now,
            height=chain.tip.height + 1,
            ranks=template.ranks.copy(),  # a slice would keep its whole pool alive
            table=self.table,
        )
        chain.remove_pending(template)
        if self.next_arrival >= len(self.table.times) and self.fork is None:
            self.stagnant_blocks = self.stagnant_blocks + 1 if block.fee_total == 0 else 0
        return block

    def update_chains(self, ext: Chain, block: Block) -> None:
        """Append the block and end the race once one side leads by the depth."""
        ext.blocks.append(block)
        fork = self.fork
        if fork is None:
            return
        other = self.main if ext is fork else fork
        if ext.tip.height - other.tip.height < self.depth:
            return
        ext.workers |= other.workers
        if ext is fork:
            self.fork_wins += 1
            self.main = fork
        else:
            self.fork_losses += 1
        self.fork = None

    def update_miners(self, ext: Chain, block: Block) -> None:
        """Re-evaluate every miner's working chain after a block event."""
        # Undercutter: consider forking the fresh head (never its own
        # block, never while an attack is live, never an empty head).
        if (
            self.undercutter_id is not None
            and self.fork is None
            and block.owner != self.undercutter_id
            and block.fee_total > 0
        ):
            self._consider_attack(ext, block)

        fork = self.fork
        if fork is None:
            return

        # Honest miners: longest chain, first-seen on ties.
        other = self.main if ext is fork else fork
        if ext.tip.height > other.tip.height:
            movers = {w for w in other.workers if self.miners[w].kind == "honest"}
            other.workers -= movers
            ext.workers |= movers

        # Rational miners not on the extended chain, strongest first.
        candidates = sorted(
            (w for w in other.workers if self.miners[w].kind == "rational"),
            key=lambda w: (-self.powers[w], w),
        )
        if not candidates:
            return
        base = fork.base_height
        if ext is fork and other.tip.height - base == 1 and fork.tip.height - base == 1:
            # main (``other`` here) cannot grow without ending the tie, so its
            # tip is still the head the fork undercut: one gamma decides for all
            gamma = gamma_ratio(other.view(), other.tip.fee_total, self.params)
            if gamma < DEPTHS[self.depth].join_threshold(self.split):
                moved = frozenset(candidates)
                other.workers -= moved
                ext.workers |= moved
            return
        # General state: endpoint evaluation of the shift objective with
        # each miner's own power as the movable mass (all-or-nothing).
        # The pools do not change between candidates; the powers do.
        lead = ext.tip.height - other.tip.height
        claimable_main = claimable_fees(other.view(), self.params, self.depth + lead)
        claimable_fork = claimable_fees(ext.view(), self.params, self.depth - lead)
        for mid in candidates:
            x = rational_shift_general(
                lead,
                self.owners(ext).power,
                self.depth,
                claimable_main=claimable_main,
                claimable_fork=claimable_fork,
                owned_main=self._owned_after_fork(mid, other, base),
                owned_fork=self._owned_after_fork(mid, ext, base),
                movable=self.powers[mid],
            )
            if x >= 1.0:
                other.workers -= {mid}
                ext.workers |= {mid}

    def _consider_attack(self, ext: Chain, block: Block) -> None:
        pool = ext.view()
        gamma = gamma_ratio(pool, block.fee_total, self.params)
        # Chosen per call, so a wrapped module global (a profiler's) applies.
        decide = undercut_decision_d1 if self.depth == 1 else undercut_decision_d2
        action, branch, tag = decide(self.split, gamma, self.params.negligible_fee_threshold)
        if action == "stay":
            return
        # stable: numpy's default sort maps in SIMD code, ~0.4 MiB more peak RSS
        head = MempoolView(self.table, np.sort(block.ranks, kind="stable"), (block.fee_total, block.size_total))
        tag, template = undercut_template(self.depth, branch, tag, self.params, pool, head)
        self.attacks += 1
        self.attack_branches[tag] += 1
        fork = Chain(ext.blocks[:-1], {self.undercutter_id}, self.table, parent=ext)
        fork.base_height = block.height - 1
        fork.add_pending(head.ranks, head.totals)
        fork.committed = template
        ext.workers -= {self.undercutter_id}
        self.fork = fork

    def _owned_after_fork(self, miner_id: str, chain: Chain, base: int) -> int:
        # a block's height is its position in the chain's list
        return sum(b.fee_total for b in chain.blocks[base + 1 :] if b.owner == miner_id)

    def update_mempool(self, now: float) -> None:
        """Feed arrivals up to the event time, and their totals, into every live chain."""
        table, start = self.table, self.next_arrival
        end = max(start, int(table.times.searchsorted(now, "right")))
        ranks, totals = table.arrivals[start:end], table.arrival_totals(start, end)
        for chain in self.chains:
            chain.add_pending(ranks, totals)
        self.next_arrival = end

    def _resample(self, now: float) -> None:
        # Exponential clocks are memoryless, so redrawing every live
        # chain after each event (powers may have shifted) matches the
        # thinned-rate model exactly.
        for chain in self.chains:
            power = self.owners(chain).power
            if power > 0.0:
                chain.next_time = sample_next_block_time(power, now, self.params, self.rng)
            else:
                chain.next_time = math.inf


def profiles(entries: Iterable[tuple[str, float, str]]) -> list[MinerProfile]:
    """MinerProfile list from (id, power, kind) rows."""
    return [MinerProfile(id=mid, power=power, kind=kind) for mid, power, kind in entries]


def run(
    trace: Iterable[Transaction],
    miners: Sequence[MinerProfile],
    params: ChainParams,
    depth: int = 1,
    avoidance: AvoidancePolicy | None = None,
    seed: int = 0,
) -> RunResult:
    """One seeded simulation; see Simulation for the event semantics.

    A ``RankTable`` (what ``trace.load_trace`` returns) is run as it is;
    any other iterable of transactions is prepared into one first.
    """
    return Simulation(RankTable.of(trace), miners, params, depth=depth, avoidance=avoidance, seed=seed).run()
