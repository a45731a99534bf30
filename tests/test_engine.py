import dataclasses
import math
import os
import re
import subprocess
import sys
from collections import Counter
from operator import mul
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from undercut.engine import (
    AvoidancePolicy,
    Block,
    Chain,
    MinerProfile,
    OwnerDraw,
    Simulation,
    StalledSimulationError,
    next_chain_to_extend,
    parse_avoidance,
    profiles,
    run,
    sample_next_block_time,
    select_next_block_miner,
)
from undercut.mempool import (
    BandwidthSetResult,
    ChainParams,
    MempoolView,
    RankTable,
    Transaction,
    bandwidth_set,
    claimable_fees,
    gamma_ratio,
    split_equal_fee,
)
from undercut.strategy import craft_avoidance_block, undercut_template
from undercut.trace import load_trace, preset, synthesize_trace, write_trace

from conftest import pending_reads, pool_of, selection_key, template_of, tx, view_ids, whale_trace

PARAMS = ChainParams(block_size_limit=10_000, block_interval=600.0)
NO_RANKS = np.empty(0, dtype=np.intp)


def two_miners():
    return profiles((("u", 0.3, "undercutter"), ("h", 0.7, "honest")))


def make_chain(height, workers, t=math.inf):
    genesis = Block(owner="", fee_total=0, size_total=0, creation_time=0.0, height=0, ranks=NO_RANKS)
    chain = Chain(blocks=[genesis], workers=set(workers), table=RankTable(()))
    for h in range(1, height + 1):
        chain.blocks.append(
            Block(owner="", fee_total=0, size_total=0, creation_time=float(h), height=h, ranks=NO_RANKS)
        )
    chain.next_time = t
    return chain


# -- event primitives -------------------------------------------------------


def test_next_chain_argmin_and_ties():
    a = make_chain(1, {"x"}, t=600.0)
    b = make_chain(1, {"y"}, t=432.1)
    assert next_chain_to_extend(a, b) is b
    b.next_time = 600.0
    assert next_chain_to_extend(a, b) is a  # the main chain wins ties
    assert next_chain_to_extend(a, None) is a
    a.next_time = b.next_time = math.inf
    with pytest.raises(StalledSimulationError):
        next_chain_to_extend(a, b)


def test_select_next_block_miner_weighted():
    rng = np.random.default_rng(42)
    chain = make_chain(0, {"a", "b"})
    powers = {"a": 0.3, "b": 0.1}
    draws = [select_next_block_miner(OwnerDraw.of(chain.workers, powers), rng) for _ in range(100_000)]
    freq = draws.count("a") / len(draws)
    assert abs(freq - 0.75) < 0.005

    solo = make_chain(0, {"a"})
    assert select_next_block_miner(OwnerDraw.of(solo.workers, {"a": 1.0}), rng) == "a"

    with_zero = make_chain(0, {"a", "z"})
    powers = {"a": 0.4, "z": 0.0}
    assert all(
        select_next_block_miner(OwnerDraw.of(with_zero.workers, powers), rng) == "a" for _ in range(2000)
    )


def test_sample_next_block_time_thinning():
    rng = np.random.default_rng(9)
    times = np.array([sample_next_block_time(1.0, 0.0, PARAMS, rng) for _ in range(100_000)])
    assert 594 <= times.mean() <= 606
    rng = np.random.default_rng(10)
    times = np.array([sample_next_block_time(0.5, 0.0, PARAMS, rng) for _ in range(100_000)])
    assert math.isclose(times.mean(), 1200.0, rel_tol=0.01)
    with pytest.raises(StalledSimulationError):
        sample_next_block_time(0.0, 0.0, PARAMS, rng)
    r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
    assert sample_next_block_time(0.8, 5.0, PARAMS, r1) == sample_next_block_time(
        0.8, 5.0, PARAMS, r2
    )


# -- chain updates ----------------------------------------------------------


def drive_update(depth, main_height, fork_height):
    sim = Simulation(RankTable([]), two_miners(), PARAMS, depth=depth)
    main = sim.chains[0]
    main.blocks = make_chain(main_height, set()).blocks[:-1]
    fork = make_chain(fork_height, {"u"})
    fork.base_height = 0
    sim.fork = fork
    main.workers = {"h"}
    block = Block(
        owner="h", fee_total=0, size_total=0, creation_time=9.0, height=main_height, ranks=NO_RANKS
    )
    sim.update_chains(main, block)
    return sim


def test_update_chains_removal_depth_rules():
    sim = drive_update(depth=1, main_height=2, fork_height=1)
    assert len(sim.chains) == 1 and sim.fork is None and sim.fork_losses == 1
    assert sim.chains[0].workers == {"h", "u"}

    sim = drive_update(depth=2, main_height=2, fork_height=1)
    assert len(sim.chains) == 2 and sim.fork is not None


def test_update_chains_fork_win():
    sim = Simulation(RankTable([]), two_miners(), PARAMS, depth=1)
    main = sim.chains[0]
    main.workers = {"h"}
    fork = make_chain(1, {"u"})
    sim.fork = fork
    block = Block(owner="u", fee_total=0, size_total=0, creation_time=2.0, height=1, ranks=NO_RANKS)
    sim.update_chains(fork, block)
    assert sim.chains == (fork,) and sim.main is fork and sim.fork is None and sim.fork_wins == 1
    assert fork.workers == {"h", "u"}


def test_honest_miners_follow_longest_chain_first_seen_ties():
    sim = Simulation(RankTable([]), two_miners(), PARAMS, depth=2)
    main = sim.chains[0]
    main.workers = {"h"}
    main.blocks = make_chain(1, set()).blocks
    fork = make_chain(1, {"u"})
    sim.fork = fork

    tie_block = fork.tip
    sim.update_miners(fork, tie_block)  # tie: honest stays on first-seen chain
    assert "h" in main.workers

    fork.blocks.append(
        Block(owner="u", fee_total=0, size_total=0, creation_time=3.0, height=2, ranks=NO_RANKS)
    )
    sim.update_miners(fork, fork.tip)  # fork now longer: honest switches
    assert "h" in fork.workers and "h" not in main.workers


@pytest.mark.parametrize("depth", [1, 2])
def test_a_head_published_in_split_order_is_attacked_as_its_sorted_view(depth):
    # Ranks follow fee rate and a split follows fee, so a head published in
    # split order (as a lone-set part is) lists its ranks out of order.  The
    # engine attacks the sorted view of them; the drained pool makes it
    # branch 1, whose block is the lightest part of the head as published.
    trace = [tx("a", 1, 4), tx("b", 10, 9), tx("c", 5, 4), tx("d", 2, 4), tx("e", 8, 9)]
    table = RankTable(trace)
    rank = {t.id: r for r, t in enumerate(table.txs)}
    whole = MempoolView(table, np.arange(len(trace)))
    published = [whole.pending[i] for part in split_equal_fee(whole, 2, PARAMS) for i in part]
    ranks = np.array([rank[t.id] for t in published], dtype=np.intp)
    assert np.any(np.diff(ranks) < 0)
    head = Block(
        owner="h",
        fee_total=sum(t.fee for t in published),
        size_total=sum(t.size for t in published),
        creation_time=1.0,
        height=1,
        ranks=ranks,
        table=table,
    )
    sim = Simulation(table, two_miners(), PARAMS, depth=depth)
    sim.main.blocks.append(head)
    sim.update_miners(sim.main, head)
    assert sim.attack_branches == {"negligible-mempool": 1}
    block = sim.fork.committed
    view = pool_of(*published)
    parts = [[view.pending[i] for i in part] for part in split_equal_fee(view, depth + 1, PARAMS)]
    lightest = min(parts, key=lambda p: sum(t.fee for t in p))
    assert block.tx_ids == tuple(t.id for t in lightest)
    assert [table.txs[r].id for r in block.ranks] == list(block.tx_ids)
    # the head returns to the fork's pool, by its ranks
    assert sorted(sim.fork.view().ranks.tolist()) == sorted(ranks.tolist())


@st.composite
def pool_histories(draw):
    """A small trace (frequent fee-rate ties) and a list of pool operations."""
    n = draw(st.integers(0, 24))
    txs = [tx(f"t{i:02d}", draw(st.integers(1, 6)), draw(st.integers(0, 12))) for i in range(n)]
    ops = st.tuples(st.sampled_from(("arrive", "remove", "fork")), st.integers(0, 2**24))
    return txs, draw(st.lists(ops, max_size=60))


def test_a_congested_pool_is_packed_and_scanned_from_its_head():
    # a backlog of twelve blocks: templates, gammas, claimable fees and
    # both avoidance modes read the head of the pool and the chain's
    # totals, and the columns by position; the transactions of no view
    # longer than one block are read
    rng = np.random.default_rng(3)
    sizes, fees = rng.integers(1500, 2501, 6000).tolist(), rng.integers(1, 61, 6000).tolist()
    table = RankTable(tx(f"t{i:04d}", size, fee, float(i)) for i, (size, fee) in enumerate(zip(sizes, fees)))
    chain = Chain(blocks=[], workers=set(), table=table)
    chain.add_pending(table.arrivals, table.arrival_totals(0, len(table)))
    view = chain.view()
    params = preset("bitcoin16")[1]
    limit = params.block_size_limit
    with pending_reads() as reads:
        bandwidth_set(view, params)
        view.fee_left(range(3), limit)
        gamma_ratio(view, 1_000, params)
        claimable_fees(view, params, 3)
        craft_avoidance_block(view, params, depth=2, mode="experimental")
        for depth in (1, 2):
            craft_avoidance_block(view, params, depth=depth, mode="exact")
        undercut_template(2, 3, "limited-mempool", params, view, MempoolView(table, view.ranks[:0]))
        undercut_template(1, 1, "negligible-mempool", params, view, view.packed(limit))
    assert [read.totals[1] for read in reads if read.totals[1] > limit] == []
    assert chain.view() is view


@settings(max_examples=150, deadline=None)
@given(pool_histories())
def test_chain_pool_matches_a_sorted_model(history):
    # Arrivals reach every live chain, removals confirm a subset on one
    # chain, and a fork copies a chain's pool and takes back some of the
    # transactions it confirmed (the head block it undercuts).
    txs, ops = history
    table = RankTable(txs)
    rank = {t.id: r for r, t in enumerate(table.txs)}
    chains = [Chain(blocks=[], workers=set(), table=table)]
    pending, confirmed = [set()], [set()]
    arrived = 0
    for op, pick in ops:
        k = pick % len(chains)
        if op == "arrive" and arrived < len(txs):
            for chain, model in zip(chains, pending):
                chain.add_pending([rank[txs[arrived].id]], (txs[arrived].fee, txs[arrived].size))
                model.add(txs[arrived])
            arrived += 1
        elif op == "remove":
            gone = [t for i, t in enumerate(sorted(pending[k], key=selection_key)) if pick >> i & 1]
            chains[k].remove_pending(template_of(chains[k].view(), gone))
            pending[k] -= set(gone)
            confirmed[k] |= set(gone)
        elif op == "fork":
            head = [t for i, t in enumerate(sorted(confirmed[k], key=selection_key)) if pick >> i & 1]
            fork = Chain(blocks=[], workers=set(), table=table, parent=chains[k])
            fork.add_pending([rank[t.id] for t in head], (sum(t.fee for t in head), sum(t.size for t in head)))
            chains.append(fork)
            pending.append(pending[k] | set(head))
            confirmed.append(confirmed[k] - set(head))
        for chain, model in zip(chains, pending):
            view = chain.view()
            assert view.pending == tuple(sorted(model, key=selection_key))
            assert view.table is table and table.txs[view.ranks].tolist() == list(view.pending)
            assert_keeps_its_totals(chain, limit=10)  # most pools of a few dozen size units cut their pack


def assert_keeps_its_totals(chain, limit=PARAMS.block_size_limit):
    """The chain's kept pool totals are the sums over the transactions its mask holds,
    and the totals its view's pack within ``limit`` carries are those of the pack's ranks."""
    txs = chain.table.txs[chain.pending].tolist()
    assert (chain.pool_fee, chain.pool_size) == (sum(t.fee for t in txs), sum(t.size for t in txs))
    assert chain.view().totals == (chain.pool_fee, chain.pool_size)
    pack = chain.view().packed(limit)
    assert pack.totals == chain.table.totals(pack.ranks)


@st.composite
def shuffled_traces(draw):
    """Unsorted traces with tied times, tied fee rates and tied fees.

    Ids differ in a trailing NUL or a non-ASCII character.  Some fees lie
    at or past 2**63, where a float fee rate ties and only the exact fee
    can decide.  Others lie around 2**53 (or are one to three times such
    a fee), where an int64 fee no longer converts to float64 exactly: a
    rate divided in float64 rounds twice and can order two transactions
    unlike ``selection_key``, as (2**53 + 2, size 1) and (3 * 2**53 + 3,
    size 3) are.
    """
    ids = draw(st.lists(st.text(alphabet="a\x00é\U0001f600", max_size=3), unique=True, max_size=40))
    fee = st.one_of(
        st.integers(0, 6),
        st.builds(mul, st.integers(1, 3), st.integers(2**53 - 1, 2**53 + 3)),
        st.integers(2**63 - 2, 2**63 + 2),
        st.sampled_from((2**64, 2**80)),
    )
    rows = [(draw(st.integers(1, 4)), draw(fee), draw(st.sampled_from((0.0, 0.5, 1.0)))) for _ in ids]
    return [tx(i, size, f, t=t) for i, (size, f, t) in zip(ids, rows)]


@settings(max_examples=300, deadline=None)
@given(shuffled_traces())
@example([tx("a", 1, 2**53 + 2), tx("b", 3, 3 * 2**53 + 3)])
def test_rank_table_matches_sorted_reference(trace):
    table = RankTable(trace)
    ordered = sorted(trace, key=selection_key)
    by_arrival = sorted(trace, key=lambda t: (t.arrival_time, t.id))
    rank = {t.id: r for r, t in enumerate(ordered)}
    by_id = {i: p for p, i in enumerate(sorted(rank))}
    assert table.txs.tolist() == ordered
    assert table.id_order.tolist() == [by_id[t.id] for t in ordered]
    assert table.arrivals.tolist() == [rank[t.id] for t in by_arrival]
    assert table.times.tolist() == [t.arrival_time for t in by_arrival]
    assert table.size_floor == min((t.size for t in trace), default=1)
    assert table.total_fee == sum(t.fee for t in trace)


def test_rank_table_of_an_empty_trace_and_duplicate_ids():
    table = RankTable([])
    assert table.txs.tolist() == [] and table.arrivals.tolist() == []
    assert table.times.tolist() == [] and table.size_floor == 1 and table.total_fee == 0
    # ids that differ only in a trailing NUL are two transactions
    assert [t.id for t in RankTable([tx("a\x00", 1, 1), tx("a", 1, 1)]).txs] == ["a", "a\x00"]
    with pytest.raises(ValueError, match="duplicate transaction ids"):
        RankTable([tx("b", 1, 1), tx("a", 1, 1, t=1.0), tx("a", 2, 9)])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_trace_with_a_time_that_is_not_finite_is_rejected_by_name(bad):
    # the first such id in id order is named, before any run starts
    trace = [tx("c", 1, 5, t=-math.inf), tx("a", 1, 5), tx("b", 1, 5, t=bad)]
    with pytest.raises(ValueError, match="transaction 'b': arrival_time must be finite"):
        run(trace, two_miners(), PARAMS)


@pytest.mark.parametrize("depth", [True, 2.0, 3])
def test_a_run_rejects_a_depth_that_is_not_the_integer_1_or_2(depth):
    # True and 2.0 equal keys of DEPTHS; 2.0 ran until its first attack
    with pytest.raises(ValueError, match=rf"^depth must be (an integer|1 or 2), got {re.escape(repr(depth))}$"):
        run([tx("a", 1, 5)], two_miners(), PARAMS, depth=depth)


def test_update_mempool_boundary_inclusive():
    records = [tx("a", 1, 1, t=5.0), tx("b", 1, 1, t=6.0)]
    sim = Simulation(RankTable(records), two_miners(), PARAMS, depth=1)
    sim.update_mempool(5.0)
    assert view_ids(sim.chains[0].view()) == {"a"}
    sim.update_mempool(6.0)
    assert view_ids(sim.chains[0].view()) == {"a", "b"}

    # unsorted input, tied timestamps, selection order against arrival order
    records = [tx("e", 1, 1, t=6.0), tx("c", 1, 3, t=6.0), tx("d", 1, 2, t=5.0), tx("a", 1, 5, t=7.0)]
    table = RankTable(records)
    assert [table.txs[r].id for r in table.arrivals] == ["d", "c", "e", "a"]
    assert table.times.tolist() == [5.0, 6.0, 6.0, 7.0] and table.total_fee == 11
    sim = Simulation(table, two_miners(), PARAMS, depth=1)
    sim.update_mempool(4.9)
    assert view_ids(sim.chains[0].view()) == frozenset()
    sim.update_mempool(6.0)
    assert [t.id for t in sim.chains[0].view().pending] == ["c", "d", "e"]
    sim.update_mempool(7.0)
    assert [t.id for t in sim.chains[0].view().pending] == ["a", "c", "d", "e"]


def test_publish_block_empty_pool_and_whole_pool():
    sim = Simulation(RankTable([tx("a", 10, 5, t=0.0)]), two_miners(), PARAMS, depth=1)
    chain = sim.chains[0]
    block = sim.publish_block("h", chain, 1.0)
    assert block.fee_total == 0 and block.tx_ids == ()
    sim.update_mempool(10.0)
    block = sim.publish_block("h", chain, 11.0)
    assert block.tx_ids == ("a",) and block.fee_total == 5


def test_publish_block_avoidance_claims_below_bandwidth_set():
    records = [tx("w", 100, 4000, t=0.0)] + [tx(f"d{i}", 100, 100, t=0.0) for i in range(6)]
    params = ChainParams(block_size_limit=300, block_interval=600.0)
    sim = Simulation(
        RankTable(records),
        two_miners(),
        params,
        depth=1,
        avoidance=AvoidancePolicy(mode="experimental"),
    )
    sim.update_mempool(1.0)
    chain = sim.chains[0]
    best = bandwidth_set(chain.view(), params).total_fee
    block = sim.publish_block("h", chain, 2.0)
    assert 0 < block.fee_total < best


# -- full runs ---------------------------------------------------------------


def test_single_honest_miner_takes_everything():
    records = synthesize_trace(rate=0.05, duration=30_000, seed=4, size_args=(500, 900))
    result = run(records, profiles((("solo", 1.0, "honest"),)), PARAMS, seed=1)
    assert result.share("solo") == 1.0
    assert result.confirmed_fee >= 0.98 * result.total_trace_fee


def test_zero_fee_trace_earns_nothing():
    records = [tx(f"t{i}", 100, 0, t=float(i)) for i in range(20)]
    result = run(records, two_miners(), PARAMS, seed=2)
    assert all(v == 0 for v in result.earnings.values())


def test_a_miner_named_by_the_empty_string_is_paid():
    # "" and "a" both sort before "h" and "u", so the rename changes no draw
    records = whale_trace(5, 600, 36_000, dust_rate=10.0, whale_rate=0.5)

    def run_as(name):
        miners = profiles(((name, 0.4, "rational"), ("h", 0.3, "honest"), ("u", 0.3, "undercutter")))
        return run(records, miners, PARAMS, depth=2, seed=11)

    blank, named = run_as(""), run_as("a")
    assert blank.earnings[""] > 0
    assert {("a" if mid == "" else mid): fee for mid, fee in blank.earnings.items()} == named.earnings
    assert (blank.confirmed_fee, blank.blocks) == (named.confirmed_fee, named.blocks)
    assert sum(blank.earnings.values()) == blank.confirmed_fee


def test_empty_trace_is_valid():
    result = run([], two_miners(), PARAMS, seed=3)
    assert result.blocks == 0 and result.confirmed_fee == 0
    with pytest.raises(ValueError, match="duplicate transaction ids"):
        run([tx("a", 1, 1, t=0.0), tx("a", 2, 2, t=1.0)], two_miners(), PARAMS, seed=3)


def test_seed_determinism_and_divergence():
    records = whale_trace(5, 600, 36_000, dust_rate=10.0, whale_rate=0.5)
    miners = two_miners()
    a = run(records, miners, PARAMS, depth=2, seed=11)
    b = run(records, miners, PARAMS, depth=2, seed=11)
    assert a == b
    c = run(records, miners, PARAMS, depth=2, seed=12)
    assert a.earnings != c.earnings


HASH_SEED_CHILD = """
from conftest import whale_trace
from undercut.engine import Simulation, profiles
from undercut.mempool import RankTable
from undercut.trace import preset

dist, params = preset("bitcoin16")
miners = profiles(dist.with_honest_fraction(0.3).entries)
sim = Simulation(RankTable(whale_trace(707, 600, 6_000)), miners, params, seed=1)
sim.run()
for block in sim.main.blocks:
    print(repr(block.creation_time))
"""


def test_block_times_do_not_depend_on_hash_seed():
    # Miner ids are strings, so set iteration order (and any float sum
    # over a set of workers) changes with PYTHONHASHSEED between processes.
    tests_dir = Path(__file__).parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    times = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", HASH_SEED_CHILD], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        times.append(child.stdout)
    assert len(times[0].split()) > 10
    assert times[0] == times[1]


def test_conservation_and_single_confirmation():
    records = whale_trace(9, 600, 120_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    for depth in (1, 2):
        sim = Simulation(RankTable(records), miners, PARAMS, depth=depth, seed=17)
        result = sim.run()
        assert result.attacks > 0
        assert result.fork_wins + result.fork_losses == result.attacks
        terminal = sim.chains[0]
        confirmed = [i for b in terminal.blocks for i in b.tx_ids]
        assert len(confirmed) == len(set(confirmed))  # no double confirmation
        assert set(confirmed) <= {t.id for t in records}
        assert result.confirmed_fee <= result.total_trace_fee
        assert sum(result.earnings.values()) == result.confirmed_fee


class PartitionCheckedSimulation(Simulation):
    def _resample(self, now):
        seen = set()
        for chain in self.chains:
            assert not (chain.workers & seen), "miner on two chains"
            seen |= chain.workers
        assert seen == set(self.miners), "miner lost from every chain"
        # Conservation and no double confirmation: every transaction that
        # has arrived is confirmed by one of a chain's blocks or pending on
        # it, once.  The mask is read directly, so the view cache is untouched.
        arrived = np.sort(self.table.arrivals[: self.next_arrival])
        for chain in self.chains:
            held = np.concatenate([*(block.ranks for block in chain.blocks), np.flatnonzero(chain.pending)])
            assert np.array_equal(np.sort(held), arrived), "a chain lost or repeated a transaction"
        fork = self.fork
        if fork is not None:
            assert fork is not self.main
            # A race ends once one side leads by the depth; only a fork
            # created at this event, with no block of its own, trails by one.
            lead = fork.tip.height - self.main.tip.height
            fresh = fork.tip.height == fork.base_height
            assert -self.depth < lead < self.depth or (fresh and lead == -1), "race outlived its depth"
        super()._resample(now)


def test_every_miner_works_exactly_one_chain():
    records = whale_trace(13, 600, 90_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.2).entries)
    sim = PartitionCheckedSimulation(RankTable(records), miners, PARAMS, depth=2, seed=23)
    result = sim.run()
    assert result.attacks > 0


class TotalsCheckedSimulation(Simulation):
    """Checks every live chain's kept pool totals, and those of its pack, after every event.

    ``cuts`` counts the checks of a pack that the pool did not fit, whose
    totals come from ``_first_fit``."""

    checks = cuts = 0

    def _resample(self, now):
        for chain in self.chains:
            assert_keeps_its_totals(chain)
            self.cuts += chain.pool_size > PARAMS.block_size_limit
        self.checks += 1
        super()._resample(now)


@pytest.mark.parametrize("avoidance", ["off", "experimental", "exact", "strict"])
@pytest.mark.parametrize("depth", [1, 2])
def test_pool_totals_follow_the_mask_after_every_event(depth, avoidance):
    records = whale_trace(13, 600, 60_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    policy = parse_avoidance(avoidance)
    sim = TotalsCheckedSimulation(RankTable(records), miners, PARAMS, depth=depth, avoidance=policy, seed=17)
    result = sim.run()
    if policy is None:
        assert result.attacks > 0 and sim.fork_wins + sim.fork_losses > 0
    assert result.confirmed_fee > 0 and sim.cuts > 0
    assert sim.checks > result.blocks  # the set-up's, and one per event


class RankCheckedSimulation(Simulation):
    """Checks each published block's ranks and, after each publish, every
    chain's pool against a set model: what arrived, less what the chain's
    blocks confirmed.  Also compares ``_owned_after_fork``'s slice with a
    filter over every block since genesis."""

    owned_calls = 0

    def publish_block(self, miner_id, chain, now):
        block = super().publish_block(miner_id, chain, now)
        txs = self.table.txs
        assert [t.id for t in txs[block.ranks]] == list(block.tx_ids)
        arrived = {txs[r].id for r in self.table.arrivals[: self.next_arrival]}
        for c in self.chains:
            confirmed = {i for b in c.blocks for i in b.tx_ids}
            if c is chain:
                confirmed |= set(block.tx_ids)
            assert view_ids(c.view()) == arrived - confirmed
        return block

    def _owned_after_fork(self, miner_id, chain, base):
        self.owned_calls += 1
        owned = super()._owned_after_fork(miner_id, chain, base)
        assert owned == sum(b.fee_total for b in chain.blocks if b.height > base and b.owner == miner_id)
        return owned


@pytest.mark.parametrize("avoidance", ["off", "experimental", "exact", "strict"])
@pytest.mark.parametrize("depth", [1, 2])
def test_published_blocks_carry_their_ranks_and_pools_match_a_set_model(depth, avoidance):
    records = whale_trace(13, 600, 60_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    table, policy = RankTable(records), parse_avoidance(avoidance)
    sim = RankCheckedSimulation(table, miners, PARAMS, depth=depth, avoidance=policy, seed=17)
    result = sim.run()
    assert result.confirmed_fee > 0
    if policy is None:
        assert result.attacks > 0
        if depth == 2:  # rational miners weigh what they own after the fork
            assert sim.owned_calls > 0
    assert result == Simulation(table, miners, PARAMS, depth=depth, avoidance=policy, seed=17).run()


@pytest.mark.parametrize("avoidance", ["off", "experimental", "exact", "strict"])
@pytest.mark.parametrize("depth", [1, 2])
def test_a_run_names_transactions_by_their_ranks_alone(depth, avoidance):
    # no template or block stores an id tuple, and inside a run no view's
    # transactions and no template's or block's ids are read: every
    # selector, the split included, reads the table's columns by rank
    for cls in (BandwidthSetResult, Block):
        assert "tx_ids" not in {f.name for f in dataclasses.fields(cls)}
    records = whale_trace(13, 600, 60_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    sim = Simulation(RankTable(records), miners, PARAMS, depth=depth, avoidance=parse_avoidance(avoidance), seed=17)
    id_reads = []

    def spying(cls):
        read = cls.tx_ids.fget

        def spy(holder):
            id_reads.append(holder)
            return read(holder)

        return mock.patch.object(cls, "tx_ids", property(spy))

    with (
        pending_reads() as reads,
        spying(BandwidthSetResult),
        spying(Block),
        mock.patch("undercut.strategy.split_equal_fee", wraps=split_equal_fee) as split,
    ):
        result = sim.run()
    assert result.confirmed_fee > 0
    if avoidance == "off":  # the run attacks, and a drained pool splits the head
        assert result.attacks > 0 and split.call_count > 0
    assert reads == [] and id_reads == []


def loaded_whale_trace(path):
    """The whale trace of the tests above, written to ``path`` and loaded back."""
    write_trace(whale_trace(13, 600, 60_000, dust_rate=5.0, whale_rate=0.4), path)
    return load_trace(path)


def test_a_run_over_a_loaded_table_builds_no_transaction(tmp_path, monkeypatch):
    # a loaded trace is its table's columns: no run builds a Transaction,
    # nor the table's txs (which would build one per rank)
    table = loaded_whale_trace(tmp_path / "trace.csv")
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)

    def refuse(transaction):
        raise AssertionError(f"a run built transaction {transaction.id!r}")

    monkeypatch.setattr(Transaction, "__post_init__", refuse)
    attacks = 0
    for depth in (1, 2):
        for avoidance in ("off", "experimental", "exact", "strict"):
            result = run(table, miners, PARAMS, depth=depth, avoidance=parse_avoidance(avoidance), seed=17)
            assert result.confirmed_fee > 0
            attacks += result.attacks
    assert attacks > 0
    assert table._txs is None


def test_a_run_sums_no_column_but_for_the_template_of_a_split_part(monkeypatch):
    # arrivals, attacked heads and packs carry the totals an earlier step
    # summed: no pool change, pack or fee_left gathers a column to sum it,
    # and only MempoolView.template, for a split part, sums its ranks
    records = whale_trace(13, 600, 60_000, dust_rate=5.0, whale_rate=0.4)
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    table = RankTable(records)
    callers = Counter()
    totals = RankTable.totals

    def recording(self, ranks):
        callers[sys._getframe(1).f_code.co_name] += 1
        return totals(self, ranks)

    monkeypatch.setattr(RankTable, "totals", recording)
    attacks = 0
    for depth in (1, 2):
        for avoidance in ("off", "experimental", "exact", "strict"):
            result = run(table, miners, PARAMS, depth=depth, avoidance=parse_avoidance(avoidance), seed=17)
            assert result.confirmed_fee > 0
            attacks += result.attacks
    assert attacks > 0
    # so none from Chain.add_pending, MempoolView.packed, _first_fit or MempoolView.fee_left
    assert set(callers) == {"template"}


@pytest.mark.parametrize("depth", [1, 2])
def test_a_run_over_a_loaded_table_equals_a_run_over_its_list(tmp_path, depth):
    table = loaded_whale_trace(tmp_path / "trace.csv")
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    result = run(table, miners, PARAMS, depth=depth, seed=17)
    assert result.attacks > 0
    assert result == run(list(table), miners, PARAMS, depth=depth, seed=17)


@st.composite
def small_runs(draw):
    """Dust plus a few whales (<= 200 tx), a population, depth and avoidance."""

    def txs(prefix, max_count, fees):
        row = st.tuples(st.integers(200, 3000), fees, st.integers(0, 30_000))
        rows = draw(st.lists(row, max_size=max_count))
        return [tx(f"{prefix}{i}", size, fee, t=float(t)) for i, (size, fee, t) in enumerate(rows)]

    trace = txs("d", 195, st.integers(0, 60)) + txs("w", 5, st.integers(10_000, 2_000_000))
    dist, _ = preset("bitcoin16")
    miners = profiles(dist.with_honest_fraction(draw(st.sampled_from((0.0, 0.2, 0.4)))).entries)
    depth = draw(st.sampled_from((1, 2)))
    avoidance = parse_avoidance(draw(st.sampled_from(("off", "experimental", "exact"))))
    return trace, miners, depth, avoidance, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None)
@given(small_runs())
def test_run_invariants_hold_on_random_traces(case):
    trace, miners, depth, avoidance, seed = case
    params = ChainParams(block_size_limit=6_000, block_interval=600.0)
    table = RankTable(trace)
    sim = PartitionCheckedSimulation(
        table, miners, params, depth=depth, avoidance=avoidance, seed=seed
    )
    result = sim.run()
    assert sum(result.earnings.values()) == result.confirmed_fee <= result.total_trace_fee
    confirmed = [i for b in sim.chains[0].blocks for i in b.tx_ids]
    assert len(confirmed) == len(set(confirmed))
    assert set(confirmed) <= {t.id for t in trace}
    assert result.fork_wins + result.fork_losses <= result.attacks
    assert run(trace, miners, params, depth=depth, avoidance=avoidance, seed=seed) == result
    # a run leaves the table it reads untouched, so a sweep cell's runs may share it
    assert Simulation(table, miners, params, depth=depth, avoidance=avoidance, seed=seed).run() == result


def test_all_honest_population_mines_fair_shares():
    dist, params = preset("bitcoin16")
    records = synthesize_trace(
        rate=25 / 600, duration=60_000, seed=42, size_args=(30_000, 50_000)
    )
    miners = profiles(dist.all_honest())
    shares = {m.id: [] for m in miners}
    for seed in range(12):
        result = run(records, miners, params, seed=seed)
        for m in miners:
            shares[m.id].append(result.share(m.id))
    for m in miners:
        assert abs(float(np.mean(shares[m.id])) - m.power) < 0.04


def test_profiles_and_policy_parsing():
    assert parse_avoidance("off") is None
    assert parse_avoidance("exact").mode == "exact"
    assert parse_avoidance("strict=0.7") == AvoidancePolicy(mode="strict", factor=0.7)
    assert parse_avoidance("strict:0.7").factor == 0.7
    assert AvoidancePolicy("strict", 0.8).label() == "strict:0.8"
    assert AvoidancePolicy("experimental").label() == "experimental"
    assert parse_avoidance("strict=1").factor == 1.0
    assert parse_avoidance("strict") == AvoidancePolicy(mode="strict", factor=0.8)
    with pytest.raises(ValueError):
        parse_avoidance("sometimes")
    with pytest.raises(ValueError, match="unknown avoidance mode 'bogus'"):
        AvoidancePolicy("bogus")
    for bad in ("-1", "0", "nan", "5", "inf"):
        with pytest.raises(ValueError, match=f"strict factor must lie in \\(0, 1\\], got {bad}"):
            parse_avoidance(f"strict={bad}")
    for text, bad in (("strict=abc", "'abc'"), ("strict=", "''"), ("strict:0.5x", "'0.5x'")):
        with pytest.raises(ValueError, match=f"^strict factor must be a number, got {bad}$"):
            parse_avoidance(text)
    with pytest.raises(ValueError):
        MinerProfile("a", 0.5, "lazy")
    with pytest.raises(ValueError, match="power must be non-negative, got nan"):
        MinerProfile("a", float("nan"), "honest")
    with pytest.raises(ValueError):
        run([], profiles((("a", 0.7, "honest"),)), PARAMS)
    with pytest.raises(ValueError, match="duplicate miner id 'a'"):
        run([], profiles((("a", 0.5, "honest"), ("a", 0.5, "honest"))), PARAMS)


def linear_scan_owner(workers, powers, rng):
    """The owner draw as a scan over the sorted workers, kept as the reference."""
    ids = sorted(workers)
    u = rng.random() * sum(powers[w] for w in ids)
    cum = 0.0
    for w in ids:
        cum += powers[w]
        if u < cum:
            return w
    return ids[-1]


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(
        st.sampled_from((0.0, 0.0, 0.05, 0.1, 0.3)) | st.floats(0.001, 1.0), min_size=1, max_size=12
    ),
    moves=st.lists(st.integers(0, 11), max_size=40),
    seed=st.integers(0, 2**32),
)
def test_memoized_owner_draw_matches_the_linear_scan(weights, moves, seed):
    weights[0] = weights[0] or 1.0  # some power; zero-power workers stay common
    total = sum(weights)
    miners = profiles((f"m{i}", w / total, "honest") for i, w in enumerate(weights))
    sim = Simulation(RankTable(()), miners, PARAMS, seed=seed)
    sim.fork = Chain(blocks=list(sim.main.blocks), workers=set(), table=sim.table)
    sim.rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for step, move in enumerate(moves):
        mover = miners[move % len(miners)].id
        src, dst = (sim.main, sim.fork) if mover in sim.main.workers else (sim.fork, sim.main)
        src.workers.discard(mover)
        dst.workers.add(mover)
        for chain in sim.chains:
            power = math.fsum(sim.powers[w] for w in chain.workers)
            assert sim.owners(chain).power == power
            if power > 0.0:
                owner = select_next_block_miner(sim.owners(chain), sim.rng)
                assert owner == linear_scan_owner(chain.workers, sim.powers, ref)
                assert sim.powers[owner] > 0.0
            else:
                with pytest.raises(StalledSimulationError):
                    select_next_block_miner(sim.owners(chain), sim.rng)
        # the clocks are drawn from the same exactly rounded power
        now = float(step)
        expected = [
            now + ref.exponential(PARAMS.block_interval / p) if p > 0.0 else math.inf
            for p in (math.fsum(sim.powers[w] for w in chain.workers) for chain in sim.chains)
        ]
        sim._resample(now)
        assert [chain.next_time for chain in sim.chains] == expected
    assert sim.rng.random() == ref.random()  # both streams made the same draws


class EndlessRace(Simulation):
    """Blocks are appended but no race ever ends."""

    events = 0

    def publish_block(self, miner_id, chain, now):
        self.events += 1
        return super().publish_block(miner_id, chain, now)

    def update_chains(self, ext, block):
        ext.blocks.append(block)


def test_a_race_that_never_ends_stops_at_the_event_cap():
    records = whale_trace(9, 600, 30_000, dust_rate=5.0, whale_rate=0.4)
    # no rational miners: their shift objective rejects a decided race
    sim = EndlessRace(RankTable(records), two_miners(), PARAMS, seed=17)
    with pytest.raises(StalledSimulationError, match=f"run needed {sim.max_events} events or more"):
        sim.run()
    assert sim.fork is not None and sim.attacks == 1
    assert sim.events == sim.max_events
    # the trace's 50 block intervals and its transactions, with the margin
    assert sim.max_events == 4 * (50 + len(records)) + 1000


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.5, True])
def test_simulation_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed}"):
        Simulation(RankTable(()), two_miners(), PARAMS, seed=seed)
