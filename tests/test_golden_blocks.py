"""Golden main chains: one digest per seeded run of the blocks it settles.

``RunResult`` sees only totals, so it cannot tell two runs apart whose
blocks hold the same fees in another order, or that put another of two
equal-fee transactions into a lone-set part.  Each digest here covers
every main-chain block after genesis: its owner, ``tx_ids`` in block
order, fee, size, height and ranks.  The runs cover both depths, every
avoidance mode and two honest fractions, on a sparse and a congested
whale trace, and together they fire every attack branch.

A digest changes only when a block does.  To print the table for the
current code, run ``PYTHONPATH=src:tests python tests/test_golden_blocks.py``.
"""

import hashlib
from collections import Counter
from unittest import mock

from undercut.engine import Simulation, parse_avoidance, profiles
from undercut.mempool import ChainParams, MempoolView, RankTable
from undercut.trace import preset

from conftest import backlog_trace, whale_trace

# name: (dust per interval, block size limit, seeds)
TRACES = {
    "sparse": (5.0, 20_000, range(4)),
    "congested": (20.0, 10_000, range(1)),
}
AVOIDANCE = ("off", "experimental", "exact", "strict")
HONEST = (0.0, 0.3)


def chain_digest(blocks) -> str:
    h = hashlib.sha256()
    for b in blocks[1:]:  # genesis is the same in every run
        h.update(repr((b.owner, b.tx_ids, b.fee_total, b.size_total, b.height, b.ranks.tolist())).encode())
    return h.hexdigest()[:16]


def golden_runs():
    """(key, digest, attack branches) of every run, in a fixed order."""
    dist, _ = preset("bitcoin16")
    for name, (dust, limit, seeds) in TRACES.items():
        table = RankTable(whale_trace(13, 600, 30_000, dust_rate=dust, whale_rate=0.4))
        params = ChainParams(block_size_limit=limit, block_interval=600.0)
        for depth in (1, 2):
            for honest in HONEST:
                miners = profiles(dist.with_honest_fraction(honest).entries)
                for avoidance in AVOIDANCE:
                    for seed in seeds:
                        sim = Simulation(
                            table, miners, params, depth=depth, avoidance=parse_avoidance(avoidance), seed=seed
                        )
                        result = sim.run()
                        key = f"{name}/d{depth}/h{honest}/{avoidance}/{seed}"
                        yield key, chain_digest(sim.main.blocks), result.attack_branches


GOLDEN = {
    "sparse/d1/h0.0/off/0": "a598561676c0df59",
    "sparse/d1/h0.0/off/1": "b69fbc3ae4abd04f",
    "sparse/d1/h0.0/off/2": "acbaa435ed7bac31",
    "sparse/d1/h0.0/off/3": "a4a0ca847634d972",
    "sparse/d1/h0.0/experimental/0": "86c44b104b73d1ca",
    "sparse/d1/h0.0/experimental/1": "eb43af491a7ec15f",
    "sparse/d1/h0.0/experimental/2": "39a08208c775177f",
    "sparse/d1/h0.0/experimental/3": "ca19a0c8a4556fdc",
    "sparse/d1/h0.0/exact/0": "f11150c6eef6ba90",
    "sparse/d1/h0.0/exact/1": "018f72cfdfc94ff6",
    "sparse/d1/h0.0/exact/2": "eda698371be2bd53",
    "sparse/d1/h0.0/exact/3": "30b5ea735e3e01ed",
    "sparse/d1/h0.0/strict/0": "5646bf8e802229e9",
    "sparse/d1/h0.0/strict/1": "44ccbef668728061",
    "sparse/d1/h0.0/strict/2": "523b64af6641d74c",
    "sparse/d1/h0.0/strict/3": "7f868088eb898a08",
    "sparse/d1/h0.3/off/0": "7acc7b1393597460",
    "sparse/d1/h0.3/off/1": "6c5fe55b79047816",
    "sparse/d1/h0.3/off/2": "61e59d749a805fef",
    "sparse/d1/h0.3/off/3": "4a5e0e83f10c32eb",
    "sparse/d1/h0.3/experimental/0": "86c44b104b73d1ca",
    "sparse/d1/h0.3/experimental/1": "eb43af491a7ec15f",
    "sparse/d1/h0.3/experimental/2": "39a08208c775177f",
    "sparse/d1/h0.3/experimental/3": "ca19a0c8a4556fdc",
    "sparse/d1/h0.3/exact/0": "f11150c6eef6ba90",
    "sparse/d1/h0.3/exact/1": "018f72cfdfc94ff6",
    "sparse/d1/h0.3/exact/2": "eda698371be2bd53",
    "sparse/d1/h0.3/exact/3": "30b5ea735e3e01ed",
    "sparse/d1/h0.3/strict/0": "5646bf8e802229e9",
    "sparse/d1/h0.3/strict/1": "44ccbef668728061",
    "sparse/d1/h0.3/strict/2": "523b64af6641d74c",
    "sparse/d1/h0.3/strict/3": "7f868088eb898a08",
    "sparse/d2/h0.0/off/0": "a598561676c0df59",
    "sparse/d2/h0.0/off/1": "a11aa8beb6116089",
    "sparse/d2/h0.0/off/2": "eca369252100db53",
    "sparse/d2/h0.0/off/3": "e3b8e8113253579c",
    "sparse/d2/h0.0/experimental/0": "86c44b104b73d1ca",
    "sparse/d2/h0.0/experimental/1": "eb43af491a7ec15f",
    "sparse/d2/h0.0/experimental/2": "39a08208c775177f",
    "sparse/d2/h0.0/experimental/3": "ca19a0c8a4556fdc",
    "sparse/d2/h0.0/exact/0": "fa2ebd53fa59e782",
    "sparse/d2/h0.0/exact/1": "1cfac16615a5f243",
    "sparse/d2/h0.0/exact/2": "fe5aca234e033d36",
    "sparse/d2/h0.0/exact/3": "79c7ebc4adaa3228",
    "sparse/d2/h0.0/strict/0": "5646bf8e802229e9",
    "sparse/d2/h0.0/strict/1": "44ccbef668728061",
    "sparse/d2/h0.0/strict/2": "523b64af6641d74c",
    "sparse/d2/h0.0/strict/3": "7f868088eb898a08",
    "sparse/d2/h0.3/off/0": "def5322dafb7229e",
    "sparse/d2/h0.3/off/1": "021e21b55b729884",
    "sparse/d2/h0.3/off/2": "5dc020cb38027c6d",
    "sparse/d2/h0.3/off/3": "5ef25cd677159a6a",
    "sparse/d2/h0.3/experimental/0": "28127f4468d919e0",
    "sparse/d2/h0.3/experimental/1": "256847770fca1ba4",
    "sparse/d2/h0.3/experimental/2": "83f09b348afcb289",
    "sparse/d2/h0.3/experimental/3": "f51b60afc0f5abb1",
    "sparse/d2/h0.3/exact/0": "fa2ebd53fa59e782",
    "sparse/d2/h0.3/exact/1": "1cfac16615a5f243",
    "sparse/d2/h0.3/exact/2": "fe5aca234e033d36",
    "sparse/d2/h0.3/exact/3": "79c7ebc4adaa3228",
    "sparse/d2/h0.3/strict/0": "ee5beb38dd8eeff0",
    "sparse/d2/h0.3/strict/1": "3ebd3a5ca8da3acd",
    "sparse/d2/h0.3/strict/2": "605510216df00ecb",
    "sparse/d2/h0.3/strict/3": "ac36e32f2600cfcc",
    "congested/d1/h0.0/off/0": "0f4f96609d5e8fb7",
    "congested/d1/h0.0/experimental/0": "e9129f870c2820de",
    "congested/d1/h0.0/exact/0": "d1fcd4b771af65f6",
    "congested/d1/h0.0/strict/0": "8ea87f7df1c58800",
    "congested/d1/h0.3/off/0": "034f54a64bc27b4f",
    "congested/d1/h0.3/experimental/0": "e9129f870c2820de",
    "congested/d1/h0.3/exact/0": "d1fcd4b771af65f6",
    "congested/d1/h0.3/strict/0": "8ea87f7df1c58800",
    "congested/d2/h0.0/off/0": "96e810e9cbdef745",
    "congested/d2/h0.0/experimental/0": "e9129f870c2820de",
    "congested/d2/h0.0/exact/0": "23e34cef2a29fd34",
    "congested/d2/h0.0/strict/0": "8ea87f7df1c58800",
    "congested/d2/h0.3/off/0": "747b5a60d3754ec0",
    "congested/d2/h0.3/experimental/0": "a8112022c0990832",
    "congested/d2/h0.3/exact/0": "23e34cef2a29fd34",
    "congested/d2/h0.3/strict/0": "0f88524b8e49bd05",
}


def test_main_chains_match_their_recorded_digests():
    branches: Counter[str] = Counter()
    digests = {}
    for key, digest, fired in golden_runs():
        digests[key] = digest
        branches.update(fired)
    assert digests == GOLDEN
    # every ladder branch builds its block at least once
    assert set(branches) == {"negligible-mempool", "limited-mempool", "sufficient-mempool", "lone-set"}


# A tenth of the chain-scale backlog trace, for 36 intervals: the pool
# backs up for dozens of blocks, and whales in the first set make exact
# avoidance reject most of its claims, each of which used to cost a pack.
# Digests and pack counts per depth, recorded before the search skipped
# claims by fee bounds.
BACKLOG_GOLDEN = {1: ("3c5259eac463b75f", 3609), 2: ("68306c0352f55dd1", 3667)}


def backlog_runs():
    """(depth, digest, ``fee_left`` packs, crafted blocks) of each exact-avoidance backlog run."""
    table = RankTable(backlog_trace(1, 36, 300.0, 200_000))
    dist, _ = preset("bitcoin16")
    params = ChainParams(block_size_limit=100_000, block_interval=600.0)
    miners = profiles(dist.with_honest_fraction(0.3).entries)
    fee_left = MempoolView.fee_left
    for depth in (1, 2):
        calls = Counter()

        def counted(view, claimed, budget):
            calls["packs"] += 1
            return fee_left(view, claimed, budget)

        sim = Simulation(table, miners, params, depth=depth, avoidance=parse_avoidance("exact"), seed=0)
        with mock.patch.object(MempoolView, "fee_left", counted):
            result = sim.run()
        yield depth, chain_digest(sim.main.blocks), calls["packs"], result.blocks


def test_deep_backlog_exact_chains_keep_their_blocks_with_fewer_packs():
    for depth, digest, packs, blocks in backlog_runs():
        recorded, recorded_packs = BACKLOG_GOLDEN[depth]
        assert digest == recorded
        assert recorded_packs >= 20 * blocks  # the regime packs for most claims it tries
        assert packs < 2 * blocks


if __name__ == "__main__":
    for key, digest, _ in golden_runs():
        print(f'    "{key}": "{digest}",')
    for depth, digest, packs, blocks in backlog_runs():
        print(f'    {depth}: ("{digest}", {packs}),  # {blocks} blocks')
