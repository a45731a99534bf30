import functools
import multiprocessing
import pickle
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undercut import experiment
from undercut.engine import AvoidancePolicy, parse_avoidance
from undercut.experiment import (
    RESULT_COLUMNS,
    ExperimentConfig,
    derive_seed,
    emit_results,
    read_results,
    run_experiment,
    _cell_result,
    _run_reps,
)
from undercut.mempool import RankTable, Transaction
from undercut.trace import load_trace, preset, write_trace

from conftest import assert_same_columns, whale_trace

HEADER = ",".join(RESULT_COLUMNS)


def run_cell(config, trace, index, depth, hf):
    """One whole cell, run and aggregated in this process."""
    runs = _run_reps(config, RankTable(trace), index, depth, hf, range(config.repetitions))
    return _cell_result(config, depth, hf, runs)


@pytest.fixture(scope="module")
def small_trace():
    return whale_trace(31, 600, 30_000, dust_rate=8.0, whale_rate=0.6)


@pytest.fixture(scope="module")
def config():
    dist, params = preset("bitcoin16")
    return ExperimentConfig(
        powers=dist,
        params=params,
        honest_fractions=(0.1, 0.3),
        depths=(1,),
        repetitions=4,
        base_seed=99,
    )


def test_derive_seed_is_pure_and_spread():
    assert derive_seed(7, 2, 3) == derive_seed(7, 2, 3)
    seeds = {derive_seed(7, c, r) for c in range(4) for r in range(10)}
    assert len(seeds) == 40


@pytest.mark.parametrize("depth", [True, 2.0, 3])
def test_config_rejects_a_depth_that_is_not_the_integer_1_or_2(depth):
    # True ran and wrote a row that read_results rejects
    dist, params = preset("bitcoin16")
    message = rf"^depths? must be (an integer|drawn from {{1, 2}}), got {re.escape(repr(depth))}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(powers=dist, params=params, depths=(1, depth))


def test_config_validation():
    dist, params = preset("bitcoin-hypothetical45")
    with pytest.raises(ValueError):
        ExperimentConfig(powers=dist, params=params, honest_fractions=(0.6,))
    with pytest.raises(ValueError):
        ExperimentConfig(powers=dist, params=params, repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(powers=dist, params=params, depths=(3,))


def test_cells_independent_of_sweep_order(config, small_trace):
    summary = run_experiment(config, small_trace)
    # recompute the second cell in isolation; indices, not execution
    # order, determine its seeds
    index, depth, hf = config.cells()[1]
    alone = run_cell(config, small_trace, index, depth, hf)
    assert alone == summary.cells[1]


def test_mean_shares_sum_to_one(config, small_trace):
    summary = run_experiment(config, small_trace)
    for cell in summary.cells:
        assert abs(sum(cell.miner_mean_shares.values()) - 1.0) < 1e-9
        assert 0.0 <= cell.mean_share <= 1.0
        assert cell.ci_half_width >= 0.0


def test_results_roundtrip(tmp_path, config, small_trace):
    summary = run_experiment(config, small_trace)
    path = tmp_path / "results.csv"
    emit_results(summary, path)
    rows = read_results(path)
    assert len(rows) == len(summary.cells)
    for row, cell in zip(rows, summary.cells):
        assert row["depth"] == cell.depth
        assert row["honest_fraction"] == cell.honest_fraction
        assert row["avoidance"] == cell.avoidance
        assert row["mean_share"] == cell.mean_share
        assert row["ci_low"] == cell.ci_low
        assert row["ci_high"] == cell.ci_high
        assert row["attacks"] == cell.attacks


def test_emitted_row_is_pinned(tmp_path):
    from undercut.experiment import CellResult, ExperimentSummary

    # an integer honest fraction is written as a float; every float as its repr
    cell = CellResult(
        depth=2,
        honest_fraction=0,
        avoidance="strict:0.8",
        mean_share=0.1,
        ci_half_width=0.2,
        attacks=7,
        branch_counts={},
        miner_mean_shares={},
        repetitions=3,
    )
    path = tmp_path / "one.csv"
    emit_results(ExperimentSummary(cells=(cell,)), path)
    assert path.read_text().splitlines()[1] == "2,0.0,strict:0.8,0.1,-0.1,0.30000000000000004,7"
    row = {"depth": 2, "honest_fraction": 0.0, "avoidance": "strict:0.8", "mean_share": 0.1}
    assert read_results(path) == [{**row, "ci_low": -0.1, "ci_high": 0.30000000000000004, "attacks": 7}]


@pytest.mark.parametrize(
    "text, message",
    [
        ("depth,honest_fraction,avoidance,mean_share,ci_low,ci_high\n", "line 1: missing column 'attacks'"),
        ("", "line 1: missing column 'depth'"),
        (f"{HEADER}\n2,0.0,off,0.1,0,0.2,7\nx,0.0,off,0.1,0,0.2,7\n", "line 3: column 'depth' must be int, got 'x'"),
        (f"{HEADER}\n1,0.0,off,high,0,0.2,7\n", "line 2: column 'mean_share' must be float, got 'high'"),
        (f"{HEADER}\n\n1,0.0,off,0.1,0,0.2,\n", "line 3: column 'attacks' must be int, got ''"),
        (f"{HEADER}\n1,0.0,off,0.1,0\n", "line 2: column 'ci_high' is missing"),
    ],
    ids=["no-column", "empty-file", "depth", "mean-share", "empty-cell", "short-row"],
)
def test_read_results_names_the_line_and_column_of_bad_input(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_results(path)


def test_emit_header_only_for_empty_summary(tmp_path):
    from undercut.experiment import ExperimentSummary

    path = tmp_path / "empty.csv"
    emit_results(ExperimentSummary(cells=()), path)
    assert path.read_text().strip() == "depth,honest_fraction,avoidance,mean_share,ci_low,ci_high,attacks"
    assert read_results(path) == []


def test_avoidance_paired_comparison_desk_scale():
    # strong attacker, short heavy-tailed trace: the paired direction is
    # stable at a dozen repetitions
    dist, params = preset("monero")
    records = whale_trace(31, 120, 36_000, dust_rate=8.0, whale_rate=0.6)
    base = dict(
        powers=dist, params=params, honest_fractions=(0.3,), depths=(1,), repetitions=12, base_seed=5
    )
    off = run_experiment(ExperimentConfig(**base), records).cells[0]
    on = run_experiment(
        ExperimentConfig(avoidance=AvoidancePolicy("experimental"), **base), records
    ).cells[0]
    assert off.attacks > 0
    assert on.attacks < off.attacks
    assert on.mean_share <= off.mean_share


def test_parallel_jobs_match_serial(config, small_trace):
    serial = run_experiment(config, small_trace, jobs=1)
    parallel = run_experiment(config, small_trace, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [0, 2.5, True], ids=["zero", "fraction", "bool"])
def test_run_experiment_rejects_a_job_count_that_is_not_a_positive_integer(config, small_trace, jobs):
    # 2.5 used to fail inside the task split, and True to run as one job
    with pytest.raises(ValueError, match=f"jobs must be a positive integer, got {jobs}"):
        run_experiment(config, small_trace, jobs=jobs)


def test_run_cell_is_equal_on_an_unpickled_trace(config, small_trace):
    # run_experiment pickles its table to spawned workers, as its columns
    assert pickle.loads(pickle.dumps(small_trace)) == small_trace
    table = RankTable(small_trace)
    unpickled = pickle.loads(pickle.dumps(table))
    assert_same_columns(unpickled, table)
    assert run_cell(config, unpickled, 1, 1, 0.3) == run_cell(config, small_trace, 1, 1, 0.3)


def test_sweep_workers_hold_transactions_without_dict(small_trace):
    # a spawned worker imports the class afresh, then unpickles the trace
    with ProcessPoolExecutor(max_workers=1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(hasattr, small_trace[0], "__dict__").result(timeout=60) is False


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("depths", (1, 1), "depth 1 is repeated"),
        ("honest_fractions", (0.2, 0.3, 0.2), "honest fraction 0.2 is repeated"),
        ("honest_fractions", (0.1, -0.2), "honest fraction -0.2 must be non-negative"),
        ("honest_fractions", (), "honest fractions must not be empty"),
        ("repetitions", 0, "repetitions must be a positive integer, got 0"),
        ("repetitions", 2.5, "repetitions must be a positive integer, got 2.5"),
        ("repetitions", True, "repetitions must be a positive integer, got True"),
        ("base_seed", True, "seed must be a non-negative integer, got True"),
    ],
    ids=[
        "repeated-depth",
        "repeated-honest",
        "negative-honest",
        "empty-honest",
        "zero-repetitions",
        "fractional-repetitions",
        "bool-repetitions",
        "bool-seed",
    ],
)
def test_config_rejects_cells_before_any_run(field, values, message):
    dist, params = preset("bitcoin16")
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(powers=dist, params=params, **{field: values})


@st.composite
def tiny_sweeps(draw):
    """One or two cells of 1, 2 or 5 repetitions over a short whale trace, and a job count."""
    dist, params = preset("bitcoin16")
    fractions = st.sampled_from((0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    honest = draw(st.lists(fractions, min_size=1, max_size=2, unique=True))
    if len(honest) == 1:
        depths = draw(st.sampled_from(((1,), (2,), (1, 2))))
    else:
        depths = (draw(st.sampled_from((1, 2))),)
    config = ExperimentConfig(
        powers=dist,
        params=params,
        honest_fractions=tuple(honest),
        depths=depths,
        avoidance=parse_avoidance(draw(st.sampled_from(("off", "experimental", "exact")))),
        repetitions=draw(st.sampled_from((1, 2, 5))),
        base_seed=draw(st.integers(0, 2**16)),
    )
    trace = whale_trace(draw(st.integers(0, 2**16)), 600, 6_000, dust_rate=8.0, whale_rate=0.6)
    return config, trace, draw(st.sampled_from((2, 3)))


@settings(max_examples=10, deadline=None)
@given(tiny_sweeps())
def test_sweep_results_do_not_depend_on_jobs(sweep):
    config, trace, jobs = sweep
    assert len(config.cells()) in (1, 2)
    assert run_experiment(config, trace, jobs=1) == run_experiment(config, trace, jobs=jobs)


def test_a_sweep_over_a_loaded_table_does_not_depend_on_jobs(tmp_path, config, small_trace):
    path = tmp_path / "trace.csv"
    write_trace(small_trace, path)
    table = load_trace(path)
    summary = run_experiment(config, table, jobs=1)
    assert summary.cells[0].attacks > 0
    assert run_experiment(config, table, jobs=2) == summary == run_experiment(config, small_trace, jobs=1)


def test_a_cell_is_its_repetition_chunks_in_order(config, small_trace):
    table = RankTable(small_trace)
    index, depth, hf = config.cells()[1]
    parts = ((0, 1), (1, 3), (3, 4))
    chunks = [_run_reps(config, table, index, depth, hf, range(lo, hi)) for lo, hi in parts]
    whole = _run_reps(config, table, index, depth, hf, range(config.repetitions))
    assert [r for chunk in chunks for r in chunk] == whole


class RecordingPool(ProcessPoolExecutor):
    """A process pool that records its size and the tasks it is sent."""

    seen: dict = {}

    def __init__(self, max_workers, **kwargs):
        RecordingPool.seen = {"max_workers": max_workers}
        super().__init__(max_workers, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        tasks = list(zip(*iterables))
        RecordingPool.seen["tasks"] = tasks
        return super().map(fn, *zip(*tasks), **kwargs)


def test_one_cell_sweep_keeps_both_workers_busy(monkeypatch, small_trace):
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    dist, params = preset("bitcoin16")
    config = ExperimentConfig(
        powers=dist, params=params, honest_fractions=(0.3,), repetitions=5, base_seed=3
    )
    summary = run_experiment(config, small_trace, jobs=2)
    assert summary == run_experiment(config, small_trace, jobs=1)
    assert summary.cells[0].repetitions == 5
    seen = RecordingPool.seen
    assert seen["max_workers"] == 2
    assert [task[-2:] for task in seen["tasks"]] == [(0, 2), (2, 5)]
    # a task carries indices only; the trace goes to each worker once
    assert all(isinstance(arg, (int, float)) for task in seen["tasks"] for arg in task)


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_the_parent_pickles_the_trace_at_most_once_per_worker(monkeypatch, config, small_trace, method):
    config = replace(config, honest_fractions=(0.0, 0.1, 0.3), repetitions=2)  # more tasks than workers
    context = multiprocessing.get_context(method)
    pool = functools.partial(ProcessPoolExecutor, mp_context=context)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", pool)
    pickled = {"tables": 0, "transactions": 0}
    getstate, reduce = RankTable.__getstate__, Transaction.__reduce__

    def counting(kind, method):
        def count(obj):
            pickled[kind] += 1
            return method(obj)

        return count

    monkeypatch.setattr(RankTable, "__getstate__", counting("tables", getstate))
    monkeypatch.setattr(Transaction, "__reduce__", counting("transactions", reduce))
    summary = run_experiment(config, small_trace, jobs=2)
    monkeypatch.undo()
    assert summary == run_experiment(config, small_trace, jobs=1)
    # the parent builds the list trace's table once and sends the table, not the list
    assert pickled["transactions"] == 0
    if method == "fork":
        assert pickled["tables"] == 0  # the workers inherit the table
    else:
        assert 0 < pickled["tables"] <= 2


def test_config_rejects_a_negative_base_seed():
    dist, params = preset("bitcoin16")
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        ExperimentConfig(powers=dist, params=params, base_seed=-1)
