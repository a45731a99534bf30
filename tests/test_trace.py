import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from undercut.trace import (
    BITCOIN_PARAMS,
    MONERO_PARAMS,
    PowerDistribution,
    TraceError,
    load_powers,
    load_trace,
    preset,
    synthesize_trace,
    write_powers,
    write_trace,
)

from conftest import tx


def test_load_trace_roundtrip_csv(tmp_path):
    records = [tx("b", 3, 7, t=12.0), tx("a", 5, 0, t=3.5), tx("c", 1, 2, t=12.0)]
    path = tmp_path / "trace.csv"
    write_trace(sorted(records, key=lambda t: t.id), path)
    loaded = load_trace(path)
    assert loaded == sorted(records, key=lambda t: (t.arrival_time, t.id))
    write_trace(loaded, path)
    assert load_trace(path) == loaded


def test_load_trace_roundtrip_jsonl(tmp_path):
    records = [tx("x", 2, 9, t=1.25), tx("y", 4, 1, t=0.5)]
    path = tmp_path / "trace.jsonl"
    write_trace(records, path, fmt="json-lines")
    assert load_trace(path, fmt="json-lines") == sorted(
        records, key=lambda t: (t.arrival_time, t.id)
    )


def test_load_trace_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,timestamp,size,fee\n")
    assert load_trace(path) == []


def test_load_trace_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,timestamp,size,fee\na,1,10,5\nb,2,0,3\n")
    with pytest.raises(TraceError, match="line 3"):
        load_trace(path)
    path.write_text("id,timestamp,size,fee\na,1,10,notanumber\n")
    with pytest.raises(TraceError, match="line 2"):
        load_trace(path)
    path.write_text("id,timestamp,size,fee\na,1,10,5\na,2,10,5\n")
    with pytest.raises(TraceError, match="duplicate"):
        load_trace(path)
    path.write_text("wrong,header\n")
    with pytest.raises(TraceError, match="header"):
        load_trace(path)


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_load_trace_rejects_non_finite_timestamps_csv(tmp_path, stamp):
    # such a row used to load, and a run over it never returned
    path = tmp_path / "bad.csv"
    path.write_text(f"id,timestamp,size,fee\na,1,10,5\nb,{stamp},10,5\n")
    with pytest.raises(TraceError, match="line 3: timestamp must be finite"):
        load_trace(path)


@pytest.mark.parametrize("stamp", ["NaN", "Infinity", "-Infinity"])
def test_load_trace_rejects_non_finite_timestamps_jsonl(tmp_path, stamp):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        f'{{"id": "b", "timestamp": {stamp}, "size": 10, "fee": 5}}\n'
    )
    with pytest.raises(TraceError, match="line 2: timestamp must be finite"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize(
    "field, value",
    [("size", "250.9"), ("fee", "10.7"), ("size", "true"), ("fee", "false"), ("fee", '"5"'), ("size", "250.0")],
)
def test_load_trace_jsonl_requires_integer_size_and_fee(tmp_path, field, value):
    # int() used to load 250.9 as 250 and true as 1
    row = {"id": '"b"', "timestamp": "2", "size": "10", "fee": "5", field: value}
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        + "{" + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n"
    )
    with pytest.raises(TraceError, match=f"line 2: {field} must be a JSON integer, got {value}"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("value", ["true", '"7"', "null", "[1]"])
def test_load_trace_jsonl_requires_a_numeric_timestamp(tmp_path, value):
    # float() used to load true as 1.0 and "7" as 7.0
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n'
        f'{{"id": "b", "timestamp": {value}, "size": 10, "fee": 5}}\n'
    )
    with pytest.raises(TraceError, match=re.escape(f"line 2: timestamp must be a JSON number, got {value}")):
        load_trace(path, fmt="json-lines")


def test_load_trace_jsonl_timestamps_as_a_csv_row_reads_them(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"id": "a", "timestamp": 3, "size": 10, "fee": 5}\n')
    [record] = load_trace(path, fmt="json-lines")
    assert record.arrival_time == 3.0 and type(record.arrival_time) is float
    path.write_text('{"id": "a", "timestamp": 1, "size": 10, "fee": 5}\n' f'{{"id": "b", "timestamp": {10**400}, "size": 10, "fee": 5}}\n')
    with pytest.raises(TraceError, match="line 2: timestamp must be finite, got inf"):
        load_trace(path, fmt="json-lines")


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
def test_load_trace_names_both_lines_of_a_duplicate_id(tmp_path, fmt):
    rows = [("a", 1, 10, 5), None, ("b", 2, 10, 5), ("a", 3, 10, 5), ("b", 4, 10, 5)]
    if fmt == "csv":
        lines = ["id,timestamp,size,fee"] + ["" if r is None else ",".join(map(str, r)) for r in rows]
    else:
        lines = ["" if r is None else json.dumps(dict(zip(("id", "timestamp", "size", "fee"), r))) for r in rows]
    path = tmp_path / "dup.txt"
    path.write_text("\n".join(lines) + "\n")
    first, again = (2, 5) if fmt == "csv" else (1, 4)
    with pytest.raises(TraceError, match=rf"^line {again}: duplicate transaction id 'a' \(first on line {first}\)$"):
        load_trace(path, fmt=fmt)


def test_load_trace_jsonl_keeps_fees_past_int64(tmp_path):
    path = tmp_path / "big.jsonl"
    path.write_text(f'{{"id": "a", "timestamp": 1, "size": 10, "fee": {2**70}}}\n')
    assert load_trace(path, fmt="json-lines")[0].fee == 2**70


@pytest.mark.parametrize(
    "rate, duration, message",
    [
        (float("inf"), 100.0, "rate must be non-negative and finite, got inf"),
        (float("nan"), 100.0, "rate must be non-negative and finite, got nan"),
        (0.5, float("inf"), "duration must be non-negative and finite, got inf"),
        (0.5, float("nan"), "duration must be non-negative and finite, got nan"),
        (-0.5, 100.0, "rate must be non-negative and finite, got -0.5"),
    ],
)
def test_synthesize_trace_rejects_non_finite_bounds(rate, duration, message):
    # an infinite or NaN bound used to keep the arrival loop running forever
    with pytest.raises(ValueError, match=message):
        synthesize_trace(rate=rate, duration=duration, seed=1)


def test_synthesize_trace_properties():
    assert synthesize_trace(rate=0.0, duration=100.0, seed=1) == []
    a = synthesize_trace(rate=0.5, duration=5000.0, seed=9)
    b = synthesize_trace(rate=0.5, duration=5000.0, seed=9)
    assert a == b
    assert all(t1.arrival_time <= t2.arrival_time for t1, t2 in zip(a, a[1:]))
    assert all(t.size > 0 and t.fee >= 0 for t in a)
    fixed = synthesize_trace(rate=0.5, duration=500.0, seed=9, size_dist="fixed", size_args=(750,))
    assert fixed and {t.size for t in fixed} == {750}


def test_synthesize_trace_draws_gap_fee_size_per_arrival():
    # the draw order fixes every seeded trace, and so every recorded result
    rng = np.random.default_rng(17)
    expected, t = [], 0.0
    while True:
        t += rng.exponential(1 / 0.5)
        if t > 400.0:
            break
        fee = (rng.pareto(1.5) + 1.0) * 2_000
        size = rng.integers(200, 2_001)
        expected.append((t, int(size), int(fee)))
    records = synthesize_trace(rate=0.5, duration=400.0, seed=17, fee_dist="pareto", fee_args=(1.5, 2_000))
    assert [(r.arrival_time, r.size, r.fee) for r in records] == expected
    assert [r.id for r in records] == [f"s{i:07d}" for i in range(len(expected))]


def test_synthesize_trace_rejects_an_unknown_distribution_up_front():
    for kwargs in ({"fee_dist": "normal"}, {"size_dist": "normal"}):
        with pytest.raises(ValueError, match="unknown distribution 'normal'"):
            synthesize_trace(rate=0.0, duration=100.0, seed=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fee_dist": "pareto", "fee_args": (1.5, math.inf)}, "fee pareto scale must be finite, got inf"),
        ({"fee_dist": "pareto", "fee_args": (1.5, -5.0)}, "fee pareto scale must be positive, got -5.0"),
        ({"fee_dist": "pareto", "fee_args": (0.0, 5.0)}, "fee pareto shape must be positive, got 0.0"),
        ({"fee_dist": "pareto", "fee_args": (1.5,)}, r"fee pareto needs 2 argument\(s\) \(shape,scale\), got 1"),
        ({"fee_args": (-50.0, -10.0)}, "fee uniform needs 0 <= lo <= hi, got lo=-50.0, hi=-10.0"),
        ({"fee_args": (100.0, 1.0)}, "fee uniform needs 0 <= lo <= hi, got lo=100.0, hi=1.0"),
        ({"size_args": (math.nan, 5.0)}, "size uniform lo must be finite, got nan"),
        ({"size_args": (0.0, 5.0)}, "size uniform needs 1 <= lo <= hi, got lo=0.0, hi=5.0"),
        ({"size_dist": "fixed", "size_args": (5.0, 6.0)}, r"size fixed needs 1 argument\(s\) \(value\), got 2"),
        ({"size_dist": "fixed", "size_args": (0.0,)}, "size fixed value must be at least 1, got 0.0"),
        ({"fee_args": (0.0, 1e30)}, r"fee uniform hi must be at most 9223372036854775807, got 1e\+30"),
        ({"size_args": (1.0, 2.0**63)}, "size uniform hi must be at most 9223372036854775807, got 9.2233"),
    ],
)
def test_synthesize_trace_checks_distribution_arguments_up_front(kwargs, message):
    # each used to fail at the first draw, or to write a trace it was not asked for
    for rate in (0.0, 0.5):
        with pytest.raises(ValueError, match=message):
            synthesize_trace(rate=rate, duration=100.0, seed=1, **kwargs)


def test_synthesize_trace_draws_up_to_the_int64_bound_and_names_an_overflowing_draw():
    top = 2**63 - 1
    fees = synthesize_trace(rate=0.5, duration=100.0, seed=1, fee_args=(top - 1, top))
    assert fees and {t.fee for t in fees} <= {top - 1, top}
    # (draw + 1) * scale overflows a float once the draw passes about 0.8
    with pytest.raises(ValueError, match=r"fee pareto draw overflows: shape=1.5, scale=1e\+308"):
        synthesize_trace(rate=0.1, duration=6000.0, seed=1, fee_dist="pareto", fee_args=(1.5, 1e308))


def test_synthesized_interarrivals_are_exponential():
    records = synthesize_trace(rate=2.0, duration=6000.0, seed=3)
    times = np.array([t.arrival_time for t in records])
    gaps = np.diff(times)[:10_000]
    result = stats.kstest(gaps, "expon", args=(0, 1 / 2.0))
    assert result.pvalue >= 0.01


def test_pareto_fee_mean_matches_analytic():
    shape, scale = 2.5, 10_000
    records = synthesize_trace(
        rate=10.0, duration=10_000.0, seed=5, fee_dist="pareto", fee_args=(shape, scale)
    )
    assert len(records) > 90_000
    mean = np.mean([t.fee for t in records])
    analytic = shape * scale / (shape - 1)
    assert abs(mean - analytic) / analytic < 0.05


def test_presets():
    dist, params = preset("bitcoin16")
    powers = [p for _, p, _ in dist.entries]
    assert len(powers) == 16
    assert abs(sum(powers) - 1.0) < 1e-9
    assert min(powers) == pytest.approx(0.006)
    assert dist.undercutter_power == pytest.approx(0.176)
    assert params == BITCOIN_PARAMS

    dist45, _ = preset("bitcoin-hypothetical45")
    assert dist45.undercutter_power == pytest.approx(0.45)
    assert abs(sum(p for _, p, _ in dist45.entries) - 1.0) < 1e-9

    monero, mparams = preset("monero")
    assert monero.undercutter_power == pytest.approx(0.35)
    assert mparams == MONERO_PARAMS

    with pytest.raises(ValueError):
        preset("dogecoin")


def test_power_distribution_validation():
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.6, "undercutter"), ("b", 0.4, "honest")))
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.5, "rational"), ("b", 0.5, "honest")))
    with pytest.raises(ValueError):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", 0.7, "honest")))
    with pytest.raises(ValueError, match="powers must sum to 1, got nan"):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", float("nan"), "rational"), ("c", 0.6, "honest")))
    with pytest.raises(ValueError, match="duplicate miner id 'b'"):
        PowerDistribution((("a", 0.4, "undercutter"), ("b", 0.3, "rational"), ("b", 0.3, "honest")))


def test_with_honest_fraction_approximates_target():
    dist, _ = preset("bitcoin16")
    for target in (0.0, 0.1, 0.3, 0.5):
        assigned = dist.with_honest_fraction(target)
        honest = assigned.fraction("honest")
        assert honest <= target + 1e-9
        assert target - honest < 0.06  # granularity of the discrete pools
        assert assigned.undercutter_power == dist.undercutter_power
    with pytest.raises(ValueError):
        dist.with_honest_fraction(0.95)



@pytest.mark.parametrize(
    "fraction, message",
    [(-0.2, "honest fraction must be non-negative, got -0.2"), (0.95, "plus undercutter power exceeds 1")],
    ids=["negative", "too-large"],
)
def test_with_honest_fraction_names_the_bound_it_breaks(fraction, message):
    dist, _ = preset("bitcoin16")
    with pytest.raises(ValueError, match=message):
        dist.with_honest_fraction(fraction)

def test_powers_file_roundtrip(tmp_path):
    dist, _ = preset("monero")
    path = tmp_path / "powers.txt"
    write_powers(dist, path)
    assert load_powers(path) == dist


def test_powers_file_errors(tmp_path):
    path = tmp_path / "powers.txt"
    path.write_text("a,0.5\n")
    with pytest.raises(TraceError, match="line 1"):
        load_powers(path)
    path.write_text("a,half,rational\n")
    with pytest.raises(TraceError, match="line 1"):
        load_powers(path)
    for bad in ("nan", "inf"):
        path.write_text(f"u,0.4,undercutter\na,{bad},rational\nb,0.6,honest\n")
        with pytest.raises(TraceError, match=f"line 2: power must be finite, got '{bad}'"):
            load_powers(path)
    for text, message in (
        (
            "u,0.4,undercutter\na,0.8,rational\nb,-0.2,honest\n",
            "line 3: miner 'b': power must be non-negative, got '-0.2'",
        ),
        ("u,0.4,undercutter\n# pools\na,0.6,miner\n", "line 3: miner 'a': unknown kind 'miner'"),
        ("u,0.4,undercutter\na,0.3,honest\n\na,0.3,rational\n", r"line 4: duplicate miner id 'a' \(first on line 2\)"),
        ("u,0.4,undercutter\na,0.4,honest\n", "powers must sum to 1, got 0.8"),
        ("u,0.4,undercutter\nv,0.6,undercutter\n", "exactly one undercutter required"),
    ):
        path.write_text(text)
        with pytest.raises(TraceError, match=f"^{message}$"):
            load_powers(path)
