"""Transaction traces and mining-power populations.

Traces are flat files of (id, timestamp, size, fee) rows, pre-extracted
from a chain by whatever collection script the user runs; reconstructed
pools are only as faithful as that extraction.  Synthetic traces cover
desk-scale testing.  Presets carry the standard populations: a 16-pool
Bitcoin distribution anchored at 0.6% and 17.6%, a hypothetical strong
attacker at 45%, and a Monero-style 35% attacker.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NoReturn, Sequence

import numpy as np

from .mempool import ChainParams, Transaction

MINER_KINDS = ("honest", "rational", "undercutter")


class TraceError(ValueError):
    """Malformed trace or power file; message carries the line number."""


@dataclass(frozen=True)
class PowerDistribution:
    """Mining-power population: (miner id, power, kind) entries."""

    entries: tuple[tuple[str, float, str], ...]

    def __post_init__(self) -> None:
        total = sum(p for _, p, _ in self.entries)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"powers must sum to 1, got {total}")
        for mid, count in Counter(mid for mid, _, _ in self.entries).items():
            if count > 1:
                raise ValueError(f"duplicate miner id {mid!r}")
        for mid, power, kind in self.entries:
            if kind not in MINER_KINDS:
                raise ValueError(f"miner {mid!r}: unknown kind {kind!r}")
            if not power >= 0.0:
                raise ValueError(f"miner {mid!r}: power must be non-negative, got {power}")
        undercutters = [(mid, p) for mid, p, k in self.entries if k == "undercutter"]
        if len(undercutters) != 1:
            raise ValueError("exactly one undercutter required")
        if undercutters[0][1] >= 0.5:
            raise ValueError("undercutter power must be below 0.5")

    @property
    def undercutter_power(self) -> float:
        return next(p for _, p, k in self.entries if k == "undercutter")

    def fraction(self, kind: str) -> float:
        return sum(p for _, p, k in self.entries if k == kind)

    def with_honest_fraction(self, fraction: float) -> "PowerDistribution":
        """Reassign non-undercutter miners so honest power approximates
        ``fraction`` of the total.

        Greedy pick in descending power order; the undercutter keeps its
        role.  With discrete pools the target is met only approximately.
        """
        if not fraction >= 0.0:
            raise ValueError(f"honest fraction must be non-negative, got {fraction}")
        if fraction > 1.0 - self.undercutter_power + 1e-9:
            raise ValueError("honest fraction plus undercutter power exceeds 1")
        others = sorted(
            ((mid, p) for mid, p, k in self.entries if k != "undercutter"),
            key=lambda e: (-e[1], e[0]),
        )
        honest_ids = set()
        assigned = 0.0
        for mid, power in others:
            if assigned + power <= fraction + 1e-9:
                honest_ids.add(mid)
                assigned += power
        entries = tuple(
            (mid, p, "undercutter" if k == "undercutter" else ("honest" if mid in honest_ids else "rational"))
            for mid, p, k in self.entries
        )
        return PowerDistribution(entries)

    def all_honest(self) -> tuple[tuple[str, float, str], ...]:
        """The same powers with every miner behaving honestly (baselines)."""
        return tuple((mid, p, "honest") for mid, p, _ in self.entries)


# ---------------------------------------------------------------------------
# file io
# ---------------------------------------------------------------------------

TRACE_COLUMNS = ("id", "timestamp", "size", "fee")


def _reject(line_no: int, timestamp: float, size: int, fee: int) -> NoReturn:
    # the first check a parsed row fails, as the error naming its line
    if not math.isfinite(timestamp):
        raise TraceError(f"line {line_no}: timestamp must be finite, got {timestamp}")
    if size <= 0:
        raise TraceError(f"line {line_no}: size must be positive, got {size}")
    raise TraceError(f"line {line_no}: fee must be non-negative, got {fee}")


def load_trace(path: str | Path, fmt: str = "csv") -> list[Transaction]:
    """Load, validate and time-sort a transaction trace.

    CSV files need the header ``id,timestamp,size,fee``; json-lines
    files carry one object with those keys per line, with the timestamp
    a JSON number and size and fee JSON integers.  Duplicate ids,
    non-finite timestamps, non-integer and non-positive sizes are
    rejected with the offending line number.
    """
    path = Path(path)
    records: list[Transaction] = []
    append = records.append
    isfinite = math.isfinite
    if fmt == "csv":
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and tuple(h.strip() for h in header) != TRACE_COLUMNS:
                raise TraceError(f"line 1: expected header {','.join(TRACE_COLUMNS)}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 4:
                    raise TraceError(f"line {line_no}: expected 4 columns, got {len(row)}")
                id_, timestamp, size, fee = row
                try:
                    timestamp, size, fee = float(timestamp), int(size), int(fee)
                except ValueError as exc:
                    raise TraceError(f"line {line_no}: malformed row: {exc}") from None
                if not (isfinite(timestamp) and size > 0 and fee >= 0):
                    _reject(line_no, timestamp, size, fee)
                append(Transaction(id_, timestamp, size, fee))
    elif fmt == "json-lines":
        with path.open() as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    id_, timestamp, size, fee = [obj[c] for c in TRACE_COLUMNS]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise TraceError(f"line {line_no}: malformed row: {exc}") from None
                # float() would read true and "7" as numbers, int() would truncate 250.9
                if type(timestamp) not in (int, float):
                    got = json.dumps(timestamp)
                    raise TraceError(f"line {line_no}: timestamp must be a JSON number, got {got}")
                for column, value in (("size", size), ("fee", fee)):
                    if type(value) is not int:
                        got = json.dumps(value)
                        raise TraceError(f"line {line_no}: {column} must be a JSON integer, got {got}")
                try:
                    timestamp = float(timestamp)
                except OverflowError:  # an integer past the float range, as a CSV row reads it
                    timestamp = math.inf
                if not (isfinite(timestamp) and size > 0 and fee >= 0):
                    _reject(line_no, timestamp, size, fee)
                append(Transaction(str(id_), timestamp, size, fee))
    else:
        raise ValueError(f"unknown trace format {fmt!r}")

    ids = [tx.id for tx in records]
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for repeated in ids:
            if repeated in seen:
                break
            seen.add(repeated)
        first, again = _lines_of(path, fmt, repeated)[:2]
        raise TraceError(f"line {again}: duplicate transaction id {repeated!r} (first on line {first})")
    records.sort(key=attrgetter("arrival_time", "id"))
    return records


def _lines_of(path: Path, fmt: str, tx_id: str) -> list[int]:
    # Line numbers of the rows of a parsed trace file that carry ``tx_id``,
    # counted as load_trace counts them; read again only to name a duplicate.
    with path.open(newline="") as fh:
        if fmt == "csv":
            rows = enumerate(csv.reader(fh), start=1)
            return [n for n, row in rows if n > 1 and row and row[0] == tx_id]
        rows = enumerate(fh, start=1)
        return [n for n, line in rows if line.strip() and str(json.loads(line)["id"]) == tx_id]


def write_trace(records: Iterable[Transaction], path: str | Path, fmt: str = "csv") -> None:
    """Write a trace in the load_trace file contract."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRACE_COLUMNS)
            writer.writerows([tx.id, _format_time(tx.arrival_time), tx.size, tx.fee] for tx in records)
    elif fmt == "json-lines":
        with path.open("w") as fh:
            for tx in records:
                fh.write(
                    json.dumps(
                        {"id": tx.id, "timestamp": tx.arrival_time, "size": tx.size, "fee": tx.fee}
                    )
                    + "\n"
                )
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def _format_time(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else repr(t)


def load_powers(path: str | Path) -> PowerDistribution:
    """Read a power file: one ``miner_id,power,kind`` entry per line."""
    entries = []
    line_of: dict[str, int] = {}
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3:
                raise TraceError(f"line {line_no}: expected miner_id,power,kind")
            mid, power, kind = parts
            try:
                power = float(power)
            except ValueError:
                raise TraceError(f"line {line_no}: bad power value {parts[1]!r}") from None
            if not math.isfinite(power):
                raise TraceError(f"line {line_no}: power must be finite, got {parts[1]!r}")
            if power < 0.0:
                raise TraceError(f"line {line_no}: miner {mid!r}: power must be non-negative, got {parts[1]!r}")
            if kind not in MINER_KINDS:
                raise TraceError(f"line {line_no}: miner {mid!r}: unknown kind {kind!r}")
            if mid in line_of:
                raise TraceError(f"line {line_no}: duplicate miner id {mid!r} (first on line {line_of[mid]})")
            line_of[mid] = line_no
            entries.append((mid, power, kind))
    try:
        return PowerDistribution(tuple(entries))
    except ValueError as exc:
        raise TraceError(str(exc)) from None


def write_powers(dist: PowerDistribution, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        fh.write("# miner_id,power,kind\n")
        for mid, power, kind in dist.entries:
            fh.write(f"{mid},{power!r},{kind}\n")


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def synthesize_trace(
    rate: float,
    duration: float,
    seed: int,
    fee_dist: str = "uniform",
    fee_args: Sequence[float] = (1_000, 100_000),
    size_dist: str = "uniform",
    size_args: Sequence[float] = (200, 2_000),
    id_prefix: str = "s",
) -> list[Transaction]:
    """Poisson arrivals with i.i.d. integer fees and sizes.

    ``fee_dist`` is ``uniform(lo, hi)`` or ``pareto(shape, scale)`` (the
    heavy tail that makes wealthy heads and attack opportunities);
    ``size_dist`` is ``uniform(lo, hi)`` or ``fixed(value)``.  Arguments
    must be finite, a pareto shape and scale positive, and a uniform
    ``lo`` or fixed value at least the draw's minimum (0 for fees, 1 for
    sizes), with ``lo <= hi``; they are checked before any draw.
    Deterministic per seed.
    """
    for name, value in (("rate", rate), ("duration", duration)):
        if not 0.0 <= value < math.inf:  # an infinite or NaN bound never ends the arrival loop
            raise ValueError(f"{name} must be non-negative and finite, got {value}")
    rng = np.random.default_rng(seed)
    draw_fee = _sampler(rng, "fee", fee_dist, fee_args, minimum=0)
    draw_size = _sampler(rng, "size", size_dist, size_args, minimum=1)
    records: list[Transaction] = []
    if rate == 0 or duration == 0:
        return records
    # one arrival draws its gap, then its fee, then its size: the order
    # that fixes every seeded trace
    exponential, mean_gap = rng.exponential, 1.0 / rate
    t = 0.0
    index = 0
    while True:
        t += exponential(mean_gap)
        if t > duration:
            break
        fee = draw_fee()
        size = draw_size()
        records.append(Transaction(f"{id_prefix}{index:07d}", t, size, fee))
        index += 1
    return records


# The values each distribution takes, in order.
_DIST_ARGS = {"uniform": ("lo", "hi"), "pareto": ("shape", "scale"), "fixed": ("value",)}
_INT64_MAX = 2**63 - 1


def _sampler(
    rng: np.random.Generator, name: str, dist: str, args: Sequence[float], minimum: int
) -> Callable[[], int]:
    # One integer draw from ``dist`` per call, floored at ``minimum``; the
    # distribution is read, its arguments checked and the generator method
    # bound once per trace.  ``name`` (fee or size) labels the errors.
    names = _DIST_ARGS.get(dist)
    if names is None:
        raise ValueError(f"unknown distribution {dist!r}")
    if len(args) != len(names):
        raise ValueError(f"{name} {dist} needs {len(names)} argument(s) ({','.join(names)}), got {len(args)}")
    for arg, value in zip(names, args):
        if not math.isfinite(value):
            raise ValueError(f"{name} {dist} {arg} must be finite, got {value}")
    if dist == "uniform":
        lo, hi = args
        if not minimum <= lo <= hi:
            raise ValueError(f"{name} uniform needs {minimum} <= lo <= hi, got lo={lo}, hi={hi}")
        if int(hi) > _INT64_MAX:  # the generator draws int64
            raise ValueError(f"{name} uniform hi must be at most {_INT64_MAX}, got {hi}")
        lo, hi = int(lo), int(hi) + 1
        integers = rng.integers
        return lambda: max(minimum, int(integers(lo, hi)))
    if dist == "pareto":
        for arg, value in zip(names, args):
            if value <= 0:
                raise ValueError(f"{name} pareto {arg} must be positive, got {value}")
        shape, scale = args
        pareto = rng.pareto

        def draw_pareto() -> int:
            value = (pareto(shape) + 1.0) * scale
            if value == math.inf:
                raise ValueError(f"{name} pareto draw overflows: shape={shape}, scale={scale}")
            return max(minimum, int(value))

        return draw_pareto
    if args[0] < minimum:
        raise ValueError(f"{name} fixed value must be at least {minimum}, got {args[0]}")
    value = int(args[0])
    return lambda: value


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# Sixteen-pool distribution anchored at the published 0.6% and 17.6%
# extremes; intermediate pools interpolated so the powers sum to one.
# Swap in a measured vector via a power file when available.
_BITCOIN16_POWERS = (
    0.0060, 0.0065, 0.0084, 0.0116, 0.0163, 0.0225, 0.0303, 0.0398,
    0.0509, 0.0635, 0.0779, 0.0940, 0.1119, 0.1315, 0.1529, 0.1760,
)

BITCOIN_PARAMS = ChainParams(block_size_limit=1_000_000, block_interval=600.0)
MONERO_PARAMS = ChainParams(block_size_limit=300_000, block_interval=120.0)

PRESET_NAMES = ("bitcoin16", "bitcoin-hypothetical45", "monero")


def _distribution(powers: Sequence[float]) -> PowerDistribution:
    strongest = max(range(len(powers)), key=lambda i: powers[i])
    entries = tuple(
        (f"m{i:02d}", float(p), "undercutter" if i == strongest else "rational")
        for i, p in enumerate(powers)
    )
    return PowerDistribution(entries)


def preset(name: str) -> tuple[PowerDistribution, ChainParams]:
    """Named population plus chain constants.

    The largest miner is the undercutter; everyone else starts rational.
    Use ``with_honest_fraction`` to carve out the honest share, which is
    a separate run parameter.
    """
    if name == "bitcoin16":
        return _distribution(_BITCOIN16_POWERS), BITCOIN_PARAMS
    if name == "bitcoin-hypothetical45":
        others = [p for p in _BITCOIN16_POWERS[:-1]]
        scale = 0.55 / sum(others)
        return _distribution([p * scale for p in others] + [0.45]), BITCOIN_PARAMS
    if name == "monero":
        others = [p for p in _BITCOIN16_POWERS[:-1]]
        scale = 0.65 / sum(others)
        return _distribution([p * scale for p in others] + [0.35]), MONERO_PARAMS
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
