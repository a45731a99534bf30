"""Transaction traces and mining-power populations.

Traces are flat files of (id, timestamp, size, fee) rows, pre-extracted
from a chain by whatever collection script the user runs; reconstructed
pools are only as faithful as that extraction.  ``load_trace`` parses a
file straight into columns and returns them as a ``mempool.RankTable``,
the prepared trace every run reads, so the runs of a sweep over one
file share one table and build none.

A CSV trace has two readers.  A plain one, a seekable file whose first
line is exactly ``id,timestamp,size,fee`` and a newline, is parsed in one
``np.loadtxt`` pass, with no Python loop over its rows.  That pass
refuses a text it might read otherwise than the row loop does or that
is bad: a numpy error or warning, an id holding a quote or ``"\r"``, a
time that is not finite, a size that is not positive, a negative fee,
or a repeated id.  A refused text, a pipe and every json-lines trace are
read by the row loop (``_csv_rows`` or ``_json_rows``), which accepts
what ``csv.reader`` and Python's ``int`` and ``float`` read, and names
the first bad line.  Both readers give the same table for any text the
fast pass accepts.  ``write_trace`` writes what the plain pass reads
unless an id needs quoting.

Synthetic traces cover desk-scale testing.  Presets carry the standard
populations: a 16-pool Bitcoin distribution anchored at 0.6% and 17.6%,
a hypothetical strong attacker at 45%, and a Monero-style 35% attacker.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TextIO

import numpy as np

from .mempool import ChainParams, RankTable, Transaction

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
TRACE_FORMATS = ("csv", "json-lines")


def _reject(line_no: int, timestamp: float, size: int, fee: int) -> NoReturn:
    # the first check a parsed row fails, as the error naming its line
    if not math.isfinite(timestamp):
        raise TraceError(f"line {line_no}: timestamp must be finite, got {timestamp}")
    if size <= 0:
        raise TraceError(f"line {line_no}: size must be positive, got {size}")
    raise TraceError(f"line {line_no}: fee must be non-negative, got {fee}")


def load_trace(path: str | Path, fmt: str = "csv") -> RankTable:
    """Load and validate a transaction trace as the ``RankTable`` every run reads.

    CSV files need the header ``id,timestamp,size,fee``, which an empty
    trace holds too (a zero-byte file is rejected); json-lines
    files carry one object with those keys per line, with the id a JSON
    string or integer, the timestamp a JSON number and size and fee JSON
    integers.  Duplicate ids, non-finite timestamps, non-integer and
    non-positive sizes are rejected with the offending line number.  A
    file may start with a UTF-8 byte order mark, which is skipped.  A
    file that cannot seek (a pipe) is read once, front to back; the
    error names the first bad line.

    A plain CSV file is parsed in one numpy pass (see the module
    docstring); any other file, or a plain one that pass refuses, is read
    row by row.  Either way rows go straight into columns (ids as Python
    strings, times as floats, sizes and fees as integers) and no
    ``Transaction`` is built.  The table holds the trace's rows; iterating
    it builds their transactions in ``(arrival_time, id)`` order.
    """
    if fmt not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}")
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        if fmt == "csv" and fh.seekable():
            table = _plain_csv_table(fh)
            if table is not None:
                return table
            fh.seek(0)  # the decoder skips a byte order mark again
        return _row_table(_csv_rows(fh) if fmt == "csv" else _json_rows(fh))


_PLAIN_HEADER = ",".join(TRACE_COLUMNS) + "\n"
_PLAIN_ROW = [("id", object), ("timestamp", float), ("size", np.int64), ("fee", np.int64)]


def _plain_csv_table(fh: TextIO) -> RankTable | None:
    # The table of a plain CSV text, read in one np.loadtxt pass, or None
    # where that pass refuses it (see the module docstring); numpy errs on
    # a field it cannot parse as its column's type or a row of other than
    # 4 fields, and warns on a text with no rows.
    if fh.readline() != _PLAIN_HEADER:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, delimiter=",", dtype=_PLAIN_ROW, comments=None, ndmin=1)
    except (ValueError, Warning):  # UnicodeDecodeError too, which the row loop raises again
        return None
    ids, times, sizes, fees = rows["id"].tolist(), rows["timestamp"], rows["size"], rows["fee"]
    joined = "".join(ids)
    if '"' in joined or "\r" in joined:
        return None
    if not (np.isfinite(times).all() and (sizes > 0).all() and (fees >= 0).all()):
        return None
    try:
        return RankTable.from_columns(ids, times, sizes, fees)
    except ValueError:  # a repeated id, which the row loop names with its lines
        return None


def _row_table(rows: Iterator[Row]) -> RankTable:
    # the table of the rows a row loop yields, which names a repeated id
    ids: list[str] = []
    times = array("d")
    sizes: list[int] = []
    fees: list[int] = []
    seen: set[str] = set()
    # each row's line, read back only to name where a repeated id first
    # came; a set and an array hold less than a dict of id to line
    lines = array("q")
    for line_no, id_, timestamp, size, fee in rows:
        if id_ in seen:
            raise TraceError(
                f"line {line_no}: duplicate transaction id {id_!r} (first on line {lines[ids.index(id_)]})"
            )
        seen.add(id_)
        lines.append(line_no)
        ids.append(id_)
        times.append(timestamp)
        sizes.append(size)
        fees.append(fee)
    del seen, lines  # freed before the build's own temporaries
    return RankTable.from_columns(ids, np.array(times, dtype=float), sizes, fees)


Row = tuple[int, str, float, int, int]  # (line, id, timestamp, size, fee)


def _csv_rows(fh: TextIO) -> Iterator[Row]:
    # each valid row of a CSV trace with the line it starts on (the header
    # is line 1); a quoted field may span lines, so records are not lines
    isfinite = math.isfinite
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != TRACE_COLUMNS:  # None: a zero-byte file
        raise TraceError(f"line 1: expected header {','.join(TRACE_COLUMNS)}")
    end = reader.line_num  # the last line of the record read before
    for row in reader:
        line_no, end = end + 1, reader.line_num
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
        yield line_no, id_, timestamp, size, fee


def _json_rows(fh: TextIO) -> Iterator[Row]:
    # each valid row of a json-lines trace with its line number
    isfinite = math.isfinite
    for line_no, line in enumerate(fh, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            id_, timestamp, size, fee = [obj[c] for c in TRACE_COLUMNS]
        except (ValueError, KeyError, TypeError) as exc:  # ValueError: also an int past 4300 digits
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
        # str() alone would also make ids of null, true and [1]
        if type(id_) not in (str, int):
            raise TraceError(f"line {line_no}: id must be a JSON string or integer, got {json.dumps(id_)}")
        yield line_no, str(id_), timestamp, size, fee


def write_trace(records: Iterable[Transaction], path: str | Path, fmt: str = "csv") -> None:
    """Write a trace in the load_trace file contract.

    Both formats write a time as the same number: an integral time as
    its integer digits, any other as the repr of the nearest float.
    """
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="", encoding="utf-8") as fh:
            fh.write(_PLAIN_HEADER)
            rows = iter(records)
            # one joined string a chunk: one for the whole file would hold
            # the text of every row at once
            while text := "".join(map(_csv_line, islice(rows, _CHUNK_ROWS))):
                fh.write(text)
    elif fmt == "json-lines":
        with path.open("w", encoding="utf-8") as fh:
            for tx in records:
                time, size, fee = _time_number(tx.arrival_time), int(tx.size), int(tx.fee)
                fh.write(json.dumps({"id": tx.id, "timestamp": time, "size": size, "fee": fee}) + "\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


_CHUNK_ROWS = 4096


def _csv_line(tx: Transaction) -> str:
    # the row of a transaction as csv.writer writes it, each field as its
    # str; the id is quoted, its quotes doubled, when it holds a comma, a
    # quote or a line break, "\r" included, where the reader also ends a line
    id_ = tx.id
    if "," in id_ or '"' in id_ or "\n" in id_ or "\r" in id_:
        id_ = '"' + id_.replace('"', '""') + '"'
    return f"{id_},{_time_number(tx.arrival_time)!s},{tx.size!s},{tx.fee!s}\n"


def _plain(x: float) -> float:
    # the Python number equal to x: a numpy scalar's repr names its type,
    # which no loader reads, and json refuses one
    return x.item() if isinstance(x, np.generic) else x


def _time_number(t: float) -> int | float:
    # the Python int or float a time is written as, whatever real type it
    # has (a numpy scalar, a Fraction): the integer of an integral time,
    # else the nearest float, whose str is its repr
    return int(t) if float(t).is_integer() else float(t)


def load_powers(path: str | Path) -> PowerDistribution:
    """Read a power file: one ``miner_id,power,kind`` entry per line."""
    entries = []
    line_of: dict[str, int] = {}
    with Path(path).open(encoding="utf-8") as fh:
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
    """Write a power file that ``load_powers`` reads back as an equal distribution.

    An id that would read back as another or break its line is rejected
    before the file is opened: one that holds a comma or a line break,
    starts with ``#`` (a comment line) or has surrounding whitespace
    (which the reader strips).
    """
    for mid, _, _ in dist.entries:
        if "," in mid or "\n" in mid or "\r" in mid or mid.startswith("#") or mid != mid.strip():
            raise ValueError(f"miner id {mid!r} cannot be written to a power file")
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("# miner_id,power,kind\n")
        for mid, power, kind in dist.entries:
            fh.write(f"{mid},{_plain(power)!r},{kind}\n")


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
    sizes), with ``lo <= hi``, and uniform bounds and a fixed value
    integral (``2.0`` passes, ``2.2`` does not); they are checked before
    any draw.

    Deterministic per seed, and the draws are a contract: each arrival
    draws its exponential gap, then its fee, then its size, all from one
    ``numpy.random.default_rng(seed)``.  A uniform integer is the value
    ``Generator.integers(lo, hi + 1)`` would draw, read straight from the
    PCG64 words that call would read, so the fee and size draws share
    the half word ``integers`` keeps for its next 32-bit draw.  A numpy
    whose integer stream differs fails the draw-for-draw test in
    ``tests/test_trace.py`` before any trace changes unnoticed.
    """
    for name, value in (("rate", rate), ("duration", duration)):
        if not 0.0 <= value < math.inf:  # an infinite or NaN bound never ends the arrival loop
            raise ValueError(f"{name} must be non-negative and finite, got {value}")
    rng = np.random.default_rng(seed)
    next32 = _raw32(rng)
    draw_fee = _sampler(rng, next32, "fee", fee_dist, fee_args, minimum=0)
    draw_size = _sampler(rng, next32, "size", size_dist, size_args, minimum=1)
    if rate == 0 or duration == 0:
        return []
    exponential, mean_gap = rng.exponential, 1.0 / rate
    times: list[float] = []
    sizes: list[int] = []
    fees: list[int] = []
    t = 0.0
    while True:
        t += exponential(mean_gap)
        if t > duration:
            break
        fees.append(draw_fee())
        sizes.append(draw_size())
        times.append(t)
    ids = [f"{id_prefix}{index:07d}" for index in range(len(times))]
    return list(map(Transaction, ids, times, sizes, fees))


def synthesize_whale_trace(
    seed: int, duration: float, dust_rate: float, whale_rate: float = 0.25, interval: float = 600.0
) -> list[Transaction]:
    """Dust floor plus rare heavy-tailed whales, merged in arrival order.

    The regime in which wealthy heads appear and attack conditions fire.
    Rates are in transactions per block ``interval``.  Dust (ids ``d…``)
    has uniform fees 1..60 and sizes 1,500..2,500 and is drawn from
    ``seed``; whales (ids ``w…``) have Pareto(1.5, 2,000,000) fees, so
    one dwarfs a block full of dust, and sizes 2,000..4,000, drawn from
    ``seed + 1``.  Ties in time are broken by id.
    """
    dust = synthesize_trace(
        rate=dust_rate / interval,
        duration=duration,
        seed=seed,
        fee_dist="uniform",
        fee_args=(1, 60),
        size_dist="uniform",
        size_args=(1500, 2500),
        id_prefix="d",
    )
    whales = synthesize_trace(
        rate=whale_rate / interval,
        duration=duration,
        seed=seed + 1,
        fee_dist="pareto",
        fee_args=(1.5, 2_000_000),
        size_dist="uniform",
        size_args=(2000, 4000),
        id_prefix="w",
    )
    return sorted(dust + whales, key=lambda t: (t.arrival_time, t.id))


# The values each distribution takes, in order.
_DIST_ARGS = {"uniform": ("lo", "hi"), "pareto": ("shape", "scale"), "fixed": ("value",)}
_INT64_MAX = 2**63 - 1
_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1


def _raw32(rng: np.random.Generator) -> Callable[[], int]:
    # PCG64's next_uint32 over rng's raw words: the low half of a fresh
    # word, then the high half it kept.  Whole-word draws (exponential,
    # pareto, 64-bit integers) read past a kept half without using it.
    raw = rng.bit_generator.random_raw

    def halves() -> Iterator[int]:
        while True:
            word = raw()
            yield word & _MASK32
            yield word >> 32

    return halves().__next__


def _uniform(rng: np.random.Generator, next32: Callable[[], int], lo: int, hi: int) -> Callable[[], int]:
    # Generator.integers(lo, hi + 1), drawn as numpy draws it: nothing for
    # one value, else Lemire's multiply-and-reject on 32-bit halves when
    # the range fits them (at 2**32 values it takes a half as it is), on
    # whole words past that
    span = hi - lo
    if span == 0:
        return lambda: lo
    if span <= _MASK32:
        bits, draw_bits, mask = 32, next32, _MASK32
    else:
        bits, draw_bits, mask = 64, rng.bit_generator.random_raw, _MASK64
    count = span + 1
    threshold = (mask - span) % count  # 2**bits mod count: the low products that bias the draw

    def draw() -> int:
        product = draw_bits() * count
        while product & mask < threshold:
            product = draw_bits() * count
        return lo + (product >> bits)

    return draw


def _sampler(
    rng: np.random.Generator, next32: Callable[[], int], name: str, dist: str, args: Sequence[float], minimum: int
) -> Callable[[], int]:
    # One integer draw from ``dist`` per call, at least ``minimum``; the
    # distribution is read, its arguments checked and the draw bound once
    # per trace.  ``next32`` is the trace's shared 32-bit reader (see
    # _raw32).  ``name`` (fee or size) labels the errors.
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
        if int(hi) > _INT64_MAX:  # Generator.integers draws int64
            raise ValueError(f"{name} uniform hi must be at most {_INT64_MAX}, got {hi}")
        _check_integral(name, dist, names, args)
        return _uniform(rng, next32, int(lo), int(hi))
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
    _check_integral(name, dist, names, args)
    value = int(args[0])
    return lambda: value


def _check_integral(name: str, dist: str, names: Sequence[str], args: Sequence[float]) -> None:
    # A uniform bound or fixed value is an integer: int() would truncate
    # 2.2 to 2, and draw outside the stated range.  An integral float (the
    # CLI reads 1000 as 1000.0) passes.
    for arg, value in zip(names, args):
        if value != int(value):
            raise ValueError(f"{name} {dist} {arg} must be an integer, got {value}")


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

_OTHERS = _BITCOIN16_POWERS[:-1]

# name: (attacker power, the other fifteen pools' total, chain constants);
# the other pools keep the sixteen-pool shape, scaled to their total
_PRESETS = {
    "bitcoin16": (_BITCOIN16_POWERS[-1], sum(_OTHERS), BITCOIN_PARAMS),
    "bitcoin-hypothetical45": (0.45, 0.55, BITCOIN_PARAMS),
    "monero": (0.35, 0.65, MONERO_PARAMS),
}
PRESET_NAMES = tuple(_PRESETS)


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
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    attacker, others_total, params = _PRESETS[name]
    scale = others_total / sum(_OTHERS)  # exactly 1 for bitcoin16
    return _distribution([p * scale for p in _OTHERS] + [attacker]), params
