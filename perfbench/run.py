"""Benchmark of the undercut simulator: one workload, one seed, one stretch.

    python3 perfbench/run.py --workload attack --seed 707 --seconds 30 --trace 0

A fresh worker process (``worker.py``) does the set-up (generate the
seeded trace, write it, load it, build the population), then alternates
set-ups and passes over the workload's runs until ``--seconds`` is used
up.  Every run is checked against its recorded fingerprint at the
default seed, against invariants at any seed, and against its own output
in earlier passes; a worker whose next run does not finish within
``RUN_LIMIT_S`` is killed from here and the run counts as failed.
Times are reported in reference seconds (see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics.  The last
line of standard output is one JSON object; the exit code is 0 only when
every run was correct.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibration, tracing  # noqa: E402  (neither imports undercut)

WORK = ROOT / ".perfbench"  # trace files the worker writes during set-up
WORKER = Path(__file__).with_name("worker.py")

RUN_LIMIT_S = 60.0  # wall-clock limit per run, enforced from this process
MIN_PASSES = 3

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
BENCH_UNITS = {"experiment.parallel_eff": "ratio", "bench.trace_overhead": "ratio"}


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def stream_worker(cmd: list[str], limit_s: float) -> tuple[list[dict], str | None]:
    """Run ``cmd`` and collect its JSON lines up to the ``peak_rss_mb`` one.

    Each line must arrive within ``limit_s`` of the previous one; on
    overrun the whole process group is killed.  Returns the messages and,
    if the worker overran or ended early, why.
    """
    messages: list[dict] = []
    failure = None
    lines: queue.Queue = queue.Queue()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, cwd=ROOT)
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    try:
        while not messages or "peak_rss_mb" not in messages[-1]:
            try:
                line = lines.get(timeout=limit_s)
            except queue.Empty:
                failure = f"no result within {limit_s:g} s, killed"
                break
            if line is None:
                failure = "worker exited without a result"
                break
            try:
                messages.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        reader.join()
        proc.stdout.close()
    return messages, failure


def fingerprint_mismatch(expected: dict | None, actual: dict) -> str | None:
    """Describe how ``actual`` differs from ``expected``, or None."""
    if expected is None:
        return "no recorded fingerprint"
    diffs = [k for k in sorted(set(expected) | set(actual)) if expected.get(k) != actual.get(k)]
    if not diffs:
        return None
    return "fingerprint differs in " + ", ".join(
        f"{k} (expected {expected.get(k)!r}, got {actual.get(k)!r})" for k in diffs
    )


@dataclass
class Outcome:
    """What one worker reported: complete passes per mode, and memory."""

    passes: dict[str, list[dict]] = field(default_factory=dict)  # mode -> complete passes, run -> seconds
    setup_s: list[float] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)  # one before each set-up and run
    layer_metrics: list[dict] = field(default_factory=list)  # one per traced pass
    peak_rss_mb: float = 0.0


class Session:
    """Passes of one workload at one seed, with every correctness check."""

    def __init__(self, workload, seed: int, trace_file: Path, expected: dict | None):
        self.workload = workload
        self.seed = seed
        self.trace_file = trace_file
        self.expected = expected  # recorded fingerprints per run, or None off the default seed
        self.attempted = 0
        self.failures: list[str] = []
        self.first_output: dict[str, dict] = {}

    def check(self, message: dict) -> str | None:
        """Why one run's message shows a wrong result, or None."""
        name = message["run"]
        if "error" in message:
            return f"{name}: raised\n{message['error']}"
        if message["violations"]:
            return f"{name}: " + "; ".join(message["violations"])
        fingerprint = message["fingerprint"]
        if self.expected is not None:
            mismatch = fingerprint_mismatch(self.expected.get(name), fingerprint)
            if mismatch:
                return f"{name}: {mismatch}"
        earlier = self.first_output.setdefault(name, fingerprint)
        if earlier != fingerprint:
            return f"{name}: output differs from an earlier pass of the same input"
        return None

    def run_worker(self, modes: list[str], seconds: float, min_cycles: int) -> Outcome:
        """One worker process cycling through ``modes``; checks every run."""
        cmd = [
            sys.executable,
            str(WORKER),
            "--workload", self.workload.name,
            "--seed", str(self.seed),
            "--trace-file", str(self.trace_file),
            "--modes", ",".join(modes),
            "--seconds", repr(seconds),
            "--min-cycles", str(min_cycles),
        ]  # fmt: skip
        messages, failure = stream_worker(cmd, RUN_LIMIT_S)
        names = [run.name for run in self.workload.runs]
        outcome = Outcome()
        passes: dict[str, list[dict]] = {mode: [] for mode in modes}
        for message in messages:
            if "peak_rss_mb" in message:
                outcome.peak_rss_mb = message["peak_rss_mb"]
            elif message["mode"] == "setup":
                outcome.setup_s.append(message["seconds"])
                outcome.calibration_s.append(message["calibration_s"])
            elif "metrics" in message:
                outcome.layer_metrics.append(message["metrics"])
            else:
                if message["run"] == names[0]:
                    passes[message["mode"]].append({})
                self.attempted += 1
                problem = self.check(message)
                if problem is None:
                    passes[message["mode"]][-1][message["run"]] = message["seconds"]
                    outcome.calibration_s.append(message["calibration_s"])
                else:
                    self.failures.append(problem)
        if failure is not None:
            self.attempted += 1
            self.failures.append(f"{self.workload.name}: {failure}")
        outcome.passes = {mode: [p for p in done if len(p) == len(names)] for mode, done in passes.items()}
        return outcome


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def totals(passes: list[dict]) -> list[float]:
    return [sum(p.values()) for p in passes]


def describe(name: str, value: float, host_s: list[float], factor: float) -> str:
    """One timing line: reference seconds, and the host seconds behind them."""
    line = f"{name:<12} {value:>10.5g} s    = median of {len(host_s)} in host s x {factor:.3f}"
    if len(host_s) >= 2:
        q1, q2, q3 = statistics.quantiles(host_s, n=4)
        line += f" (host s: median {q2:.4g}, quartiles {q1:.4g}..{q3:.4g})"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=707, help="workload seed (default 707)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    # so that a terminated benchmark still kills its worker (stream_worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "undercut" / "__init__.py").is_file():
        print(f"error: no undercut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"{workload.name}-{args.seed}.csv"

    expected = workloads.expected_fingerprints(args.seed)
    session = Session(workload, args.seed, trace_file, None if expected is None else expected.get(workload.name, {}))

    lines: list[str] = []
    if args.trace == 0:
        if workload.parallel:
            session.run_worker(["reference"], 0.0, 1)  # its output must equal every pass's
        outcome = session.run_worker(["setup", "pass"], args.seconds, MIN_PASSES)
        run_s = totals(outcome.passes["pass"])
        factor = calibration.scale(outcome.calibration_s)
        units = END_TO_END_UNITS
        metrics = {
            "run_s": median(run_s) * factor,
            "setup_s": median(outcome.setup_s) * factor,
            "peak_rss_mb": outcome.peak_rss_mb,
        }
        lines += [
            describe("run_s", metrics["run_s"], run_s, factor),
            describe("setup_s", metrics["setup_s"], outcome.setup_s, factor),
            f"{'peak_rss_mb':<12} {outcome.peak_rss_mb:>10.5g} MiB",
        ]
    else:
        # The untraced baseline for the overhead runs on one process, as
        # the traced pass does; a parallel workload also times its pool.
        baseline = "reference" if workload.parallel else "pass"
        modes = ["traced", baseline] + (["pass"] if workload.parallel else [])
        outcome = session.run_worker(modes, args.seconds, 1)
        units = {**tracing.metric_units(), **BENCH_UNITS}
        factor = calibration.scale(outcome.calibration_s)
        metrics = {}
        for name in tracing.metric_units():
            value = median([m[name] for m in outcome.layer_metrics])
            metrics[name] = value * factor if name.endswith(".self_s") else value
        traced_s = median(totals(outcome.passes["traced"]))
        baseline_s = median(totals(outcome.passes[baseline]))
        metrics["bench.trace_overhead"] = traced_s / baseline_s - 1.0 if baseline_s else 0.0
        metrics["experiment.parallel_eff"] = 0.0  # no process pool on this workload
        if workload.parallel:
            jobs = max(run.jobs for run in workload.runs)
            pool_s = median(totals(outcome.passes["pass"]))
            metrics["experiment.parallel_eff"] = baseline_s / (jobs * pool_s) if pool_s else 0.0
        lines += [f"{name:<52} {value:>14.6g} {units[name]}" for name, value in metrics.items()]

    failed = len(session.failures)
    lines.append(f"error_rate {failed / max(session.attempted, 1):.4g} ({failed} failed of {session.attempted} runs)")
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print("\n".join(lines))
    for failure in session.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": session.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
