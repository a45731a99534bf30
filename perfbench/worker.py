"""Passes over a workload in one fresh process; ``run.py`` starts it.

The worker first does the set-up: it generates the seeded trace, writes
it to ``--trace-file``, loads it back and builds the population.  Then it
cycles through ``--modes``, one step per mode, until ``--seconds`` is
used up (at least ``--min-cycles`` cycles).  Every timed step follows a
calibration loop (see ``calibration.py``) and prints one JSON line with
both times: one line per set-up and one per run, the latter with the
run's output fingerprint and broken invariants.  After each traced pass
it prints the per-layer metrics, and last the process's peak resident
memory.  ``run.py`` reads the lines with a time limit and kills the
process group when a run overruns.

Modes:
  setup      the set-up again, timed (more samples of it)
  pass       the workload's runs
  reference  the same runs on one process (``jobs=1``), untraced
  traced     set-up and the one-process runs with every layer wrapped;
             the set-up writes ``<trace file>.traced.csv``

    python3 perfbench/worker.py --workload attack --seed 707 \\
        --trace-file .perfbench/attack-707.csv --modes setup,pass --seconds 5
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibration, tracing, workloads  # noqa: E402

MODES = ("setup", "pass", "reference", "traced")


def emit(message: dict) -> None:
    print(json.dumps(message), flush=True)


def do_runs(mode: str, runs, records) -> None:
    for run in runs:
        calibration_s = calibration.calibrate()
        try:
            seconds, fingerprint, violations = run.execute(records)
        except Exception:  # reported as a failed run; the pass goes on
            emit({"mode": mode, "run": run.name, "error": traceback.format_exc(limit=4)})
            continue
        emit(
            {
                "mode": mode,
                "run": run.name,
                "seconds": seconds,
                "calibration_s": calibration_s,
                "fingerprint": fingerprint,
                "violations": violations,
            }
        )


def timed_setup(workload, seed: int, path: Path) -> list:
    """One calibrated, timed set-up; returns the loaded trace."""
    calibration_s = calibration.calibrate()
    start = time.perf_counter()
    records = workloads.setup(workload, seed, path)
    emit({"mode": "setup", "seconds": time.perf_counter() - start, "calibration_s": calibration_s})
    return records


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", type=Path, required=True)
    parser.add_argument("--modes", default="pass", help="comma-separated modes, cycled")
    parser.add_argument("--seconds", type=float, default=0.0, help="time for the cycles")
    parser.add_argument("--min-cycles", type=int, default=1)
    args = parser.parse_args(argv)
    modes = args.modes.split(",")
    if not set(modes) <= set(MODES):
        parser.error(f"modes must be drawn from {MODES}")

    workload = workloads.WORKLOADS[args.workload]
    in_process = [run.in_process() for run in workload.runs]
    records = timed_setup(workload, args.seed, args.trace_file)
    start = time.perf_counter()
    cycles = 0
    cycle_s = 0.0
    while cycles < args.min_cycles or time.perf_counter() - start + cycle_s <= args.seconds:
        began = time.perf_counter()
        for mode in modes:
            if mode == "setup":
                timed_setup(workload, args.seed, args.trace_file)
            elif mode == "traced":
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    traced_records = workloads.setup(workload, args.seed, args.trace_file.with_suffix(".traced.csv"))
                    do_runs(mode, in_process, traced_records)
                emit({"mode": mode, "metrics": tracer.metrics()})
            else:
                do_runs(mode, workload.runs if mode == "pass" else in_process, records)
        cycle_s = time.perf_counter() - began
        cycles += 1
    emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
