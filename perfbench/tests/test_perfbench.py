"""Tests of the benchmark harness itself, on tiny traces."""

from __future__ import annotations

import copy
import json
import sys
import time
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as bench  # noqa: E402
from perfbench import calibration, tracing, workloads  # noqa: E402
from undercut import engine  # noqa: E402


@pytest.fixture(scope="module")
def tiny_trace():
    return workloads.whale_trace(seed=3, dust_rate=20, duration=30_000)


def test_fingerprint_matches_and_perturbed_fingerprint_fails(tiny_trace):
    run = workloads.SimRun("d1-off", 1)
    _, fingerprint, violations = run.execute(tiny_trace)
    assert violations == []
    message = {"run": run.name, "seconds": 0.1, "fingerprint": fingerprint, "violations": []}

    session = bench.Session(workloads.WORKLOADS["attack"], 3, Path("unused.csv"), {run.name: fingerprint})
    assert session.check(copy.deepcopy(message)) is None

    perturbed = dict(fingerprint, confirmed_fee=fingerprint["confirmed_fee"] + 1)
    session = bench.Session(workloads.WORKLOADS["attack"], 3, Path("unused.csv"), {run.name: perturbed})
    failure = session.check(copy.deepcopy(message))
    assert failure is not None and "confirmed_fee" in failure


def test_output_that_changes_between_passes_fails(tiny_trace):
    run = workloads.SimRun("d1-off", 1)
    _, fingerprint, _ = run.execute(tiny_trace)
    session = bench.Session(workloads.WORKLOADS["attack"], 3, Path("unused.csv"), None)
    first = {"run": run.name, "seconds": 0.1, "fingerprint": fingerprint, "violations": []}
    assert session.check(first) is None
    changed = dict(first, fingerprint=dict(fingerprint, blocks=fingerprint["blocks"] + 1))
    assert "differs" in session.check(changed)


def test_invariant_violations_are_reported():
    broken = engine.RunResult(
        earnings={"a": 5, "b": 4},
        confirmed_fee=10,
        total_trace_fee=8,
        blocks=3,
        attacks=2,
        attack_branches={"negligible-mempool": 1},
        fork_wins=2,
        fork_losses=1,
        seed=0,
    )
    violations = workloads.sim_violations(broken, trace_fee=8)
    assert len(violations) == 4  # earnings, confirmed > total, branches, fork outcomes


def test_self_time_is_span_minus_child_spans():
    ticks = iter([0, 10, 15, 40, 50, 55, 70, 100])
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        traced_leaf()

    traced_middle = tracer.wrap("middle", middle)

    def outer():
        traced_middle()
        traced_leaf()

    tracer.wrap("outer", outer)()
    # outer 0..100 holds middle 10..50 (holding leaf 15..40) and leaf 55..70
    assert tracer.calls == {"outer": 1, "middle": 1, "leaf": 2}
    assert tracer.self_ns["leaf"] == (40 - 15) + (70 - 55)
    assert tracer.self_ns["middle"] == (50 - 10) - (40 - 15)
    assert tracer.self_ns["outer"] == 100 - (50 - 10) - (70 - 55)


def test_reference_seconds_scale_by_the_median_calibration():
    assert calibration.scale([]) == 1.0
    assert calibration.scale([0.2, 0.02, 0.08]) == pytest.approx(calibration.REFERENCE_S / 0.08)
    assert calibration.calibrate() > 0.0


def _bindings() -> dict:
    """Every undercut module global and traced class attribute, by identity."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "undercut" or name.startswith("undercut."):
            snapshot.update({(name, k): id(v) for k, v in vars(mod).items()})
    for module, path in tracing.TARGETS:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(import_module(f"undercut.{module}"), cls_name)
            snapshot[(module, path)] = id(vars(cls)[attr])
    return snapshot


def test_traced_run_wraps_every_binding_and_restores_it(tiny_trace):
    strategy = import_module("undercut.strategy")
    mempool = import_module("undercut.mempool")
    bandwidth_set, add_pending = mempool.bandwidth_set, engine.Chain.add_pending
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        # a name imported into other modules is wrapped there too
        assert engine.bandwidth_set is strategy.bandwidth_set is mempool.bandwidth_set
        assert mempool.bandwidth_set.__wrapped__ is bandwidth_set
        assert engine.Chain.add_pending.__wrapped__ is add_pending
        for run in (workloads.SimRun("d1-exact", 1, "exact"), workloads.SimRun("d2-off", 2)):
            run.execute(tiny_trace)
    assert _bindings() == before

    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.metric_units())
    assert metrics["engine.Simulation.__init__.calls"] == 2
    assert metrics["engine.events"] == metrics["engine.Simulation.publish_block.calls"] > 0
    assert metrics["strategy.craft_avoidance_block.exact.calls"] > 0
    assert metrics["strategy.craft_avoidance_block.experimental.calls"] == 0
    assert metrics["strategy.avoid.candidates_per_block"] >= 1.0
    assert 0.0 < metrics["strategy.avoid.useful_ratio"] <= 1.0
    assert metrics["mempool.bandwidth_set.txs_scanned"] > 0
    assert all(metrics[f"{name}.self_s"] >= 0.0 for name in tracing.span_names())


def test_patches_are_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


def _session_with_worker(tmp_path, monkeypatch, script: str) -> bench.Session:
    worker = tmp_path / "fake_worker.py"
    worker.write_text(script)
    monkeypatch.setattr(bench, "WORKER", worker)
    monkeypatch.setattr(bench, "RUN_LIMIT_S", 2.0)
    return bench.Session(workloads.WORKLOADS["attack"], 3, tmp_path / "trace.csv", None)


def test_overrunning_worker_is_killed_with_its_children(tmp_path, monkeypatch):
    pid_file = tmp_path / "child.pid"
    first_run = {
        "mode": "pass",
        "run": "d1-off",
        "seconds": 0.5,
        "calibration_s": 0.04,
        "fingerprint": {},
        "violations": [],
    }
    session = _session_with_worker(
        tmp_path,
        monkeypatch,
        "import json, subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        f"print(json.dumps({first_run!r}), flush=True)\n"
        "time.sleep(60)\n",
    )
    start = time.monotonic()
    outcome = session.run_worker(["pass"], 0.0, 1)
    assert time.monotonic() - start < 20
    assert session.attempted == 2  # the run that reported and the one that overran
    assert session.failures == ["attack: no result within 2 s, killed"]
    assert outcome.passes == {"pass": []}  # the pass is incomplete
    assert _gone(int(pid_file.read_text()))


def _gone(pid: int, wait_s: float = 10.0) -> bool:
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state in ("Z", "X"):
            return True
        time.sleep(0.05)
    return False


def test_worker_that_exits_early_is_a_failed_run(tmp_path, monkeypatch):
    session = _session_with_worker(tmp_path, monkeypatch, "import sys\nsys.exit(3)\n")
    session.run_worker(["pass"], 0.0, 1)
    assert session.attempted == 1
    assert session.failures == ["attack: worker exited without a result"]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracing.metric_units(), **bench.BENCH_UNITS}


def test_every_run_has_a_recorded_fingerprint():
    recorded = workloads.expected_fingerprints(workloads.DEFAULT_SEED)
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(recorded[name]) == sorted(run.name for run in workload.runs)
    assert workloads.expected_fingerprints(workloads.DEFAULT_SEED + 1) is None
