"""Per-layer spans recorded from outside the ``undercut`` package.

Each traced function is wrapped by rebinding its name in every
``undercut`` module that holds it (``engine`` and ``strategy`` import
``bandwidth_set`` and ``gamma_ratio`` by name, for example); methods are
wrapped by patching the class attribute.  ``installed`` restores every
original on exit, also when the traced code raises.

A span's self time is its duration minus the time covered by the spans
it encloses.  Spans are aggregated per name as they close: a call count
and the summed self time, plus the workload counters that are measured
at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from importlib import import_module

# (module, attribute path) per traced function, grouped by layer.  The
# span name is "<module>.<attribute path>"; craft_avoidance_block spans
# also carry the avoidance mode.
TARGETS = (
    ("trace", "synthesize_trace"),
    ("trace", "write_trace"),
    ("trace", "load_trace"),
    ("engine", "Simulation.__init__"),
    ("engine", "Simulation.run"),
    ("engine", "Simulation.publish_block"),
    ("engine", "Simulation.update_mempool"),
    ("engine", "Simulation.update_miners"),
    ("engine", "Simulation.update_chains"),
    ("engine", "Chain.add_pending"),
    ("engine", "Chain.remove_pending"),
    ("engine", "Chain.view"),
    ("mempool", "bandwidth_set"),
    ("mempool", "gamma_ratio"),
    ("mempool", "claimable_fees"),
    ("mempool", "split_equal_fee"),
    ("mempool", "MempoolView.without"),
    ("strategy", "undercut_decision_d1"),
    ("strategy", "undercut_decision_d2"),
    ("strategy", "one_set_left"),
    ("strategy", "rational_shift_general"),
    ("strategy", "craft_avoidance_block"),
)

AVOIDANCE_MODES = ("exact", "experimental")
CRAFT = "strategy.craft_avoidance_block"


def span_names() -> list[str]:
    """Every span name a traced run can report, in TARGETS order."""
    names = []
    for module, path in TARGETS:
        name = f"{module}.{path}"
        if name == CRAFT:
            names.extend(f"{CRAFT}.{mode}" for mode in AVOIDANCE_MODES)
        else:
            names.append(name)
    return names


class Tracer:
    """Span aggregates and counters for one traced stretch of work."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # open spans: [name, child_ns]

    def inside(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name, _ in self._stack)

    def wrap(self, name: str, fn, name_of=None, hook=None):
        """``fn`` recorded as span ``name`` (or ``name_of(args, kwargs)``).

        ``hook(tracer, args, kwargs, result)`` runs after a call that
        returned, while the span is still open.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name_of(args, kwargs) if name_of is not None else name
            frame = [span, 0]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                elapsed = tracer.clock() - start
                tracer._stack.pop()
                tracer.calls[span] += 1
                tracer.self_ns[span] += elapsed - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return traced

    def metrics(self) -> dict[str, float]:
        """Every metric in ``METRIC_UNITS``, from the spans and counters."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in ("engine.attacks", "engine.fork_wins", "engine.fork_losses", "mempool.bandwidth_set.txs_scanned"):
            out[name] = self.counts[name]
        out["engine.events"] = self.calls["engine.Simulation.publish_block"]
        crafted = sum(self.calls[f"{CRAFT}.{mode}"] for mode in AVOIDANCE_MODES)
        candidates = self.counts["strategy.avoid.candidates"]
        out["strategy.avoid.candidates_per_block"] = candidates / crafted if crafted else 0.0
        out["strategy.avoid.useful_ratio"] = self.counts["strategy.avoid.accepted"] / candidates if candidates else 0.0
        return out


def metric_units() -> dict[str, str]:
    """Name and unit of every metric ``Tracer.metrics`` reports."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "engine.events": "count",
            "engine.attacks": "count",
            "engine.fork_wins": "count",
            "engine.fork_losses": "count",
            "mempool.bandwidth_set.txs_scanned": "count",
            "strategy.avoid.candidates_per_block": "candidates/block",
            "strategy.avoid.useful_ratio": "ratio",
        }
    )
    return units


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_scanned(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["mempool.bandwidth_set.txs_scanned"] += len(_arg(args, kwargs, 0, "pool").pending)


def _count_candidate(tracer: Tracer, args, kwargs, result) -> None:
    if tracer.inside(CRAFT):
        tracer.counts["strategy.avoid.candidates"] += 1


def _count_accepted(tracer: Tracer, args, kwargs, result) -> None:
    if kwargs.get("mode", "exact") == "exact" and result.tx_ids:
        tracer.counts["strategy.avoid.accepted"] += 1


def _count_outcome(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["engine.attacks"] += result.attacks
    tracer.counts["engine.fork_wins"] += result.fork_wins
    tracer.counts["engine.fork_losses"] += result.fork_losses


def _craft_span(args, kwargs) -> str:
    return f"{CRAFT}.{kwargs.get('mode', 'exact')}"


HOOKS = {
    "engine.Simulation.run": _count_outcome,
    "mempool.bandwidth_set": _count_scanned,
    "strategy.undercut_decision_d1": _count_candidate,
    CRAFT: _count_accepted,
}


def _holders(fn) -> list[tuple[object, str]]:
    """Every (undercut module, name) binding of a module-level function."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "undercut" and not mod_name.startswith("undercut."):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore."""
    patches: list[tuple[object, str, object]] = []
    try:
        for module, path in TARGETS:
            mod = import_module(f"undercut.{module}")
            name = f"{module}.{path}"
            name_of = _craft_span if name == CRAFT else None
            hook = HOOKS.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, tracer.wrap(name, original, name_of, hook))
                continue
            original = getattr(mod, path)
            wrapper = tracer.wrap(name, original, name_of, hook)
            for holder, attr in _holders(original):
                patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
