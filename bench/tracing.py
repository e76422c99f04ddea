"""Spans around the package's public functions, for the traced mode.

``install`` wraps the functions each layer exposes with ``perf_counter_ns``
spans recorded by a ``Recorder``; ``uninstall`` puts the originals back.
Each span keeps its name, start, end, parent span and operation id in
compact arrays, so they stay in memory until the run ends. Counts and
ratios come from the objects the wrapped calls return: the ``LinkSchedule``
events, ``trace.audit`` and the ``NeighborView`` sizes.

A span's self time is its duration minus the durations of its direct
children; the self times of one operation's spans add up to its root span.
"""
from __future__ import annotations

import functools
import os
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from containsim import analysis, control, dynamics, sim

ROOT = "op"

# per-layer metric -> span whose self time it sums
SELF_TIMES = {
    "sim.hull_s": "sim.hull",
    "sim.engine_self_s": "sim.run",
    "sim.export_s": "sim.export",
    "control.aggregate_s": "control.aggregate",
    "control.law_self_s": "control.law",
    "dynamics.leader_accel_s": "dynamics.leader_accel",
    "dynamics.flow_s": "dynamics.flow",
    "comm.schedule_s": "comm.schedule",
    "analysis.cascade_self_s": "analysis.cascade",
    "analysis.iss_s": "analysis.iss",
    "analysis.sweep_self_s": "analysis.sweep",
    "topology.weights_s": "topology.weights",
    "bench.op_self_s": ROOT,
}
# per-layer metric -> span whose calls it counts
CALLS = {
    "sim.hull_calls": "sim.hull",
    "control.aggregate_calls": "control.aggregate",
    "control.law_calls": "control.law",
    "dynamics.leader_accel_calls": "dynamics.leader_accel",
    "dynamics.flow_calls": "dynamics.flow",
    "comm.schedules": "comm.schedule",
    "analysis.cascade_runs": "analysis.cascade",
}
# per-layer metric -> counter it reports as is
COUNTS = {
    "sim.deliveries": "deliveries",
    "sim.export_bytes": "export_bytes",
    "comm.sends": "sends",
    "analysis.iss_checked": "iss_checked",
}
# per-layer metric -> (numerator, denominator) counters; 0 when nothing ran
RATIOS = {
    "control.live_edges_mean": ("live_edges", "views"),
    "dynamics.flow_miss_ratio": ("expm_calls", "dynamics.flow"),
    "sim.mailbox_accept_ratio": ("accepted", "deliveries"),
    "sim.payload_use_ratio": ("accepted", "captured"),
    "comm.delivered_ratio": ("delivered", "sends"),
}


class Recorder:
    """In-memory span store; ``op_id`` tags the spans of the current op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[tuple[int, str], float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.op_id, key)] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.asarray(self.name), "start": np.asarray(self.start),
                "end": np.asarray(self.end), "parent": np.asarray(self.parent),
                "op": np.asarray(self.op)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.names),
                            **self.arrays())

    def op_layers(self, op_id: int) -> dict[str, float]:
        """Per-layer metrics of one operation, and its root duration."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        sel = a["op"] == op_id
        names = a["name"][sel]
        self_ns = np.bincount(names, weights=(dur - child)[sel],
                              minlength=len(self.names))
        calls = dict(zip(self.names, np.bincount(names,
                                                 minlength=len(self.names))))
        counts = {key: v for (op, key), v in self.counts.items()
                  if op == op_id}
        counts.update(calls)
        out = {metric: float(self_ns[self._ids[span]]) * 1e-9
               if span in self._ids else 0.0
               for metric, span in SELF_TIMES.items()}
        out.update({metric: float(calls.get(span, 0))
                    for metric, span in CALLS.items()})
        out.update({metric: float(counts.get(key, 0))
                    for metric, key in COUNTS.items()})
        for metric, (num, den) in RATIOS.items():
            d = counts.get(den, 0)
            out[metric] = counts.get(num, 0) / d if d else 0.0
        root = sel & (a["name"] == self._ids[ROOT])
        out["trace.run_s"] = float(dur[root].sum()) * 1e-9
        return out


def _accepted(audit: list) -> int:
    """Deliveries that replaced the mailbox entry (a higher seq arrived)."""
    best: dict[tuple[int, int], int] = {}
    accepted = 0
    for src, dst, seq, _, _ in audit:
        if seq > best.get((src, dst), -1):
            best[(src, dst)] = seq
            accepted += 1
    return accepted


def install(rec: Recorder) -> list:
    """Wrap the layer functions; returns what ``uninstall`` needs."""
    patches = []

    def patch(obj, attr, wrapper):
        orig = getattr(obj, attr)
        patches.append((obj, attr, orig))
        setattr(obj, attr, wrapper(orig))

    def span(name, after=None):
        return lambda fn: rec.wrap(name, fn, after)

    def after_run(args, trace):
        scen = args[0]
        steps_per_t = int(round(scen.comm.T / trace.meta["dt"]))
        samples = (trace.times.shape[0] - 1) // steps_per_t + 1
        rec.count("deliveries", len(trace.audit))
        rec.count("accepted", _accepted(trace.audit))
        rec.count("captured", len(trace.edges) * samples)

    def after_schedule(args, sched):
        rec.count("sends", len(sched.events))
        rec.count("delivered", sum(ev.delay != float("inf")
                                   for ev in sched.events))

    def after_view(args, _):
        rec.count("views")
        rec.count("live_edges", args[0].dst.shape[0])

    def after_export(args, _):
        rec.count("export_bytes", os.path.getsize(args[-1]))

    def after_iss(args, report):
        rec.count("iss_checked", report["checked"])

    def make_controller(orig):
        @functools.wraps(orig)
        def make(*args, **kwargs):
            ctrl = orig(*args, **kwargs)
            ctrl.deriv = rec.wrap("control.law", ctrl.deriv)
            return ctrl
        return make

    def count_expm(orig):
        @functools.wraps(orig)
        def expm(*args, **kwargs):
            rec.count("expm_calls")
            return orig(*args, **kwargs)
        return expm

    patch(sim, "run", span("sim.run", after_run))
    patch(sim, "hull_distance", span("sim.hull"))
    for fn in ("export_trace_csv", "export_audit_csv", "export_trace_sidecar"):
        patch(sim, fn, span("sim.export", after_export))
    patch(sim, "make_controller", make_controller)
    patch(control.NeighborView, "__init__",
          span("control.aggregate", after_view))
    for meth in ("vartheta_avg", "vhat_avg", "oscillator_psi"):
        patch(control.NeighborView, meth, span("control.aggregate"))
    patch(dynamics.LeaderTrajectory, "accel", span("dynamics.leader_accel"))
    patch(dynamics.OscillatorFlow, "__call__", span("dynamics.flow"))
    patch(dynamics, "expm", count_expm)
    for mod in (sim, analysis):
        patch(mod, "generate_schedule", span("comm.schedule", after_schedule))
        patch(mod, "containment_weights", span("topology.weights"))
    patch(analysis, "simulate_cascade", span("analysis.cascade"))
    patch(analysis, "iss_estimate_check", span("analysis.iss", after_iss))
    for fn in ("run_gain_sweep", "run_blackout_sweep"):
        patch(analysis, fn, span("analysis.sweep"))
    return patches


def uninstall(patches: list) -> None:
    for obj, attr, orig in reversed(patches):
        setattr(obj, attr, orig)


def median_layers(per_op: list[dict]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in per_op)
            for key in per_op[0]}
