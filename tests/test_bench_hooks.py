"""The functions the benchmark's traced mode wraps must keep their names.

``bench/tracing.py`` patches these attributes to time each layer; a rename
would otherwise surface only inside a ``--trace 1`` run.  A short traced
run then checks that the counters it reads from the wrapped calls' results
still count.
"""
import pathlib

import pytest

from containsim import analysis, config, control, dynamics, sim
from conftest import load_scenario_doc, seeded

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"

HOOKS = [
    (sim, "run"),
    (sim, "hull_distance"),
    (sim, "export_trace_csv"),
    (sim, "export_audit_csv"),
    (sim, "export_trace_sidecar"),
    (sim, "make_controller"),
    (control.NeighborView, "__init__"),
    (control.NeighborView, "vartheta_avg"),
    (control.NeighborView, "vhat_avg"),
    (control.NeighborView, "oscillator_psi"),
    (dynamics.LeaderTrajectory, "accel"),
    (dynamics.OscillatorFlow, "__call__"),
    (dynamics, "expm"),
    (sim, "generate_schedule"),
    (sim, "containment_weights"),
    (analysis, "generate_schedule"),
    (analysis, "containment_weights"),
    (analysis, "simulate_cascade"),
    (analysis, "iss_estimate_check"),
    (analysis, "run_gain_sweep"),
    (analysis, "run_blackout_sweep"),
]


@pytest.mark.parametrize("owner, name", HOOKS,
                         ids=[f"{o.__name__}.{n}" for o, n in HOOKS])
def test_traced_attribute_exists(owner, name):
    assert callable(getattr(owner, name, None))


def test_traced_run_counts(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 1.0
    scen = config.build_scenario(doc)
    doc = load_scenario_doc("cascade_estimates")
    doc["sim"]["t_end_seconds"] = 2.0
    cas = config.build_cascade(doc)
    rec = tracing.Recorder()
    patches = tracing.install(rec)
    try:
        sim.run(seeded(scen, 0))
        analysis.iss_estimate_check(analysis.simulate_cascade(cas))
        analysis.run_gain_sweep(cas)
    finally:
        tracing.uninstall(patches)
    counts = {key: v for (_, key), v in rec.counts.items()}
    for key in ("sends", "delivered", "views", "deliveries", "iss_checked"):
        assert counts.get(key, 0) > 0, key
    # The leader layer: sim.run tabulates every leader's acceleration
    # through the wrapped LeaderTrajectory.accel, once.
    spans = [rec.names[i] for i in rec.name]
    assert spans.count("dynamics.leader_accel") == 1


def test_every_average_is_inside_a_traced_aggregation(monkeypatch):
    # The traced mode times neighbour aggregation as the wrapped NeighborView
    # methods (and p_avg, the cascade's): each weighted average a run takes
    # must be taken inside one of them, or its time reads as engine time.
    entry = [name for owner, name in HOOKS
             if owner is control.NeighborView and name != "__init__"]
    depth, outside = [0], []
    for name in entry + ["p_avg"]:
        method = getattr(control.NeighborView, name)

        def counted(*args, method=method, **kwargs):
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(control.NeighborView, name, counted)
    average = control.NeighborView._live_average

    def spy(self, contrib):
        outside.append(depth[0] == 0)
        return average(self, contrib)
    monkeypatch.setattr(control.NeighborView, "_live_average", spy)
    for name in ("benchmark_fullstate", "oscillator_harmonic"):
        doc = load_scenario_doc(name)
        doc["sim"]["t_end_seconds"] = 1.0
        sim.run(seeded(config.build_scenario(doc), 0))
    doc = load_scenario_doc("cascade_estimates")
    doc["sim"]["t_end_seconds"] = 2.0
    analysis.simulate_cascade(config.build_cascade(doc))
    assert len(outside) > 0 and not any(outside)
