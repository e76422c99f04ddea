"""The functions the benchmark's traced mode wraps must keep their names.

``bench/tracing.py`` patches these attributes to time each layer; a rename
would otherwise surface only inside a ``--trace 1`` run.
"""
import pytest

from containsim import analysis, control, dynamics, sim

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
