"""Negative controls for the benchmark's output checks.

    python3 -m pytest bench/test_checks.py -q

A corrupted result must count as a failed operation, the way the ISS
check's corrupted-trace control must report violations. Each control feeds
the corrupted result through ``run.measure``, the loop that counts failed
operations in a benchmark run. The last test covers the traced mode.
"""
import copy

import numpy as np
import pytest

import run
from run import import_package, measure

import_package()

from containsim import analysis, sim  # noqa: E402
from containsim.sim import HULL_TOL  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CascadeResult, ScenarioWorkload  # noqa: E402


class Replay:
    """A workload whose every operation returns the same result."""

    name = "replay"
    bundled = None
    export = False

    def __init__(self, result):
        self.result = result

    def op(self, inputs, outdir):
        return self.result


@pytest.fixture(autouse=True)
def no_setup_probes(monkeypatch):
    """Skip the fresh-interpreter set-ups that ``measure`` times."""
    monkeypatch.setattr(run, "setup_sample", lambda workload, seed: (0., 1.))


def failed_ops(result, ref, tmp_path) -> tuple[int, int]:
    res = measure(Replay(result), None, ref, seed=0, seconds=0.0,
                  traced=False, outdir=str(tmp_path))
    return res["failed"], res["ops"]


@pytest.fixture(scope="module")
def trace():
    wl = WORKLOADS["fullstate_n10"]
    doc = wl.make_doc(0)
    doc["sim"]["t_end_seconds"] = 2.0
    return sim.run(wl.build(doc))


@pytest.fixture(scope="module")
def cascade():
    wl = WORKLOADS["cascade_sweep"]
    doc = wl.make_doc(0)
    doc["sim"]["t_end_seconds"] = 10.0
    cas = wl.build(doc)
    tr = analysis.simulate_cascade(cas)
    return CascadeResult(tr, analysis.iss_estimate_check(tr),
                         [3.0, 2.0, 1.0], [1.0, 2.0, 3.0])


def test_clean_trace_passes(trace, tmp_path):
    ref = checks.reference_values(trace)
    assert failed_ops(trace, ref, tmp_path) == (0, 3)


def test_shifted_hull_distance_fails(trace, tmp_path):
    bad = copy.deepcopy(trace)
    bad.hull_dist[-1] += 10 * HULL_TOL
    failed, ops = failed_ops(bad, None, tmp_path)
    assert failed == ops > 0


def test_perturbed_final_error_fails(trace, tmp_path):
    ref = checks.reference_values(trace)
    bad = copy.deepcopy(trace)
    bad.err_pos[-1] *= 1 + 1e-4
    failed, ops = failed_ops(bad, ref, tmp_path)
    assert failed == ops > 0


def test_non_finite_state_fails(trace, tmp_path):
    bad = copy.deepcopy(trace)
    bad.v[len(bad.times) // 2, 0, 0] = np.nan
    failed, ops = failed_ops(bad, None, tmp_path)
    assert failed == ops > 0


def test_clean_cascade_passes(cascade, tmp_path):
    assert cascade.iss["violations"] == 0
    ref = checks.reference_values(cascade)
    assert failed_ops(cascade, ref, tmp_path) == (0, 3)


def test_corrupted_cascade_fails(cascade, tmp_path):
    corrupted = cascade.trace.eta_tilde().copy()
    corrupted[len(corrupted) // 2:] += 1.0
    iss = analysis.iss_estimate_check(cascade.trace, eta_override=corrupted)
    bad = CascadeResult(cascade.trace, iss, cascade.gains, cascade.blackout)
    failed, ops = failed_ops(bad, None, tmp_path)
    assert failed == ops > 0


def test_broken_sweep_trend_fails(cascade, tmp_path):
    bad = CascadeResult(cascade.trace, cascade.iss, cascade.gains,
                        cascade.blackout[::-1])
    failed, ops = failed_ops(bad, None, tmp_path)
    assert failed == ops > 0


class ShortFullstate(ScenarioWorkload):
    def make_doc(self, seed):
        doc = super().make_doc(seed)
        doc["sim"]["t_end_seconds"] = 2.0
        return doc


def test_traced_layers_add_up_to_the_op(tmp_path):
    sim_run = sim.run
    wl = ShortFullstate("short_fullstate", "benchmark_fullstate", export=True)
    res = measure(wl, wl.setup(0), None, seed=0, seconds=0.0, traced=True,
                  outdir=str(tmp_path))
    assert sim.run is sim_run
    assert (res["failed"], res["ops"], len(res["layers"])) == (0, 2, 1)
    layers = res["layers"][0]
    assert layers["sim.hull_calls"] == 6 * 201
    assert layers["sim.export_bytes"] > 0
    assert sum(layers[m] for m in tracing.SELF_TIMES) == \
        pytest.approx(layers["trace.run_s"], abs=1e-6)
