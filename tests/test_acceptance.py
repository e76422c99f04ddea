"""Acceptance gate: one test per published criterion.

Each test prints a single summary line (visible with -rA / -s) and asserts
the criterion thresholds.
"""
import dataclasses
import hashlib
import time

import numpy as np

from containsim import analysis, config, sim
from containsim.analysis import Perturbation, iss_estimate_check, \
    make_pair_grid, run_blackout_sweep, run_gain_sweep, simulate_cascade
from containsim.dynamics import check_oscillator_spectrum
from containsim.topology import containment_weights, is_nonsingular_m_matrix, \
    partition, small_gain_certificate
from conftest import load_scenario_doc, random_reachable_topology, \
    seeded

V_D = np.array([1.0, 0.1])


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _run_scenario(name, **doc_updates):
    doc = load_scenario_doc(name)
    for key, sub in doc_updates.items():
        doc[key].update(sub)
    scen = config.build_scenario(doc)
    start = time.perf_counter()
    trace = sim.run(scen)
    elapsed = time.perf_counter() - start
    return scen, trace, elapsed


def test_criterion_1_full_state_benchmark():
    scen, trace, elapsed = _run_scenario("benchmark_fullstate")
    k40 = trace.index_of(40.0)
    err = float(trace.err_pos_norm[k40])
    vdev = float(max(np.linalg.norm(trace.v[k40, i] - V_D)
                     for i in range(6)))
    ok = err < 0.05 and vdev < 0.02 and elapsed < 5.0
    _report(1, ok, f"containment err {err:.3e} < 0.05, velocity dev "
                   f"{vdev:.3e} < 0.02, runtime {elapsed:.2f}s < 5s")


def test_criterion_2_output_feedback_benchmark():
    scen, trace, elapsed = _run_scenario("benchmark_outputfb")
    k40 = trace.index_of(40.0)
    err = float(trace.err_pos_norm[k40])
    vdev = float(max(np.linalg.norm(trace.v[k40, i] - V_D)
                     for i in range(6)))
    # the velocity-filter mismatch phi + p - v must decay exactly like e^{-t}
    phi_tilde = trace.internals["phi"] + trace.p[:, :6] - trace.v[:, :6]
    norms = np.linalg.norm(phi_tilde.reshape(phi_tilde.shape[0], -1), axis=1)
    k5 = trace.index_of(5.0)
    expected = norms[0] * np.exp(-trace.times[: k5 + 1])
    ratio = norms[: k5 + 1] / expected
    fit_ok = bool(np.all((ratio > 0.95) & (ratio < 1.05)))
    worst = float(np.max(np.abs(ratio - 1.0)))
    ok = err < 0.05 and vdev < 0.02 and fit_ok
    _report(2, ok, f"containment err {err:.3e} < 0.05, velocity dev "
                   f"{vdev:.3e} < 0.02, filter decay within "
                   f"{100 * worst:.4f}% of e^-t on [0,5]s")


def test_criterion_3_nonlinear_benchmark():
    scen, trace, elapsed = _run_scenario("benchmark_nonlinear")
    k40 = trace.index_of(40.0)
    err = float(trace.err_pos_norm[k40])
    # Lyapunov decay of V = 0.5 |e|^2 evaluated along the closed-loop vector
    # field at every recorded state
    g = scen.gains
    lam = g.lam[None, :, None]
    v = trace.v[:, :6]
    v_r = -lam * (trace.p[:, :6] - trace.internals["eta1"]) \
        + trace.internals["vhat"]
    e = v - v_r
    V = 0.5 * np.sum(e * e, axis=(1, 2))
    f = v * v
    delta = np.linalg.norm(v, axis=2) ** 2
    en = np.linalg.norm(e, axis=2)
    eps = g.boundary_layer_eps
    scale = np.where(en > eps, delta / np.maximum(en, 1e-300), delta / eps)
    gamma_bar = scale[..., None] * e
    k_r = g.k_r[None, :, None]
    dV = np.sum(e * (-k_r * e + f - gamma_bar), axis=(1, 2))
    frac = float(np.mean(dV <= -2.0 * g.k_r[0] * V + 10 * eps))
    ok = err < 0.1 and frac >= 0.99
    _report(3, ok, f"containment err {err:.3e} < 0.1, Lyapunov decay holds "
                   f"at {100 * frac:.2f}% of grid points (>= 99%)")


def test_criterion_4_oscillator_benchmark():
    S1, S2 = -np.eye(2), np.zeros((2, 2))
    assert check_oscillator_spectrum(S1, S2)
    results = []
    for variant in ("oscillator_full", "oscillator_output"):
        doc = load_scenario_doc("oscillator_harmonic")
        doc["controllers"]["variant"] = variant
        scen = config.build_scenario(doc)
        trace = sim.run(scen)
        k40 = trace.index_of(40.0)
        err = float(trace.err_pos_norm[k40])
        vhat_err = float(np.linalg.norm(
            trace.internals["vhat"][k40] - trace.W @ trace.v[k40, 6:]))
        results.append((variant, err, vhat_err))
    ok = all(err < 0.05 and vh < 0.05 for _, err, vh in results)
    detail = ", ".join(f"{v}: pos err {e:.2e}, vhat err {h:.2e}"
                       for v, e, h in results)
    _report(4, ok, detail + " (all < 0.05)")


def test_criterion_5_random_graph_suite():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(100):
        topo = random_reachable_topology(rng)
        part = partition(topo)
        W = containment_weights(part)
        if np.min(W) < -1e-12 or \
                np.max(np.abs(W.sum(axis=1) - 1.0)) > 1e-9 or \
                not is_nonsingular_m_matrix(part.L1) or \
                not small_gain_certificate(part)["pass"]:
            failures += 1
    _report(5, failures == 0,
            f"100 random reachable topologies, {failures} failures")


def _cascade_base():
    return config.build_cascade(load_scenario_doc("cascade_estimates"))


def test_criterion_6_cascade_suite():
    base = _cascade_base()
    vanishing = dataclasses.replace(
        base,
        leader_drive=[Perturbation(kind="decaying_exp",
                                   amplitude=[0.5, 0.3], rate=0.3)] * 4,
        phi1=Perturbation(), t_end=60.0)
    worst = 0.0
    for alpha in (0.0, 1.0):
        for sigma in (1, 2, 3):
            cfg = dataclasses.replace(
                vanishing, alpha=alpha, sigma=sigma, h=tuple([2.0] * sigma),
                zeta0=np.zeros((6, sigma, 2)),
                phi2=[Perturbation() for _ in range(sigma)])
            tr = simulate_cascade(cfg)
            worst = max(worst, float(np.linalg.norm(tr.eta_tilde()[-1])))
    vanish_ok = worst < 1e-3

    gains = run_gain_sweep(base, multipliers=(1.0, 2.0, 4.0))
    gain_ok = gains[0] >= gains[1] >= gains[2]
    blackout = run_blackout_sweep(base, t_stars=(0.5, 1.0, 1.5))
    blackout_ok = blackout[0] <= blackout[1] <= blackout[2]
    ok = vanish_ok and gain_ok and blackout_ok
    _report(6, ok, f"vanishing-perturbation err {worst:.2e} < 1e-3 over "
                   f"alpha x sigma grid; gain sweep "
                   f"{[round(g, 3) for g in gains]} non-increasing; blackout "
                   f"sweep {[round(b, 3) for b in blackout]} non-decreasing "
                   f"in T*")


def test_criterion_7_iss_estimate_suite():
    base = _cascade_base()
    rng = np.random.default_rng(7)
    total_pairs = 0
    total_violations = 0
    last_trace = None
    for run_idx in range(10):
        sigma = int(rng.integers(1, 4))
        cfg = dataclasses.replace(
            base,
            alpha=float(rng.uniform(0.0, 1.0)), sigma=sigma,
            k_eta=float(rng.uniform(0.5, 2.0)),
            h=tuple(float(rng.uniform(1.0, 3.0)) for _ in range(sigma)),
            zeta0=rng.normal(size=(6, sigma, 2)),
            phi2=[Perturbation(kind="sinusoid",
                               amplitude=rng.normal(size=2).tolist(),
                               omega=float(rng.uniform(0.2, 1.0)))
                  for _ in range(sigma)],
            t_end=40.0)
        tr = simulate_cascade(seeded(cfg, run_idx))
        pairs = make_pair_grid(tr.times)
        assert len(pairs) >= 400
        rep = iss_estimate_check(tr, pairs=pairs)
        total_pairs += rep["pairs"]
        total_violations += rep["violations"]
        last_trace = tr
    corrupted = iss_estimate_check(last_trace,
                                   eta_override=2.0 * last_trace.eta_tilde())
    ok = total_violations == 0 and corrupted["violations"] > 0
    _report(7, ok, f"{total_pairs} (t0,t) pairs over 10 runs, "
                   f"{total_violations} violations; corrupted trace flags "
                   f"{corrupted['violations']} violations")


def test_criterion_8_determinism_and_convergence():
    doc = load_scenario_doc("benchmark_fullstate")
    doc["sim"]["t_end_seconds"] = 10.0
    scen = config.build_scenario(doc)

    import tempfile, os
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("a.csv", "b.csv"):
            trace = sim.run(seeded(scen, 11))
            path = os.path.join(tmp, name)
            sim.export_trace_csv(trace, path)
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
    identical = digests[0] == digests[1]

    schedules = sim.build_schedules(seeded(scen, 11))
    coarse = sim.run(scen, schedules=schedules)
    fine = sim.run(dataclasses.replace(scen, dt=scen.dt / 2),
                   schedules=schedules)
    delta = abs(float(coarse.err_pos_norm[-1]) - float(fine.err_pos_norm[-1]))
    ok = identical and delta < 1e-6
    _report(8, ok, f"identical-seed CSV byte-identical: {identical}; "
                   f"dt-halving changes t_end error by {delta:.2e} < 1e-6")
