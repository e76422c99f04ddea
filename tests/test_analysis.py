
import re

import numpy as np
import pytest

from containsim.analysis import (
    CascadeConfig,
    CascadeError,
    Perturbation,
    containment_certificate,
    iss_estimate_check,
    make_pair_grid,
    run_blackout_sweep,
    run_gain_sweep,
    simulate_cascade,
)
from containsim.comm import CommConfig
from containsim.engine import DivergenceError
from containsim.topology import DirectedTopology
from conftest import bench_topology


def perfect_comm(T=0.05):
    return CommConfig(T=T, T_star=1.5, drop_prob=0.0, delay_max=0.0, seed=0)


def single_follower_cfg(**kw):
    w = np.zeros((2, 2))
    w[0, 1] = 1.0
    topo = DirectedTopology(n=2, m=1, weights=w)
    base = dict(
        topo=topo, N=1, alpha=0.0, sigma=1, k_eta=1.0, h=(2.0,),
        comm=perfect_comm(), dt=0.005, t_end=10.0,
        eta0=np.array([[3.0], [0.0]]),
        zeta0=np.zeros((1, 1, 1)),
        leader_drive=[Perturbation()],
        phi1=Perturbation(), phi2=[Perturbation()])
    base.update(kw)
    return CascadeConfig(**base)


def bench_cfg(**kw):
    topo = bench_topology()
    rng = np.random.default_rng(0)
    base = dict(
        topo=topo, N=2, alpha=0.5, sigma=2, k_eta=1.0, h=(2.0, 2.0),
        comm=CommConfig(T=0.25, T_star=1.5, drop_prob=0.85, delay_max=0.4,
                        seed=0),
        dt=0.025, t_end=40.0,
        eta0=rng.normal(size=(10, 2)) * 2.0,
        zeta0=np.zeros((6, 2, 2)),
        leader_drive=[Perturbation(kind="sinusoid",
                                   amplitude=[0.5, 0.3], omega=0.5,
                                   phase=float(k)) for k in range(4)],
        phi1=Perturbation(kind="sinusoid", amplitude=[0.2, 0.1], omega=0.3),
        phi2=[Perturbation(kind="sinusoid", amplitude=[0.1, 0.2], omega=0.4),
              Perturbation(kind="sinusoid", amplitude=[0.15, -0.1],
                           omega=0.4)])
    base.update(kw)
    if "sigma" in kw and "h" not in kw:
        base["h"] = tuple([2.0] * kw["sigma"])
    if "sigma" in kw:
        base["zeta0"] = np.zeros((6, kw["sigma"], 2))
        if "phi2" not in kw:
            base["phi2"] = [Perturbation() for _ in range(kw["sigma"])]
    return CascadeConfig(**base)


class TestPerturbation:
    def test_values(self):
        p = Perturbation(kind="sinusoid", amplitude=[2.0], omega=3.0,
                         phase=0.5)
        assert np.allclose(p.value(1.0), 2.0 * np.sin(3.5))
        d = Perturbation(kind="decaying_exp", amplitude=[4.0], rate=0.25)
        assert np.allclose(d.value(8.0), 4.0 * np.exp(-2.0))
        assert np.allclose(Perturbation(kind="constant",
                                        amplitude=[1.5]).value(99.0), 1.5)

    def test_derivative_matches_finite_difference(self):
        h = 1e-6
        for p in (Perturbation(kind="sinusoid", amplitude=[2.0, -1.0],
                               omega=1.7, phase=0.3),
                  Perturbation(kind="decaying_exp", amplitude=[3.0],
                               rate=0.8),
                  Perturbation(kind="constant", amplitude=[5.0])):
            for t in (0.0, 1.2, 7.0):
                num = (p.value(t + h) - p.value(t - h)) / (2 * h)
                assert np.allclose(num, p.derivative(t), atol=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(CascadeError):
            Perturbation(kind="brownian")


class TestCascadeDynamics:
    def test_pure_exponential_decay(self):
        # Stationary leader, no perturbation, alpha = 0, perfect fast comm:
        # the sampled average equals the leader value, so the follower decays
        # exactly like e^{-k_eta t} toward it.
        cfg = single_follower_cfg()
        tr = simulate_cascade(cfg)
        expected = 3.0 * np.exp(-cfg.k_eta * tr.times)
        assert np.max(np.abs(tr.eta_tilde()[:, 0, 0] - expected)) < 1e-9

    def test_chain_filters_converge(self):
        cfg = single_follower_cfg(alpha=1.0, sigma=3, h=(1.0, 2.0, 3.0),
                                  zeta0=np.ones((1, 3, 1)) * 5.0,
                                  phi2=[Perturbation()] * 3, t_end=30.0)
        tr = simulate_cascade(cfg)
        assert np.max(np.abs(tr.zeta_tilde()[-1])) < 1e-8
        assert np.max(np.abs(tr.eta_tilde()[-1])) < 1e-8

    def test_constant_phi1_offset(self):
        # With a constant perturbation c on the follower and alpha = 0, the
        # steady state is eta_c + c / k_eta exactly.
        cfg = single_follower_cfg(
            k_eta=2.0, phi1=Perturbation(kind="constant", amplitude=[1.0]),
            t_end=20.0)
        tr = simulate_cascade(cfg)
        assert tr.eta_tilde()[-1, 0, 0] == pytest.approx(0.5, abs=1e-8)

    def test_leader_drive_integrates(self):
        cfg = single_follower_cfg(
            leader_drive=[Perturbation(kind="constant", amplitude=[0.5])])
        tr = simulate_cascade(cfg)
        assert tr.eta[-1, 1, 0] == pytest.approx(0.5 * 10.0, abs=1e-9)
        assert np.allclose(tr.deta_c[-1], 0.5)

    def test_validation_errors(self):
        with pytest.raises(CascadeError):
            single_follower_cfg(alpha=1.5).validate()
        with pytest.raises(CascadeError):
            single_follower_cfg(h=(1.0, 2.0)).validate()
        with pytest.raises(CascadeError):
            single_follower_cfg(k_eta=-1.0).validate()
        with pytest.raises(CascadeError):
            simulate_cascade(single_follower_cfg(dt=0.003))

    @pytest.mark.parametrize("key, change", [
        ("cascade.alpha", {"alpha": 1.5}),
        ("cascade.h", {"h": (1.0, 2.0)}),
        ("cascade.k_eta", {"k_eta": -1.0}),
        ("cascade.h", {"h": (0.0,)}),
        ("cascade.leader_drive", {"leader_drive": []}),
        ("cascade.phi2", {"phi2": [Perturbation(), Perturbation()]}),
        ("cascade.initial.eta", {"eta0": np.zeros((2, 2))}),
        ("cascade.initial.zeta", {"zeta0": np.zeros((1, 2, 1))}),
        ("sim.t_end_seconds", {"t_end": 10.0025}),
    ])
    def test_validation_errors_name_the_config_key(self, key, change):
        with pytest.raises(CascadeError, match=re.escape(key)):
            single_follower_cfg(**change).validate()

    @pytest.mark.parametrize("value", [0.0, -0.025])
    @pytest.mark.parametrize("field, key", [("dt", "sim.dt_seconds"),
                                            ("t_end", "sim.t_end_seconds")])
    def test_step_and_horizon_must_be_positive(self, field, key, value):
        with pytest.raises(CascadeError, match=f"{key} must be > 0"):
            single_follower_cfg(**{field: value}).validate()

    @pytest.mark.parametrize("variable, gains", [
        ("eta", {"k_eta": 5000.0}),
        ("zeta", {"h": (5000.0,), "zeta0": np.ones((1, 1, 1))}),
    ])
    def test_divergence_names_agent_and_variable(self, variable, gains):
        # A rate of 5000 with dt = 0.005 is far outside RK4's stable region.
        with pytest.raises(DivergenceError) as exc:
            simulate_cascade(single_follower_cfg(**gains))
        err = exc.value
        assert (err.agent, err.variable) == (0, variable)
        # last_norm is the agent's row one step earlier, the last in range.
        tr = simulate_cascade(single_follower_cfg(t_end=err.t - 0.005,
                                                  **gains))
        last = getattr(tr, variable)[-1, 0]
        assert np.all(np.abs(last) <= 1e9)
        assert err.last_norm == np.linalg.norm(last)

    def test_determinism(self):
        cfg = bench_cfg(t_end=5.0)
        a = simulate_cascade(cfg, seed=1)
        b = simulate_cascade(cfg, seed=1)
        assert np.array_equal(a.eta, b.eta)
        assert np.array_equal(a.zeta, b.zeta)


class TestDeviationBounds:
    def test_pair_grid_shape(self):
        times = np.arange(0, 2401) * 0.025
        pairs = make_pair_grid(times)
        assert len(pairs) >= 380
        for i0, i1 in pairs:
            assert 0 <= i0 < i1 <= 2400

    def test_clean_run_has_no_violations(self):
        tr = simulate_cascade(bench_cfg(), seed=3)
        report = iss_estimate_check(tr)
        assert report["violations"] == 0
        assert report["worst_margin"] < 0

    def test_corrupted_run_flags_violations(self):
        tr = simulate_cascade(bench_cfg(), seed=3)
        report = iss_estimate_check(tr, eta_override=2.0 * tr.eta_tilde())
        assert report["violations"] > 0


class TestSweeps:
    def test_gain_sweep_monotone(self):
        vals = run_gain_sweep(bench_cfg(t_end=30.0, alpha=1.0), seed=0)
        assert len(vals) == 3
        assert vals[0] >= vals[1] >= vals[2]

    def test_blackout_sweep_monotone(self):
        vals = run_blackout_sweep(bench_cfg(t_end=30.0, alpha=1.0), seed=0)
        assert len(vals) == 3
        assert vals[0] <= vals[1] <= vals[2]


class TestCertificate:
    def test_bench_passes(self):
        report = containment_certificate(bench_topology())
        assert report["pass"]
        assert report["small_gain"]["spectral_radius"] < 1.0
        assert report["row_sum_error"] < 1e-12

    def test_unreachable_fails(self):
        w = np.zeros((4, 4))
        w[0, 3] = 1.0
        w[1, 2] = 1.0
        w[2, 1] = 1.0
        topo = DirectedTopology(n=4, m=3, weights=w)
        report = containment_certificate(topo)
        assert not report["pass"]
        assert report["unreachable_followers"] == [1, 2]
