"""Cross-module property tests tying the simulator to its algebraic claims."""

import numpy as np
import pytest

from containsim import config, sim
from containsim.comm import CommConfig, generate_schedule
from containsim.control import GainSet, NeighborView, make_controller
from containsim.dynamics import (
    AgentModel,
    LeaderTrajectory,
    OscillatorFlow,
)
from containsim.topology import containment_weights, is_nonsingular_m_matrix, \
    partition
from conftest import follower_rhs, load_scenario_doc, \
    random_reachable_topology, seeded
from law_oracle import stage


class TestTopologyAlgebra:
    def test_weights_match_explicit_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            topo = random_reachable_topology(rng, n_max=9)
            part = partition(topo)
            W = containment_weights(part)
            W_direct = -np.linalg.inv(part.L1) @ part.L2
            assert np.max(np.abs(W - W_direct)) < 1e-9

    def test_identity_minus_gain_is_m_matrix(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            topo = random_reachable_topology(rng)
            part = partition(topo)
            gain = part.A1 / np.diag(part.D1)[:, None]
            assert is_nonsingular_m_matrix(np.eye(topo.m) - gain)


class TestCommStaleness:
    def test_bulk_staleness_bound(self):
        # On 1000 random schedules, once the first guaranteed delivery has
        # happened the freshest delivered sample is never older than
        # T_star + T (grid-quantization slack of one period).
        count = 0
        for seed in range(125):
            for edge in ((0, 1), (2, 5), (7, 3), (9, 9 + seed % 2 + 1),
                         (1, 0), (5, 2), (3, 7), (4, 8)):
                cfg = CommConfig(T=0.1, T_star=1.0,
                                 drop_prob=0.55, delay_max=0.4, seed=seed)
                sched = generate_schedule(edge, cfg, 15.0, 0.01)
                send, delay = sched.seconds()
                ok = sched.delivered
                deliveries = sorted(zip((send + delay)[ok], send[ok]))
                assert deliveries
                for t in np.arange(cfg.T_star, 15.0, 0.37):
                    latest = max((s for a, s in deliveries if a <= t),
                                 default=None)
                    assert latest is not None
                    assert t - latest <= cfg.T_star + cfg.T + 1e-9
                count += 1
        assert count == 1000

    def test_used_sequence_nondecreasing(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 4.0
        trace = sim.run(seeded(config.build_scenario(doc), 6))
        assert np.all(np.diff(trace.used_seq, axis=0) >= 0)


class TestLeaderConvergence:
    def test_velocity_converges_after_transient(self):
        # The oscillatory envelope decays like e^{-0.2 t}; past 48 s every
        # leader velocity is within 1e-3 of the common limit.
        v_d = np.array([1.0, 0.1])
        traj = LeaderTrajectory("damped_oscillatory", v_d, [7, 8, 9, 10])
        dev = np.linalg.norm(traj.velocity(np.arange(48.0, 80.0, 0.5)) - v_d,
                             axis=-1)
        assert dev.shape == (64, 4) and dev.max() < 1e-3


class TestModelLinearity:
    def test_rhs_linear_in_input(self):
        rng = np.random.default_rng(2)
        models = [AgentModel(kind="double_integrator"),
                  AgentModel(kind="nonlinear", drift="square_velocity"),
                  AgentModel(kind="oscillator", S1=-np.eye(2),
                             S2=np.zeros((2, 2)))]
        for model in models:
            p = rng.normal(size=2)
            v = rng.normal(size=2)
            u1 = rng.normal(size=2)
            u2 = rng.normal(size=2)
            _, dv0 = follower_rhs(model, p, v, np.zeros(2))
            _, dv1 = follower_rhs(model, p, v, u1)
            _, dv2 = follower_rhs(model, p, v, u2)
            _, dv12 = follower_rhs(model, p, v, 2.0 * u1 - 3.0 * u2)
            assert np.allclose(dv12 - dv0,
                               2.0 * (dv1 - dv0) - 3.0 * (dv2 - dv0),
                               atol=1e-12)

    def test_harmonic_energy_constant_per_pair(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        x = np.array([1.5, -0.5, 2.0, 1.0])   # (p1, p2, v1, v2)
        for t in np.linspace(0.0, 12.0, 25):
            y = flow(t) @ x
            assert y[0] ** 2 + y[2] ** 2 == pytest.approx(
                x[0] ** 2 + x[2] ** 2, abs=1e-10)
            assert y[1] ** 2 + y[3] ** 2 == pytest.approx(
                x[1] ** 2 + x[3] ** 2, abs=1e-10)


def _view(p_msg, vhat_msg):
    # Sent at 0.1, 0.2 and 0 s: seqs 1, 2 and 0 of T = 0.1 s, dt = 0.01 s.
    dst = np.array([0, 0, 1])
    w = np.array([1.0, 2.0, 1.5])
    return NeighborView(2, 2, dst, w, np.concatenate([p_msg, vhat_msg], 1),
                        np.array([1, 2, 0]), 0.1, 10, np.zeros((2, 2)))


class TestControllerStructure:
    def test_linear_variants_superpose_in_payloads(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        cases = [
            ("full_state", make_controller(
                "full_state", GainSet(m=2, k_p=4.0, k_d=4.0), 2),
             {"vhat": rng.normal(size=(2, 2))}),
            ("oscillator_full", make_controller(
                "oscillator_full", GainSet(m=2, k_p=4.0, k_d=4.0), 2,
                model=AgentModel(kind="oscillator", S1=-np.eye(2),
                                 S2=np.zeros((2, 2)))),
             {"vhat": rng.normal(size=(2, 2)),
              "sigma": rng.normal(size=(2, 2))}),
        ]
        for name, ctrl, internals in cases:
            if name == "oscillator_full":   # tick 70's half ticks 140-142
                ctrl.flow.tabulate(np.array([120, 100, 140])
                                   + np.arange(3)[:, None], 0.01)
            x = np.stack([internals[key] for key in ctrl.names])
            A = (rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
            B = (rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
            Z = (np.zeros((3, 2)), np.zeros((3, 2)))
            AB = (A[0] + B[0], A[1] + B[1])
            y = np.concatenate([p, v, x.reshape(-1, 2)])
            outs = {key: stage(ctrl, _view(*msgs), 0.7, 140, y)[1]
                    for key, msgs in (("A", A), ("B", B), ("0", Z),
                                      ("AB", AB))}
            lhs = outs["AB"] + outs["0"]
            rhs = outs["A"] + outs["B"]
            assert np.allclose(lhs, rhs, atol=1e-10), name

    def test_output_feedback_ignores_velocity(self):
        rng = np.random.default_rng(4)
        ctrl = make_controller("output_feedback",
                               GainSet(m=2, k_p=4.0, k_d=4.0), 2,
                               psi_mode="dynamic")
        p = rng.normal(size=(2, 2))
        internals = {"vhat": rng.normal(size=(2, 2)),
                     "psi": rng.normal(size=(2, 2)),
                     "phi": rng.normal(size=(2, 2))}
        view = _view(rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))
        x = np.stack([internals[key] for key in ctrl.names]).reshape(-1, 2)
        dy1, gamma1 = stage(ctrl, view, 0.3, 60, np.concatenate(
            [p, rng.normal(size=(2, 2)), x]))
        dy2, gamma2 = stage(ctrl, view, 0.3, 60, np.concatenate(
            [p, rng.normal(size=(2, 2)), x]))
        assert np.array_equal(gamma1, gamma2)
        assert np.array_equal(dy1[4:], dy2[4:])


class TestClosedLoopShape:
    def test_monotone_decay_with_perfect_comm(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["comm"]["drop_prob"] = 0.0
        doc["comm"]["delay_max_seconds"] = 0.0
        doc["sim"]["t_end_seconds"] = 20.0
        # constant-velocity leaders keep the target combination steady up to
        # the common drift, isolating the controller transient
        doc["agents"]["leaders"] = {"kind": "constant_velocity",
                                    "v_d": [1.0, 0.1]}
        trace = sim.run(config.build_scenario(doc))
        err = trace.err_pos_norm
        tail = err[trace.index_of(5.0):]
        assert np.all(np.diff(tail) <= 1e-9)

    def test_audit_log_covers_used_payloads(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 3.0
        trace = sim.run(seeded(config.build_scenario(doc), 8))
        logged = {}
        for src, dst, seq, send, arrival in trace.audit:
            key = ((src, dst), seq)
            tick = trace.index_of(arrival)
            logged[key] = min(tick, logged.get(key, tick))
        for k in range(len(trace.times)):
            for e_idx, edge in enumerate(trace.edges):
                seq = trace.used_seq[k, e_idx]
                if seq < 0:
                    continue
                assert (edge, seq) in logged
                assert logged[(edge, seq)] <= k

    def test_followers_end_near_hull(self):
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 20.0
        trace = sim.run(config.build_scenario(doc))
        assert np.max(trace.hull_dist[-1]) < 0.1
