import numpy as np
import pytest
from scipy.integrate import quad

from containsim import config
from containsim.dynamics import (
    AgentModel,
    DRIFT_REGISTRY,
    LeaderTrajectory,
    OscillatorFlow,
    check_oscillator_spectrum,
    leader_accels,
    plant,
)
from containsim.engine import stage_times
from conftest import follower_rhs, load_scenario_doc


def damped_osc(i, v_d):
    return LeaderTrajectory(kind="damped_oscillatory", v_d=v_d, index=i)


def leader_position_damped_osc(i: int, t: float, p0: np.ndarray,
                               v_d: np.ndarray) -> np.ndarray:
    """Closed-form position of damped_oscillatory leader i (oracle)."""
    p0 = np.asarray(p0, float)
    v_d = np.asarray(v_d, float)
    drift = np.ones(p0.shape[0]) * ((-1.0) ** i) * i * \
        np.sin(t) * np.exp(-0.2 * t)
    return p0 + v_d * t + drift


class TestLeaderTrajectories:
    def test_batched_accel_equals_stacked_per_leader_accel(self):
        v_d = np.array([1.0, 0.1])
        kinds = ("damped_oscillatory", "constant_velocity", "stationary",
                 "oscillator_free")
        groups = [[LeaderTrajectory(kind=k, v_d=v_d, index=i)
                   for i in range(1, 5)] for k in kinds]
        groups.append([LeaderTrajectory(kind=kinds[i % 4], v_d=v_d, index=i)
                       for i in range(11)])          # mixed, index 0 too
        groups.append([damped_osc(3, np.zeros(3)),
                       LeaderTrajectory(kind="stationary", v_d=np.zeros(3))])
        for trajs in groups:
            for t in (0.0, 0.37, 1.0, 2.7, 4.0, 10.0, 33.3):
                stacked = np.array([tr.accel(t) for tr in trajs])
                batched = leader_accels(trajs, t)
                assert np.array_equal(batched, stacked)
                assert np.array_equal(np.signbit(batched),
                                      np.signbit(stacked))
        # The array form at every time sim.run reads, one row per time.
        scen = config.build_scenario(load_scenario_doc("benchmark_fullstate"))
        times = stage_times(int(round(scen.t_end / scen.dt)), scen.dt)
        trajs = scen.leader_trajs
        stacked = np.array([[tr.accel(t) for tr in trajs]
                            for t in times.tolist()])
        table = leader_accels(trajs, times)
        assert table.shape == stacked.shape
        assert np.array_equal(table, stacked)
        assert np.array_equal(np.signbit(table), np.signbit(stacked))

    def test_accel_matches_velocity_derivative(self):
        # central finite difference of the closed-form velocity
        v_d = np.array([1.0, 0.1])
        h = 1e-6
        for i in (7, 8, 9, 10):
            for t in (0.0, 1.0, 2.7, 10.0):
                num = (damped_osc(i, v_d).velocity(t + h)
                       - damped_osc(i, v_d).velocity(t - h)) / (2 * h)
                ana = damped_osc(i, v_d).accel(t)
                assert np.allclose(num, ana, atol=1e-6)

    def test_velocity_matches_position_derivative(self):
        v_d = np.array([1.0, 0.1])
        p0 = np.array([2.0, -3.0])
        h = 1e-6
        for i in (7, 10):
            for t in (0.5, 4.0):
                num = (leader_position_damped_osc(i, t + h, p0, v_d)
                       - leader_position_damped_osc(i, t - h, p0, v_d)) / (2 * h)
                ana = damped_osc(i, v_d).velocity(t)
                assert np.allclose(num, ana, atol=1e-6)

    def test_position_matches_velocity_integral(self):
        v_d = np.array([1.0, 0.1])
        p0 = np.zeros(2)
        i, t = 9, 6.0
        integral = np.array([
            quad(lambda s: damped_osc(i, v_d).velocity(s)[d], 0, t,
                 limit=200)[0]
            for d in range(2)])
        assert np.allclose(leader_position_damped_osc(i, t, p0, v_d) - p0,
                           integral, atol=1e-8)

    def test_initial_velocity_offsets(self):
        # envelope equals 1 at t = 0, so v_i(0) = v_d + (-1)^i * i * ones
        v_d = np.array([1.0, 0.1])
        traj = LeaderTrajectory(kind="damped_oscillatory", v_d=v_d, index=7)
        assert np.allclose(traj.initial_velocity(), v_d - 7.0)
        traj = LeaderTrajectory(kind="damped_oscillatory", v_d=v_d, index=8)
        assert np.allclose(traj.initial_velocity(), v_d + 8.0)

    def test_velocity_converges_to_limit(self):
        v_d = np.array([1.0, 0.1])
        for i in (7, 8, 9, 10):
            assert np.allclose(damped_osc(i, v_d).velocity(80.0), v_d,
                               atol=1e-5)

    def test_constant_and_stationary(self):
        v_d = np.array([2.0, -1.0])
        cv = LeaderTrajectory(kind="constant_velocity", v_d=v_d)
        assert np.allclose(cv.velocity(3.0), v_d)
        assert np.allclose(cv.accel(3.0), 0.0)
        st = LeaderTrajectory(kind="stationary", v_d=v_d)
        assert np.allclose(st.velocity(3.0), 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LeaderTrajectory(kind="warp_drive")


class TestModels:
    def test_double_integrator_rhs(self):
        # One follower, (p, v) = ([1, 2], [0.5, -0.5]), and one leader.
        model = AgentModel(kind="double_integrator")
        pv = np.array([[[1.0, 2.0], [0.0, 0.0]], [[0.5, -0.5], [1.0, 1.0]]])
        u, lead = np.array([[3.0, 4.0]]), np.array([[0.0, -1.0]])
        dv, dv_lead = plant(model, 1)(pv, u, lead)
        assert np.array_equal(dv, u) and np.array_equal(dv_lead, lead)

    def test_nonlinear_rhs_adds_drift(self):
        model = AgentModel(kind="nonlinear", drift="square_velocity")
        pv = np.array([[[0.0, 0.0]], [[2.0, -3.0]]])
        dv, _ = plant(model, 1)(pv, np.zeros((1, 2)), np.zeros((0, 2)))
        assert np.allclose(dv, [[4.0, 9.0]])

    @pytest.mark.parametrize("kind", ["double_integrator", "nonlinear",
                                      "oscillator"])
    @pytest.mark.parametrize("m", [1, 2, 6])
    @pytest.mark.parametrize("leaders", [1, 4])
    def test_plant_equals_follower_rhs(self, kind, m, leaders):
        # The per-run plant against the per-call oracle, to the bit: the
        # followers' rows, and the leaders' given accelerations, or for the
        # oscillator their free oscillation.
        rng = np.random.default_rng([m, leaders])
        n = m + leaders
        for N in (1, 2, 3):
            B, C = rng.normal(size=(N, N)), rng.normal(size=(N, N))
            model = AgentModel(kind=kind, N=N, drift="square_velocity",
                               S1=-(B @ B.T + np.eye(N)), S2=C - C.T)
            accel = plant(model, m)
            for _ in range(20):
                pv = rng.normal(size=(2 * n, N))
                gamma = rng.normal(size=(m, N))
                lead = rng.normal(size=(leaders, N))
                dv_f, dv_l = accel(pv.reshape(2, n, N), gamma, lead)
                p, v = pv[:n], pv[n:]
                assert np.array_equal(
                    dv_f, follower_rhs(model, p[:m], v[:m], gamma)[1])
                assert np.array_equal(
                    dv_l, p[m:] @ model.S1.T + v[m:] @ model.S2.T
                    if kind == "oscillator" else lead)

    def test_drift_bound_dominates(self):
        fns = DRIFT_REGISTRY["square_velocity"]
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=2)
            f = fns["f"](np.zeros(2), v)
            bound = fns["delta_p"](0.0) + fns["delta_v"](np.linalg.norm(v))
            assert np.linalg.norm(f) <= bound + 1e-12

    def test_unknown_kind_and_drift(self):
        with pytest.raises(ValueError):
            AgentModel(kind="unicycle")
        with pytest.raises(ValueError):
            AgentModel(kind="nonlinear", drift="mystery")


class TestOscillator:
    def test_harmonic_spectrum_accepted(self):
        assert check_oscillator_spectrum(-np.eye(2), np.zeros((2, 2)))

    def test_damped_spectrum_rejected(self):
        assert not check_oscillator_spectrum(-np.eye(2), -0.5 * np.eye(2))

    def test_defective_spectrum_rejected(self):
        # S1 = 0, S2 = 0: stacked matrix is a nilpotent Jordan structure with
        # eigenvalue 0 of algebraic multiplicity 4 but geometric 2.
        assert not check_oscillator_spectrum(np.zeros((2, 2)),
                                             np.zeros((2, 2)))

    def test_flow_matches_rotation(self):
        # S1 = -I, S2 = 0 generates a rotation: e^{S pi/2} maps (p, v) to
        # (v, -p).
        R = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))(np.pi / 2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(R @ x, [3.0, 4.0, -1.0, -2.0], atol=1e-12)

    def test_flow_cache_consistent(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        assert np.allclose(flow(0.3) @ flow(0.2), flow(0.5), atol=1e-12)

    def test_free_motion_energy_conserved(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        x = np.array([1.0, -1.0, 0.5, 2.0])
        for t in (0.1, 1.0, 10.0):
            y = flow(t) @ x
            assert np.isclose(y @ y, x @ x, atol=1e-10)
