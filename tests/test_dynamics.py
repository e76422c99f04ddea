import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import containsim
from containsim import config
from containsim.dynamics import (
    AgentModel,
    DRIFT_REGISTRY,
    LeaderTrajectory,
    OscillatorFlow,
    check_oscillator_spectrum,
)
from containsim.engine import stage_times
from conftest import load_scenario_doc

KINDS = ("damped_oscillatory", "constant_velocity", "stationary")
SRC = os.path.dirname(os.path.dirname(containsim.__file__))


def damped_osc(index, v_d):
    return LeaderTrajectory("damped_oscillatory", v_d, index)


def leader_accel_oracle(kind: str, v_d: np.ndarray, i: int,
                        t: float) -> np.ndarray:
    """One leader's acceleration at one time, agent index i (oracle): the
    derivative of the damped envelope times (-1)^i i on every axis."""
    if kind != "damped_oscillatory":
        return np.zeros(len(v_d))
    return np.ones(len(v_d)) * ((-1.0) ** i) * i * \
        ((-0.96 * np.sin(t) - 0.4 * np.cos(t)) * np.exp(-0.2 * t))


def leader_velocity_oracle(kind: str, v_d: np.ndarray, i: int,
                           t: float) -> np.ndarray:
    """One leader's velocity at one time, agent index i (oracle)."""
    if kind == "damped_oscillatory":
        return v_d + np.ones(len(v_d)) * ((-1.0) ** i) * i * \
            ((np.cos(t) - 0.2 * np.sin(t)) * np.exp(-0.2 * t))
    return v_d.copy() if kind == "constant_velocity" else np.zeros(len(v_d))


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def leader_position_damped_osc(i: int, t: float, p0: np.ndarray,
                               v_d: np.ndarray) -> np.ndarray:
    """Closed-form position of damped_oscillatory leader i (oracle)."""
    p0 = np.asarray(p0, float)
    v_d = np.asarray(v_d, float)
    drift = np.ones(p0.shape[0]) * ((-1.0) ** i) * i * \
        np.sin(t) * np.exp(-0.2 * t)
    return p0 + v_d * t + drift


class TestLeaderTrajectories:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("v_d, index", [
        ([1.0, 0.1], [1, 2, 3, 4]),
        ([-0.0, 0.1], range(11)),               # index 0 and a -0.0 too
        ([0.0, -2.5, 0.0], [3]),
    ], ids=["four", "eleven_signed_zero", "one_in_3d"])
    def test_blocks_equal_the_per_leader_oracle(self, kind, v_d, index):
        v_d, index = np.array(v_d), list(index)
        traj = LeaderTrajectory(kind, v_d, index)
        times = (0.0, 0.37, 1.0, 2.7, 4.0, 10.0, 33.3)
        for method, oracle in (("accel", leader_accel_oracle),
                               ("velocity", leader_velocity_oracle)):
            want = np.array([[oracle(kind, v_d, i, t) for i in index]
                             for t in times])
            for row, t in enumerate(times):
                assert_bits_equal(getattr(traj, method)(t), want[row])
            assert_bits_equal(getattr(traj, method)(np.array(times)), want)

    def test_batched_accel_equals_stacked_per_leader_accel(self):
        # The accel table sim.run reads, every leader at every stage time,
        # against the per-leader oracle stacked.
        scen = config.build_scenario(load_scenario_doc("benchmark_fullstate"))
        times = stage_times(int(round(scen.t_end / scen.dt)), scen.dt)
        lead = scen.leaders
        assert lead.index.tolist() == [7, 8, 9, 10]
        want = np.array([[leader_accel_oracle(lead.kind, lead.v_d, i, t)
                          for i in lead.index.tolist()]
                         for t in times.ravel().tolist()])
        assert_bits_equal(lead.accel(times), want.reshape(times.shape
                                                          + want.shape[1:]))

    def test_accel_matches_velocity_derivative(self):
        # central finite difference of the closed-form velocity
        traj = damped_osc([7, 8, 9, 10], np.array([1.0, 0.1]))
        h, t = 1e-6, np.array([0.0, 1.0, 2.7, 10.0])
        num = (traj.velocity(t + h) - traj.velocity(t - h)) / (2 * h)
        assert np.allclose(num, traj.accel(t), atol=1e-6)

    def test_velocity_matches_position_derivative(self):
        v_d = np.array([1.0, 0.1])
        p0 = np.array([2.0, -3.0])
        h = 1e-6
        traj = damped_osc([7, 10], v_d)
        for row, i in enumerate((7, 10)):
            for t in (0.5, 4.0):
                num = (leader_position_damped_osc(i, t + h, p0, v_d)
                       - leader_position_damped_osc(i, t - h, p0, v_d)) / (2 * h)
                assert np.allclose(num, traj.velocity(t)[row], atol=1e-6)

    def test_position_matches_velocity_integral(self):
        v_d = np.array([1.0, 0.1])
        p0 = np.zeros(2)
        i, t = 9, 6.0
        integral = np.array([
            quad(lambda s: damped_osc([i], v_d).velocity(s)[0, d], 0, t,
                 limit=200)[0]
            for d in range(2)])
        assert np.allclose(leader_position_damped_osc(i, t, p0, v_d) - p0,
                           integral, atol=1e-8)

    def test_initial_velocity_offsets(self):
        # envelope equals 1 at t = 0, so v_i(0) = v_d + (-1)^i * i * ones
        v_d = np.array([1.0, 0.1])
        assert np.allclose(damped_osc([7, 8], v_d).velocity(0.0),
                           [v_d - 7.0, v_d + 8.0])

    def test_velocity_converges_to_limit(self):
        v_d = np.array([1.0, 0.1])
        assert np.allclose(damped_osc([7, 8, 9, 10], v_d).velocity(80.0), v_d,
                           atol=1e-5)

    def test_constant_and_stationary(self):
        v_d = np.array([2.0, -1.0])
        cv = LeaderTrajectory("constant_velocity", v_d, [3, 4])
        assert np.array_equal(cv.velocity(3.0), [v_d, v_d])
        assert np.array_equal(cv.accel([3.0, 4.0]), np.zeros((2, 2, 2)))
        st = LeaderTrajectory("stationary", v_d, [3, 4])
        assert np.array_equal(st.velocity(3.0), np.zeros((2, 2)))

    def test_unknown_kind_rejected(self):
        # oscillator_free is a config leaders kind that builds no trajectory.
        for kind in ("warp_drive", "oscillator_free"):
            with pytest.raises(ValueError, match="unknown leader trajectory"):
                LeaderTrajectory(kind, np.zeros(2), [1])


class TestModels:
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

    def test_scipy_loads_only_with_the_flow(self):
        # Importing the package and building a scenario that has no
        # oscillator do not import SciPy; dynamics.expm does, at its call.
        code = (f"import sys; sys.path.insert(0, {SRC!r})\n"
                "import containsim\n"
                "from containsim import config\n"
                "config.build_scenario(config.load_bundled("
                "'benchmark_fullstate')).validate()\n"
                "assert 'scipy' not in sys.modules, 'scipy imported'\n"
                "import numpy\n"
                "containsim.dynamics.expm(numpy.zeros((2, 2)))\n"
                "assert 'scipy' in sys.modules\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_free_motion_energy_conserved(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        x = np.array([1.0, -1.0, 0.5, 2.0])
        for t in (0.1, 1.0, 10.0):
            y = flow(t) @ x
            assert np.isclose(y @ y, x @ x, atol=1e-10)
