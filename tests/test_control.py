import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from containsim.control import (
    GainError,
    GainSet,
    NeighborView,
    check_gains,
    make_controller,
    vartheta,
)
from containsim.dynamics import AgentModel, OscillatorFlow


def simple_view(m=2, N=2, t=0.0):
    """Two followers; follower 0 has two delivered edges, follower 1 none."""
    dst = np.array([0, 0])
    w = np.array([1.0, 3.0])
    p_msg = np.array([[1.0, 0.0], [5.0, 4.0]])
    vhat_msg = np.array([[1.0, 1.0], [-1.0, 0.0]])
    send_time = np.array([0.0, 0.0])
    p_fallback = np.array([[9.0, 9.0], [7.0, 7.0]])
    return NeighborView(m, N, dst, w, p_msg, vhat_msg, send_time, p_fallback,
                        dt=0.01)


def psi_oracle(view, t, flow, vhat_own):
    """oscillator_psi as a loop over edges, one flow(lag) @ x each."""
    num = np.zeros((view.m, 2 * view.N))
    for e in range(view.dst.shape[0]):
        x = np.concatenate([view.p_msg[e], view.vhat_msg[e]])
        num[view.dst[e]] += view.w[e] * (flow(t - view.send_time[e]) @ x)
    out = np.concatenate([view.p_fallback, vhat_own], axis=1)
    out[view.live] = num[view.live] / view.kappa_delivered[view.live, None]
    return out


def oscillator_flows(rng, N):
    """Two flows of one random oscillator: batched and oracle side.

    S1 negative definite and S2 skew keep p'(-S1)p + v'v constant, so the
    flows stay bounded over long lags.
    """
    B, C = rng.normal(size=(N, N)), rng.normal(size=(N, N))
    S1, S2 = -(B @ B.T + np.eye(N)), C - C.T
    return OscillatorFlow(S1, S2), OscillatorFlow(S1, S2)


def random_view(rng, m, N, E, dt, spT, k, lag_max=None):
    """Messages sent at seq * spT ticks of dt, none after tick k."""
    top = k // spT if lag_max is None else lag_max
    seq = k // spT - rng.integers(0, top + 1, size=E)
    return NeighborView(m, N, rng.integers(0, m, size=E),
                        rng.uniform(0.1, 3.0, size=E),
                        rng.normal(size=(E, N)), rng.normal(size=(E, N)),
                        np.maximum(seq, 0) * (spT * dt),
                        rng.normal(size=(m, N)), dt)


class TestGains:
    def test_broadcast_and_vector(self):
        g = GainSet(m=3, k_p=4.0, k_d=[4.0, 5.0, 6.0])
        assert np.array_equal(g.k_p, [4.0, 4.0, 4.0])
        assert np.array_equal(g.k_d, [4.0, 5.0, 6.0])
        with pytest.raises(GainError):
            GainSet(m=3, k_p=[1.0, 2.0])

    def test_lambda_is_larger_real_root(self):
        g = GainSet(m=1, k_p=4.0, k_d=5.0)
        lam = g.lam_derived()[0]
        # x^2 + 5x + 4 has roots -1, -4; the faster pole magnitude is 4
        assert lam == pytest.approx(4.0)
        assert lam ** 2 - g.k_d[0] * lam + g.k_p[0] == pytest.approx(0.0)

    def test_lambda_requires_real_roots(self):
        g = GainSet(m=1, k_p=4.0, k_d=1.0)
        with pytest.raises(GainError):
            g.lam_derived()

    def test_check_gains_positivity(self):
        for bad in (-1.0, np.nan):          # nan <= 0 is False
            g = GainSet(m=2, k_p=[4.0, bad], k_d=4.0)
            ok, problems = check_gains("full_state", g)
            assert not ok and any("k_p" in p for p in problems)

    def test_check_gains_discriminant(self):
        g = GainSet(m=1, k_p=4.0, k_d=1.0)
        ok, problems = check_gains("full_state", g)
        assert not ok and any("real-roots" in p for p in problems)
        ok, _ = check_gains("nonlinear_vs", g)   # explicit lam allowed instead
        assert ok

    def test_oscillator_output_needs_stable_filter(self):
        g = GainSet(m=1, k_p=4.0, k_d=4.0, k_phi=0.5)
        S2 = np.diag([1.0, 1.0])
        ok, problems = check_gains("oscillator_output", g, S2=S2)
        assert not ok and any("unstable" in p for p in problems)
        ok, _ = check_gains("oscillator_output", g, S2=-np.eye(2))
        assert ok


class TestNeighborView:
    def test_weighted_average_oracle(self):
        view = simple_view()
        # hand computation: weights 1 and 3 over kappa 4
        theta = view.vartheta_avg(t=2.0)
        expected0 = (1 * (np.array([1.0, 0.0]) + 2 * np.array([1.0, 1.0]))
                     + 3 * (np.array([5.0, 4.0]) + 2 * np.array([-1.0, 0.0]))
                     ) / 4
        assert np.allclose(theta[0], expected0)
        # warm-up fallback for follower 1
        assert np.allclose(theta[1], [7.0, 7.0])

    def test_vhat_average_fallback(self):
        view = simple_view()
        own = np.array([[0.5, 0.5], [2.0, -2.0]])
        avg = view.vhat_avg(own)
        assert np.allclose(avg[0], (1 * np.array([1.0, 1.0])
                                    + 3 * np.array([-1.0, 0.0])) / 4)
        assert np.allclose(avg[1], [2.0, -2.0])

    def test_vartheta_extrapolation(self):
        p = np.array([1.0, 2.0])
        v = np.array([0.5, -1.0])
        assert np.allclose(vartheta(p, v, 3.0, 5.5), p + 2.5 * v)

    def test_oscillator_psi_matches_manual_flow(self):
        view = simple_view()
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        own = np.array([[0.0, 0.0], [1.0, 1.0]])
        psi = view.oscillator_psi(1.3, flow, own)
        M = flow(1.3)
        x1 = M @ np.array([1.0, 0.0, 1.0, 1.0])
        x2 = M @ np.array([5.0, 4.0, -1.0, 0.0])
        assert np.allclose(psi[0], (1 * x1 + 3 * x2) / 4)
        assert np.allclose(psi[1], [7.0, 7.0, 1.0, 1.0])


class TestBatchedPsi:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 40), st.sampled_from([0.01, 0.005, 0.02, 0.001]),
           st.integers(1, 20), st.integers(0, 3000), st.integers(0, 2))
    def test_matches_per_edge_oracle(self, seed, m, N, E, dt, spT, k, half):
        rng = np.random.default_rng(seed)
        view = random_view(rng, m, N, E, dt, spT, k)
        flow, oracle_flow = oscillator_flows(rng, N)
        own = rng.normal(size=(m, N))
        t = k * dt + half * dt / 2          # the three RK4 stage times
        assert np.array_equal(view.oscillator_psi(t, flow, own),
                              psi_oracle(view, t, oracle_flow, own))

    def test_cases(self):
        rng = np.random.default_rng(5)
        flow, oracle_flow = oscillator_flows(rng, 2)
        own = rng.normal(size=(4, 2))
        dt, spT = 0.01, 10
        cases = [
            (random_view(rng, 4, 2, 0, dt, spT, 50), 0.5),     # nothing live
            (random_view(rng, 4, 2, 30, dt, spT, 50, 0), 0.5),  # one lag
            (random_view(rng, 4, 2, 30, dt, spT, 50, 0), 0.505),  # half step
            (random_view(rng, 4, 2, 12, dt, spT, 40, 4), 0.4),
            (random_view(rng, 4, 2, 12, dt, spT, 900), 9.005),  # table grows
            (random_view(rng, 4, 2, 12, dt, spT, 30), 0.31),
        ]
        for view, t in cases:
            assert np.array_equal(view.oscillator_psi(t, flow, own),
                                  psi_oracle(view, t, oracle_flow, own))
        assert np.array_equal(cases[0][0].oscillator_psi(0.5, flow, own),
                              np.concatenate([cases[0][0].p_fallback, own],
                                             axis=1))

    def test_flow_table_rows_are_the_cached_matrices(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        for dt in (0.01, 0.003, 0.01):          # a new dt restarts the table
            j = np.array([7, 0, 7, 130, 2])
            F = flow.at_half_steps(j, dt)
            for jj, mat in zip(j, F):
                assert np.array_equal(mat, flow(jj * dt / 2))

    def test_lag_off_the_half_step_grid_raises(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        view = simple_view()                        # sent at 0.0, dt = 0.01
        own = np.zeros((2, 2))
        with pytest.raises(ValueError):
            view.oscillator_psi(0.0123, flow, own)
        with pytest.raises(ValueError):
            view.oscillator_psi(-0.01, flow, own)   # sent after t


class TestControllers:
    def test_full_state_equilibrium(self):
        # If v = vhat equals the message velocity and p sits exactly on the
        # extrapolated average, the input is zero.
        g = GainSet(m=2, k_p=4.0, k_d=4.0, L_p=4.0)
        ctrl = make_controller("full_state", g, 2)
        view = simple_view()
        t = 1.0
        theta = view.vartheta_avg(t)
        vbar = view.vhat_avg(np.zeros((2, 2)))
        internals = {"vhat": view.vhat_avg(np.zeros((2, 2)))}
        out = ctrl.deriv(t, theta, vbar, internals, view)
        assert np.allclose(out.gamma, 0.0, atol=1e-12)
        assert np.allclose(out.d_internals["vhat"], 0.0, atol=1e-12)

    def test_full_state_dynamic_psi_filter(self):
        g = GainSet(m=2, k_p=4.0, k_d=4.0, k_psi=2.0)
        ctrl = make_controller("full_state", g, 2, psi_mode="dynamic")
        view = simple_view()
        p0 = np.zeros((2, 2))
        internals = ctrl.init_internals(p0, p0, {})
        assert np.allclose(internals["psi"], p0)
        out = ctrl.deriv(0.0, p0, p0, internals, view)
        theta = view.vartheta_avg(0.0)
        assert np.allclose(out.d_internals["psi"], -2.0 * (p0 - theta))

    def test_output_feedback_filter_identity(self):
        # d(phi + p)/dt = -(phi + p) + gamma + v, so phi + p - v obeys a pure
        # exponential decay whenever dv = gamma.
        g = GainSet(m=2, k_p=4.0, k_d=4.0)
        ctrl = make_controller("output_feedback", g, 2, psi_mode="dynamic")
        view = simple_view()
        rng = np.random.default_rng(5)
        p = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        internals = ctrl.init_internals(p, v, {"phi": rng.normal(size=(2, 2))})
        out = ctrl.deriv(0.5, p, v, internals, view)
        phi_tilde = internals["phi"] + p - v
        d_phi_tilde = out.d_internals["phi"] + v - out.gamma
        assert np.allclose(d_phi_tilde, -phi_tilde, atol=1e-12)

    def test_known_vd_transmits_limit_velocity(self):
        g = GainSet(m=2, k_p=4.0, k_d=4.0)
        v_d = np.array([1.0, 0.1])
        ctrl = make_controller("known_vd", g, 2, v_d=v_d)
        internals = ctrl.init_internals(np.zeros((2, 2)), np.zeros((2, 2)), {})
        assert np.allclose(ctrl.transmitted_vhat(internals, 0), v_d)
        assert np.allclose(ctrl.transmitted_vhat(internals, 1), v_d)

    def test_switching_term_boundary_layer(self):
        g = GainSet(m=1, k_p=2.0, k_d=2.0, lam=2.0, boundary_layer_eps=0.1)
        model = AgentModel(kind="nonlinear", drift="square_velocity")
        ctrl = make_controller("nonlinear_vs", g, 2, model=model)
        v = np.array([[2.0, 0.0]])    # bound = |v|^2 = 4
        p = np.zeros((1, 2))
        # far outside the layer: unit direction scaled by the bound
        e = np.array([[3.0, 4.0]])
        term = ctrl.switching_term(e, p, v)
        assert np.allclose(term, 4.0 * e / 5.0)
        # inside the layer: linear ramp bound * e / eps
        e = np.array([[0.01, 0.0]])
        term = ctrl.switching_term(e, p, v)
        assert np.allclose(term, [[0.4, 0.0]])

    def test_nonlinear_input_cancels_drift_outside_layer(self):
        # ed/dt(|e|^2)/2 = e.(-k_r e + f - switching) must be <= -k_r |e|^2
        g = GainSet(m=1, k_p=2.0, k_d=2.0, L_p=2.0, L_d=2.0, k_r=1.0, lam=2.0)
        model = AgentModel(kind="nonlinear", drift="square_velocity")
        ctrl = make_controller("nonlinear_vs", g, 2, model=model)
        rng = np.random.default_rng(11)
        fns = model.drift_fns
        for _ in range(100):
            v = rng.normal(scale=2.0, size=(1, 2))
            e = rng.normal(scale=1.0, size=(1, 2))
            if np.linalg.norm(e) <= g.boundary_layer_eps:
                continue
            f = fns["f"](np.zeros((1, 2)), v)
            term = ctrl.switching_term(e, np.zeros((1, 2)), v)
            power = float(np.sum(e * (-1.0 * e + f - term)))
            assert power <= -np.sum(e * e) + 1e-12

    def test_oscillator_output_constructor_validates(self):
        g = GainSet(m=1, k_p=4.0, k_d=4.0, k_phi=1.0)
        model = AgentModel(kind="oscillator", S1=-np.eye(2),
                           S2=np.diag([2.0, 2.0]))
        with pytest.raises(GainError):
            make_controller("oscillator_output", g, 2, model=model)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_controller("pid", GainSet(m=1), 2)

    def test_internal_override_shape_checked(self):
        g = GainSet(m=2, k_p=4.0, k_d=4.0)
        ctrl = make_controller("full_state", g, 2)
        with pytest.raises(ValueError):
            ctrl.init_internals(np.zeros((2, 2)), np.zeros((2, 2)),
                                {"bogus": np.zeros((2, 2))})
