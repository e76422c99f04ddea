import dataclasses
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from containsim.control import (
    GainError,
    GainSet,
    NeighborView,
    OscillatorLaw,
    check_gains,
    make_controller,
    vartheta,
)
from containsim import config, sim
from containsim.comm import CommConfig, generate_schedule
from containsim.dynamics import AgentModel, OscillatorFlow
from containsim.engine import Engine, stage_times
from conftest import bench_topology, load_scenario_doc, rk4, \
    to_ticks_oracle
from law_oracle import closed_loop_oracle, law_oracle, psi_oracle, stage, \
    vhat_avg_oracle


# The six controller classes the three laws replaced, kept verbatim as the
# reference the laws are checked against.

@dataclass
class ControllerOutput:
    gamma: np.ndarray                       # (m, N)
    d_internals: dict[str, np.ndarray]
    aux: dict[str, np.ndarray] = field(default_factory=dict)


class ControllerBase:
    variant: str = ""
    internal_names: tuple[str, ...] = ()

    def __init__(self, gains: GainSet, N: int):
        self.gains = gains
        self.N = N

    def init_internals(self, p0: np.ndarray, v0: np.ndarray,
                       overrides: dict | None = None) -> dict[str, np.ndarray]:
        out = self._default_internals(p0, v0)
        for name, value in (overrides or {}).items():
            if name not in out:
                raise ValueError(f"{self.variant} has no internal {name!r}")
            out[name] = np.array(value, dtype=float).reshape(out[name].shape)
        return out

    def _default_internals(self, p0, v0) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def transmitted_vhat(self, internals: dict, i: int) -> np.ndarray:
        """The velocity estimate follower i puts on the wire."""
        return internals["vhat"][i]

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        raise NotImplementedError


class FullStateController(ControllerBase):
    """Input -k_d (v - vhat) - k_p (p - psi) with a distributed observer.

    psi_mode "static" evaluates the reference position directly from the
    extrapolated neighbor average; "dynamic" routes it through a first-order
    filter so the input stays continuous across message arrivals.
    """

    variant = "full_state"

    def __init__(self, gains, N, psi_mode="static"):
        super().__init__(gains, N)
        if psi_mode not in ("static", "dynamic"):
            raise ValueError(f"bad psi_mode {psi_mode!r}")
        self.psi_mode = psi_mode
        self.internal_names = ("vhat", "psi") if psi_mode == "dynamic" \
            else ("vhat",)

    def _default_internals(self, p0, v0):
        out = {"vhat": np.zeros_like(v0)}
        if self.psi_mode == "dynamic":
            out["psi"] = p0.copy()
        return out

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        vhat = internals["vhat"]
        dvhat = -g.L_p[:, None] * (vhat - vhat_avg_oracle(neigh, vhat))
        theta = neigh.vartheta_avg(t)
        d_int = {"vhat": dvhat}
        if self.psi_mode == "dynamic":
            psi = internals["psi"]
            d_int["psi"] = -g.k_psi[:, None] * (psi - theta) + vhat
        else:
            psi = theta
        gamma = -g.k_d[:, None] * (v - vhat) - g.k_p[:, None] * (p - psi)
        return ControllerOutput(gamma=gamma, d_internals=d_int,
                                aux={"psi": psi})


class OutputFeedbackController(ControllerBase):
    """Velocity-free law: phi + p replaces v in the damping term."""

    variant = "output_feedback"
    internal_names = ("vhat", "psi", "phi")

    def __init__(self, gains, N, psi_mode="dynamic"):
        super().__init__(gains, N)
        if psi_mode not in ("static", "dynamic"):
            raise ValueError(f"bad psi_mode {psi_mode!r}")
        self.psi_mode = psi_mode
        if psi_mode == "static":
            self.internal_names = ("vhat", "phi")

    def _default_internals(self, p0, v0):
        out = {"vhat": np.zeros_like(v0), "phi": np.zeros_like(p0)}
        if self.psi_mode == "dynamic":
            out["psi"] = p0.copy()
        return out

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        vhat = internals["vhat"]
        phi = internals["phi"]
        dvhat = -g.L_p[:, None] * (vhat - vhat_avg_oracle(neigh, vhat))
        theta = neigh.vartheta_avg(t)
        d_int = {"vhat": dvhat}
        if self.psi_mode == "dynamic":
            psi = internals["psi"]
            d_int["psi"] = -g.k_psi[:, None] * (psi - theta) + vhat
        else:
            psi = theta
        gamma = -g.k_d[:, None] * (phi + p - vhat) - g.k_p[:, None] * (p - psi)
        d_int["phi"] = -(phi + p) + gamma
        return ControllerOutput(gamma=gamma, d_internals=d_int,
                                aux={"psi": psi})


class KnownVdController(ControllerBase):
    """Observer-free variant: the leaders' limit velocity v_d is broadcast."""

    variant = "known_vd"

    def __init__(self, gains, N, v_d, psi_mode="static", use_velocity=True):
        super().__init__(gains, N)
        if psi_mode not in ("static", "dynamic"):
            raise ValueError(f"bad psi_mode {psi_mode!r}")
        self.psi_mode = psi_mode
        self.use_velocity = use_velocity
        self.v_d = np.asarray(v_d, dtype=float)
        names = []
        if psi_mode == "dynamic":
            names.append("psi")
        if not use_velocity:
            names.append("phi")
        self.internal_names = tuple(names)

    def _default_internals(self, p0, v0):
        out = {}
        if self.psi_mode == "dynamic":
            out["psi"] = p0.copy()
        if not self.use_velocity:
            out["phi"] = np.zeros_like(p0)
        return out

    def transmitted_vhat(self, internals, i):
        return self.v_d

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        vhat = np.broadcast_to(self.v_d, p.shape)
        theta = neigh.vartheta_avg(t)
        d_int = {}
        if self.psi_mode == "dynamic":
            psi = internals["psi"]
            d_int["psi"] = -g.k_psi[:, None] * (psi - theta) + vhat
        else:
            psi = theta
        if self.use_velocity:
            gamma = -g.k_d[:, None] * (v - vhat) - g.k_p[:, None] * (p - psi)
        else:
            phi = internals["phi"]
            gamma = -g.k_d[:, None] * (phi + p - vhat) \
                - g.k_p[:, None] * (p - psi)
            d_int["phi"] = -(phi + p) + gamma
        return ControllerOutput(gamma=gamma, d_internals=d_int,
                                aux={"psi": psi})


class NonlinearVSController(ControllerBase):
    """Reference-velocity tracking with a smoothed variable-structure term.

    The discontinuous unit-vector term is replaced inside a boundary layer of
    width eps by a linear ramp, which keeps the fixed-step integration free of
    chattering at the cost of an O(eps) steady perturbation.
    """

    variant = "nonlinear_vs"
    internal_names = ("vhat", "sigma1", "eta1", "eta2")

    def __init__(self, gains, N, model: AgentModel):
        super().__init__(gains, N)
        if model.kind != "nonlinear":
            raise ValueError("nonlinear_vs requires the nonlinear model")
        self.model = model

    def _default_internals(self, p0, v0):
        return {"vhat": np.zeros_like(v0), "sigma1": np.zeros_like(v0),
                "eta1": p0.copy(), "eta2": p0.copy()}

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        lam = g.lam_effective()[:, None]
        vhat = internals["vhat"]
        sigma1 = internals["sigma1"]
        eta1 = internals["eta1"]
        eta2 = internals["eta2"]
        theta = neigh.vartheta_avg(t)
        dvhat = -g.L_p[:, None] * (vhat - sigma1)
        dsigma1 = -g.L_d[:, None] * (sigma1 - vhat_avg_oracle(neigh, vhat))
        deta1 = -g.k_p[:, None] * (eta1 - eta2) + vhat
        deta2 = -g.k_d[:, None] * (eta2 - theta) + vhat
        v_r = -lam * (p - eta1) + vhat
        dv_r = -lam * (v - deta1) + dvhat
        e = v - v_r
        gamma_bar = self.switching_term(e, p, v)
        gamma = -g.k_r[:, None] * e + dv_r - gamma_bar
        return ControllerOutput(
            gamma=gamma,
            d_internals={"vhat": dvhat, "sigma1": dsigma1,
                         "eta1": deta1, "eta2": deta2},
            aux={"v_r": v_r, "dv_r": dv_r, "e": e})

    def drift_bound(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        fns = self.model.drift_fns
        pn = np.linalg.norm(p, axis=-1)
        vn = np.linalg.norm(v, axis=-1)
        return np.vectorize(fns["delta_p"])(pn) + \
            np.vectorize(fns["delta_v"])(vn)

    def switching_term(self, e: np.ndarray, p: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
        eps = self.gains.boundary_layer_eps
        bound = self.drift_bound(p, v)
        en = np.linalg.norm(e, axis=-1)
        scale = np.where(en > eps, bound / np.maximum(en, 1e-300), bound / eps)
        return scale[..., None] * e


class OscillatorFullController(ControllerBase):
    """Oscillator law: references propagated through the free flow e^{S dt}."""

    variant = "oscillator_full"
    internal_names = ("vhat", "sigma")

    def __init__(self, gains, N, model: AgentModel):
        super().__init__(gains, N)
        if model.kind != "oscillator":
            raise ValueError("oscillator variants require the oscillator model")
        self.S1 = model.S1
        self.S2 = model.S2
        self.flow = OscillatorFlow(model.S1, model.S2)

    def _default_internals(self, p0, v0):
        return {"vhat": np.zeros_like(v0), "sigma": np.zeros_like(v0)}

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        vhat = internals["vhat"]
        sigma = internals["sigma"]
        psi = psi_oracle(neigh, t, self.flow, vhat)
        psi1, psi2 = psi[:, : self.N], psi[:, self.N:]
        dv = v - vhat
        gamma = -(g.k_d[:, None] * dv + dv @ self.S2.T) \
            - g.k_p[:, None] * (p - psi1) + 2.0 * sigma
        dsigma = dv @ self.S1.T + sigma @ self.S2.T \
            - g.k_d[:, None] * sigma - g.k_p[:, None] * (vhat - psi2)
        dvhat = p @ self.S1.T + vhat @ self.S2.T + sigma
        return ControllerOutput(gamma=gamma,
                                d_internals={"vhat": dvhat, "sigma": dsigma},
                                aux={"psi1": psi1, "psi2": psi2})


class OscillatorOutputController(ControllerBase):
    """Velocity-free oscillator law; k_phi (phi + p) stands in for v."""

    variant = "oscillator_output"
    internal_names = ("vhat", "sigma", "phi")

    def __init__(self, gains, N, model: AgentModel):
        super().__init__(gains, N)
        if model.kind != "oscillator":
            raise ValueError("oscillator variants require the oscillator model")
        self.S1 = model.S1
        self.S2 = model.S2
        self.flow = OscillatorFlow(model.S1, model.S2)
        ok, problems = check_gains(self.variant, gains, S2=model.S2)
        if not ok:
            raise GainError("; ".join(problems))

    def _default_internals(self, p0, v0):
        return {"vhat": np.zeros_like(v0), "sigma": np.zeros_like(v0),
                "phi": np.zeros_like(p0)}

    def deriv(self, t, p, v, internals, neigh) -> ControllerOutput:
        g = self.gains
        vhat = internals["vhat"]
        sigma = internals["sigma"]
        phi = internals["phi"]
        psi = psi_oracle(neigh, t, self.flow, vhat)
        psi1, psi2 = psi[:, : self.N], psi[:, self.N:]
        w = g.k_phi[:, None] * (phi + p) - vhat
        gamma = -(g.k_d[:, None] * w + w @ self.S2.T) \
            - g.k_p[:, None] * (p - psi1) + 2.0 * sigma
        dsigma = -g.k_d[:, None] * sigma + sigma @ self.S2.T \
            + w @ self.S1.T - g.k_p[:, None] * (vhat - psi2)
        dvhat = p @ self.S1.T + vhat @ self.S2.T + sigma
        dphi = -(g.k_phi[:, None] * (p + phi) - (p + phi) @ self.S2.T) \
            + (gamma + p @ self.S1.T) / g.k_phi[:, None]
        return ControllerOutput(
            gamma=gamma,
            d_internals={"vhat": dvhat, "sigma": dsigma, "phi": dphi},
            aux={"psi1": psi1, "psi2": psi2})


def make_controller_oracle(variant: str, gains: GainSet, N: int,
                           model: AgentModel | None = None,
                           psi_mode: str = "static",
                           v_d=None, use_velocity: bool = True
                           ) -> ControllerBase:
    if variant == "full_state":
        return FullStateController(gains, N, psi_mode=psi_mode)
    if variant == "output_feedback":
        return OutputFeedbackController(gains, N, psi_mode=psi_mode)
    if variant == "known_vd":
        if v_d is None:
            raise ValueError("known_vd requires v_d")
        return KnownVdController(gains, N, v_d, psi_mode=psi_mode,
                                 use_velocity=use_velocity)
    if variant == "nonlinear_vs":
        return NonlinearVSController(gains, N, model)
    if variant == "oscillator_full":
        return OscillatorFullController(gains, N, model)
    if variant == "oscillator_output":
        return OscillatorOutputController(gains, N, model)
    raise ValueError(f"unknown controller variant {variant!r}")


def simple_view(m=2, N=2, t=0.0):
    """Two followers; follower 0 has two delivered edges, follower 1 none.
    Both messages are seq 0 of T = 0.1 s, ten steps of dt = 0.01 s."""
    dst = np.array([0, 0])
    w = np.array([1.0, 3.0])
    msg = np.array([[1.0, 0.0, 1.0, 1.0], [5.0, 4.0, -1.0, 0.0]])
    p_fallback = np.array([[9.0, 9.0], [7.0, 7.0]])
    return NeighborView(m, N, dst, w, msg, np.array([0, 0]), 0.1, 10,
                        p_fallback)


def joined_psi(view, k, half, flow):
    """oscillator_psi at the half tick 2k + half of tick k (a one-tick
    view), psi_p and psi_v side by side: the (m, 2N) average psi_oracle
    returns with a waiting follower's vhat at 0.  Read-only."""
    psi = view.oscillator_psi(k, flow)
    assert psi.shape == (3, 2, view.m, view.N) and not psi.flags.writeable
    return np.concatenate(psi[half], axis=1)


def tabulate_tick(flow, view, k, dt, *more):
    """Fill flow's table at the lags of the stage times of tick k, and of
    the further times more, from their float seconds."""
    t = k * dt
    flow.tabulate(float_lags(view, [t, t + dt / 2, t + dt, *more], dt), dt)


def oscillator_flows(rng, N):
    """Two flows of one random oscillator: batched and oracle side.

    S1 negative definite and S2 skew keep p'(-S1)p + v'v constant, so the
    flows stay bounded over long lags.
    """
    B, C = rng.normal(size=(N, N)), rng.normal(size=(N, N))
    S1, S2 = -(B @ B.T + np.eye(N)), C - C.T
    return OscillatorFlow(S1, S2), OscillatorFlow(S1, S2)


def waiting_vhat(m, N):
    """The velocity estimate oscillator_psi gives a waiting follower."""
    return np.zeros((m, N))


def random_view(rng, m, N, E, dt, spT, k, lag_max=None):
    """Messages sent at seq * spT ticks of dt, none after tick k."""
    top = k // spT if lag_max is None else lag_max
    seq = k // spT - rng.integers(0, top + 1, size=E)
    return NeighborView(m, N, rng.integers(0, m, size=E),
                        rng.uniform(0.1, 3.0, size=E),
                        rng.normal(size=(E, 2 * N)), np.maximum(seq, 0),
                        spT * dt, spT, rng.normal(size=(m, N)))


def float_lags(view, times, dt):
    """The lags t - send_time of the view's messages at each of the times,
    turned into whole half steps of dt from the float seconds."""
    return np.concatenate([to_ticks_oracle(t - view.send_time, dt / 2, "lag")
                           for t in times])


def average_oracle(view, contrib, fallback):
    """NeighborView's weighted average as np.add.at over the edges, computed
    afresh on every call: the reference its sums and memos must equal."""
    kappa = np.zeros(view.m)
    np.add.at(kappa, view.dst, view.w)
    live = kappa > 0
    num = np.zeros((view.m, contrib.shape[1]))
    np.add.at(num, view.dst, view.w[:, None] * contrib)
    out = fallback.copy()
    out[live] = num[live] / kappa[live, None]
    return out


def assert_vartheta_avg(view, t):
    """vartheta_avg(t) is c0 + t c1, the averages of the positions
    extrapolated to t = 0 and of the velocity estimates, so it rounds
    unlike the average of the positions extrapolated to t: it must match
    that within 1e-14 of the size of the terms, and a follower's fallback
    exactly.  Returns vartheta_avg(t)."""
    got = view.vartheta_avg(t)
    want = average_oracle(view, vartheta(view.p_msg, view.vhat_msg,
                                         view.send_time[:, None], t),
                          view.p_fallback)
    size = np.abs(view.p_msg).max(initial=0.0) + np.abs(
        view.vhat_msg).max(initial=0.0) * (t + view.send_time.max(initial=0))
    assert np.array_equal(got[~view.live], want[~view.live])
    assert np.abs(got - want).max() <= 1e-14 * size
    return got


def aggregation_view(rng, m, N, live, extra, dt, spT, k):
    """A view where every follower ("all"), some ("some") or none ("none")
    has a delivered in-edge; the extra edges go to followers that already
    have one, so several edges share a follower, in random edge order."""
    if live == "none":
        dst = np.zeros(0, dtype=int)
    else:
        rows = np.arange(m) if live == "all" else \
            rng.choice(m, size=int(rng.integers(1, max(m, 2))), replace=False)
        dst = rng.permutation(np.concatenate(
            [rows, rng.choice(rows, size=extra)]))
    E = len(dst)
    seq = k // spT - rng.integers(0, k // spT + 1, size=E)
    return NeighborView(m, N, dst, rng.uniform(0.1, 3.0, size=E),
                        rng.normal(size=(E, 2 * N)), seq, spT * dt, spT,
                        rng.normal(size=(m, N)))


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
        # nonlinear_vs derives lam from the real roots unless it is given.
        ok, problems = check_gains("nonlinear_vs", g)
        assert not ok and any("real-roots" in p for p in problems)
        ok, _ = check_gains("nonlinear_vs", GainSet(m=1, k_p=4.0, k_d=1.0,
                                                       lam=1.0))
        assert ok

    @pytest.mark.parametrize("eps", [[0.1, 0.2], "0.1", 0.0, np.nan])
    def test_boundary_layer_eps_is_one_positive_number(self, eps):
        # From the Python API, where no config reader has checked the type.
        scen = config.build_scenario(load_scenario_doc("benchmark_nonlinear"))
        gains = dataclasses.replace(scen.gains, boundary_layer_eps=eps)
        with pytest.raises(GainError, match="boundary_layer_eps"):
            make_controller("nonlinear_vs", gains, 2, model=scen.model)
        with pytest.raises(sim.ScenarioError, match="boundary_layer_eps") \
                as exc:
            dataclasses.replace(scen, gains=gains).validate()
        assert isinstance(exc.value.__cause__, GainError)

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
        # A follower without a message reads 0: the laws' waiting form
        # reads its own vhat instead.
        view = simple_view()
        avg = view.vhat_avg()
        assert np.allclose(avg[0], (1 * np.array([1.0, 1.0])
                                    + 3 * np.array([-1.0, 0.0])) / 4)
        assert np.array_equal(avg[1], [0.0, 0.0])

    def test_vartheta_extrapolation(self):
        p = np.array([1.0, 2.0])
        v = np.array([0.5, -1.0])
        assert np.allclose(vartheta(p, v, 3.0, 5.5), p + 2.5 * v)

    def test_oscillator_psi_matches_manual_flow(self):
        view = simple_view()
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        # t = 1.3 s, 260 half steps: tick 130's start.
        flow.tabulate(np.array([260, 261, 262]), 0.01)
        psi = joined_psi(view, 130, 0, flow)
        M = flow(1.3)
        x1 = M @ np.array([1.0, 0.0, 1.0, 1.0])
        x2 = M @ np.array([5.0, 4.0, -1.0, 0.0])
        assert np.allclose(psi[0], (1 * x1 + 3 * x2) / 4)
        assert np.array_equal(psi[1], [7.0, 7.0, 0.0, 0.0])


class TestBatchedPsi:
    """oscillator_psi at the half ticks of tick k, from a table filled at
    the lags the float seconds give, against flow(t - send_time) edge by
    edge."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 3),
           st.integers(0, 40), st.sampled_from([0.01, 0.005, 0.02, 0.001]),
           st.integers(1, 20), st.integers(0, 3000), st.integers(0, 2))
    def test_matches_per_edge_oracle(self, seed, m, N, E, dt, spT, k, half):
        rng = np.random.default_rng(seed)
        view = random_view(rng, m, N, E, dt, spT, k)
        flow, oracle_flow = oscillator_flows(rng, N)
        t = k * dt + half * dt / 2          # the three RK4 stage times
        tabulate_tick(flow, view, k, dt)
        assert np.array_equal(joined_psi(view, k, half, flow),
                              psi_oracle(view, t, oracle_flow,
                                         waiting_vhat(m, N)))

    def test_cases(self):
        rng = np.random.default_rng(5)
        flow, oracle_flow = oscillator_flows(rng, 2)
        own = waiting_vhat(4, 2)
        dt, spT = 0.01, 10
        cases = [
            (random_view(rng, 4, 2, 0, dt, spT, 50), 100),     # nothing live
            (random_view(rng, 4, 2, 30, dt, spT, 50, 0), 100),  # one lag
            (random_view(rng, 4, 2, 30, dt, spT, 50, 0), 101),  # half step
            (random_view(rng, 4, 2, 12, dt, spT, 40, 4), 80),
            (random_view(rng, 4, 2, 12, dt, spT, 900), 1801),  # long lags
            (random_view(rng, 4, 2, 12, dt, spT, 30), 62),
        ]
        for view, h in cases:
            (k, half), t = divmod(h, 2), h // 2 * dt + h % 2 * dt / 2
            tabulate_tick(flow, view, k, dt)
            assert np.array_equal(joined_psi(view, k, half, flow),
                                  psi_oracle(view, t, oracle_flow, own))
        assert np.array_equal(joined_psi(cases[0][0], 50, 0, flow),
                              np.concatenate([cases[0][0].p_fallback, own],
                                             axis=1))

    def test_flow_table_rows_are_the_cached_matrices(self):
        flow = OscillatorFlow(-np.eye(2), np.zeros((2, 2)))
        j = np.array([7, 0, 7, 130, 2])
        for dt in (0.01, 0.003):                # a new dt refills the table
            flow.tabulate(j, dt)
            assert flow.table.shape == (131, 4, 4)
            for jj in range(131):
                if jj in j:
                    assert np.array_equal(flow.table[jj], flow(jj * dt / 2))
                else:
                    assert np.isnan(flow.table[jj]).all()
        flow.tabulate(np.zeros(0, dtype=int), 0.01)
        assert flow.table.shape == (0, 4, 4)


def stacked_psi_oracle(view, lo, flow):
    """oscillator_psi as 3R separate (2N, 2N) products, one per edge and
    stage, from one stacked matmul: the form the (6N, 2N) product per edge
    must equal bit for bit."""
    half = 2 * (lo + view.dst // len(view.p_fallback))[:, None] \
        + np.arange(3)
    y = np.matmul(flow.table[half - view.send_half[:, None]],
                  view.msg[:, None, :, None])     # (edges, 3, 2N, 1)
    psi = view._live_average(y.reshape(len(y), 6 * view.N))
    fallback = np.stack((view.p_fallback, 0 * view.p_fallback))
    return view._with_fallback(psi.reshape(len(psi), 3, 2, view.N)
                               .transpose(1, 2, 0, 3), fallback[:, None])


class TestPsiProduct:
    """oscillator_psi on views of H ticks of m0 followers, against the
    stacked product it replaced: random S1 and S2, views with waiting
    followers, all-live views and empty ones, the longest lag at the end
    of the table."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.sampled_from(["all", "some", "none"]),
           st.integers(0, 30), st.integers(1, 10), st.integers(0, 40))
    def test_matches_the_stacked_product(self, seed, N, m0, H, live, extra,
                                         spT, lo):
        rng = np.random.default_rng(seed)
        m = H * m0
        dst = {"all": np.r_[np.arange(m), rng.integers(0, m, size=extra)],
               "some": rng.integers(1, m, size=extra) if m > 1 else
               np.zeros(0, int), "none": np.zeros(0, int)}[live]
        seq = rng.integers(0, lo // spT + 1, size=len(dst))
        view = NeighborView(m, N, dst, rng.uniform(0.1, 3.0, len(dst)),
                            rng.normal(size=(len(dst), 2 * N)), seq,
                            spT * 0.01, spT, rng.normal(size=(m0, N)))
        assert view.all_live == (live == "all")
        flow = OscillatorFlow(rng.normal(size=(N, N)),
                              rng.normal(size=(N, N)))
        lags = 2 * (lo + dst // m0) - view.send_half
        flow.tabulate(np.arange(lags.max(initial=0) + 3), 0.01)
        psi, expect = view.oscillator_psi(lo, flow), \
            stacked_psi_oracle(view, lo, flow)
        assert psi.shape == expect.shape == (3, 2, m, N)
        assert not psi.flags.writeable
        assert psi.tobytes() == expect.tobytes()


class TestSpanPsi:
    """psi over a run of an engine on random schedules: the oscillator
    law's period block at the three half ticks of each of its ticks, on a
    warm-up period, the first all-live ones and the period of tick K."""

    def views(self, seed, K=305, N=2):
        rng = np.random.default_rng(seed)
        topo, dt = bench_topology(), 0.01
        comm = CommConfig(T=0.1, T_star=0.6, drop_prob=0.3, delay_max=0.5,
                          seed=seed)
        # Agent j sends its state rows j and n + j: a position and a
        # velocity estimate.
        send = np.c_[np.arange(topo.n), topo.n + np.arange(topo.n)]
        eng = Engine(topo, [{e: generate_schedule(e, comm, K * dt, dt)
                             for e in topo.edges()}], comm.T, dt, K * dt,
                     send)
        states = rng.normal(size=(K + 1, 2 * topo.n, N))
        flow, oracle_flow = oscillator_flows(rng, N)
        flow.tabulate(eng.stage_lags(), dt)
        law = OscillatorLaw(GainSet(m=topo.m), N, AgentModel(
            "oscillator", N, S1=flow.S[N:, :N], S2=flow.S[N:, N:]))
        law.flow = flow
        return eng, states, law, oracle_flow

    def check_period(self, eng, states, law, k0, oracle_flow, dt=0.01):
        hi = min(k0 + eng.steps_per_T, eng.K + 1)
        m, N = eng.m, law.N
        rows = law.block(k0, eng.view(k0, hi, states)).reshape(
            -1, 3, 2, m, N)
        assert len(rows) == hi - k0 > 0
        for k in range(k0, hi):
            view = eng.view(k, k + 1, states)
            for j in range(3):
                assert np.array_equal(
                    np.concatenate(rows[k - k0, j], axis=1),
                    psi_oracle(view, k * dt + j * dt / 2, oracle_flow,
                               waiting_vhat(m, N)))
            # While the mailbox holds, each half tick has one average: the
            # end of step k is the start of step k + 1.
            if k + 1 < hi and np.array_equal(eng.used_seq[k],
                                             eng.used_seq[k + 1]):
                assert np.array_equal(rows[k - k0, 2], rows[k + 1 - k0, 0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_warm_up_all_live_and_last_views(self, seed):
        eng, states, law, oracle_flow = self.views(seed)
        K, spT, used = eng.K, eng.steps_per_T, eng.used_seq
        # The period of the first tick some follower holds a message at
        # and another none, of the first tick all do, one after it, and
        # the last, which ends at tick K.
        live_from = eng.first.max()
        warm = next(k for k in range(live_from) if (used[k] >= 0).any())
        first = live_from - live_from % spT
        assert 0 < live_from % spT and K % spT > 1
        for k0 in sorted({warm - warm % spT, first, first + spT,
                          K - K % spT}):
            self.check_period(eng, states, law, k0, oracle_flow)

    def test_last_view_at_the_last_tick(self):
        # A period of the one tick K, whose mailbox row is new.
        for seed in range(40):
            eng, states, law, oracle_flow = self.views(seed, 60)
            if not np.array_equal(eng.used_seq[-1], eng.used_seq[-2]):
                break
        assert eng.K % eng.steps_per_T == 0 and eng.first.max() < eng.K
        self.check_period(eng, states, law, eng.K, oracle_flow)


class TestAggregation:
    """Every average equals the add.at oracle on every call, whatever was
    computed for the view before; the RK4 stage times of one step repeat
    t + dt/2, and a view outlives one step."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 3),
           st.sampled_from(["all", "some", "none"]), st.integers(0, 12),
           st.sampled_from([0.01, 0.005, 0.02]), st.integers(1, 20),
           st.integers(0, 3000))
    def test_every_call_equals_the_oracle(self, seed, m, N, live, extra, dt,
                                          spT, k):
        rng = np.random.default_rng(seed)
        view = aggregation_view(rng, m, N, live, extra, dt, spT, k)
        flow, oracle_flow = oscillator_flows(rng, N)
        t0 = k * dt
        times = [t0, t0 + dt / 2, t0 + dt / 2, t0 + dt, (k + 1) * dt,
                 t0 + 3 * dt / 2, t0]
        ticks = [(k, 0), (k, 1), (k, 1), (k, 2), (k + 1, 0), (k + 1, 1),
                 (k, 0)]
        # The stage times of ticks k and k + 1.
        lags = float_lags(view, [t0 + j * dt / 2 for j in range(5)], dt)
        flow.tabulate(lags, dt)
        oracle_flow.tabulate(lags, dt)
        x = np.concatenate([view.p_msg, view.vhat_msg], axis=1)
        own = waiting_vhat(m, N)
        for _ in range(2):
            assert np.array_equal(view.p_avg(),
                                  average_oracle(view, view.p_msg,
                                                 view.p_fallback))
        assert not view.p_avg().flags.writeable
        for t, (tick, half) in zip(times, ticks):
            assert_vartheta_avg(view, t)
            assert np.array_equal(view.vhat_avg(),
                                  average_oracle(view, view.vhat_msg, own))
            y = np.matmul(oracle_flow.table[float_lags(view, [t], dt)],
                          x[:, :, None])[:, :, 0]
            assert np.array_equal(
                joined_psi(view, tick, half, flow),
                average_oracle(view, y, np.concatenate(
                    [view.p_fallback, own], axis=1)))

    @pytest.mark.parametrize("live", ["some", "all"])
    def test_warm_up_and_all_live_views(self, live):
        rng = np.random.default_rng(8)
        m, N, dt = 5, 2, 0.01
        view = aggregation_view(rng, m, N, live, 6, dt, 10, 200)
        assert view.all_live == (live == "all") == view.live.all()
        flow, oracle_flow = oscillator_flows(rng, N)
        x = np.concatenate([view.p_msg, view.vhat_msg], axis=1)
        own = waiting_vhat(m, N)
        t = 200 * dt + dt / 2               # tick 200's midpoint
        tabulate_tick(flow, view, 200, dt)
        tabulate_tick(oracle_flow, view, 200, dt)
        y = np.matmul(oracle_flow.table[float_lags(view, [t], dt)],
                      x[:, :, None])[:, :, 0]
        fallback_psi = np.concatenate([view.p_fallback, own], axis=1)
        for _ in range(2):                  # each call computes afresh
            got = [view.p_avg(), view.vartheta_avg(t), view.vhat_avg(),
                   *view.oscillator_psi(200, flow)[1]]
            want = [average_oracle(view, view.p_msg, view.p_fallback),
                    assert_vartheta_avg(view, t),
                    average_oracle(view, view.vhat_msg, own),
                    *np.split(average_oracle(view, y, fallback_psi), 2, 1)]
            for avg, ref in zip(got, want):
                assert np.array_equal(avg, ref)
                with pytest.raises(ValueError):
                    avg[0, 0] = 1.0

    def test_stage_times_give_a_read_only_stack(self):
        # A step asks for its three stage times at once: each layer of the
        # stack is the average at one time, fallback rows included.
        view = simple_view()
        times = np.array([0.5, 0.55, 0.6])
        theta = view.vartheta_avg(times[:, None])
        assert theta.shape == (3, 2, 2)
        for t, layer in zip(times, theta):
            assert np.array_equal(layer, view.vartheta_avg(t))
        assert np.array_equal(theta[:, 1], np.broadcast_to([7.0, 7.0],
                                                           (3, 2)))
        with pytest.raises(ValueError):
            theta[0, 0, 0] = 1.0


class TestControllers:
    def test_full_state_equilibrium(self):
        # If v = vhat equals the message velocity and p sits exactly on the
        # extrapolated average, the input is zero.
        g = GainSet(m=2, k_p=4.0, k_d=4.0, L_p=4.0)
        ctrl = make_controller("full_state", g, 2)
        view = simple_view()
        t = 1.0
        theta = view.vartheta_avg(t)
        vbar = view.vhat_avg()
        dy, gamma = stage(ctrl, view, t, 200, np.concatenate([theta, vbar,
                                                              vbar]))
        assert np.allclose(gamma, 0.0, atol=1e-12)
        assert np.allclose(dy[4:], 0.0, atol=1e-12)          # vhat'

    def test_full_state_dynamic_psi_filter(self):
        g = GainSet(m=2, k_p=4.0, k_d=4.0, k_psi=2.0)
        ctrl = make_controller("full_state", g, 2, psi_mode="dynamic")
        view = simple_view()
        p0 = np.zeros((2, 2))
        x = ctrl.init_internals(p0)
        psi = ctrl.names.index("psi")
        assert np.allclose(x[psi], p0)
        dy, _ = stage(ctrl, view, 0.0, 0,
                      np.concatenate([p0, p0, x.reshape(-1, 2)]))
        dx = dy[4:].reshape(x.shape)
        theta = view.vartheta_avg(0.0)
        assert np.allclose(dx[psi], -2.0 * (p0 - theta))

    def test_output_feedback_filter_identity(self):
        # d(phi + p)/dt = -(phi + p) + gamma + v, so phi + p - v obeys a pure
        # exponential decay whenever dv = gamma.
        g = GainSet(m=2, k_p=4.0, k_d=4.0)
        ctrl = make_controller("output_feedback", g, 2, psi_mode="dynamic")
        view = simple_view()
        rng = np.random.default_rng(5)
        p = rng.normal(size=(2, 2))
        v = rng.normal(size=(2, 2))
        x = ctrl.init_internals(p)
        phi = ctrl.names.index("phi")
        x[phi] = rng.normal(size=(2, 2))
        dy, gamma = stage(ctrl, view, 0.5, 100,
                          np.concatenate([p, v, x.reshape(-1, 2)]))
        dx = dy[4:].reshape(x.shape)
        phi_tilde = x[phi] + p - v
        d_phi_tilde = dx[phi] + v - gamma
        assert np.allclose(d_phi_tilde, -phi_tilde, atol=1e-12)

    @pytest.mark.parametrize("psi_mode", ["static", "dynamic"])
    @pytest.mark.parametrize("use_velocity", [True, False])
    def test_known_vd_holds_and_sends_limit_velocity(self, monkeypatch,
                                                     psi_mode, use_velocity):
        # vhat is v_d at every step, and every follower sends it.
        doc = load_scenario_doc("benchmark_fullstate")
        doc["sim"]["t_end_seconds"] = 1.0
        doc["controllers"].update(variant="known_vd", v_d=[1.0, 0.1],
                                  psi_mode=psi_mode, use_velocity=use_velocity)
        del doc["controllers"]["gains"]["L_p"]      # known_vd does not read it
        views = []
        view = Engine.view

        def spy(self, lo, hi, states):
            views.append((self.src[np.nonzero(self.used_seq[lo:hi] >= 0)[1]],
                          view(self, lo, hi, states).msg))
            return view(self, lo, hi, states)

        monkeypatch.setattr(Engine, "view", spy)
        trace = sim.run(config.build_scenario(doc))
        v_d = np.broadcast_to([1.0, 0.1], (len(trace.times), 6, 2))
        assert np.array_equal(trace.internals["vhat"], v_d)
        # The vhat columns of every follower's message in every view, of a
        # tick or of a period.
        got = np.concatenate([msg[src < 6, 2:] for src, msg in views])
        assert len(got) > 0 and np.all(got == [1.0, 0.1])

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

    def test_double_integrator_laws_reject_the_oscillator_model(self):
        # ... and the nonlinear one: their generator holds a linear plant.
        for model in (AgentModel(kind="oscillator", S1=-np.eye(2),
                                 S2=np.zeros((2, 2))),
                      AgentModel(kind="nonlinear", drift="square_velocity")):
            for variant in ("full_state", "output_feedback", "known_vd"):
                with pytest.raises(ValueError,
                                   match=f"{model.kind} model"):
                    make_controller(variant, GainSet(m=1), 2, model=model,
                                    v_d=np.zeros(2))


class TestGenerator:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 4), st.integers(1, 3),
           st.sampled_from(["all", "some"]), st.integers(0, 400))
    def test_full_state_blocks_have_the_closed_loop_poles(self, seed, m, N,
                                                          live, k):
        # Probing dy(y) - dy(0) with unit states reads A off the generator.
        # Follower i's (p, v, vhat) block in each coordinate has the roots
        # of s^2 + k_d s + k_p and -L_p once it holds a message, and 0 for
        # the velocity estimate it holds until then.
        rng = np.random.default_rng(seed)
        gains = random_gains(rng, m)
        ctrl = make_controller("full_state", gains, N)
        view = aggregation_view(rng, m, N, live, 3, 0.01, 10, k)
        t, size = k * 0.01, 3 * m * N
        base = stage(ctrl, view, t, 2 * k, np.zeros((3 * m, N)))[0].ravel()
        A = np.stack([stage(ctrl, view, t, 2 * k, e.reshape(3 * m, N))[0]
                      .ravel() - base for e in np.eye(size)], axis=1)
        for i in range(m):
            L_p = gains.L_p[i] if view.live[i] else 0.0
            want = np.polymul([1.0, gains.k_d[i], gains.k_p[i]], [1.0, L_p])
            for c in range(N):
                at = np.array([i, m + i, 2 * m + i]) * N + c
                block = A[np.ix_(at, at)]
                assert np.allclose(np.poly(block), want, rtol=1e-9,
                                   atol=1e-9)
                assert (np.linalg.eigvals(block).real < 0).all() \
                    == bool(view.live[i])


LAW_CASES = [(variant, psi_mode, use_velocity)
             for variant in ("full_state", "output_feedback", "known_vd",
                             "nonlinear_vs", "oscillator_full",
                             "oscillator_output")
             for psi_mode in ("static", "dynamic")
             for use_velocity in (True, False)]


def random_gains(rng, m):
    """Gains that pass check_gains for every variant (k_d^2 >= 4 k_p)."""
    k_p = rng.uniform(0.1, 5.0, size=m)
    return GainSet(m=m, k_p=k_p,
                   k_d=2.0 * np.sqrt(k_p) * rng.uniform(1.0, 2.0, size=m),
                   **{name: rng.uniform(0.1, 5.0, size=m)
                      for name in ("L_p", "L_d", "k_psi", "k_phi", "k_r")},
                   lam=rng.uniform(0.1, 5.0, size=m) if rng.random() < 0.5
                   else None)


def random_model(rng, variant, N, s2):
    """A model for the law tests.  S1 is negative definite, and S2 is zero,
    skew (a bounded oscillator) or damped: skew minus a positive
    semidefinite part, so not skew.  -k_phi I + S2 is stable for every
    k_phi > 0 with each of them."""
    if variant == "nonlinear_vs":
        return AgentModel(kind="nonlinear", N=N, drift="square_velocity")
    B, C = rng.normal(size=(N, N)), rng.normal(size=(N, N))
    S2 = np.zeros((N, N)) if s2 == "zero" else C - C.T
    if s2 == "damped":
        D = rng.normal(size=(N, N))
        S2 -= D @ D.T
    return AgentModel(kind="oscillator", N=N, S1=-(B @ B.T + np.eye(N)),
                      S2=S2)


def blas_path_examples(test):
    """m = 1 for both oscillator variants: numpy sends a one-row product
    through gemv and a product of more rows through gemm, so stacking
    [vhat; sigma] as rows of one operand changes the bits.  The law stacks
    them on a leading axis, which keeps each gemv.  With a skew S2, a row
    of an N <= 2 product has one nonzero term, so the skew cases such rows
    would fail are at N = 3; a damped S2 has full rows, and shows it at
    N = 2 as well."""
    for variant in ("oscillator_full", "oscillator_output"):
        for seed, s2, N in ((19, "skew", 1), (19, "skew", 2),
                            (19, "skew", 3), (5, "damped", 2)):
            test = example(seed=seed, case=(variant, "static", True),
                           s2=s2, m=1, N=N, E=4, k=200, half=1,
                           leaders=1)(test)
    return test


class NamedInternalsLaw:
    """A controller above, which takes and returns its internals by name,
    as an oracle law of closed_loop_oracle: its internals are the rows of
    x in the order of names."""

    def __init__(self, ctrl: ControllerBase, names: tuple):
        self.ctrl, self.names = ctrl, names

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        out = self.ctrl.deriv(t, p, v, dict(zip(self.names, x)), neigh)
        dx[:] = [out.d_internals[name] for name in self.names]
        return out.gamma


class TestLawsMatchOracle:
    # The merged oscillator law sums dsigma as (w S1' + sigma S2') - k_d
    # sigma, the order of oscillator_full; oscillator_output used to sum
    # (-k_d sigma + sigma S2') + w S1'.  The two orders agree exactly when
    # S2 = 0 and otherwise to rounding, well within this relative bound.
    RTOL = 1e-12
    # The generator sums each row of A [y; u] in its own order, and
    # vartheta_avg forms c0 + t c1: both round differently from the
    # elementwise oracle.  Its dy and gamma must match within GEN_TOL
    # times scale(), a bound on the magnitude of the terms; a pilot of
    # 3000 random draws gave at most 1.1e-16.  For nonlinear_vs, whose
    # switching term reads e from the generator, a pilot of 3000 draws
    # (seeds 5000-7999, the drift and every follower's v rows included)
    # gave at most 1.8e-16.
    GEN_TOL = 1e-14

    @staticmethod
    def scale(y, view, t, lead, gains, model):
        size = max(1.0, np.abs(y).max(), np.abs(lead).max(initial=0.0),
                   (1.0 + t) * np.abs(view.msg).max(initial=0.0))
        gain = max([1.0] + [np.abs(getattr(gains, k)).max() for k in
                            ("k_p", "k_d", "L_p", "k_psi", "k_phi")])
        if model is not None and model.kind == "oscillator":
            gain = max(gain, np.abs(model.S1).max(), np.abs(model.S2).max())
        return size * gain ** 3

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(LAW_CASES),
           st.sampled_from(("zero", "skew", "damped")),
           st.integers(1, 4), st.integers(1, 3), st.integers(0, 12),
           st.integers(0, 400), st.integers(0, 2), st.integers(0, 3))
    @blas_path_examples
    def test_gamma_and_derivatives_match(self, seed, case, s2, m, N, E,
                                         k, half, leaders):
        variant, psi_mode, use_velocity = case
        rng = np.random.default_rng(seed)
        gains = random_gains(rng, m)
        model = None if variant in ("full_state", "output_feedback",
                                    "known_vd") \
            else random_model(rng, variant, N, s2)
        settings_ = dict(model=model, psi_mode=psi_mode,
                         v_d=rng.normal(size=N), use_velocity=use_velocity)
        new = make_controller(variant, gains, N, **settings_)
        old = make_controller_oracle(variant, gains, N, **settings_)

        dt = 0.01
        view = random_view(rng, m, N, E, dt, 10, k)
        t = k * dt + half * dt / 2
        p, v = rng.normal(size=(m, N)), rng.normal(size=(m, N))
        # The law's internals are rows of one array, in the order of its
        # names; the oracle takes and returns them by name.  known_vd
        # holds the v_d the oracle broadcasts as a constant internal vhat.
        held = {"vhat": np.tile(settings_["v_d"], (m, 1))} \
            if variant == "known_vd" else {}
        init_new = dict(zip(new.names, new.init_internals(p)))
        init_old = {**held, **old.init_internals(p, v)}
        assert sorted(init_new) == sorted(init_old)
        for name in init_new:
            assert np.array_equal(init_new[name], init_old[name])
        x = rng.normal(size=(len(new.names), m, N))
        if held:
            x[0] = held["vhat"]
        internals = dict(zip(new.names, x))

        assert np.array_equal(
            x[0],
            np.vstack([old.transmitted_vhat(internals, i)
                       for i in range(m)]))
        h = 2 * k + half
        if isinstance(new, OscillatorLaw):      # stage reads tick h // 2
            tabulate_tick(new.flow, view, h // 2, dt, t)
        # The whole closed loop: m followers and some leaders, whose
        # accelerations are given for double integrators.
        n = m + leaders
        plant_model = model or AgentModel("double_integrator", N)
        y = np.concatenate([p, rng.normal(size=(leaders, N)), v,
                            rng.normal(size=(leaders, N)),
                            x.reshape(-1, N)])
        lead = rng.normal(size=(leaders, N))
        dy, gamma_new = stage(new, view, t, h, y, lead)
        out_old = old.deriv(t, p, v, internals, view)
        d_old = {**{name: np.zeros_like(a) for name, a in held.items()},
                 **out_old.d_internals}
        assert sorted(new.names) == sorted(d_old)
        if variant == "nonlinear_vs":   # the controller is the oracle law
            law = NamedInternalsLaw(old, new.names)
        else:
            # The oracle law is the one the generator replaced: it equals
            # the six controllers' equations as before.
            law = law_oracle(variant, gains, N,
                             flow=getattr(new, "flow", None), **settings_)
            dx = np.full_like(x, np.nan)
            gamma_law = law.deriv(t, h, p, v, x, view, dx)
            assert np.array_equal(gamma_law, out_old.gamma)
            for name, got in zip(new.names, dx):
                want = d_old[name]
                if variant == "oscillator_output" and s2 != "zero" \
                        and name == "sigma":
                    assert np.max(np.abs(got - want)) \
                        <= self.RTOL * np.max(np.abs(want))
                else:
                    assert np.array_equal(got, want), name
        want, gamma_want = closed_loop_oracle(law, plant_model, n, t, h, y,
                                              view, lead)
        tol = self.GEN_TOL * self.scale(y, view, t, lead, gains, model)
        assert np.abs(dy - want).max() <= tol
        assert np.abs(gamma_new - gamma_want).max() <= tol


class TestStepOperator:
    """A linear law's step, one product with the live step operator (a
    waiting follower's rows from the waiting one), against classical RK4
    over its deriv (conftest.rk4) on the same block row: every follower
    live, some still waiting for their first message, or all, at any tick
    up to K."""

    # The operator sums y+ and gamma in another order than the four stages
    # do.  A pilot of 3000 draws (seeds other than the test's) gave at most
    # 1.3e-16 times scale; another 3000, a third each at "all", "some" and
    # "none" and every step on its tick's block row, gave at most 8.9e-17,
    # 8.9e-17 and 1.3e-16.
    STEP_TOL = 1e-14

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32),
           st.sampled_from([c for c in LAW_CASES if c[0] != "nonlinear_vs"]),
           st.sampled_from(("zero", "skew", "damped")), st.integers(1, 4),
           st.integers(1, 3), st.integers(0, 3),
           st.sampled_from(["all", "some", "none"]), st.integers(0, 6),
           st.integers(0, 60))
    def test_step_matches_rk4_over_deriv(self, seed, case, s2, m, N,
                                         leaders, live, extra, k):
        got, want, scale = step_and_rk4(seed, case, s2, m, N, leaders, live,
                                        extra, k)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= self.STEP_TOL * scale


def step_and_rk4(seed, case, s2, m, N, leaders, live, extra, k, K=60):
    """(law.step, RK4 over law.deriv, scale) on the block row of a view of
    tick k whose followers are live as live says, from a random state."""
    variant, psi_mode, use_velocity = case
    rng = np.random.default_rng(seed)
    dt, spT, n = 0.01, 10, m + leaders
    gains = random_gains(rng, m)
    model = random_model(rng, variant, N, s2) \
        if variant.startswith("oscillator") else None
    law = make_controller(variant, gains, N, model=model, psi_mode=psi_mode,
                          v_d=rng.normal(size=N), use_velocity=use_velocity)
    view = aggregation_view(rng, m, N, live, extra, dt, spT, k)
    times = stage_times(K, dt)
    if model is not None:
        law.flow.tabulate(float_lags(view, times[k], dt), dt)
    lead = rng.normal(size=(3, K + 1, 0 if model else leaders, N)).swapaxes(
        0, 1)
    law.start(n, dt, times, np.where(view.live, k, K + 1), lead)
    y = rng.normal(size=(2 * n + len(law.names) * m, N))
    row = law.block(k, view)[0]
    want = rk4(lambda ks, z, u: law.deriv(ks[0], z, u[ks[1]]), dt)(
        k, y, row.reshape(3, -1))
    gain = max([1.0] + [np.abs(getattr(gains, g)).max() for g in (
        "k_p", "k_d", "L_p", "k_psi", "k_phi")] + (
            [np.abs(model.S1).max(), np.abs(model.S2).max()]
            if model else []))
    scale = gain * max(1.0, np.abs(y).max(), np.abs(lead).max(
        initial=0.0), (1.0 + times[-1, 2]) * np.abs(view.msg).max(
            initial=0.0))
    return law.step(k, y, row), want, scale
