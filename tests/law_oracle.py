"""The linear laws as elementwise NumPy expressions, one array operation
per term of each equation: the reference the sparse generator of
``control.Law`` is checked against.

These are the ``deriv`` bodies the laws ran before the generator replaced
them; ``closed_loop_oracle`` adds the plant of every agent through
``conftest.follower_rhs``.  Any law with this ``deriv`` fits it: for
``nonlinear_vs`` the elementwise controller of ``tests/test_control.py``,
whose drift ``follower_rhs`` adds.  A follower without a message averages
its own velocity estimate: the oracles merge that fallback in themselves.
"""
import numpy as np

from containsim.control import PSI_MODES, OscillatorLaw
from containsim.dynamics import AgentModel, OscillatorFlow
from conftest import follower_rhs


def vhat_avg_oracle(neigh, vhat: np.ndarray) -> np.ndarray:
    """The velocity estimate average, a waiting follower's own vhat."""
    return np.where(neigh.live[:, None], neigh.vhat_avg(), vhat)


def psi_oracle(view, t, flow, vhat_own):
    """[psi_p, psi_v] at t, (m, 2N), as a loop over edges, one flow(lag) @
    x each, with the lag t - send_time in float seconds; a follower without
    a message reads its p_fallback and vhat_own."""
    num = np.zeros((view.m, 2 * view.N))
    for e in range(view.dst.shape[0]):
        x = np.concatenate([view.p_msg[e], view.vhat_msg[e]])
        num[view.dst[e]] += view.w[e] * (flow(t - view.send_time[e]) @ x)
    out = np.concatenate([view.p_fallback, vhat_own], axis=1)
    out[view.live] = num[view.live] / view.kappa_delivered[view.live, None]
    return out


class DoubleIntegratorLawOracle:
    """gamma = -k_d (w - vhat) - k_p (p - psi) for double integrators."""

    def __init__(self, gains, N: int, psi_mode: str = "static", v_d=None,
                 use_velocity: bool = True):
        assert psi_mode in PSI_MODES
        self.L_p, self.k_psi, self.k_d, self.k_p = (
            np.outer(getattr(gains, k), np.ones(N))
            for k in ("L_p", "k_psi", "k_d", "k_p"))
        self.psi_mode, self.use_velocity = psi_mode, use_velocity
        self.v_d = None if v_d is None else np.asarray(v_d, dtype=float)

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        vhat = x[0]
        if self.v_d is None:
            dx[0] = -self.L_p * (vhat - vhat_avg_oracle(neigh, vhat))
        else:
            dx[0] = 0.0
        theta = neigh.vartheta_avg(t)
        if self.psi_mode == "dynamic":
            psi = x[1]
            dx[1] = -self.k_psi * (psi - theta) + vhat
        else:
            psi = theta
        w = v if self.use_velocity else x[-1] + p      # phi is last
        gamma = -self.k_d * (w - vhat) - self.k_p * (p - psi)
        if not self.use_velocity:
            dx[-1] = -w + gamma
        return gamma


class OscillatorLawOracle:
    """Oscillator law: references propagated through the free flow e^{S dt}.

    Without the output filter (oscillator_full) the law damps w = v - vhat;
    with it (oscillator_output) w = k_phi (phi + p) - vhat.  flow is the
    OscillatorFlow of psi_oracle.
    """

    def __init__(self, gains, N: int, model: AgentModel, flow: OscillatorFlow,
                 output_filter: bool = False):
        self.N, self.output_filter, self.flow = N, output_filter, flow
        self.k_p, self.k_d, self.k_phi = (
            np.outer(getattr(gains, k), np.ones(N))
            for k in ("k_p", "k_d", "k_phi"))
        self.S = np.stack([model.S1, model.S2]).transpose(0, 2, 1)
        self.S1T, self.S2T = self.S

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        vhat, sigma = x[0], x[1]
        psi_p, psi_v = np.split(psi_oracle(neigh, t, self.flow, vhat), 2, 1)
        if self.output_filter:
            y = x[2] + p
            w = self.k_phi * y - vhat
        else:
            w = v - vhat
        wS, xS2, pS1 = w @ self.S, x[:2] @ self.S2T, p @ self.S1T
        gamma = -(self.k_d * w + wS[1]) - self.k_p * (p - psi_p) + 2.0 * sigma
        dx[0] = pS1 + xS2[0] + sigma
        dx[1] = wS[0] + xS2[1] - self.k_d * sigma - self.k_p * (vhat - psi_v)
        if self.output_filter:
            dx[2] = -(self.k_phi * y - y @ self.S2T) \
                + (gamma + pS1) / self.k_phi
        return gamma


def law_oracle(variant: str, gains, N: int, model=None, flow=None,
               psi_mode: str = "static", v_d=None, use_velocity: bool = True):
    """The oracle law of a linear variant, with make_controller's switches."""
    if variant.startswith("oscillator"):
        return OscillatorLawOracle(gains, N, model, flow,
                                   variant == "oscillator_output")
    return DoubleIntegratorLawOracle(
        gains, N, psi_mode, v_d if variant == "known_vd" else None,
        use_velocity if variant == "known_vd"
        else variant == "full_state")


def closed_loop_oracle(law, model, n: int, t: float, h: int, y: np.ndarray,
                       view, lead: np.ndarray):
    """(dy, gamma) of the whole flat state y of n agents, the first m of
    them followers: the law's internal rows from its deriv, and every
    agent's acceleration from the plant; lead holds the leaders'
    accelerations for double integrators (oscillator leaders move
    freely)."""
    m, N = view.m, view.N
    p, v, x = y[:n], y[n:2 * n], y[2 * n:].reshape(-1, m, N)
    dy = np.empty_like(y)
    dx = dy[2 * n:].reshape(x.shape)
    gamma = law.deriv(t, h, p[:m], v[:m], x, view, dx)
    dy[:n] = v
    dy[n:n + m] = follower_rhs(model, p[:m], v[:m], gamma)[1]
    dy[n + m:2 * n] = lead if model.kind != "oscillator" else \
        follower_rhs(model, p[m:], v[m:], np.zeros_like(lead))[1]
    return dy, gamma


def stage(ctrl, view, t: float, h: int, y: np.ndarray, lead=None):
    """ctrl's (dy, gamma) for the agents of the flat state y at time t and
    half tick h, from the block of the view at tick h // 2: a run whose
    stage times are all t, K = h // 2, and whose followers are live at
    tick 0 if the view has a message for them, else never; lead holds the
    leaders' accelerations for double integrators, (n - m, N), zero by
    default (oscillator leaders move freely)."""
    m, N = view.m, view.N
    n = (len(y) - len(ctrl.names) * m) // 2
    lead = np.zeros((n - m, N)) if lead is None else lead
    K, j = divmod(h, 2)
    lead = lead[None, None, :0 if isinstance(ctrl, OscillatorLaw) else None]
    ctrl.start(n, 0.01, np.full((K + 1, 3), t),
               np.where(view.live, 0, K + 1),
               np.broadcast_to(lead, (K + 1, 3) + lead.shape[2:]))
    return ctrl.deriv(K, y, ctrl.block(K, view)[0].reshape(3, -1)[j])
