"""Exact-step oracle for the linear laws (Van Loan, "Computing integrals
involving the matrix exponential", 1978).

Inside one integration step every follower holds its messages fixed, so
its closed loop is linear, and the forcing the messages exert is itself
the solution of a linear system: the extrapolated neighbour average of
``full_state`` moves at the constant average velocity estimate, and the
oscillator's propagated average moves with the free flow of S.  Stacking
the follower's state with that forcing state gives one constant matrix M
per follower and liveness, and the exact step is ``expm(M dt)`` applied to
the stacked state.  A follower still waiting for its first message holds
its initial position as the reference and averages its own velocity
estimate, which the output filters and the dynamic psi then carry.

The matrices below are written from the laws' equations; nothing here
calls the package's right-hand side, its RK4 step or its neighbour views.
The oracle replays a run's mailbox (``Trace.used_seq``) and reads the
leaders' messages from the run's recorded leader states.  In one-step mode
every step starts from the run's recorded follower state, so the
difference is RK4's local error, O(dt^5); in free mode the oracle carries
its own follower states and messages, so the end difference is the global
error, O(dt^4).
"""
import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from containsim import config, sim
from conftest import load_scenario_doc, seeded

# From a pilot at comm seeds 0-2 over the first 5 s: the largest one-step
# difference was 258 dt^5 (full_state) and 39 dt^5 (oscillator_full), and
# the end-error ratios at t_end = 2 s and 4 s were 16.06-16.34.  A pilot at
# comm seeds 2-5 gave at most 279 dt^5 (output_feedback) and 49 dt^5
# (oscillator_output), and end-error ratios of 16.16-16.32 at seeds 1-2.
ONE_STEP_C = {"benchmark_fullstate": 1e3, "oscillator_harmonic": 200.0,
              "benchmark_outputfb": 1e3, "oscillator_output": 200.0}
ORDER_RATIO = (15.0, 17.5)          # end error at dt over that at dt / 2


def follower_matrix(scen, i: int, live: bool) -> np.ndarray:
    """M for follower i, in N-row blocks.

    full_state (static psi): [p, v, vhat, theta, c1], with
        p' = v,  v' = -k_d (v - vhat) - k_p (p - theta),
        vhat' = -L_p (vhat - c1),  theta' = c1,  c1' = 0;
    a follower with no delivered message holds vhat and its initial
    position (theta = p0, c1 = 0).
    output_feedback (dynamic psi): [p, v, vhat, psi, phi, theta, c1], with
    gamma = -k_d (phi + p - vhat) - k_p (p - psi),
        p' = v,  v' = gamma,  vhat' as above,
        psi' = -k_psi (psi - theta) + vhat,  phi' = -(phi + p) + gamma.
    oscillator_full: [p, v, vhat, sigma, psi_p, psi_v], with w = v - vhat,
        gamma = -(k_d w + S2 w) - k_p (p - psi_p) + 2 sigma,
        p' = v,  v' = S1 p + S2 v + gamma,
        vhat' = S1 p + S2 vhat + sigma,
        sigma' = S1 w + S2 sigma - k_d sigma - k_p (vhat - psi_v),
        [psi_p; psi_v]' = [[0, I], [S1, S2]] [psi_p; psi_v];
    without a message psi_p = p0 stays put and the psi_v term drops.
    oscillator_output: [p, v, vhat, sigma, phi, psi_p, psi_v], with w =
    k_phi (phi + p) - vhat in gamma and sigma' for v - vhat, and
        phi' = -(k_phi - S2) (phi + p) + (gamma + S1 p) / k_phi.
    """
    N, g = scen.N, scen.gains
    I, Z = np.eye(N), np.zeros((N, N))
    k_p, k_d, k_phi = g.k_p[i] * I, g.k_d[i] * I, g.k_phi[i]
    on = float(live)
    L_p = on * g.L_p[i] * I
    if scen.variant == "full_state":
        return np.block([[Z, I, Z, Z, Z],
                         [-k_p, -k_d, k_d, k_p, Z],
                         [Z, Z, -L_p, Z, L_p],
                         [Z, Z, Z, Z, I],
                         [Z, Z, Z, Z, Z]])
    if scen.variant == "output_feedback":
        k_psi = g.k_psi[i] * I
        return np.block([[Z, I, Z, Z, Z, Z, Z],
                         [-k_d - k_p, Z, k_d, k_p, -k_d, Z, Z],
                         [Z, Z, -L_p, Z, Z, Z, L_p],
                         [Z, Z, I, -k_psi, Z, k_psi, Z],
                         [-I - k_d - k_p, Z, k_d, k_p, -I - k_d, Z, Z],
                         [Z, Z, Z, Z, Z, Z, I],
                         [Z, Z, Z, Z, Z, Z, Z]])
    S1, S2 = scen.model.S1, scen.model.S2
    if scen.variant == "oscillator_full":
        return np.block([[Z, I, Z, Z, Z, Z],
                         [S1 - k_p, -k_d, k_d + S2, 2 * I, k_p, Z],
                         [S1, Z, S2, I, Z, Z],
                         [Z, S1, -S1 - on * k_p, S2 - k_d, Z, on * k_p],
                         [Z, Z, Z, Z, Z, on * I],
                         [Z, Z, Z, Z, on * S1, on * S2]])
    D = k_d + S2            # gamma = -D w - k_p (p - psi_p) + 2 sigma
    p_, vhat, sigma, phi, psi_p = -k_phi * D - k_p, D, 2 * I, -k_phi * D, k_p
    Y = S2 - k_phi * I      # phi' = Y (phi + p) + (gamma + S1 p) / k_phi
    return np.block([[Z, I, Z, Z, Z, Z, Z],
                     [S1 + p_, S2, vhat, sigma, phi, psi_p, Z],
                     [S1, Z, S2, I, Z, Z, Z],
                     [k_phi * S1, Z, -S1 - on * k_p, S2 - k_d, k_phi * S1,
                      Z, on * k_p],
                     [Y + (p_ + S1) / k_phi, Z, vhat / k_phi, sigma / k_phi,
                      Y + phi / k_phi, psi_p / k_phi, Z],
                     [Z, Z, Z, Z, Z, Z, on * I],
                     [Z, Z, Z, Z, Z, on * S1, on * S2]])


class ExactStep:
    """The oracle for one run of scen whose trace is given."""

    def __init__(self, scen, trace):
        self.scen, self.trace = scen, trace
        topo, dt = scen.topo, trace.meta["dt"]
        self.m, self.N, self.dt, self.T = topo.m, scen.N, dt, scen.comm.T
        self.spT = int(round(self.T / dt))
        self.src, self.dst = np.array(trace.edges).T
        self.w = topo.weights[self.dst, self.src]
        self.steps = {}                 # (follower, live) -> expm(M dt)
        self.flows = {}                 # lag in ticks -> expm(S lag dt)
        if scen.variant.startswith("oscillator"):
            N = self.N
            self.S = np.block([[np.zeros((N, N)), np.eye(N)],
                               [scen.model.S1, scen.model.S2]])

    def step_matrix(self, i: int, live: bool) -> np.ndarray:
        if (i, live) not in self.steps:
            self.steps[i, live] = expm(follower_matrix(self.scen, i, live)
                                       * self.dt)
        return self.steps[i, live]

    def flow(self, lag: int) -> np.ndarray:
        if lag not in self.flows:
            self.flows[lag] = expm(self.S * (lag * self.dt))
        return self.flows[lag]

    def message(self, j: int, tick: int, own) -> np.ndarray:
        """[position; velocity estimate] agent j sent at tick: a leader's
        recorded position and velocity, a follower's from own (tick, j)."""
        if j >= self.m:
            return np.concatenate([self.trace.p[tick, j],
                                   self.trace.v[tick, j]])
        return own(tick, j)

    def forcing(self, k: int, own) -> tuple[np.ndarray, np.ndarray]:
        """The forcing state of every follower at tick k, (m, 2N), from
        the messages in the mailbox row k, and which followers hold one."""
        N, t = self.N, k * self.dt
        num, kappa = np.zeros((self.m, 2 * N)), np.zeros(self.m)
        for e, seq in enumerate(self.trace.used_seq[k]):
            if seq < 0:
                continue
            x = self.message(self.src[e], seq * self.spT, own)
            if not self.scen.variant.startswith("oscillator"):
                # [theta(t), c1]
                x = np.concatenate([x[:N] + x[N:] * (t - seq * self.T),
                                    x[N:]])
            else:                                   # e^{S (t - t_send)} x
                x = self.flow(k - seq * self.spT) @ x
            num[self.dst[e]] += self.w[e] * x
            kappa[self.dst[e]] += self.w[e]
        live = kappa > 0
        out = np.zeros((self.m, 2 * N))
        out[:, :N] = self.trace.p[0, :self.m]       # the fallback p0
        out[live] = num[live] / kappa[live, None]
        return out, live

    def run(self, free: bool) -> tuple[np.ndarray, np.ndarray]:
        """The oracle's and the run's follower states, (K + 1, m, blocks *
        N) each, [p, v] and the law's internals, row 0 the run's own.
        One-step mode (free=False) starts each step from the run's state at
        its start tick; free mode from the oracle's own."""
        tr, m = self.trace, self.m
        blocks = [tr.p[:, :m], tr.v[:, :m], *tr.internals.values()]
        recorded = np.concatenate(blocks, axis=2)
        z = recorded.copy() if not free else \
            np.concatenate([recorded[:1], np.full_like(recorded[1:], np.nan)])
        N = self.N
        for k in range(len(tr.times) - 1):
            state = z if free else recorded

            def own(tick, j):
                return np.concatenate([state[tick, j, :N],
                                       state[tick, j, 2 * N:3 * N]])
            force, live = self.forcing(k, own)
            for i in range(m):
                x = np.concatenate([state[k, i], force[i]])
                z[k + 1, i] = (self.step_matrix(i, bool(live[i])) @ x)[
                    :recorded.shape[2]]
        return z, recorded


def bundled(name: str, t_end: float, seed: int):
    """The bundled scenario name, or oscillator_harmonic with the variant
    oscillator_output, over t_end at the comm seed."""
    doc = load_scenario_doc("oscillator_harmonic" if name ==
                            "oscillator_output" else name)
    if name == "oscillator_output":
        doc["controllers"]["variant"] = name
    doc["sim"]["t_end_seconds"] = t_end
    return seeded(config.build_scenario(doc), seed)


@pytest.mark.parametrize("name", list(ONE_STEP_C))
@pytest.mark.parametrize("seed", [0, 1])
def test_one_step_error_is_fifth_order(name, seed):
    scen = bundled(name, 5.0, seed)
    trace = sim.run(scen)
    oracle = ExactStep(scen, trace)
    exact, run = oracle.run(free=False)
    gap = np.abs(exact[1:] - run[1:]).max()
    # Warm-up views (a follower with no message yet) are among the steps.
    assert not trace.used_seq[0].min() >= 0
    assert gap <= ONE_STEP_C[name] * scen.dt ** 5, gap
    assert gap > 0.0                # the run is RK4, not the exact flow


@pytest.mark.parametrize("name", list(ONE_STEP_C))
def test_global_error_is_fourth_order(name):
    scen = bundled(name, 2.0, 0)
    schedules = sim.build_schedules(scen)
    errors = []
    for dt in (scen.dt, scen.dt / 2):
        fine = dataclasses.replace(scen, dt=dt)
        trace = sim.run(fine, schedules=schedules)
        exact, run = ExactStep(fine, trace).run(free=True)
        errors.append(np.abs(exact[-1] - run[-1]).max())
    ratio = errors[0] / errors[1]
    assert ORDER_RATIO[0] <= ratio <= ORDER_RATIO[1], (errors, ratio)
