"""Reduced cascade model, input-to-state bounds, and robustness sweeps.

The closed loops in this package all reduce to the same skeleton: leader
states drift under an exogenous input, each follower tracks a blend of a
filter-chain output and the sampled neighbor average, and the filter chain is
a string of first-order lags fed by that same average.  This module simulates
that skeleton on the same sampled-data engine as ``sim.run`` (integer ticks,
one seq mailbox, sender payload history, shared RK4 step), supplying only
the transmitted eta, the cascade right-hand side and what it records.  It
also evaluates explicit exponential-plus-sup bounds on the deviation from the
leader convex combination, and runs the gain / blackout sweeps used to
certify robustness trends.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .comm import CommConfig, LinkSchedule, generate_schedule, \
    period_ticks
from .control import NeighborView
from .engine import Engine
from .topology import DirectedTopology, containment_weights, partition, \
    validate_assumption1

ISS_REL_TOL = 1e-6


class CascadeError(ValueError):
    pass


@dataclass(frozen=True)
class Perturbation:
    """Closed-form exogenous signal with an exact derivative."""

    kind: str = "zero"           # zero | constant | sinusoid | decaying_exp
    amplitude: np.ndarray = 0.0  # scalar or shape-(N,) vector
    omega: float = 1.0           # sinusoid only
    phase: float = 0.0
    rate: float = 1.0            # decaying_exp only

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sinusoid", "decaying_exp"):
            raise CascadeError(f"unknown perturbation kind {self.kind!r}")
        object.__setattr__(self, "amplitude",
                           np.atleast_1d(np.asarray(self.amplitude, float)))

    def value(self, t: float) -> np.ndarray:
        a = self.amplitude
        if self.kind == "zero":
            return np.zeros_like(a)
        if self.kind == "constant":
            return a.copy()
        if self.kind == "sinusoid":
            return a * np.sin(self.omega * t + self.phase)
        return a * np.exp(-self.rate * t)

    def derivative(self, t: float) -> np.ndarray:
        a = self.amplitude
        if self.kind in ("zero", "constant"):
            return np.zeros_like(a)
        if self.kind == "sinusoid":
            return a * self.omega * np.cos(self.omega * t + self.phase)
        return -self.rate * a * np.exp(-self.rate * t)


@dataclass
class CascadeConfig:
    topo: DirectedTopology
    N: int
    alpha: float                 # blend: alpha * chain output + (1-alpha) * avg
    sigma: int                   # chain length
    k_eta: float
    h: tuple                     # sigma lag rates
    comm: CommConfig
    dt: float
    t_end: float
    eta0: np.ndarray             # (n, N)
    zeta0: np.ndarray            # (m, sigma, N)
    leader_drive: list           # one Perturbation per leader
    phi1: Perturbation = field(default_factory=Perturbation)
    phi2: list = field(default_factory=list)   # one Perturbation per layer

    def validate(self) -> None:
        topo = self.topo
        for bad, what in (
                (not 0.0 <= self.alpha <= 1.0, "alpha must be in [0, 1]"),
                (self.sigma < 1 or len(self.h) != self.sigma,
                 "h: need one lag rate per chain layer"),
                (self.k_eta <= 0, "k_eta: all rates must be strictly positive"),
                (any(r <= 0 for r in self.h),
                 "h: all rates must be strictly positive"),
                (len(self.leader_drive) != topo.n - topo.m,
                 "leader_drive: need one drive per leader"),
                (self.phi2 and len(self.phi2) != self.sigma,
                 "phi2 needs one perturbation per layer"),
                (self.eta0.shape != (topo.n, self.N),
                 "initial.eta: eta0 must be (n, N)"),
                (self.zeta0.shape != (topo.m, self.sigma, self.N),
                 "initial.zeta: zeta0 must be (m, sigma, N)")):
            if bad:
                raise CascadeError(f"cascade.{what}")
        ok, unreachable = validate_assumption1(topo)
        if not ok:
            raise CascadeError(f"unreachable followers: {unreachable}")
        period_ticks(self.comm.T, self.dt, self.t_end, CascadeError)


@dataclass
class CascadeTrace:
    times: np.ndarray
    eta: np.ndarray              # (K+1, n, N)
    zeta: np.ndarray             # (K+1, m, sigma, N)
    eps: np.ndarray              # (K+1, m, N) sampled neighbor average
    eta_c: np.ndarray            # (K+1, m, N) leader convex combination
    deta_c: np.ndarray           # (K+1, m, N) its exact derivative
    phi1_vals: np.ndarray        # (K+1, m, N)
    phi2_vals: np.ndarray        # (K+1, m, sigma, N)
    cfg: CascadeConfig

    @property
    def m(self) -> int:
        return self.cfg.topo.m

    def eta_tilde(self) -> np.ndarray:
        return self.eta[:, : self.m] - self.eta_c

    def zeta_tilde(self) -> np.ndarray:
        return self.zeta - self.eta_c[:, :, None, :]

    def u(self) -> np.ndarray:
        """Mismatch between the sampled average and the live combination."""
        return self.eps - self.eta_c

    def y_pert(self) -> np.ndarray:
        """Effective follower-level perturbation phi1 - d eta_c / dt."""
        return self.phi1_vals - self.deta_c

    def ups_pert(self) -> np.ndarray:
        """Effective chain-level perturbations phi2 - d eta_c / dt."""
        return self.phi2_vals - self.deta_c[:, :, None, :]

    def steady_bound(self, frac: float = 0.2) -> float:
        """Sup of the stacked follower deviation norm over the final stretch."""
        tail = max(1, int(round(frac * self.times.shape[0])))
        err = self.eta_tilde()[-tail:]
        return float(np.max(np.linalg.norm(
            err.reshape(err.shape[0], -1), axis=1)))


def simulate_cascade(cfg: CascadeConfig, seed: int | None = None,
                     schedules: dict[tuple[int, int], LinkSchedule] | None
                     = None) -> CascadeTrace:
    """Fixed-step RK4 integration of the cascade skeleton.

    Each agent transmits its eta at every sample instant; the sampled average
    eps is the engine's neighbor view averaged once per step and held for the
    step, so the right-hand side is smooth inside every integration step.
    Before the first delivery on all of a follower's in-edges the average
    falls back to the follower's initial eta.  An eta or zeta row leaving
    the engine's range raises ``engine.DivergenceError``.
    """
    cfg.validate()
    topo = cfg.topo
    m, N = topo.m, cfg.N
    W = containment_weights(partition(topo)).W
    comm = cfg.comm if seed is None else dataclasses.replace(cfg.comm,
                                                             seed=seed)
    if schedules is None:
        schedules = {edge: generate_schedule(edge, comm, cfg.t_end, cfg.dt)
                     for edge in topo.edges()}
    eng = Engine(schedules, topo.weights, comm.T, cfg.dt, cfg.t_end,
                 cfg.eta0[:m], CascadeError)
    K = eng.K
    h = np.asarray(cfg.h, float)
    phi2 = cfg.phi2 or [Perturbation() for _ in range(cfg.sigma)]

    tr_eps = np.empty((K + 1, m, N))
    tr_eta_c = np.empty((K + 1, m, N))
    tr_deta_c = np.empty((K + 1, m, N))
    tr_phi1 = np.empty((K + 1, m, N))
    tr_phi2 = np.empty((K + 1, m, cfg.sigma, N))

    def broadcast(vec: np.ndarray) -> np.ndarray:
        out = np.zeros(N)
        out[:] = vec if vec.shape[0] == N else vec[0]
        return out

    def drives(t: float) -> np.ndarray:
        return np.stack([broadcast(d.value(t)) for d in cfg.leader_drive])

    def rhs(t, y, eps):
        eta_s, zeta_s = y
        phi1_v = broadcast(cfg.phi1.value(t))
        delta = cfg.alpha * zeta_s[:, 0] + (1.0 - cfg.alpha) * eps
        deta = np.empty_like(eta_s)
        deta[:m] = -cfg.k_eta * (eta_s[:m] - delta) + phi1_v
        deta[m:] = drives(t)
        dzeta = np.empty_like(zeta_s)
        for ell in range(cfg.sigma):
            feed = zeta_s[:, ell + 1] if ell + 1 < cfg.sigma else eps
            dzeta[:, ell] = -h[ell] * (zeta_s[:, ell] - feed) \
                + broadcast(phi2[ell].value(t))
        return [deta, dzeta], None

    def record(k, y, eps, _):
        t = k * cfg.dt
        tr_eps[k] = eps
        tr_eta_c[k] = W @ y[0][m:]
        tr_deta_c[k] = W @ drives(t)
        tr_phi1[k] = broadcast(cfg.phi1.value(t))
        for ell in range(cfg.sigma):
            tr_phi2[k, :, ell] = broadcast(phi2[ell].value(t))

    (tr_eta, tr_zeta), _ = eng.run(
        [cfg.eta0.copy(), cfg.zeta0.copy()], lambda y: y[0], rhs, record,
        ("eta", "zeta"), freeze=NeighborView.p_avg)
    return CascadeTrace(times=np.arange(K + 1) * cfg.dt, eta=tr_eta,
                        zeta=tr_zeta, eps=tr_eps, eta_c=tr_eta_c,
                        deta_c=tr_deta_c, phi1_vals=tr_phi1,
                        phi2_vals=tr_phi2, cfg=cfg)


# ---------------------------------------------------------------------------
# Exponential-plus-sup deviation bounds


def make_pair_grid(times: np.ndarray, n_t0: int = 20, n_gap: int = 20,
                   min_gap: float = 0.5) -> list[tuple[int, int]]:
    """(t0, t) index pairs: n_t0 start times x n_gap log-spaced separations."""
    K = times.shape[0] - 1
    t_end = float(times[-1])
    dt = float(times[1] - times[0])
    pairs = []
    for t0 in np.linspace(0.0, 0.5 * t_end, n_t0):
        i0 = int(round(t0 / dt))
        max_gap = t_end - times[i0]
        if max_gap <= min_gap:
            continue
        for gap in np.geomspace(min_gap, max_gap, n_gap):
            i1 = min(K, i0 + max(1, int(round(gap / dt))))
            pairs.append((i0, i1))
    return sorted(set(pairs))


def iss_estimate_check(trace: CascadeTrace,
                       pairs: list[tuple[int, int]] | None = None,
                       rel_tol: float = ISS_REL_TOL,
                       eta_override: np.ndarray | None = None) -> dict:
    """Verify the per-follower deviation bounds on a grid of (t0, t) pairs.

    For each pair, each follower, and each chain layer the recorded deviation
    at t must not exceed the exponential decay of its value at t0 plus the
    running sups of the feeding terms, within rel_tol * (1 + bound).
    eta_override substitutes a corrupted follower-deviation history (same
    shape as trace.eta_tilde()) for negative-control checks.
    """
    cfg = trace.cfg
    if pairs is None:
        pairs = make_pair_grid(trace.times)
    eta_t = eta_override if eta_override is not None else trace.eta_tilde()
    zeta_t = trace.zeta_tilde()
    n_eta = np.linalg.norm(eta_t, axis=2)                  # (K+1, m)
    n_zeta = np.linalg.norm(zeta_t, axis=3)                # (K+1, m, sigma)
    n_u = np.linalg.norm(trace.u(), axis=2)
    n_y = np.linalg.norm(trace.y_pert(), axis=2)
    n_ups = np.linalg.norm(trace.ups_pert(), axis=3)
    h = np.asarray(cfg.h, float)
    sigma = cfg.sigma

    checked = 0
    violations = 0
    worst = -np.inf
    for i0, i1 in pairs:
        gap = trace.times[i1] - trace.times[i0]
        sl = slice(i0, i1 + 1)
        sup_u = np.max(n_u[sl], axis=0)
        sup_y = np.max(n_y[sl], axis=0)
        sup_z = np.max(n_zeta[sl], axis=0)                 # (m, sigma)
        sup_ups = np.max(n_ups[sl], axis=0)

        bound = np.exp(-cfg.k_eta * gap) * n_eta[i0] \
            + cfg.alpha * sup_z[:, 0] + (1.0 - cfg.alpha) * sup_u \
            + sup_y / cfg.k_eta
        margin = n_eta[i1] - bound - rel_tol * (1.0 + bound)
        checked += margin.size
        violations += int(np.count_nonzero(margin > 0))
        worst = max(worst, float(np.max(margin)))

        for ell in range(sigma):
            feed = sup_z[:, ell + 1] if ell + 1 < sigma else sup_u
            bound = np.exp(-h[ell] * gap) * n_zeta[i0, :, ell] + feed \
                + sup_ups[:, ell] / h[ell]
            margin = n_zeta[i1, :, ell] - bound - rel_tol * (1.0 + bound)
            checked += margin.size
            violations += int(np.count_nonzero(margin > 0))
            worst = max(worst, float(np.max(margin)))

    return {"pairs": len(pairs), "checked": checked,
            "violations": violations, "worst_margin": worst}


# ---------------------------------------------------------------------------
# Robustness sweeps


def run_gain_sweep(base: CascadeConfig, multipliers=(1.0, 2.0, 4.0),
                   seed: int | None = None) -> list[float]:
    """Steady deviation bound as all loop rates are scaled up together."""
    out = []
    for g in multipliers:
        cfg = dataclasses.replace(
            base, k_eta=base.k_eta * g, h=tuple(r * g for r in base.h))
        out.append(simulate_cascade(cfg, seed=seed).steady_bound())
    return out


def run_blackout_sweep(base: CascadeConfig, t_stars=(0.5, 1.0, 1.5),
                       seed: int | None = None) -> list[float]:
    """Steady deviation bound as the blackout bound T_star is tightened."""
    out = []
    for ts in t_stars:
        comm = dataclasses.replace(base.comm, T_star=ts)
        cfg = dataclasses.replace(base, comm=comm)
        out.append(simulate_cascade(cfg, seed=seed).steady_bound())
    return out


# ---------------------------------------------------------------------------
# Certificates


def containment_certificate(topo: DirectedTopology) -> dict:
    """Bundle the structural checks a topology must pass before simulation."""
    from .topology import is_nonsingular_m_matrix, small_gain_certificate
    ok, unreachable = validate_assumption1(topo)
    report = {"leader_reachability": ok, "unreachable_followers": unreachable}
    if not ok:
        report.update({"m_matrix": False, "weights_ok": False,
                       "small_gain": None, "pass": False})
        return report
    part = partition(topo)
    report["m_matrix"] = is_nonsingular_m_matrix(part.L1)
    try:
        weights = containment_weights(part)
        report["weights_ok"] = True
        report["W"] = weights.W
        report["row_sum_error"] = float(
            np.max(np.abs(weights.W.sum(axis=1) - 1.0)))
        report["min_weight"] = float(np.min(weights.W))
    except Exception as exc:           # noqa: BLE001 - recorded, not raised
        report["weights_ok"] = False
        report["error"] = str(exc)
    sg = small_gain_certificate(part)
    report["small_gain"] = sg
    report["pass"] = bool(report["leader_reachability"] and report["m_matrix"]
                          and report["weights_ok"] and sg["pass"])
    return report
