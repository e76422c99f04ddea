"""Reduced cascade model, input-to-state bounds, and robustness sweeps.

The closed loops here all reduce to one skeleton: leaders drift under an
exogenous input, each follower tracks a blend of a filter-chain output and
the sampled neighbour average, and the chain is a string of first-order
lags fed by that average.  ``simulate_cascades`` runs copies of one base
config, each a dict of the rates, link process or initial state it
changes, as one run of ``sim.run``'s engine over disjoint copies, each
copy's trace equal to its run alone.  Bounds of
exponential-plus-sup form on the deviation from the leader convex
combination, and the gain / blackout sweeps, certify robustness trends.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .comm import CommConfig, LinkSchedule, generate_schedule, period_ticks
from .control import rk4_operator
from .engine import Engine, stage_times
from .topology import DirectedTopology, containment_weights, partition, \
    validate_assumption1

ISS_REL_TOL = 1e-6
STEADY_FRAC = 0.2       # final share of a run that steady_bound reads
PAIR_T0S, PAIR_GAPS, PAIR_MIN_GAP = 20, 20, 0.5     # make_pair_grid's grid


class CascadeError(ValueError):
    pass


@dataclass(frozen=True)
class Perturbation:
    """Closed-form exogenous signal."""

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

    def value(self, t) -> np.ndarray:
        """The signal at time t, shaped like the amplitude; for an array of
        times, one such row per time."""
        a = self.amplitude
        t = np.asarray(t, float)[..., None]
        if self.kind == "zero":
            return np.zeros(t.shape[:-1] + a.shape)
        if self.kind == "constant":
            return np.tile(a, t.shape)
        if self.kind == "sinusoid":
            return a * np.sin(self.omega * t + self.phase)
        return a * np.exp(-self.rate * t)


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
                (not self.k_eta > 0,            # NaN fails too
                 "k_eta: all rates must be strictly positive"),
                (not all(r > 0 for r in self.h),
                 "h: all rates must be strictly positive"),
                (len(self.leader_drive) != topo.n - topo.m,
                 "leader_drive: need one drive per leader"),
                (self.phi2 and len(self.phi2) != self.sigma,
                 "phi2 needs one perturbation per layer"),
                (self.eta0.shape != (topo.n, self.N),
                 "initial.eta: eta0 must be (n, N)"),
                (self.zeta0.shape != (topo.m, self.sigma, self.N),
                 "initial.zeta: zeta0 must be (m, sigma, N)"),
                (not np.isfinite(self.eta0).all(),
                 "initial.eta: eta0 must be finite"),
                (not np.isfinite(self.zeta0).all(),
                 "initial.zeta: zeta0 must be finite")):
            if bad:
                raise CascadeError(f"cascade.{what}")
        signals = [("phi1", self.phi1),
                   *((f"phi2[{i}]", p) for i, p in enumerate(self.phi2)),
                   *((f"leader_drive[{i}]", d)
                     for i, d in enumerate(self.leader_drive))]
        for name, p in signals:
            if p.amplitude.shape not in ((1,), (self.N,)):
                raise CascadeError(
                    f"cascade.{name}: amplitude must have 1 or N={self.N} "
                    f"entries, got shape {p.amplitude.shape}")
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

    def steady_bound(self) -> float:
        """Sup of the stacked follower deviation norm over the final
        STEADY_FRAC of the run."""
        tail = max(1, int(round(STEADY_FRAC * self.times.shape[0])))
        err = self.eta_tilde()[-tail:]
        return float(np.max(np.linalg.norm(
            err.reshape(err.shape[0], -1), axis=1)))


# Fields in which the copies of one batch may differ; comm only outside T.
BATCH_FIELDS = ("k_eta", "h", "comm", "eta0", "zeta0")


def simulate_cascade(cfg: CascadeConfig,
                     schedules: dict[tuple[int, int], LinkSchedule] | None
                     = None) -> CascadeTrace:
    """Fixed-step RK4 integration of the cascade skeleton: the batch of one."""
    return simulate_cascades(cfg, [{}], None if schedules is None
                             else [schedules])[0]


def simulate_cascades(base: CascadeConfig, copies: list[dict],
                      schedules: list | None = None) -> list[CascadeTrace]:
    """Integrate a batch of copies of base as one run; one trace each.

    A copy is a dict of the BATCH_FIELDS values it changes (comm all but
    T); its config is base with those replaced.  Schedules are drawn once per
    distinct comm config, or given as one prebuilt set per copy (keyed by
    exactly the topology's edges, delays on dt's ticks).  A tick's row
    holds, per stage, the sampled average eps, held (a follower's initial
    eta until an in-edge delivers), then the signals; its step is one
    product with RK4's step operator on [y; row].  A diverging row raises
    ``engine.DivergenceError``."""
    if not copies:
        raise CascadeError("cascade batch: no copies")
    cfgs = [dataclasses.replace(base, **change) for change in copies]
    for cfg in cfgs:
        cfg.validate()
    for cfg, change in zip(cfgs, copies):
        for f in dataclasses.fields(CascadeConfig):
            if f.name in change and f.name not in BATCH_FIELDS:
                raise CascadeError(f"cascade batch: {f.name} differs")
            if f.name == "comm" and cfg.comm.T != base.comm.T:
                raise CascadeError("cascade batch: comm.T differs")
    B = len(cfgs)
    topo, N, sigma = base.topo, base.N, base.sigma
    m, n_lead = topo.m, topo.n - topo.m
    Bm, Bn = B * m, B * topo.n
    W = containment_weights(partition(topo))
    if schedules is None:       # one draw per distinct link process
        drawn = {comm: {edge: generate_schedule(edge, comm, base.t_end,
                                                base.dt)
                        for edge in topo.edges()}
                 for comm in dict.fromkeys(c.comm for c in cfgs)}
        schedules = [drawn[c.comm] for c in cfgs]
    elif len(schedules) != B:
        raise CascadeError(f"cascade batch: {len(schedules)} schedule sets "
                           f"for {B} copies")
    # The state: B * n rows of eta, then sigma rows of zeta per follower;
    # each agent sends its eta row.
    eng = Engine(topo, schedules, base.comm.T, base.dt, base.t_end,
                 np.arange(Bn)[:, None], CascadeError)
    K, rows = eng.K, eng.rows
    y0 = np.empty((Bn + Bm * sigma, N))
    y0[rows] = [c.eta0 for c in cfgs]
    y0[Bn:] = np.concatenate([c.zeta0 for c in cfgs]).reshape(-1, N)
    # The generator on [y; u], u = [eps; phi1, drives, phi2], as terms
    # (out, in, rate) over their entries: a follower's eta' = -k_eta (eta -
    # alpha zeta_1 - (1 - alpha) eps) + phi1, a leader's its drive, and
    # zeta_l' = -h_l (zeta_l - zeta_{l+1}, or eps for the last) + phi2_l.
    width = (Bm + 1 + n_lead + sigma) * N
    e = np.arange(y0.size + width).reshape(-1, N)     # [y; u] by row
    eta, lead, zeta = e[:Bm], e[Bm:Bn], e[Bn:len(y0)].reshape(Bm, sigma, N)
    eps, phi1, drive, phi2 = np.split(e[len(y0):], np.cumsum([Bm, 1, n_lead]))
    k_eta = np.repeat([c.k_eta for c in cfgs], m)[:, None]
    h = np.repeat([c.h for c in cfgs], m, axis=0)[..., None]
    terms = [(eta, eta, -k_eta), (eta, zeta[:, 0], base.alpha * k_eta),
             (eta, eps, (1.0 - base.alpha) * k_eta), (eta, phi1, 1.0),
             (lead, np.tile(drive, (B, 1)), 1.0), (zeta, zeta, -h),
             (zeta[:, :-1], zeta[:, 1:], h[:, :-1]),
             (zeta[:, -1], eps, h[:, -1]), (zeta, phi2, 1.0)]
    out, cols, coef = (np.concatenate([a.ravel() for a in part]) for part
                       in zip(*(np.broadcast_arrays(*t) for t in terms)))
    # A links no two agents' rows, nor two coordinates.
    agent = np.r_[np.arange(Bn), np.arange(Bm).repeat(sigma)][:, None] * N
    out, cols, coef = rk4_operator(out, cols, coef, (agent + np.arange(
        N)).ravel(), width, base.dt)
    # The signals at every tick's stage times: phi1, the drives, phi2.
    times = stage_times(K, base.dt)
    sig = np.stack([np.broadcast_to(p.value(times), times.shape + (N,))
                    for p in (base.phi1, *base.leader_drive,
                              *(base.phi2 or [Perturbation()] * sigma))], 2)

    def block(lo, view):        # per stage, eps (held), then the signals
        H = view.m // Bm
        return np.concatenate((np.broadcast_to(view.p_avg().reshape(
            H, 1, -1), (H, 3, Bm * N)), sig[lo:lo + H].reshape(H, 3, -1)),
            2).reshape(H, -1)

    def step(k, y, row):        # y at tick k + 1, eps at tick k
        x = np.concatenate((y.ravel(), row)).take(cols) * coef
        return np.bincount(out, x, y.size).reshape(y.shape), \
            row[:Bm * N].reshape(Bm, N)

    states, eps = eng.run(y0, step, (("eta", Bn, 1), ("zeta", Bm, sigma)),
                          block)

    deta_c = W @ sig[:, 0, 1:n_lead + 1]
    deta_c.flags.writeable = False
    phi1_vals = np.broadcast_to(sig[:, 0, None, 0].copy(), (K + 1, m, N))
    phi2_vals = np.broadcast_to(sig[:, 0, None, n_lead + 1:].copy(),
                                (K + 1, m, sigma, N))
    zeta = states[:, Bn:].reshape(K + 1, Bm, sigma, N)
    eta_c = W @ states[:, Bm:Bn].reshape(K + 1, B, n_lead, N)
    return [CascadeTrace(times=np.arange(K + 1) * base.dt, eta=states[:, r],
                         zeta=zeta[:, b * m:(b + 1) * m],
                         eps=eps[:, b * m:(b + 1) * m], eta_c=eta_c[:, b],
                         deta_c=deta_c, phi1_vals=phi1_vals,
                         phi2_vals=phi2_vals, cfg=c)
            for b, (r, c) in enumerate(zip(rows, cfgs))]


def make_pair_grid(times: np.ndarray) -> list[tuple[int, int]]:
    """(t0, t) index pairs: PAIR_T0S start times in the first half of the
    run x PAIR_GAPS log-spaced separations from PAIR_MIN_GAP seconds."""
    K = times.shape[0] - 1
    t_end = float(times[-1])
    dt = float(times[1] - times[0])
    pairs = []
    for t0 in np.linspace(0.0, 0.5 * t_end, PAIR_T0S):
        i0 = int(round(t0 / dt))
        max_gap = t_end - times[i0]
        if max_gap <= PAIR_MIN_GAP:
            continue
        for gap in np.geomspace(PAIR_MIN_GAP, max_gap, PAIR_GAPS):
            i1 = min(K, i0 + max(1, int(round(gap / dt))))
            pairs.append((i0, i1))
    return sorted(set(pairs))


def iss_estimate_check(trace: CascadeTrace,
                       pairs: list[tuple[int, int]] | None = None,
                       rel_tol: float = ISS_REL_TOL,
                       eta_override: np.ndarray | None = None) -> dict:
    """Verify the per-follower deviation bounds on a grid of (t0, t) pairs:
    for each pair, follower and chain layer, the deviation at t must not
    exceed the decay of its value at t0 plus the running sups of the
    feeding terms, within rel_tol * (1 + bound).  eta_override replaces
    trace.eta_tilde() (a corrupted history, for negative controls)."""
    cfg = trace.cfg
    if pairs is None:
        pairs = make_pair_grid(trace.times)
    eta_t = eta_override if eta_override is not None else trace.eta_tilde()
    n_eta = np.linalg.norm(eta_t, axis=2)                  # (K+1, m)
    n_zeta = np.linalg.norm(trace.zeta_tilde(), axis=3)    # (K+1, m, sigma)
    n_u, n_y = (np.linalg.norm(x, axis=2, keepdims=True)
                for x in (trace.u(), trace.y_pert()))
    n_ups = np.linalg.norm(trace.ups_pert(), axis=3)
    h = np.asarray(cfg.h, float)
    sigma = cfg.sigma
    # The feeding terms side by side: their sups from i0 are one accumulate.
    feeds = np.concatenate((n_u, n_y, n_zeta, n_ups), axis=2)
    pairs_arr = np.array(pairs, dtype=int).reshape(-1, 2)
    if np.any(pairs_arr[:, 1] < pairs_arr[:, 0]):
        raise ValueError("every pair (i0, i1) needs i0 <= i1")
    checked = violations = 0
    worst = -np.inf
    for i0 in np.unique(pairs_arr[:, 0]).tolist():
        i1 = pairs_arr[pairs_arr[:, 0] == i0, 1]
        sup = np.maximum.accumulate(feeds[i0:i1.max() + 1], axis=0)[i1 - i0]
        sup_u, sup_y = sup[..., 0], sup[..., 1]
        sup_z, sup_ups = sup[..., 2:2 + sigma], sup[..., 2 + sigma:]
        gap = (trace.times[i1] - trace.times[i0])[:, None]
        bound = np.exp(-cfg.k_eta * gap) * n_eta[i0] \
            + cfg.alpha * sup_z[..., 0] + (1.0 - cfg.alpha) * sup_u \
            + sup_y / cfg.k_eta
        # Layer ell is fed by layer ell + 1, the last layer by u.
        feed = np.concatenate((sup_z[..., 1:], sup_u[..., None]), axis=2)
        layer = np.exp(-h * gap[..., None]) * n_zeta[i0] + feed + sup_ups / h
        for dev, b in ((n_eta[i1], bound), (n_zeta[i1], layer)):
            margin = dev - b - rel_tol * (1.0 + b)
            checked += margin.size
            violations += int(np.count_nonzero(margin > 0))
            # One max per pair and block; max() passes over a NaN one.
            worst = max(worst, *np.max(margin, axis=1).ravel().tolist())

    return {"pairs": len(pairs), "checked": checked,
            "violations": violations, "worst_margin": worst}


def run_gain_sweep(base: CascadeConfig, multipliers=(1.0, 2.0, 4.0)
                   ) -> list[float]:
    """Steady deviation bound as all loop rates are scaled up together."""
    return run_sweeps(base, multipliers, ())[0]


def run_blackout_sweep(base: CascadeConfig, t_stars=(0.5, 1.0, 1.5)
                       ) -> list[float]:
    """Steady deviation bound as the blackout bound T_star is tightened."""
    return run_sweeps(base, (), t_stars)[1]


def run_sweeps(base: CascadeConfig, multipliers=(1.0, 2.0, 4.0),
               t_stars=(0.5, 1.0, 1.5)) -> tuple[list[float], list[float]]:
    """The gain and the blackout sweep, each config that appears in both
    (such as the base itself) integrated once, all in one batch."""
    keys = [(base.k_eta * g, tuple(r * g for r in base.h), base.comm)
            for g in multipliers]
    keys += [(base.k_eta, tuple(base.h), dataclasses.replace(
        base.comm, T_star=ts)) for ts in t_stars]
    distinct = list(dict.fromkeys(keys))
    traces = simulate_cascades(base, [dict(zip(("k_eta", "h", "comm"), key))
                                      for key in distinct]) if keys else []
    bounds = {key: tr.steady_bound() for key, tr in zip(distinct, traces)}
    out = [bounds[key] for key in keys]
    return out[:len(multipliers)], out[len(multipliers):]


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
        W = containment_weights(part)
        report["weights_ok"] = True
        report["W"] = W
        report["row_sum_error"] = float(np.max(np.abs(W.sum(axis=1) - 1.0)))
        report["min_weight"] = float(np.min(W))
    except Exception as exc:           # noqa: BLE001 - recorded, not raised
        report["weights_ok"] = False
        report["error"] = str(exc)
    sg = small_gain_certificate(part)
    report["small_gain"] = sg
    report["pass"] = bool(report["leader_reachability"] and report["m_matrix"]
                          and report["weights_ok"] and sg["pass"])
    return report
