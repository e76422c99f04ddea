"""Closed-loop containment runs on the shared sampled-data engine.

``run`` plugs the controller and the agent models into ``engine.Engine``,
which counts time in integer ticks, keeps the freshest delivered seq per
edge and holds the neighbor view fixed for each RK4 step.  It supplies the
payload (position and velocity estimate), the closed-loop right-hand side
and the recorded input.  The diagnostics follow the run: the containment
errors of all steps come from one broadcast product with the weights, and
each step builds the leader hull once and measures every follower's
distance to it in one array pass.
"""
from __future__ import annotations

import csv
import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .comm import CommConfig, LinkSchedule, generate_schedule, \
    period_ticks, to_ticks
from .control import Controller, GainSet, make_controller
from .dynamics import AgentModel, LeaderTrajectory, \
    check_oscillator_spectrum, follower_rhs, leader_accels
from .engine import DIVERGENCE_LIMIT, DivergenceError, Engine  # noqa: F401
from .engine import stage_table, topology_links
from .topology import DirectedTopology, containment_weights, partition, \
    validate_assumption1

HULL_TOL = 1e-8
HULL_MAX_ITER = 500
EXPORT_BLOCK_STEPS = 256        # steps per write of export_trace_csv


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    topo: DirectedTopology
    model: AgentModel                        # shared by all agents
    leader_trajs: list[LeaderTrajectory]     # one per leader, [] for oscillator
    variant: str
    gains: GainSet
    comm: CommConfig
    dt: float
    t_end: float
    N: int
    p0: np.ndarray                           # (n, N)
    v0: np.ndarray
    psi_mode: str = "static"
    v_d: np.ndarray | None = None
    use_velocity: bool = True
    label: str = "scenario"

    def validate(self) -> Controller:
        """Check the scenario and return the controller it runs."""
        topo = self.topo
        if self.model.kind == "oscillator":
            if not check_oscillator_spectrum(self.model.S1, self.model.S2):
                raise ScenarioError(
                    "agents.model: the oscillator matrix [[0, I], [S1, S2]] "
                    "needs a pure-imaginary, semi-simple spectrum")
        elif len(self.leader_trajs) != topo.n - topo.m:
            raise ScenarioError("need one trajectory per leader")
        if period_ticks(self.comm.T, self.dt, self.t_end, ScenarioError) < 10:
            raise ScenarioError("dt must be at most T/10")
        ok, unreachable = validate_assumption1(topo)
        if not ok:
            raise ScenarioError(f"followers unreachable from leaders: "
                                f"{unreachable}")
        try:
            ctrl = make_controller(self.variant, self.gains, self.N,
                                   model=self.model, psi_mode=self.psi_mode,
                                   v_d=self.v_d, use_velocity=self.use_velocity)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.p0.shape != (topo.n, self.N) or self.v0.shape != self.p0.shape:
            raise ScenarioError("p0/v0 must be (n, N)")
        return ctrl


@dataclass
class Trace:
    times: np.ndarray                        # (K+1,)
    p: np.ndarray                            # (K+1, n, N)
    v: np.ndarray
    gamma: np.ndarray                        # (K+1, m, N)
    internals: dict[str, np.ndarray]         # name -> (K+1, m, N)
    err_pos: np.ndarray                      # (K+1, m, N) stacked position error
    err_vel: np.ndarray
    hull_dist: np.ndarray                    # (K+1, m)
    W: np.ndarray                            # containment weights
    m: int
    audit: list = field(default_factory=list)
    used_seq: np.ndarray | None = None       # (K+1, E) seq in mailbox per edge
    edges: list = field(default_factory=list)
    schedules: dict = field(default_factory=dict)  # edge -> LinkSchedule used
    meta: dict = field(default_factory=dict)

    @property
    def err_pos_norm(self) -> np.ndarray:
        return np.linalg.norm(self.err_pos.reshape(self.err_pos.shape[0], -1),
                              axis=1)

    @property
    def err_vel_norm(self) -> np.ndarray:
        return np.linalg.norm(self.err_vel.reshape(self.err_vel.shape[0], -1),
                              axis=1)

    def index_of(self, t: float) -> int:
        off_grid = ValueError(f"t={t} is not on the trace grid")
        idx = int(to_ticks(t, self.meta["dt"], "t", lambda _: off_grid))
        if not 0 <= idx < len(self.times):
            raise off_grid
        return idx


def containment_error(trace: Trace, t: float) -> tuple[np.ndarray, float]:
    """Stacked position containment error and its norm at grid time t."""
    idx = trace.index_of(t)
    vec = trace.err_pos[idx].reshape(-1)
    return vec, float(np.linalg.norm(vec))


def hull_distance(p: np.ndarray, leaders: np.ndarray) -> float | np.ndarray:
    """Distance from p to the convex hull of the leader points.

    ``p`` is one point of shape ``(N,)``, giving a float, or ``m`` points of
    shape ``(m, N)``, giving an ``(m,)`` array; the hull is built once for
    all of them.
    """
    p = np.asarray(p, dtype=float)
    X = np.atleast_2d(np.asarray(leaders, dtype=float))
    P = np.atleast_2d(p)
    if P.shape[1] == 2:
        dist = _planar_hull_distance(P, convex_hull_2d(X))
    elif X.shape[0] == 1:
        dist = _norms(P - X[0])
    else:
        dist = np.array([_hull_distance_fw(q, X) for q in P])
    return float(dist[0]) if p.ndim == 1 else dist


def _norms(d: np.ndarray) -> np.ndarray:
    # sqrt(x . x) along the last axis, the way np.linalg.norm computes it
    # for one vector, so batched and per-point distances agree to the bit.
    return np.sqrt(np.vecdot(d, d))


def _planar_hull_distance(P: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Distances of the rows of P (m, 2) to the polygon hull (H, 2)."""
    if len(hull) == 1:
        return _norms(P - hull[0])
    a = hull if len(hull) > 2 else hull[:1]        # a segment has one edge
    edge = np.concatenate((hull[1:], hull[:1]))[:len(a)] - a
    dist = np.zeros(len(P))
    out = np.ones(len(P), dtype=bool)
    if len(a) > 2:       # inside: left of every edge, within 1e-12
        cross = (edge[:, 0] * (P[:, 1, None] - a[:, 1])
                 - edge[:, 1] * (P[:, 0, None] - a[:, 0]))
        out = ~(cross.min(axis=1) >= -1e-12)
    if out.any():        # nearest point on each edge, then the nearest edge
        Q = P[out][:, None, :]
        denom = np.vecdot(edge, edge)
        s = np.clip(np.divide(np.vecdot(Q - a, edge), denom,
                              out=np.zeros((len(Q), len(a))),
                              where=denom != 0), 0.0, 1.0)
        dist[out] = _norms(Q - (a + s[..., None] * edge)).min(axis=1)
    return dist


def convex_hull_2d(X: np.ndarray) -> np.ndarray:
    """Monotone-chain hull (Andrew 1979) of the rows of X, as an (H, 2)
    array: counterclockwise from the lowest-leftmost point, duplicates
    merged, a single point for coincident input and the two end points for
    collinear input."""
    pts = sorted(set(map(tuple, np.asarray(X, dtype=float).tolist())))
    if len(pts) > 2:
        hull = _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]
        pts = hull if len(hull) >= 3 else [pts[0], pts[-1]]
    return np.array(pts).reshape(-1, 2)


def _half_hull(points: list[tuple[float, float]]) -> list:
    out = []
    for q in points:
        qx, qy = q
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            if not (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) <= 1e-14:
                break           # a left turn: keep out[-1]
            out.pop()
        out.append(q)
    return out


def _hull_distance_fw(p: np.ndarray, X: np.ndarray) -> float:
    """Simplex-constrained least squares via a penalized nonnegative solve.

    min_a |p - X^T a| subject to a >= 0, sum a = 1; the sum constraint is
    enforced by a large quadratic penalty row, and the returned point is
    rebuilt from the normalized coefficients so it is exactly feasible.
    """
    from scipy.optimize import nnls
    mu = 1.0 / HULL_TOL
    A = np.vstack([X.T, mu * np.ones((1, X.shape[0]))])
    b = np.concatenate([p, [mu]])
    coef, _ = nnls(A, b, maxiter=10 * HULL_MAX_ITER)
    total = coef.sum()
    if total <= 0:
        return float(np.min(np.linalg.norm(X - p, axis=1)))
    y = (coef / total) @ X
    return float(np.linalg.norm(p - y))


# ---------------------------------------------------------------------------
# Integration


def build_schedules(scen: Scenario, seed: int | None = None
                    ) -> dict[tuple[int, int], LinkSchedule]:
    cfg = scen.comm if seed is None else \
        dataclasses.replace(scen.comm, seed=seed)
    return {edge: generate_schedule(edge, cfg, scen.t_end, scen.dt)
            for edge in scen.topo.edges()}


def run(scen: Scenario, seed: int | None = None,
        schedules: dict[tuple[int, int], LinkSchedule] | None = None
        ) -> Trace:
    """Validate the scenario, then integrate the closed loop at its step
    ``scen.dt``; deterministic given (scenario, seed).

    A prebuilt schedule set may be injected, e.g. to rerun the same messages
    at a finer step with ``dataclasses.replace(scen, dt=scen.dt / 2)``;
    otherwise they are generated from the comm config with the given seed
    override.  Injected schedules must be keyed by exactly the topology's
    edges, and their delays must be whole ticks of dt.  The run's
    schedules are on ``Trace.schedules``.  The leader accelerations are
    tabulated once, at every time the engine evaluates the right-hand side.
    """
    ctrl = scen.validate()
    dt, topo = scen.dt, scen.topo
    m, N = topo.m, scen.N
    W = containment_weights(partition(topo)).W
    if schedules is None:
        schedules = build_schedules(scen, seed)

    model, n = scen.model, topo.n
    eng = Engine(topology_links(topo, schedules, ScenarioError), scen.comm.T,
                 dt, scen.t_end, scen.p0[:m], ScenarioError)
    K = eng.K
    # The state: rows p, v, then one m-row block per controller internal.
    x0 = ctrl.init_internals(scen.p0[:m])
    gamma = np.empty((K + 1, m, N))
    used_seq = np.empty((K + 1, len(eng.edges)), dtype=int)
    if model.kind != "oscillator":
        # Every leader acceleration the run reads, read by stage time.
        times, row = stage_table(K, dt)
        accel_tab = leader_accels(scen.leader_trajs, times)

    def payload(y):
        # Followers transmit their velocity estimate, leaders their velocity.
        vhat = ctrl.transmitted_vhat(y[2 * n:].reshape(x0.shape))
        return np.concatenate([y[:n], np.concatenate([vhat, y[n + m:2 * n]])],
                              axis=1)

    def rhs(t, y, view):
        p, v = y[:n], y[n:2 * n]
        dy = np.empty_like(y)
        dy[:n] = v
        g = ctrl.deriv(t, p[:m], v[:m], y[2 * n:].reshape(x0.shape), view,
                       dy[2 * n:].reshape(x0.shape))
        dy[n:n + m] = follower_rhs(model, p[:m], v[:m], g)[1]
        if model.kind == "oscillator":    # free leader oscillation
            dy[n + m:2 * n] = p[m:] @ model.S1.T + v[m:] @ model.S2.T
        else:
            dy[n + m:2 * n] = accel_tab[row[t]]
        return dy, g

    def record(k, y, view, g):
        gamma[k] = g
        used_seq[k] = eng.box

    states = eng.run(np.concatenate([scen.p0, scen.v0, x0.reshape(-1, N)]),
                     payload, rhs, record, (("p", n, 1), ("v", n, 1)))
    trace_p, trace_v = states[:, :n], states[:, n:2 * n]
    internals = states[:, 2 * n:].reshape((K + 1,) + x0.shape)

    hull = np.empty((K + 1, m))
    for k in range(K + 1):
        hull[k] = hull_distance(trace_p[k, :m], trace_p[k, m:])

    # x_F + (L1^{-1} L2 (x) I) x_L  ==  x_F - W x_L, for all steps at once.
    return Trace(times=np.arange(K + 1) * dt, p=trace_p, v=trace_v,
                 gamma=gamma, internals={name: internals[:, i] for i, name
                                         in enumerate(ctrl.names)},
                 err_pos=trace_p[:, :m] - W @ trace_p[:, m:],
                 err_vel=trace_v[:, :m] - W @ trace_v[:, m:],
                 hull_dist=hull, W=W, m=m, schedules=schedules,
                 audit=eng.audit(), used_seq=used_seq, edges=eng.edges,
                 meta={"label": scen.label, "dt": dt, "t_end": scen.t_end,
                       "seed": seed if seed is not None else scen.comm.seed,
                       "variant": scen.variant})


def export_trace_csv(trace: Trace, path: str) -> None:
    """One CSV row per agent per step, in the csv module's default dialect
    (comma separated, CRLF line ends); floats are written as their repr.
    The rows are built from arrays and written EXPORT_BLOCK_STEPS steps at
    a time, so the whole file is never held in memory."""
    n, N = trace.p.shape[1:]
    m = trace.m
    header = ["t", "agent_id", "role"]
    header += [f"p_{d + 1}" for d in range(N)]
    header += [f"v_{d + 1}" for d in range(N)]
    header += ["err_norm", "hull_dist"]
    agents = [f"{i + 1},{'follower' if i < m else 'leader'}"
              for i in range(n)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(trace.times), EXPORT_BLOCK_STEPS):
            block = slice(start, start + EXPORT_BLOCK_STEPS)
            state = np.concatenate((trace.p[block], trace.v[block]), axis=2)
            lines = []
            for t, rows, err, hull in zip(
                    map(repr, trace.times[block].tolist()), state.tolist(),
                    _norms(trace.err_pos[block]).tolist(),
                    trace.hull_dist[block].tolist()):
                tail = [f"{e!r},{h!r}" for e, h in zip(err, hull)]
                tail += [","] * (n - m)
                lines += [f"{t},{a},{','.join(map(repr, r))},{x}\r\n"
                          for a, r, x in zip(agents, rows, tail)]
            fh.write("".join(lines))


def export_trace_sidecar(trace: Trace, scen: Scenario, path: str) -> None:
    doc = {
        "label": scen.label,
        "variant": scen.variant,
        "seed": trace.meta["seed"],
        "dt_seconds": trace.meta["dt"],
        "t_end_seconds": scen.t_end,
        "comm": {"T_seconds": scen.comm.T, "T_star_seconds": scen.comm.T_star,
                 "drop_prob": scen.comm.drop_prob,
                 "delay_max_seconds": scen.comm.delay_max,
                 "seed": scen.comm.seed},
        "final_err_pos_norm": float(trace.err_pos_norm[-1]),
        "final_err_vel_norm": float(trace.err_vel_norm[-1]),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_audit_csv(trace: Trace, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "seq", "send_time", "arrival_time"])
        for rec in trace.audit:
            w.writerow([rec[0], rec[1], rec[2], repr(rec[3]), repr(rec[4])])
