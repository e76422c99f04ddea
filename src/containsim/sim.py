"""Closed-loop containment runs on the shared sampled-data engine.

``run`` plugs the controller into ``engine.Engine``: it names the state
rows each agent sends, and the law's ``block`` and ``step`` are the
engine's.  The containment errors of all steps come from one product with
the weights, their hull distances from one ``hull_distance`` call.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .comm import CommConfig, LinkSchedule, generate_schedule, \
    period_ticks, to_ticks
from .control import GainSet, Law, make_controller
from .dynamics import AgentModel, LeaderTrajectory, check_oscillator_spectrum
from .engine import DIVERGENCE_LIMIT, DivergenceError, Engine  # noqa: F401
from .engine import stage_times
from .topology import DirectedTopology, containment_weights, partition, \
    validate_assumption1

HULL_TOL = 1e-8
HULL_MAX_ITER = 500
EXPORT_BLOCK_STEPS = 256        # steps per write of export_trace_csv
HULL_BLOCK_POINTS = 2048        # most points per array pass of hull_distance


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    topo: DirectedTopology
    model: AgentModel                        # shared by all agents
    leaders: LeaderTrajectory | None         # None for the oscillator model
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

    def validate(self) -> Law:
        """Check the scenario and return the controller it runs."""
        topo = self.topo
        if self.model.kind == "oscillator":
            if not check_oscillator_spectrum(self.model.S1, self.model.S2):
                raise ScenarioError(
                    "agents.model: the oscillator matrix [[0, I], [S1, S2]] "
                    "needs a pure-imaginary, semi-simple spectrum")
        elif len(getattr(self.leaders, "index", ())) != topo.n - topo.m:
            raise ScenarioError("need one leader index per leader")
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
        for name, x in (("p0", self.p0), ("v0", self.v0), ("v_d", self.v_d)):
            if x is not None and not np.isfinite(x).all():
                raise ScenarioError(f"{name} must be finite")
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
    """Distances ``(S, m)`` of S steps of m followers ``p`` ``(S, m, N)``
    to the hulls of the same steps' leaders ``(S, L, N)``; one point
    ``(N,)`` (a float) or ``(m, N)`` is a stack of one.  One convex_hull_2d
    call builds every step's planar hull; the steps with as many vertices
    are measured together, at most HULL_BLOCK_POINTS followers a pass."""
    p = np.asarray(p, dtype=float)
    P = p[(None,) * (3 - p.ndim)]
    X = np.array(leaders, dtype=float, ndmin=3)
    if P.shape[2] == 2:
        hulls, sizes = convex_hull_2d(X)
        block = np.arange(len(P)) // max(1, HULL_BLOCK_POINTS // P.shape[1])
        dist = np.empty(P.shape[:2])
        for size, b in set(zip(sizes.tolist(), block.tolist())):
            steps = np.flatnonzero((sizes == size) & (block == b))
            dist[steps] = _planar_hull_distance(P[steps],
                                                hulls[steps, :size])
    else:
        dist = np.array([[_hull_distance_fw(q, x) for q in Q]
                         for Q, x in zip(P, X)])
    return float(dist[0, 0]) if p.ndim == 1 else dist.reshape(p.shape[:-1])


def _norms(d: np.ndarray) -> np.ndarray:
    # sqrt(x . x) along the last axis, the way np.linalg.norm computes it
    # for one vector, so batched and per-point distances agree to the bit.
    return np.sqrt(np.vecdot(d, d))


def _planar_hull_distance(P: np.ndarray, hull: np.ndarray) -> np.ndarray:
    """Distances of the rows of P (S, m, 2) to the polygons hull (S, H, 2),
    one per step, all with H vertices."""
    a = hull if hull.shape[1] > 2 else hull[:, :1]   # one edge, or a point
    edge = np.roll(hull, -1, axis=1)[:, :a.shape[1]] - a
    dist = np.zeros(P.shape[:2])
    out = np.ones(P.shape[:2], dtype=bool)
    if a.shape[1] > 2:   # inside: left of every edge, within 1e-12
        cross = (edge[:, None, :, 0] * (P[..., 1, None] - a[:, None, :, 1])
                 - edge[:, None, :, 1] * (P[..., 0, None] - a[:, None, :, 0]))
        out = ~(cross.min(axis=2) >= -1e-12)
    if out.any():        # nearest point on each edge, then the nearest edge
        step = np.nonzero(out)[0]    # dot products as two-term sums
        denom = (edge[..., 0] * edge[..., 0] + edge[..., 1] * edge[..., 1])[
            step]
        Q, a, edge = P[out][:, None, :], a[step], edge[step]
        s = np.clip(np.divide((Q[..., 0] - a[..., 0]) * edge[..., 0] + (
            Q[..., 1] - a[..., 1]) * edge[..., 1], denom, out=np.zeros(
                denom.shape), where=denom != 0), 0.0, 1.0)
        dist[out] = _norms(Q - (a + s[..., None] * edge)).min(axis=1)
    return dist


def convex_hull_2d(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone-chain hulls (Andrew 1979) of S planar point sets, the float
    array X (S, L, 2), side by side: vertices (S, 2L, 2), the first sizes[s]
    of row s counterclockwise from its lowest-leftmost point, duplicates
    merged; one point if all coincide, the two ends if all are collinear."""
    S, L = X.shape[:2]
    X = np.take_along_axis(X, np.lexsort((X[..., 1], X[..., 0]))[..., None],
                           axis=1)
    new = np.ones((S, L), dtype=bool)       # first of a run of equal points
    new[:, 1:] = (X[:, 1:] != X[:, :-1]).any(axis=2)
    last = L - 1 - new[:, ::-1].argmax(axis=1)
    # Stacks k rows deep: the lower chain, then from its end the upper one.
    H, k, rows = np.zeros((S, 2 * L, 2)), np.zeros(S, dtype=int), np.arange(S)
    for up, order in ((0, range(L)), (1, range(L - 1, -1, -1))):
        low = k + 1 if up else 2            # the least depth to pop at
        for i in order:
            (qx, qy), push = X[:, i].T, new[:, i] & (i <= last - up)
            pop = push
            while (pop := pop & (k >= low)).any():  # no left turn: pop
                (ox, oy), (ax, ay) = H[rows, k - 2].T, H[rows, k - 1].T
                pop &= (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) <= 1e-14
                k -= pop
            H[push, k[push]] = X[push, i]
            k += push
    return H, np.maximum(k - 1, 1)


def _hull_distance_fw(p: np.ndarray, X: np.ndarray) -> float:
    """min |p - X^T a| over a >= 0, sum a = 1, by a nonnegative solve with
    the sum as a heavy penalty row; the point is rebuilt from the
    normalized coefficients, so it is exactly feasible."""
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


def build_schedules(scen: Scenario) -> dict[tuple[int, int], LinkSchedule]:
    return {edge: generate_schedule(edge, scen.comm, scen.t_end, scen.dt)
            for edge in scen.topo.edges()}


def run(scen: Scenario,
        schedules: dict[tuple[int, int], LinkSchedule] | None = None
        ) -> Trace:
    """Validate the scenario, then integrate the closed loop at its step
    ``scen.dt``, deterministically.  Schedules are drawn from the comm
    config unless given (keyed by exactly the topology's edges, delays in
    whole ticks of dt), e.g. to rerun the same messages at half the step;
    ``Trace.schedules`` holds them."""
    ctrl = scen.validate()
    dt, topo, model = scen.dt, scen.topo, scen.model
    m, n, N = topo.m, topo.n, scen.N
    W = containment_weights(partition(topo))
    if schedules is None:
        schedules = build_schedules(scen)

    # Each agent sends its position beside a velocity: a follower its law's
    # internal row 0, a leader its own.
    send = np.c_[np.arange(n), np.r_[2 * n:2 * n + m, n + m:2 * n]]
    eng = Engine(topo, [schedules], scen.comm.T, dt, scen.t_end, send,
                 ScenarioError)
    K = eng.K
    # The state: rows p, v, then one m-row block per controller internal.
    x0 = ctrl.init_internals(scen.p0[:m])
    times = stage_times(K, dt)
    if model.kind == "oscillator":
        ctrl.flow.tabulate(eng.stage_lags(), dt)
    leaders = np.empty(times.shape + (0, N)) if scen.leaders is None \
        else scen.leaders.accel(times)   # the oscillator's move freely
    ctrl.start(n, dt, times, eng.first, leaders)
    states, gamma = eng.run(
        np.concatenate([scen.p0, scen.v0, x0.reshape(-1, N)]), ctrl.step,
        (("p", n, 1), ("v", n, 1)), ctrl.block)
    trace_p, trace_v = states[:, :n], states[:, n:2 * n]
    internals = states[:, 2 * n:].reshape((K + 1,) + x0.shape)

    # x_F + (L1^{-1} L2 (x) I) x_L  ==  x_F - W x_L, for all steps at once.
    return Trace(times=np.arange(K + 1) * dt, p=trace_p, v=trace_v,
                 gamma=gamma, internals={name: internals[:, i] for i, name
                                         in enumerate(ctrl.names)},
                 err_pos=trace_p[:, :m] - W @ trace_p[:, m:],
                 err_vel=trace_v[:, :m] - W @ trace_v[:, m:],
                 hull_dist=hull_distance(trace_p[:, :m], trace_p[:, m:]),
                 W=W, m=m, schedules=schedules,
                 audit=eng.audit(), used_seq=eng.used_seq, edges=eng.edges,
                 meta={"label": scen.label, "dt": dt, "t_end": scen.t_end,
                       "seed": scen.comm.seed, "variant": scen.variant})


def export_trace_csv(trace: Trace, path: str) -> None:
    """One CSV row per agent per step, in the csv module's default dialect
    (comma separated, CRLF line ends), floats as their repr; written
    EXPORT_BLOCK_STEPS steps at a time, never held in memory whole."""
    n, N = trace.p.shape[1:]
    m = trace.m
    header = ["t", "agent_id", "role", *(f"{x}_{d + 1}" for x in "pv"
                                         for d in range(N)),
              "err_norm", "hull_dist"]
    # One format string per step: field 0 is repr(t), then every agent's
    # p, every agent's v, the followers' errors and their hull distances.
    step = "".join(
        f"{{0}},{i + 1},{'follower' if i < m else 'leader'},"
        + ",".join(f"{{{1 + N * (i + n * k) + c}!r}}" for k in (0, 1)
                   for c in range(N))
        + (f",{{{1 + 2 * N * n + i}!r}},{{{1 + 2 * N * n + m + i}!r}}"
           if i < m else ",,") + "\r\n" for i in range(n))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(trace.times), EXPORT_BLOCK_STEPS):
            b = slice(start, start + EXPORT_BLOCK_STEPS)
            rows = np.concatenate([trace.times[b, None], *(x[b].reshape(
                len(x[b]), -1) for x in (trace.p, trace.v)),
                _norms(trace.err_pos[b]), trace.hull_dist[b]], axis=1)
            fh.write("".join([step.format(repr(row[0]), *row[1:])
                              for row in rows.tolist()]))


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
