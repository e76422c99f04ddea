"""Sampled-data engine on integer ticks, shared by sim.run and the cascade.

The engine runs one or more disjoint copies of a topology, each with its
own link schedules, as one union edge list (``topology.union_rows``).  Time
is counted in ticks of the integration step dt: the delivered message seq
is sent at tick seq * steps_per_T and arrives its delay ticks later.  The
mailbox is one (K + 1, E) int array, the freshest delivered seq per edge
after each tick (-1 while nothing has arrived).  A message is some of its
sender's state rows at its send tick, one gather from the state history;
the neighbor view they form is frozen for the four stages of a classical
RK4 step, and rebuilt only at the ticks where the mailbox row changes.  A
run's state is one (rows, N) float array, a block of rows per variable
(sim.run: p, v, then the law's internals, m rows each; the cascade: eta,
then zeta, sigma rows per follower), and its history one (K + 1, rows, N)
array whose slices are the trace fields.
"""
from __future__ import annotations

import numpy as np

from .comm import TICK_TOL, to_ticks
from .control import NeighborView
from .topology import union_rows

DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """A state left the finite range [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT].

    agent is the row of the first offending agent, variable names the state
    array, and last_norm is the norm of that agent's row of that array at the
    last step where it was in range.  In a batch of runs, copy is the index
    of the run that diverged and agent its row in it (None for one run).
    """

    def __init__(self, t: float, agent: int, variable: str,
                 last_norm: float, copy: int | None = None):
        where = "" if copy is None else f" in batch copy {copy}"
        super().__init__(f"non-finite or diverging {variable} of agent "
                         f"{agent} at t={t:.6g} (last finite norm "
                         f"{last_norm:.6g}){where}")
        self.t, self.agent, self.variable = t, agent, variable
        self.last_norm, self.copy = last_norm, copy


def _divergence(t: float, y, prev, watch, rows) -> DivergenceError:
    """The error naming the first agent and variable out of range in y;
    prev is the state one step earlier, watch as in Engine.run, and rows
    the layout that maps a union row to its copy and agent."""
    for variable, agents, per_agent in watch:
        a, b = (z[:agents * per_agent].reshape(agents, -1) for z in (y, prev))
        bad = ~np.all(np.abs(a) <= DIVERGENCE_LIMIT, axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            copy, agent = np.argwhere(rows == row)[0].tolist()
            return DivergenceError(t, agent, variable,
                                   float(np.linalg.norm(b[row])),
                                   copy if len(rows) > 1 else None)
        y, prev = y[agents * per_agent:], prev[agents * per_agent:]


def stage_times(K: int, dt: float) -> np.ndarray:
    """The time of every row Engine.run passes to rhs over ticks 0..K: row
    k is k * dt, the start of step k; row K + 1 + k its midpoint
    k * dt + dt / 2 and row 2K + 1 + k its end k * dt + dt, in that
    floating-point arithmetic (k * dt + dt is not always (k + 1) * dt).
    At dt = 2 the rows are in whole half steps, 2k, 2k + 1 and 2k + 2."""
    t = np.arange(K + 1) * dt
    return np.concatenate((t, t[:-1] + dt / 2, t[:-1] + dt))


def rk4_step(rhs, mid, end, h: float, y: np.ndarray, u, k1: np.ndarray):
    """One classical RK4 step of dy/dt = rhs(row, y, u)[0] with u held fixed.

    mid and end are the rows of the step's midpoint and end, y is the state
    array and k1 = rhs(start, y, u)[0] is passed in, as the caller records
    the step-start outputs.  Sums accumulate in place in the order of y +
    h / 6 * (k1 + 2 k2 + 2 k3 + k4); rhs keeps no input, returns new arrays.
    """
    z = np.multiply(k1, h / 2)
    k2, _ = rhs(mid, np.add(z, y, out=z), u)
    k3, _ = rhs(mid, np.add(np.multiply(k2, h / 2, out=z), y, out=z), u)
    k4, _ = rhs(end, np.add(np.multiply(k3, h, out=z), y, out=z), u)
    k2 *= 2
    for term in (k1, np.multiply(k3, 2, out=k3), k4):
        k2 += term
    return np.add(np.multiply(k2, h / 6, out=k2), y, out=k2)


class Engine:
    """Compiled link schedules, the seq mailbox and the frozen-input loop.

    schedules holds one {(j, i): LinkSchedule} dict per copy of topo, each
    keyed by exactly topo's edges, else error is raised naming the edges
    missing and the keys extra.  Copy b's edge (j, i) is the union edge
    (rows[b, j], rows[b, i]) of ``self.rows`` (``topology.union_rows``),
    with topo's weight.  The union's edges are numbered in sorted order,
    which fixes the order of the neighbor sums, the mailbox columns and,
    with the tick and the seq, the audit order.  Row j of the (senders, r)
    int array send lists the state rows union agent j transmits, its
    position first.  A schedule drawn at another step is converted to the
    run's ticks; error is raised for one that does not fit them or has
    fewer sends than the run has send ticks, naming those edges.
    """

    def __init__(self, topo, schedules: list, T: float, dt: float,
                 t_end: float, send: np.ndarray, error=ValueError):
        self.T, self.dt = T, dt
        self.K = to_ticks(t_end, dt, "t_end", error)
        self.steps_per_T = to_ticks(T, dt, "the sampling period T", error)
        self.rows = union_rows(topo, len(schedules))
        self.m = len(schedules) * topo.m
        edges = set(topo.edges())
        for copy in schedules:
            if set(copy) != edges:
                raise error(f"schedules must have one entry per edge of the "
                            f"topology: missing edges "
                            f"{sorted(edges - set(copy))}, extra edges "
                            f"{sorted(set(copy) - edges)}")
        self.edges, w, scheds = map(list, zip(*sorted(
            ((r[j], r[i]), topo.weights[i, j], s)
            for r, copy in zip(self.rows.tolist(), schedules)
            for (j, i), s in copy.items())))
        self.src, self.dst = np.array(self.edges).T
        self.send_rows = np.asarray(send)[self.src]
        self.w = np.array(w)
        lens = [len(s.delay) for s in scheds]
        ok = np.flatnonzero(np.concatenate([s.delivered for s in scheds]))
        edge = np.repeat(np.arange(len(lens)), lens)[ok]
        seq = ok - (np.cumsum(lens) - lens)[edge]
        delay = np.concatenate([s.delay for s in scheds])[ok]
        steps = {(s.T, s.dt) for s in scheds}
        if any(to_ticks(T_s, dt, "the period of every schedule", error)
               != self.steps_per_T for T_s, _ in steps) or np.any(delay < 0):
            raise error("link messages must be sent at seq*T and have "
                        "delays >= 0")
        if any(dt_s != dt for _, dt_s in steps):     # drawn at another step
            x = delay * np.repeat([s.dt for s in scheds], lens)[ok] / dt
            delay = np.round(x).astype(int)
            if not np.all(np.abs(x - delay) <= TICK_TOL):
                raise error("dt must divide every link delay")
        sends = self.K // self.steps_per_T + 1
        short = [e for e, n in zip(self.edges, lens) if n < sends]
        if short:
            raise error(f"schedules must cover the run's {sends} sends: "
                        f"those of edges {short} stop before it ends")
        tick = seq * self.steps_per_T + delay
        # Deliveries in the audit log's order: tick, edge, seq.
        order = np.lexsort((seq, edge, tick))
        order = order[tick[order] <= self.K]
        self.tick, self.edge, self.seq = tick[order], edge[order], seq[order]
        # The mailbox: each edge's freshest seq delivered by each tick, or -1.
        used = np.full((self.K + 1, len(self.edges)), -1)
        np.maximum.at(used, (self.tick, self.edge), self.seq)
        self.used_seq = np.maximum.accumulate(used, axis=0)

    def stage_lags(self) -> np.ndarray:
        """The distinct ages h - 2 steps_per_T seq, in half steps, of the
        messages in use at the half tick h of every stage row: the view of
        tick k serves 2k, 2k + 1 and 2k + 2 for k < K, and 2K."""
        used, K = self.used_seq, self.K
        age = 2 * (np.arange(K + 1)[:, None] - self.steps_per_T * used)
        start = np.unique(age[:K][used[:K] >= 0])
        return np.unique(np.concatenate((start, start + 1, start + 2,
                                         age[K][used[K] >= 0])))

    def audit(self) -> list[tuple]:
        """(src, dst, seq, send_time, arrival) of every delivery, in order;
        in seconds, sent at seq * T and arriving the delay ticks later."""
        send = self.seq * self.T
        arrival = send + (self.tick - self.seq * self.steps_per_T) * self.dt
        return list(zip(self.src[self.edge].tolist(),
                        self.dst[self.edge].tolist(), self.seq.tolist(),
                        send.tolist(), arrival.tolist()))

    def view(self, box: np.ndarray, states: np.ndarray, last_half: int):
        """View of the mailbox row box, serving up to the half tick
        last_half: message seq of edge e is states[seq * steps_per_T,
        send[src[e]]], and a follower's fallback its row of states[0]."""
        live = box >= 0
        seq = box[live]
        rows, N = states.shape[1:]
        at = self.send_rows.compress(live, axis=0)
        at += (self.steps_per_T * rows) * seq[:, None]
        msg = states.reshape(-1, N).take(at, axis=0)
        return NeighborView(self.m, N, self.dst[live], self.w[live],
                            msg.reshape(-1, at.shape[1] * N), seq, self.T,
                            self.steps_per_T, states[0, :self.m], last_half)

    def run(self, y: np.ndarray, rhs, watch):
        """Integrate from the (rows, N) state y over ticks 0..K.

        At each tick: record y (a delay-0 message is read at its send
        tick), build the view of the mailbox if its row changed (or k = 0),
        serving up to the half tick 2e at the next tick e where it changes
        (or e = K), evaluate rhs(k, y, view) -> (dy, out), then take one
        RK4 step with the view held, its stages at rows K + 1 + k and
        2K + 1 + k of stage_times.  watch lists the leading row blocks that
        must stay in range as (variable, agents, rows per agent), agents in
        union row order; the first agent out raises DivergenceError against
        its step-start value.  Returns the (K+1, rows, N) state history and
        the (K+1, ...) stack of the step-start outs.
        """
        K, dt, used = self.K, self.dt, self.used_seq
        start = np.flatnonzero(np.r_[True, np.any(used[1:] != used[:-1], 1)])
        next_build = dict(zip(start.tolist(), start[1:].tolist() + [K]))
        watched = sum(agents * per_agent for _, agents, per_agent in watch)
        states = np.empty((K + 1,) + y.shape)
        for k in range(K + 1):
            states[k] = y
            if k in next_build:
                view = self.view(used[k], states, 2 * next_build[k])
            dy, out = rhs(k, y, view)
            if k == 0:
                outs = np.empty((K + 1,) + np.shape(out))
            outs[k] = out
            if k == K:
                break
            y = rk4_step(rhs, K + 1 + k, 2 * K + 1 + k, dt, y, view, dy)
            # A nan max fails the test too; initial=0 passes an empty watch.
            if not np.abs(y[:watched]).max(initial=0.0) <= DIVERGENCE_LIMIT:
                raise _divergence(k * dt + dt, y, states[k], watch,
                                  self.rows)
        return states, outs
