"""Sampled-data engine on integer ticks, shared by sim.run and the cascade.

It runs disjoint copies of a topology, each with its own link schedules,
as one union edge list (``topology.union_rows``).  Message seq is sent at
tick seq * steps_per_T and arrives its delay ticks later; the mailbox is
one (K + 1, E) int array, the freshest delivered seq per edge after each
tick (-1 before any).  A message is some of its sender's state rows at its
send tick, read from the (K + 1, rows, N) state history.  Every message in
use in a sampling period was sent by its first tick: there one view gives
the caller's sources, a row per tick, and one reduction after its last
tick checks its states.  A tick is the caller's step on its row (one
product with RK4's step operator, or RK4 for nonlinear terms) and two row
writes.
"""
from __future__ import annotations

import numpy as np

from .comm import TICK_TOL, to_ticks
from .control import NeighborView
from .topology import union_rows

DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """A state left the finite range [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT]:
    the first offending agent's row, the state array's name, and that row's
    norm at the last step it was in range; in a batch, the copy that
    diverged and the agent's row in it (copy None for one run)."""

    def __init__(self, t: float, agent: int, variable: str,
                 last_norm: float, copy: int | None = None):
        where = "" if copy is None else f" in batch copy {copy}"
        super().__init__(f"non-finite or diverging {variable} of agent "
                         f"{agent} at t={t:.6g} (last finite norm "
                         f"{last_norm:.6g}){where}")
        self.t, self.agent, self.variable = t, agent, variable
        self.last_norm, self.copy = last_norm, copy


def _divergence(ticks, lo: int, dt: float, watch, rows) -> DivergenceError:
    """The error for the first tick, then agent and variable, out of range
    in ticks, the watched states from tick lo (rows from union_rows)."""
    j = int(np.argmin(np.all(np.abs(ticks[1:]) <= DIVERGENCE_LIMIT,
                             axis=(1, 2))))     # step lo + j left the range
    y, prev = ticks[j + 1], ticks[j]
    for variable, agents, per_agent in watch:
        a, b = (z[:agents * per_agent].reshape(agents, -1) for z in (y, prev))
        bad = ~np.all(np.abs(a) <= DIVERGENCE_LIMIT, axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            copy, agent = np.argwhere(rows == row)[0].tolist()
            return DivergenceError((lo + j) * dt + dt, agent, variable,
                                   float(np.linalg.norm(b[row])),
                                   copy if len(rows) > 1 else None)
        y, prev = y[agents * per_agent:], prev[agents * per_agent:]


def stage_times(K: int, dt: float) -> np.ndarray:
    """The (K + 1, 3) stage times of ticks 0..K: row k holds k * dt, k * dt
    + dt / 2 and k * dt + dt (not always (k + 1) * dt)."""
    t = np.arange(K + 1)[:, None] * dt
    return np.hstack((t, t + dt / 2, t + dt))


class Engine:
    """Compiled link schedules, the seq mailbox and the tick loop.

    schedules holds one {(j, i): LinkSchedule} dict per copy of topo, keyed
    by exactly topo's edges (else error names the missing and extra ones).
    Copy b's edge (j, i) is the union edge (rows[b, j], rows[b, i]); union
    edges are numbered in sorted order, which fixes the order of the
    neighbour sums, the mailbox columns and, with tick and seq, the audit.
    Row j of the int array send lists the state rows union agent j sends,
    position first.  A schedule drawn at another step is converted to the
    run's ticks; error names the edges whose schedules do not fit them or
    stop before the run's last send."""

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
        # The first tick each follower holds a message (K + 1 for none).
        self.first = np.full(self.m, self.K + 1)
        np.minimum.at(self.first, self.dst[self.edge], self.tick)

    def stage_lags(self) -> np.ndarray:
        """The distinct ages h - 2 steps_per_T seq, in half steps, of the
        messages in use at tick k's stage half ticks h (2k to 2k + 2)."""
        age = 2 * (np.arange(self.K + 1)[:, None] - self.steps_per_T
                   * self.used_seq)[self.used_seq >= 0]
        seen = np.zeros(age.max(initial=-1) + 3, bool)
        seen[age] = seen[age + 1] = seen[age + 2] = True    # marks, no sort
        return np.flatnonzero(seen)

    def audit(self) -> list[tuple]:
        """(src, dst, seq, send_time, arrival) of every delivery, in order;
        in seconds, sent at seq * T and arriving the delay ticks later."""
        send = self.seq * self.T
        arrival = send + (self.tick - self.seq * self.steps_per_T) * self.dt
        return list(zip(self.src[self.edge].tolist(),
                        self.dst[self.edge].tolist(), self.seq.tolist(),
                        send.tolist(), arrival.tolist()))

    def view(self, lo: int, hi: int, states: np.ndarray) -> NeighborView:
        """The messages in use at ticks lo..hi - 1, one take, as the view of
        a row of (hi - lo) m followers (tick k's follower i is row (k - lo)
        m + i, in tick, then edge order); edge e's seq is states[seq *
        steps_per_T, send[src[e]]], each tick's fallback states[0, :m]."""
        box = self.used_seq[lo:hi]
        (t, e), seq = np.nonzero(box >= 0), box[box >= 0]
        rows, N = states.shape[1:]
        at = self.send_rows.take(e, axis=0)
        at += (self.steps_per_T * rows * seq)[:, None]
        msg = states.reshape(-1, N).take(at, axis=0)
        return NeighborView((hi - lo) * self.m, N, t * self.m + self.dst[e],
                            self.w[e], msg.reshape(-1, at.shape[1] * N), seq,
                            self.T, self.steps_per_T, states[0, :self.m])

    @np.errstate(all="ignore")      # a period steps on past a bad state
    def run(self, y: np.ndarray, step, watch, block):
        """Integrate from the (rows, N) state y over ticks 0..K: step(k,
        y, row) -> (y at tick k + 1, dropped at K; out at tick k, (m, N)).
        At a period's first tick k0, block(k0, view) turns the view of its
        ticks up to K, all sent by k0, into one row each.  watch lists the
        row blocks that must stay in range as (variable, agents, rows per
        agent), checked once a period: the first tick, then agent, out
        raises DivergenceError.  Returns the (K+1, rows, N) states, outs."""
        K, dt, spT = self.K, self.dt, self.steps_per_T
        watched = sum(agents * per_agent for _, agents, per_agent in watch)
        states = np.empty((K + 2,) + y.shape)     # row K + 1 is dropped
        outs = np.empty((K + 1, self.m, y.shape[1]))
        states[0] = y
        for lo in range(0, K + 1, spT):
            hi = min(lo + spT, K + 1)
            period = block(lo, self.view(lo, hi, states))
            for k in range(lo, hi):
                states[k + 1], outs[k] = step(k, states[k], period[k - lo])
            # A nan max fails the test too; initial=0 passes an empty watch.
            ticks = states[lo:min(hi, K) + 1, :watched]
            if not np.abs(ticks[1:]).max(initial=0.0) <= DIVERGENCE_LIMIT:
                raise _divergence(ticks, lo, dt, watch, self.rows)
        return states[:K + 1], outs
