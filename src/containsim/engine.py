"""Sampled-data engine on integer ticks, shared by sim.run and the cascade.

The graph is an edge list: each link is an edge, its weight and its
schedule, so a batch of disjoint copies needs no matrix of its own.
Time is counted in ticks of the integration step dt.  Link schedules hold
their delays in ticks, so they are compiled by concatenating their arrays:
the delivered message with sequence number seq is sent at tick
seq * steps_per_T and arrives delay ticks later.  A schedule drawn at
another step is converted to the run's ticks, and one whose sends or
delays are off them is rejected.  The mailbox is one
int array holding the freshest delivered seq per edge (-1 while nothing has
arrived).  Payloads are captured once per sender at the send ticks, so the
messages in use are one fancy index into that history.  The neighbor view
they form is frozen for the four stages of a classical RK4 step, and kept
over the ticks where nothing arrives.

A run's state is one (rows, N) float array, a block of rows per variable
(sim.run: p, v, then the law's internals, m rows each, whose derivative
rows the law writes in place; the cascade: eta, then zeta, sigma rows per
follower), so an RK4 step is four array expressions and the history is one
(K + 1, rows, N) array whose slices are the trace fields.
"""
from __future__ import annotations

import numpy as np

from .comm import to_ticks
from .control import NeighborView

DIVERGENCE_LIMIT = 1e9


class DivergenceError(RuntimeError):
    """A state left the finite range [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT].

    agent is the row of the first offending agent, variable names the state
    array, and last_norm is the norm of that agent's row of that array at the
    last step where it was in range.  In a batch of runs, copy is the index
    of the run that diverged and agent its row in that run; copy is None
    for a single run.
    """

    def __init__(self, t: float, agent: int, variable: str,
                 last_norm: float, copy: int | None = None):
        where = "" if copy is None else f" in batch copy {copy}"
        super().__init__(f"non-finite or diverging {variable} of agent "
                         f"{agent} at t={t:.6g} (last finite norm "
                         f"{last_norm:.6g}){where}")
        self.t, self.agent, self.variable = t, agent, variable
        self.last_norm, self.copy = last_norm, copy


def _divergence(t: float, y, prev, watch) -> DivergenceError:
    """The error naming the first agent and variable out of range in y;
    prev is the state one step earlier, watch as in Engine.run."""
    for variable, agents, rows in watch:
        a, b = (z[:agents * rows].reshape(agents, -1) for z in (y, prev))
        bad = ~np.all(np.abs(a) <= DIVERGENCE_LIMIT, axis=1)
        if bad.any():
            agent = int(np.argmax(bad))
            return DivergenceError(t, agent, variable,
                                   float(np.linalg.norm(b[agent])))
        y, prev = y[agents * rows:], prev[agents * rows:]


def stage_times(K: int, dt: float) -> np.ndarray:
    """Every time Engine.run passes to rhs over ticks 0..K: each k * dt,
    then rk4_step's stage times t + dt / 2 and t + dt for k < K, in the
    same floating-point arithmetic (t + dt is not always (k + 1) * dt)."""
    t = np.arange(K + 1) * dt
    return np.concatenate((t, t[:-1] + dt / 2, t[:-1] + dt))


def stage_table(K: int, dt: float) -> tuple[np.ndarray, dict]:
    """The distinct stage_times(K, dt), sorted, and a dict from each to its
    index: a signal tabulated once at these times is read in rhs(t, ...)
    as table[row[t]]."""
    times = np.unique(stage_times(K, dt))
    return times, dict(zip(times.tolist(), range(len(times))))


def topology_links(topo, schedules, error) -> list:
    """The links ((j, i), weight, schedule) of the topology's edges, in edge
    order; raises error unless the schedules are keyed by exactly those
    edges, naming the edges missing and the keys extra."""
    missing = sorted(set(topo.edges()) - set(schedules))
    extra = sorted(set(schedules) - set(topo.edges()))
    if missing or extra:
        raise error(f"schedules must have one entry per edge of the "
                    f"topology: missing edges {missing}, extra edges {extra}")
    return [((j, i), topo.weights[i, j], s)
            for (j, i), s in sorted(schedules.items())]


def rk4_step(rhs, t: float, h: float, y: np.ndarray, u, k1: np.ndarray):
    """One classical RK4 step of dy/dt = rhs(t, y, u)[0] with u held fixed.

    y is the state array and k1 = rhs(t, y, u)[0] is passed in, since the
    caller already evaluated it to record the step-start outputs.
    """
    k2, _ = rhs(t + h / 2, y + h / 2 * k1, u)
    k3, _ = rhs(t + h / 2, y + h / 2 * k2, u)
    k4, _ = rhs(t + h, y + h * k3, u)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


class Engine:
    """Compiled link schedules, the seq mailbox and the frozen-input loop.

    links is an iterable of ((src, dst), weight, LinkSchedule), one per
    edge, read once, in strictly increasing edge order: the edge numbering
    fixes the order of the neighbor sums, the columns of ``box`` and the
    audit order, so links out of order or repeated raise ValueError.
    fallback is the (m, N) reference a follower uses before any in-edge has
    delivered; error is the exception type raised for an input that does
    not fit the tick grid.
    """

    def __init__(self, links, T: float, dt: float, t_end: float,
                 fallback: np.ndarray, error=ValueError):
        self.T, self.dt, self.fallback = T, dt, fallback
        self.K = int(to_ticks(t_end, dt, "t_end", error))
        self.steps_per_T = int(to_ticks(T, dt, "the sampling period T",
                                        error))
        # One link at a time, so links that build each schedule when read
        # never hold them all.
        self.edges, w, seqs, delays, steps = [], [], [], [], []
        for key, weight, s in links:
            if self.edges and key <= self.edges[-1]:
                raise ValueError(f"links must come in strictly increasing "
                                 f"edge order: {key} after {self.edges[-1]}")
            self.edges.append(key)
            w.append(weight)
            seqs.append(np.flatnonzero(s.delivered))
            delays.append(s.delay[seqs[-1]])
            steps.append((s.T, s.dt))
        self.src, self.dst = np.array(self.edges, dtype=int).reshape(-1, 2).T
        self.w = np.array(w, dtype=float)
        count = [len(seq) for seq in seqs]
        edge = np.repeat(np.arange(len(count)), count)
        seq, delay = (np.concatenate(a + [np.empty(0, dtype=int)])
                      for a in (seqs, delays))
        T_s, dt_s = np.repeat(np.reshape(steps, (-1, 2)), count, axis=0).T
        if np.any(to_ticks(T_s, dt, "the period of every schedule", error)
                  != self.steps_per_T) or np.any(delay < 0):
            raise error("link messages must be sent at seq*T and have "
                        "delays >= 0")
        # Seconds as the schedules print them, for the audit log.
        send, delay_s = seq * T_s, delay * dt_s
        arrival = send + delay_s
        if np.any(dt_s != dt):      # drawn at another step
            delay = to_ticks(delay_s, dt, "every link delay", error)
        tick = seq * self.steps_per_T + delay
        # Deliveries in the audit log's order: tick, edge, arrival, seq.
        order = np.lexsort((seq, arrival, edge, tick))
        order = order[tick[order] <= self.K]
        self.tick, self.edge, self.seq = tick[order], edge[order], seq[order]
        self.send, self.arrival = send[order], arrival[order]
        self.first = np.searchsorted(self.tick, np.arange(self.K + 2))
        self.box = np.full(len(self.edges), -1)

    def audit(self) -> list[tuple]:
        """(src, dst, seq, send_time, arrival) of every delivery, in order."""
        return list(zip(self.src[self.edge].tolist(),
                        self.dst[self.edge].tolist(), self.seq.tolist(),
                        self.send.tolist(), self.arrival.tolist()))

    def deliver(self, k: int) -> None:
        """Apply the arrivals due at tick k to the mailbox."""
        due = slice(self.first[k], self.first[k + 1])
        np.maximum.at(self.box, self.edge[due], self.seq[due])

    def view(self, hist: np.ndarray) -> NeighborView:
        """View of the mailbox; hist[seq, j] is sender j's payload row, its
        first N columns the position-like part, the rest a velocity estimate.
        """
        live = self.box >= 0
        seq = self.box[live]
        msg = hist[seq, self.src[live]]
        m, N = self.fallback.shape
        return NeighborView(m, N, self.dst[live], self.w[live], msg[:, :N],
                            msg[:, N:], seq * self.T, self.fallback, self.dt)

    def run(self, y: np.ndarray, payload, rhs, record, watch, freeze=None):
        """Integrate from the (rows, N) state y over ticks 0..K.

        At each tick: capture payload(y) if it is a send tick, deliver the
        arrivals, build the view (turned into the held input by freeze, if
        given), evaluate rhs(t, y, u) -> (dy, out), call
        record(k, y, u, out), then take one RK4 step.  A tick with no
        arrivals keeps the previous input: the mailbox is unchanged, and
        the payload rows it points to were captured before they arrived.
        watch lists the leading row blocks that must stay in range as
        (variable, agents, rows per agent); the first agent to leave it
        raises DivergenceError against its step-start value.  Returns the
        (K+1, rows, N) state history.
        """
        K, dt, spT, first = self.K, self.dt, self.steps_per_T, self.first
        watched = sum(agents * rows for _, agents, rows in watch)
        states = np.empty((K + 1,) + y.shape)
        for k in range(K + 1):
            t = k * dt
            if k % spT == 0:
                sample = payload(y)
                if k == 0:
                    sent = np.empty((K // spT + 1,) + sample.shape)
                sent[k // spT] = sample
            if k == 0 or first[k] < first[k + 1]:
                self.deliver(k)
                u = self.view(sent)
                if freeze is not None:
                    u = freeze(u)
            dy, out = rhs(t, y, u)
            states[k] = y
            record(k, y, u, out)
            if k == K:
                break
            y = rk4_step(rhs, t, dt, y, u, dy)
            # abs(nan) <= limit is False, so this also catches non-finite y.
            if not np.all(np.abs(y[:watched]) <= DIVERGENCE_LIMIT):
                raise _divergence(t + dt, y, states[k], watch)
        return states
