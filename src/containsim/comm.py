"""Sampled, delayed, lossy per-edge message transport, on integer ticks.

Each edge (j, i) transmits at every sample instant seq * T; a message is
dropped or delivered after whole ticks of the integration step dt, and a
repair pass keeps consecutive deliveries within the blackout bound T_star.
The repair and ``verify_blackout_bound`` compare integer ticks only;
seconds (seq * T, ticks * dt) are recomputed only for output.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf
TICK_TOL = 1e-9


class CommConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CommConfig:
    T: float                 # sampling period, seconds
    T_star: float            # blackout bound, seconds
    drop_prob: float = 0.0
    delay_max: float = 0.0   # maximum finite delay, seconds
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.T < math.inf:           # NaN fails each test
            raise CommConfigError("sampling period T must be finite, > 0")
        if not self.T <= self.T_star < math.inf:
            raise CommConfigError("T_star must be >= T and finite")
        if not (0.0 <= self.drop_prob < 1.0):
            raise CommConfigError("drop_prob must be in [0, 1)")
        if not 0 <= self.delay_max < math.inf:
            raise CommConfigError("delay_max must be finite, >= 0")


@dataclass(eq=False)
class LinkSchedule:
    """One edge's messages, indexed by seq: message seq is sent at seq * T
    and, unless dropped, arrives delay[seq] ticks of dt later."""
    T: float                  # sampling period, seconds
    dt: float                 # tick, seconds
    delay: np.ndarray         # (n_sends,) int ticks, 0 where dropped
    delivered: np.ndarray     # (n_sends,) bool
    forced: np.ndarray        # (n_sends,) bool, delivered by the repair

    def seconds(self) -> tuple[np.ndarray, np.ndarray]:
        """Send times seq * T and delays ticks * dt, inf where dropped."""
        send = np.arange(len(self.delay)) * self.T
        return send, np.where(self.delivered, self.delay * self.dt, INF)

    @property
    def events(self) -> np.recarray:
        # Only the benchmark's tracer reads this (it counts sends and
        # deliveries), so it is built on demand and never stored.
        send, delay = self.seconds()
        return np.rec.fromarrays((np.arange(len(send)), send, delay),
                                 names="seq,send_time,delay")


def to_ticks(seconds: float, dt: float, what: str, error=ValueError) -> int:
    """seconds / dt as whole ticks; raises error unless dt divides them."""
    x = seconds / dt
    if not (math.isfinite(x) and abs(x - round(x)) <= TICK_TOL):
        raise error(f"dt must divide {what}")
    return round(x)


def floor_ticks(seconds: float, dt: float) -> int:
    """Whole ticks of dt in seconds, rounded down; a quotient within TICK_TOL
    below a whole number counts as it (0.3 / 0.01 = 29.999999999999996)."""
    return math.floor(seconds / dt + TICK_TOL)


def period_ticks(T: float, dt: float, t_end: float, error=ValueError) -> int:
    """Ticks of dt per sampling period T; raises error unless dt and the
    horizon t_end are positive and dt divides both T and t_end."""
    for key, val in (("sim.dt_seconds", dt), ("sim.t_end_seconds", t_end)):
        if not val > 0:
            raise error(f"{key} must be > 0, got {val!r}")
    to_ticks(t_end, dt, "sim.t_end_seconds", error)
    return to_ticks(T, dt, "the sampling period T", error)


def generate_schedule(edge: tuple[int, int], cfg: CommConfig, t_end: float,
                      dt: float) -> LinkSchedule:
    """Bernoulli drops + uniform delays on the kT grid, then a repair pass.

    Delays are rounded to whole ticks of dt (which must divide T).  The
    repair walks an Assumption-2 chain: where no delivery arrives within
    T_star of the previous chain send, the next message is forced through,
    its delay capped at delay_max and at the chain's deadline.
    """
    # Independent, reproducible stream per (seed, j, i).
    rng = np.random.default_rng(np.random.SeedSequence(
        [cfg.seed & 0xFFFFFFFFFFFFFFFF, edge[0], edge[1]]))
    spT = to_ticks(cfg.T, dt, "the sampling period T")
    # One send per sample tick of the run, counted as the engine counts them.
    n = floor_ticks(t_end, dt) // spT + 1
    # One draw for both: uniform(0, d) is 0.0 + d * random(), so this is
    # the stream of random(n) followed by uniform(0.0, delay_max, n).
    u = rng.random(2 * n)
    delivered = u[:n] >= cfg.drop_prob
    delay = (np.rint(cfg.delay_max * u[n:] / dt) * delivered).astype(int)
    sched = LinkSchedule(cfg.T, dt, delay, delivered, np.zeros(n, bool))
    d_max = floor_ticks(cfg.delay_max, dt)
    for s, latest in _chain_gaps(sched, spT, floor_ticks(cfg.T_star, dt)):
        delay[s] = min(d_max, latest)
        delivered[s] = sched.forced[s] = True
    return sched


def _chain_gaps(sched: LinkSchedule, spT: int, t_star: int):
    """The gaps of the greedy Assumption-2 chain over sched's messages, sent
    every spT ticks, against the blackout bound of t_star ticks.

    The first delivery must arrive by t_star, each next one within t_star
    of the previous chain send.  The chain takes the delivered message of
    greatest seq arriving by the deadline (it dominates every other
    choice; only sends up to the deadline can arrive by it).  Where none
    does, this yields (seq, latest) for the next message, to be forced
    through with a delay of at most latest ticks, and goes on from it.
    """
    delay, ok = sched.delay.tolist(), sched.delivered.tolist()
    last = len(delay) - 1
    chain, deadline = -1, t_star
    while chain < last:
        s = min(last, deadline // spT)
        while s > chain and not (ok[s] and s * spT + delay[s] <= deadline):
            s -= 1
        if s == chain:
            s += 1
            yield s, deadline - s * spT
        chain, deadline = s, s * spT + t_star


def verify_blackout_bound(sched: LinkSchedule, T_star: float,
                          t_end: float) -> bool:
    """Is the message in use never older than T_star up to the horizon
    t_end?  True iff a chain of deliveries covers it: the first within
    T_star of t = 0, each next within T_star of the previous chain send,
    the last send's T_star reaching t_end; so ``_chain_gaps`` may leave a
    gap only at or past the horizon tick."""
    spT = to_ticks(sched.T, sched.dt, "the sampling period T")
    t_star, K = floor_ticks(T_star, sched.dt), floor_ticks(t_end, sched.dt)
    return (len(sched.delay) - 1) * spT + t_star >= K and all(
        s * spT + latest >= K for s, latest in _chain_gaps(sched, spT, t_star))


def export_schedule_csv(schedules: dict[tuple[int, int], LinkSchedule],
                        path: str) -> None:
    """One row per message of every edge, in edge then seq order; times in
    seconds as their repr, inf for a dropped message."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["src", "dst", "seq", "send_time", "delay", "arrival_time"])
        for (j, i), sched in sorted(schedules.items()):
            send, delay = sched.seconds()
            w.writerows([j, i, seq, repr(s), repr(d), repr(a)]
                        for seq, (s, d, a) in enumerate(zip(
                            send.tolist(), delay.tolist(),
                            (send + delay).tolist())))
