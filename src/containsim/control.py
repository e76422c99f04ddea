"""Follower control laws and their auxiliary dynamic systems.

Six variants run on three laws, ``DoubleIntegratorLaw``, ``OscillatorLaw``
and ``NonlinearVSController`` (the first plus two nonlinear terms), picked
by ``make_controller``; each lists its generator's terms for the one base
``Law``.  ``start`` binds a law to a run; then ``block(lo, view)`` is the
step sources at each tick of a period, ``step(k, y, row)`` the engine's
step and ``deriv(k, y, u)`` the flat state's derivative and the control
input at a stage of tick k.  The internals ``names`` are m-row blocks after p
and v; block 0 is vhat, the velocity estimate a follower sends.
Neighbours enter through weighted averages over the delivered in-edges;
until one has delivered, a follower's position reference is its initial
position and its velocity average its own.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import AgentModel, OscillatorFlow

BOUNDARY_LAYER_DEFAULT = 1e-4

# Each variant's controllers settings besides its gains, and the gains it
# reads (k_psi only under psi_mode "dynamic").
VARIANTS = {"full_state": (("psi_mode",), ("k_p", "k_d", "L_p", "k_psi")),
            "output_feedback": (("psi_mode",), ("k_p", "k_d", "L_p", "k_psi")),
            "known_vd": (("psi_mode", "v_d", "use_velocity"),
                         ("k_p", "k_d", "k_psi")),
            "nonlinear_vs": ((), ("k_p", "k_d", "L_p", "L_d", "k_r", "lam",
                                  "boundary_layer_eps")),
            "oscillator_full": ((), ("k_p", "k_d")),
            "oscillator_output": ((), ("k_p", "k_d", "k_phi"))}
PSI_MODES = ("static", "dynamic")
GAINS = ("k_p", "k_d", "L_p", "L_d", "k_psi", "k_phi", "k_r")


class GainError(ValueError):
    pass


def _as_follower_array(value, m: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    arr = np.full(m, float(arr)) if arr.ndim == 0 else arr
    if arr.shape != (m,):
        raise GainError(f"gain must be scalar or length-{m}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class GainSet:
    """Per-follower scalar gains; scalars broadcast to all m followers."""

    m: int
    k_p: np.ndarray = 1.0
    k_d: np.ndarray = 2.0
    L_p: np.ndarray = 1.0
    L_d: np.ndarray = 1.0
    k_psi: np.ndarray = 1.0
    k_phi: np.ndarray = 1.0
    k_r: np.ndarray = 1.0
    lam: np.ndarray | None = None
    boundary_layer_eps: float = BOUNDARY_LAYER_DEFAULT

    def __post_init__(self):
        for name in GAINS + ("lam",):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_follower_array(
                    getattr(self, name), self.m))

    def lam_derived(self) -> np.ndarray:
        """Larger real root of x^2 + k_d x + k_p = 0 (faster position pole)."""
        disc = self.k_d ** 2 - 4.0 * self.k_p
        if np.any(disc < 0):
            raise GainError("k_d^2 >= 4 k_p required to derive lambda")
        return 0.5 * (self.k_d + np.sqrt(disc))

    def lam_effective(self) -> np.ndarray:
        return self.lam if self.lam is not None else self.lam_derived()


def check_gains(variant: str, gains: GainSet,
                S2: np.ndarray | None = None) -> tuple[bool, list[str]]:
    """Validate positivity plus the variant-specific structural conditions."""
    problems = []
    for name in GAINS:
        if not np.all(getattr(gains, name) > 0):      # NaN fails too
            problems.append(f"{name} must be strictly positive")
    eps = gains.boundary_layer_eps          # one number, not an array
    if not (isinstance(eps, numbers.Real) and eps > 0):
        problems.append("boundary_layer_eps must be a number > 0")
    # nonlinear_vs needs real roots only to derive a lam it is not given.
    if variant != "nonlinear_vs" or gains.lam is None:
        bad = np.flatnonzero(gains.k_d ** 2 - 4.0 * gains.k_p < 0).tolist()
        if bad:
            problems.append(
                f"real-roots condition k_d^2 >= 4 k_p fails for followers {bad}")
    if variant == "nonlinear_vs" and gains.lam is not None \
            and not np.all(gains.lam > 0):
        problems.append("lam must be strictly positive")
    if variant == "oscillator_output":
        if S2 is None:
            problems.append("oscillator_output requires S2")
        else:       # the first follower whose filter is unstable
            eigs = np.linalg.eigvals(-gains.k_phi[:, None, None]
                                     * np.eye(S2.shape[0]) + S2)
            bad = np.flatnonzero(np.any(eigs.real >= 0, axis=1))[:1].tolist()
            problems += [f"-k_phi I + S2 unstable for follower {i}"
                         for i in bad]
    return (not problems), problems


def vartheta(p_msg: np.ndarray, vhat_msg: np.ndarray,
             send_time: float | np.ndarray, t: float) -> np.ndarray:
    """Position extrapolated from the last received sample; send_time is
    a float or an (E, 1) column, one send time per message row."""
    return p_msg + vhat_msg * (t - send_time)


class NeighborView:
    """The delivered messages of some ticks' mailbox rows and their averages.

    Its m rows are (tick, follower) pairs, tick-major; p_fallback holds
    one tick's initial positions.  Arrays are indexed by delivered
    in-edge: dst is its row, msg its message [p_msg, vhat_msg], sent at seq
    * T = send_time, or send_half = 2 steps_per_T seq half steps.  Averages
    are read-only (c0, c1 of vartheta_avg = c0 + t c1 memoized); a row
    without a message reads its fallback position and a velocity estimate
    of 0, which the laws' waiting forms never read."""

    def __init__(self, m: int, N: int, dst: np.ndarray, w: np.ndarray,
                 msg: np.ndarray, seq: np.ndarray, T: float,
                 steps_per_T: int, p_fallback: np.ndarray):
        self.m, self.N, self.dst, self.w, self.p_fallback = \
            m, N, dst, w, p_fallback
        self.msg, self.p_msg, self.vhat_msg = msg, msg[:, :N], msg[:, N:]
        self.send_time, self.send_half = seq * T, 2 * steps_per_T * seq
        self.kappa_delivered = np.bincount(dst, w, minlength=m)
        self.live = self.kappa_delivered > 0
        self.all_live = bool(self.live.all())
        self._rows = slice(None) if self.all_live else self.live
        self._c = None

    def _live_average(self, contrib: np.ndarray) -> np.ndarray:
        """Weighted average of the rows of contrib (one per edge) over the
        in-edges of each live follower, (live followers, columns)."""
        cols = contrib.shape[1]     # one bincount adds each bin in edge order
        num = np.bincount((self.dst[:, None] * cols + np.arange(cols)).ravel(),
                          weights=(self.w[:, None] * contrib).ravel(),
                          minlength=self.m * cols).reshape(self.m, cols)
        avg = num[self._rows] / self.kappa_delivered[self._rows, None]
        avg.flags.writeable = False
        return avg

    def _with_fallback(self, live_rows: np.ndarray, fallback) -> np.ndarray:
        if self.all_live:
            return live_rows
        out = np.empty(live_rows.shape[:-2] + (self.m, self.N))
        out.reshape(out.shape[:-2] + (-1,) + self.p_fallback.shape)[...] = \
            fallback                    # broadcast to each tick's rows
        out[..., self.live, :] = live_rows
        out.flags.writeable = False
        return out

    def p_avg(self) -> np.ndarray:
        """Weighted average of the delivered positions, not extrapolated."""
        return self._with_fallback(self._live_average(self.p_msg),
                                   self.p_fallback)

    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        """c0 and c1 on the live rows: the averages of vartheta at t = 0
        and of vhat_msg, from one bincount per view."""
        if self._c is None:
            c = self._live_average(np.concatenate((vartheta(
                self.p_msg, self.vhat_msg, self.send_time[:, None], 0.0),
                self.vhat_msg), axis=1))
            self._c = c[:, :self.N], c[:, self.N:]
        return self._c

    def vartheta_avg(self, t) -> np.ndarray:
        """Weighted average of the extrapolated positions at t, c0 + t c1:
        vartheta is affine in t; t is one time, or one per tick on its last
        axis, row i's tick i // len(p_fallback)."""
        c0, c1 = self._affine()
        if np.ndim(t):
            t = np.asarray(t)[..., np.arange(self.m)[self._rows]
                              // len(self.p_fallback), None]
        theta = c0 + t * c1
        theta.flags.writeable = False
        return self._with_fallback(theta, self.p_fallback)

    def vhat_avg(self) -> np.ndarray:
        return self._with_fallback(self._affine()[1], 0.0)

    def oscillator_psi(self, lo: int, flow: OscillatorFlow) -> np.ndarray:
        """Weighted average of e^{S (t - t_send)} [p_msg; vhat_msg] at the
        half ticks 2k to 2k + 2 of each row's tick k from lo on, psi_p then
        psi_v: (3, 2, m, N); lags in half steps.  An edge's flows at its
        three lags are one (6N, 2N) matrix: one product per edge."""
        lag = 2 * (lo + self.dst // len(self.p_fallback)) - self.send_half
        flows = flow.table.take(lag[:, None] + np.arange(3), axis=0)
        psi = self._live_average(np.matmul(flows.reshape(
            len(lag), 6 * self.N, 2 * self.N), self.msg[:, :, None])[..., 0])
        psi = psi.reshape(len(psi), 3, 2, self.N).transpose(1, 2, 0, 3)
        return psi if self.all_live else self._with_fallback(psi, np.stack(
            (self.p_fallback, 0 * self.p_fallback))[:, None])


def rk4_step(rhs, h: float, y: np.ndarray, u, k1: np.ndarray):
    """One classical RK4 step of dy/dt = rhs(s, y, u)[0] with u held, at
    its stages s: 1 the midpoint, 2 the end; k1 = rhs(0, y, u)[0] given.
    Sums accumulate in place in the order of y + h / 6 * (k1 + 2 k2 + 2 k3
    + k4); rhs keeps no input, returns new arrays."""
    z = np.multiply(k1, h / 2)
    k2, _ = rhs(1, np.add(z, y, out=z), u)
    k3, _ = rhs(1, np.add(np.multiply(k2, h / 2, out=z), y, out=z), u)
    k4, _ = rhs(2, np.add(np.multiply(k3, h, out=z), y, out=z), u)
    k2 *= 2
    for term in (k1, np.multiply(k3, 2, out=k3), k4):
        k2 += term
    return np.add(np.multiply(k2, h / 6, out=k2), y, out=k2)


def rk4_operator(out, cols, coef, agent: np.ndarray, width: int, h: float):
    """RK4's step y+ = P y + Q0 u(t) + Qm u(t + h/2) + Q1 u(t + h) of y' =
    A y + B u(t), [A | B] given by its entries (out, cols, coef) over [y;
    u], u of width entries: M = hA, P = I + M + M^2/2 + M^3/6 + M^4/24, Q0
    = h/6 (I + M + M^2/2 + M^3/4) B, Qm = h/6 (4I + 2M + M^2/2) B, Q1 = h/6
    B.  A links no two agents (agent[e] is entry e's of y), so the powers
    are taken on per-agent dense blocks.  Returns the nonzero entries over
    x = [y; u(t); u(t + h/2); u(t + h)], by row and in a row by column."""
    R, order = len(agent), np.argsort(agent, kind="stable")
    local = np.empty(R, int)        # each entry's place in its agent's block
    local[order] = np.arange(R) - np.searchsorted(agent[order], agent[order])
    src = cols >= R                 # each agent's columns of u, in order
    key, inv = np.unique(agent[out[src]] * width + cols[src] - R,
                         return_inverse=True)
    owner, col = np.divmod(key, width)
    slot = np.arange(len(key)) - np.searchsorted(owner, owner)
    n, D, W = agent.max() + 1, local.max() + 1, slot.max(initial=-1) + 1
    c = local[np.minimum(cols, R - 1)]
    c[src] = D + slot[inv]
    AB = np.bincount((agent[out] * D + local[out]) * (D + W) + c, coef,
                     n * D * (D + W)).reshape(n, D, D + W)
    M, I, B = h * AB[..., :D], np.eye(D), h / 6 * AB[..., D:]
    M2 = M @ M
    C, M3 = I + M + M2 / 2, M2 @ M
    T = np.concatenate([C + M3 / 6 + M3 @ M / 24, (C + M3 / 4) @ B, (
        4 * I + 2 * M + M2 / 2) @ B, B], axis=2)      # [P | Q0 | Qm | Q1]
    at = np.full((n, D + 3 * W), -1)        # T's columns as x's entries
    at[agent, local] = np.arange(R)
    for s in range(3):
        at[owner, D + s * W + slot] = R + s * width + col
    T, at = T.reshape(n * D, -1).take(agent * D + local, 0), at[agent]
    keep = np.flatnonzero((T != 0) & (at >= 0))
    return keep // (D + 3 * W), at.take(keep), T.take(keep)


class Law:
    """A law whose closed loop is linear while the mailbox holds still, but
    for nonlinear terms that a subclass's deriv adds.

    Internals start at zero but psi, eta1, eta2 (p0) and a given v_d
    (vhat).  ``start`` binds the law to a run of n agents at the step dt,
    with the (K + 1, 3) stage times and leader accelerations and each
    follower's first delivery tick, and builds the generator [A | B] on
    [y; u], the flat state then the sources (two (m, N) blocks of
    neighbour averages and the leaders' accelerations), live and waiting
    (u1 reads the follower's own vhat).  deriv is one take, product and
    np.bincount over the entries, gamma the terms listed under "gamma",
    the blocks ``extra`` m-row outputs after y's.  A step is such a
    product with the step of ``rk4_operator`` and gamma's rows if the law
    has no extra outputs, else RK4 over deriv."""

    v_d, extra = None, ()

    def init_internals(self, p0: np.ndarray) -> np.ndarray:
        x = np.zeros((len(self.names),) + p0.shape)
        x[[k in ("psi", "eta1", "eta2") for k in self.names]] = p0
        if self.v_d is not None:
            x[0] = self.v_d
        return x

    def start(self, n: int, dt: float, times: np.ndarray, first: np.ndarray,
              leaders: np.ndarray) -> None:
        self.n, self.dt, self.times = n, dt, times
        m, N, nb = self.gains.m, self.N, len(self.names) + 2
        rows = 2 * n + (nb - 2) * m
        at = dict(p=0, v=n, gamma=n, vL=n + m, u0=rows, u1=rows + m,
                  lead=rows + 2 * m, **{x: 2 * n + i * m
                                        for i, x in enumerate(self.names)},
                  **{x: rows + i * m for i, x in enumerate(self.extra)})
        parts = []          # a waiting follower's u1 is its own vhat
        for o, i, count, scale, M in [("p", "v", n, 1.0, np.eye(N))] \
                + self.terms(n, m):
            (c, d), a = np.nonzero(M), np.arange(count)[:, None]
            parts.append(np.broadcast_arrays((at[o] + a) * N + c, (
                at[i] + a) * N + d, (at["vhat" if i == "u1" else i] + a) * N
                + d, np.reshape(scale, (-1, 1)) * M[c, d], o == "gamma"))
        out, cols, waiting, coef, gamma = (np.concatenate(
            [x.ravel() for x in part]) for part in zip(*parts))
        gamma = np.flatnonzero(gamma)
        self.leaders = leaders.reshape(leaders.shape[:2] + (-1,))
        self.outs = rows + len(self.extra) * m
        # Each output row's follower (m for a leader's): p, v, the
        # internals, the extra outputs, then gamma; and its entries' first
        # delivery tick (a leader's 0).
        agent = np.r_[np.tile(np.arange(n), 2),
                      np.tile(np.arange(m), nb - 1 + len(self.extra))]
        self.first = np.r_[first, 0][np.minimum(agent, m)].repeat(N)
        self.live_from = int(first.max())
        # The live form, then the waiting one: the generator and, without
        # extra outputs, RK4's step operator, each with gamma's rows (gamma
        # reads u at the start) after the outs rows.
        self.gen, self.ops = [], []
        for c in (cols, waiting):
            g = self.outs * N + out[gamma] - n * N, c[gamma], coef[gamma]
            self.gen.append([np.r_[x, z] for x, z in zip((out, c, coef), g)])
            if not self.extra:
                op = rk4_operator(out, c, coef, agent[:rows].repeat(N),
                                  2 * m * N + self.leaders.shape[2], dt)
                self.ops.append([np.r_[x, z] for x, z in zip(op, g)])

    def _product(self, forms, k: int, y: np.ndarray, u: np.ndarray):
        """The outs rows and gamma of [y; u]'s product with the live form,
        rows waiting at tick k from the waiting one's; a row sums its
        form's entries in order."""
        x = np.concatenate((y.ravel(), u))
        out, cols, coef = forms[0]
        z = x.take(cols)
        z *= coef
        z = np.bincount(out, z, len(self.first))
        if k < self.live_from:
            out, cols, coef = forms[1]
            w = x.take(cols)
            w *= coef
            z = np.where(self.first > k, np.bincount(out, w, len(z)), z)
        z = z.reshape(-1, self.N)
        return z[:self.outs], z[self.outs:]

    def deriv(self, k: int, y: np.ndarray, u: np.ndarray):
        """(dy, gamma) at a stage of tick k from its sources u; dy's extra
        output rows after y's."""
        return self._product(self.gen, k, y, u)

    def step(self, k: int, y: np.ndarray, row: np.ndarray):
        """(y at tick k + 1, gamma at tick k) from tick k's block row: one
        product with the step operator, or classical RK4 over deriv on the
        row's three stage slices, held."""
        if not self.extra:
            return self._product(self.ops, k, y, row)
        u = row.reshape(3, -1)
        dy, out = self.deriv(k, y, u[0])
        return rk4_step(lambda s, z, u: self.deriv(k, z, u[s]), self.dt, y,
                        u, dy), out


class DoubleIntegratorLaw(Law):
    """gamma = -k_d (w - vhat) - k_p (p - psi) for double integrators:
    vhat is the observer's state, or a given v_d held constant; w is v, or
    phi + p from a first-order output filter (use_velocity off); psi is u0
    = vartheta_avg(t) ("static") or u0 through a first-order filter
    ("dynamic"); u1 = vhat_avg."""

    def __init__(self, gains: GainSet, N: int, psi_mode: str = "static",
                 v_d=None, use_velocity: bool = True):
        if psi_mode not in PSI_MODES:
            raise ValueError(f"bad psi_mode {psi_mode!r}")
        if v_d is not None and np.shape(v_d) != (N,):
            raise ValueError(f"v_d must have {N} entries, got shape "
                             f"{np.shape(v_d)}")
        self.gains, self.N = gains, N
        self.psi_mode, self.use_velocity = psi_mode, use_velocity
        self.v_d = None if v_d is None else np.asarray(v_d, dtype=float)
        self.names = ("vhat",) + (("psi",) if psi_mode == "dynamic" else ()) \
            + (("phi",) if not use_velocity else ())

    def terms(self, n: int, m: int) -> list:
        """A's terms besides p' = v: (out, in, agents, scale, M) adds scale
        M x_in to the rows out of each of the first agents."""
        g, I = self.gains, np.eye(self.N)
        w = [("v", 1.0)] if self.use_velocity else [("phi", 1.0), ("p", 1.0)]
        gamma = [(i, -g.k_d * s) for i, s in w] + [
            ("vhat", g.k_d), ("p", -g.k_p),
            ("psi" if self.psi_mode == "dynamic" else "u0", g.k_p)]
        rows = {"gamma": gamma, "phi": [(i, -s) for i, s in w] + gamma,
                "vhat": [("vhat", -g.L_p), ("u1", g.L_p)] * (self.v_d is None),
                "psi": [("psi", -g.k_psi), ("u0", g.k_psi), ("vhat", 1.0)]}
        return [("vL", "lead", n - m, 1.0, I)] + [
            (o, i, m, s, I) for o, terms in rows.items()
            if o in self.names + ("gamma",) for i, s in terms]

    def block(self, lo: int, view: NeighborView) -> np.ndarray:
        """x's sources at each tick: at each of its stages, vartheta_avg at
        its time, vhat_avg (held) and the leader row."""
        m, H = self.gains.m, view.m // self.gains.m
        theta = view.vartheta_avg(self.times[lo:lo + H].T)
        return np.concatenate((
            theta.reshape(3, H, -1).transpose(1, 0, 2), np.broadcast_to(
                view.vhat_avg().reshape(H, 1, -1), (H, 3, m * self.N)),
            self.leaders[lo:lo + H]), axis=2).reshape(H, -1)


class NonlinearVSController(DoubleIntegratorLaw):
    """Reference-velocity tracking with a smoothed variable-structure term
    s(e) e, where v_r = -lam (p - eta1) + vhat and e = v - v_r:
        gamma = -k_r e + v_r' - s(e) e,   v_r' = -lam (v - eta1') + vhat'
        vhat' = -L_p (vhat - sigma1),     sigma1' = -L_d (sigma1 - u1)
        eta1' = -k_p (eta1 - eta2) + vhat,  eta2' = -k_d (eta2 - u0) + vhat
    and v' = f(p, v) + gamma.  The generator holds all but f and s(e) e,
    with e as an extra output.  Inside a boundary layer of width eps the
    unit-vector term is a linear ramp, so the fixed step does not chatter,
    at an O(eps) steady cost."""

    names, extra = ("vhat", "sigma1", "eta1", "eta2"), ("e",)

    def __init__(self, gains, N, model: AgentModel):
        if model is None or model.kind != "nonlinear":
            raise ValueError("nonlinear_vs requires the nonlinear model")
        self.gains, self.N, self.model = gains, N, model

    def terms(self, n: int, m: int) -> list:
        """As DoubleIntegratorLaw.terms."""
        g, I = self.gains, np.eye(self.N)
        lam = g.lam_effective()                  # the gains are now checked
        e = [("v", 1.0), ("p", lam), ("eta1", -lam), ("vhat", -1.0)]
        rows = {"vhat": [("vhat", -g.L_p), ("sigma1", g.L_p)],
                "sigma1": [("sigma1", -g.L_d), ("u1", g.L_d)],
                "eta1": [("eta1", -g.k_p), ("eta2", g.k_p), ("vhat", 1.0)],
                "eta2": [("eta2", -g.k_d), ("u0", g.k_d), ("vhat", 1.0)],
                "e": e}
        rows["gamma"] = [(i, -g.k_r * s) for i, s in e] + [("v", -lam)] + [
            (i, lam * s) for i, s in rows["eta1"]] + rows["vhat"]
        return [("vL", "lead", n - m, 1.0, I)] + [
            (o, i, m, s, I) for o, terms in rows.items() for i, s in terms]

    def deriv(self, row: int, y: np.ndarray, u: np.ndarray):
        """Law.deriv's (dy, gamma) plus the nonlinear terms: f(p, v) - s(e)
        e on the followers' v rows, -s(e) e on gamma."""
        n, m = self.n, self.gains.m
        dy, gamma = super().deriv(row, y, u)
        p, v = y[:m], y[n:n + m]
        sw = self.switching_term(dy[len(y):], p, v)
        dy[n:n + m] += self.model.drift_fns["f"](p, v) - sw
        return dy[:len(y)], gamma - sw

    def switching_term(self, e: np.ndarray, p: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
        eps, fns = self.gains.boundary_layer_eps, self.model.drift_fns
        bound = fns["delta_p"](np.sqrt(np.vecdot(p, p))) + \
            fns["delta_v"](np.sqrt(np.vecdot(v, v)))    # the drift's bound
        en = np.sqrt(np.vecdot(e, e))
        scale = np.where(en > eps, bound / np.maximum(en, 1e-300), bound / eps)
        return scale[..., None] * e


class OscillatorLaw(Law):
    """Oscillator law: references propagated through the free flow e^{S dt}.

    w = v - vhat (oscillator_full), or k_phi (phi + p) - vhat with the
    output filter (oscillator_output); [u0; u1] = oscillator_psi(h):
        gamma  = -(k_d w + S2 w) - k_p (p - u0) + 2 sigma
        vhat'  = S1 p + S2 vhat + sigma
        sigma' = S1 w + S2 sigma - k_d sigma - k_p (vhat - u1)
        phi'   = -(k_phi y - S2 y) + (gamma + S1 p) / k_phi,  y = phi + p."""

    def __init__(self, gains: GainSet, N: int, model: AgentModel,
                 output_filter: bool = False):
        if model is None or model.kind != "oscillator":
            raise ValueError("oscillator variants require the oscillator model")
        self.gains, self.N, self.output_filter = gains, N, output_filter
        self.S1, self.S2 = model.S1, model.S2
        self.flow = OscillatorFlow(model.S1, model.S2)
        self.names = ("vhat", "sigma") + (("phi",) if output_filter else ())

    def terms(self, n: int, m: int) -> list:
        """As DoubleIntegratorLaw.terms; every agent's v' is S1 p + S2 v,
        plus gamma for a follower."""
        g, I, S1, S2 = self.gains, np.eye(self.N), self.S1, self.S2
        w = ([("phi", g.k_phi), ("p", g.k_phi)] if self.output_filter
             else [("v", 1.0)]) + [("vhat", -1.0)]
        gamma = [t for i, s in w for t in ((i, -g.k_d * s, I), (i, -s, S2))]
        gamma += [("p", -g.k_p, I), ("u0", g.k_p, I), ("sigma", 2.0, I)]
        filt = [(i, s, M) for i in ("phi", "p")         # -(k_phi y - S2 y)
                for s, M in ((-g.k_phi, I), (1.0, S2))]
        rows = {"gamma": gamma,
                "vhat": [("p", 1.0, S1), ("vhat", 1.0, S2), ("sigma", 1.0, I)],
                "sigma": [(i, s, S1) for i, s in w] + [
                    ("sigma", 1.0, S2), ("sigma", -g.k_d, I),
                    ("vhat", -g.k_p, I), ("u1", g.k_p, I)],
                "phi": filt + [(i, s / g.k_phi, M)
                               for i, s, M in gamma + [("p", 1.0, S1)]]}
        return [("v", "p", n, 1.0, S1), ("v", "v", n, 1.0, S2)] + [
            (o, i, m, s, M) for o, terms in rows.items()
            if o in self.names + ("gamma",) for i, s, M in terms]

    def block(self, lo: int, view: NeighborView) -> np.ndarray:
        """x's sources at each tick: psi at its half ticks 2k to 2k + 2."""
        m = self.gains.m
        psi = view.oscillator_psi(lo, self.flow).reshape(3, 2, -1, m, self.N)
        return psi.transpose(2, 0, 1, 3, 4).reshape(len(psi[0, 0]), -1)


def make_controller(variant: str, gains: GainSet, N: int,
                    model: AgentModel | None = None, psi_mode: str = "static",
                    v_d=None, use_velocity: bool = True) -> Law:
    """The law behind variant, its switches set from the settings; raises
    GainError for gains that fail check_gains, ValueError for a variant,
    model or setting the law cannot run with."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown controller variant {variant!r}")
    known = variant == "known_vd"
    if variant == "nonlinear_vs":
        ctrl = NonlinearVSController(gains, N, model)
    elif variant.startswith("oscillator"):
        ctrl = OscillatorLaw(gains, N, model, variant == "oscillator_output")
    elif model is not None and model.kind != "double_integrator":
        raise ValueError(f"{variant} cannot drive the {model.kind} model")
    elif known and v_d is None:
        raise ValueError("known_vd requires v_d")
    else:
        ctrl = DoubleIntegratorLaw(gains, N, psi_mode, v_d if known else None,
                                   use_velocity if known
                                   else variant == "full_state")
    ok, problems = check_gains(
        variant, gains, S2=model.S2 if isinstance(ctrl, OscillatorLaw) else None)
    if not ok:
        raise GainError("; ".join(problems))
    return ctrl
