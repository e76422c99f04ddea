"""Follower control laws and their auxiliary dynamic systems.

Six variants run on three laws, ``DoubleIntegratorLaw``, ``OscillatorLaw``
and ``NonlinearVSController``; ``make_controller`` maps a variant and its
settings to a law and its switches.  Every law is a stateless evaluator:
given the physical state, the controller internals, and a frozen view of the
delivered neighbor messages, it writes the time derivatives of its internals
in place and returns the control input.  The internals named by ``names``
are one (k, m, N) array, one row per follower in each (m, N) block, so a
whole follower group is evaluated with a handful of numpy operations.
Block 0 is always vhat, the velocity estimate each follower sends.

Neighbor information enters through weighted averages over the in-edges that
have delivered at least one message; the averages are renormalized by the
delivered weight sum.  Before anything is delivered on any in-edge the
position reference falls back to the follower's initial position and the
velocity-estimate average falls back to its own estimate.

The oscillator law first pushes each delayed sample [p; vhat] forward through
the free flow e^{S (t - t_send)}.  Sends and stage times sit on the
half-step grid of the integration step, so each lag is a whole number of
half steps, h - 2 steps_per_T seq at the stage's half tick h (each law is
given h beside t): the flows come from one table, filled once per run,
and a view's averages at all its half ticks are one batched product.  S
products stack on a new leading axis, never as rows of one operand: numpy
computes one row with gemv and more with gemm, which round differently.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import AgentModel, OscillatorFlow

BOUNDARY_LAYER_DEFAULT = 1e-4

# The controllers settings each variant reads besides its gains.
VARIANTS = {"full_state": ("psi_mode",), "output_feedback": ("psi_mode",),
            "known_vd": ("psi_mode", "v_d", "use_velocity"),
            "nonlinear_vs": (), "oscillator_full": (), "oscillator_output": ()}
PSI_MODES = ("static", "dynamic")


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
        for name in ("k_p", "k_d", "L_p", "L_d", "k_psi", "k_phi", "k_r"):
            object.__setattr__(self, name,
                               _as_follower_array(getattr(self, name), self.m))
        if self.lam is not None:
            object.__setattr__(self, "lam",
                               _as_follower_array(self.lam, self.m))

    def lam_derived(self) -> np.ndarray:
        """Larger real root of x^2 + k_d x + k_p = 0 (faster position pole)."""
        disc = self.k_d ** 2 - 4.0 * self.k_p
        if np.any(disc < 0):
            raise GainError("k_d^2 >= 4 k_p required to derive lambda")
        return 0.5 * (self.k_d + np.sqrt(disc))

    def lam_effective(self) -> np.ndarray:
        return self.lam if self.lam is not None else self.lam_derived()

    def blocks(self, N: int, *names: str) -> tuple[np.ndarray, ...]:
        """The named gains as (m, N) blocks, row i follower i's gain."""
        return tuple(np.outer(getattr(self, n), np.ones(N)) for n in names)


def check_gains(variant: str, gains: GainSet,
                S2: np.ndarray | None = None) -> tuple[bool, list[str]]:
    """Validate positivity plus the variant-specific structural conditions."""
    problems = []
    for name in ("k_p", "k_d", "L_p", "L_d", "k_psi", "k_phi", "k_r"):
        if not np.all(getattr(gains, name) > 0):      # NaN fails too
            problems.append(f"{name} must be strictly positive")
    if not gains.boundary_layer_eps > 0:
        problems.append("boundary_layer_eps must be strictly positive")
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
    """Frozen per-step aggregation of delivered messages.

    Arrays are indexed by delivered in-edge; dst maps each edge to its
    follower row and msg to its message, [p_msg, vhat_msg], sent at
    send_time = seq * T, or send_half = 2 steps_per_T seq half steps.
    kappa_delivered is the per-follower sum of delivered edge weights (0
    during warm-up).  The view serves up to the half tick last_half.

    The messages are fixed for the view's life, which may span many steps,
    so each average over them is computed once: p_avg's and vhat_avg's once
    per view, vartheta_avg's once per stage time t and oscillator_psi's
    once per span, from the half tick of its first call to last_half.
    Until every follower is live (has a delivered in-edge), each call merges
    in the fallback rows; then each returns the cached average itself.
    Every average is read-only.
    """

    def __init__(self, m: int, N: int, dst: np.ndarray, w: np.ndarray,
                 msg: np.ndarray, seq: np.ndarray, T: float,
                 steps_per_T: int, p_fallback: np.ndarray, last_half: int = 0):
        self.m, self.N, self.dst, self.w, self.p_fallback, self.last_half = \
            m, N, dst, w, p_fallback, last_half
        self.msg, self.p_msg, self.vhat_msg = msg, msg[:, :N], msg[:, N:]
        self.send_time, self.send_half = seq * T, 2 * steps_per_T * seq
        self.kappa_delivered = np.bincount(dst, w, minlength=m)
        self.live = self.kappa_delivered > 0
        self.all_live = bool(self.live.all())
        self._rows = slice(None) if self.all_live else self.live
        self._bins = {}                      # columns -> bincount bin index
        self._p = self._vhat = None          # p_avg, vhat_avg's live rows
        self._theta_t = self._theta = None   # vartheta_avg at its last t
        self._psi_flow, self._psi = None, {}  # oscillator_psi by half tick

    def _live_average(self, contrib: np.ndarray) -> np.ndarray:
        """Weighted average of the rows of contrib (one per edge) over the
        in-edges of each live follower, (live followers, columns)."""
        cols = contrib.shape[1]
        if cols not in self._bins:
            self._bins[cols] = (self.dst[:, None] * cols
                                + np.arange(cols)).ravel()
        # One bincount over (follower, column) bins; like np.add.at, it
        # adds each bin's terms in edge order.
        num = np.bincount(self._bins[cols],
                          weights=(self.w[:, None] * contrib).ravel(),
                          minlength=self.m * cols).reshape(self.m, cols)
        avg = num[self._rows] / self.kappa_delivered[self._rows, None]
        avg.flags.writeable = False
        return avg

    def _with_fallback(self, live_rows: np.ndarray, fallback) -> np.ndarray:
        if self.all_live:
            return live_rows
        out = np.array(fallback)        # one (m, N) array, or a stack of them
        out[..., self.live, :] = live_rows
        out.flags.writeable = False
        return out

    def p_avg(self) -> np.ndarray:
        """Weighted average of the delivered positions, not extrapolated."""
        if self._p is None:
            self._p = self._with_fallback(self._live_average(self.p_msg),
                                          self.p_fallback)
        return self._p

    def vartheta_avg(self, t: float) -> np.ndarray:
        """Weighted average of the extrapolated positions at t."""
        if t != self._theta_t:
            theta = vartheta(self.p_msg, self.vhat_msg,
                             self.send_time[:, None], t)
            self._theta = self._with_fallback(self._live_average(theta),
                                              self.p_fallback)
            self._theta_t = t
        return self._theta

    def vhat_avg(self, vhat_own: np.ndarray) -> np.ndarray:
        if self._vhat is None:
            self._vhat = self._live_average(self.vhat_msg)
        return self._with_fallback(self._vhat, vhat_own)

    def oscillator_psi(self, h: int, flow: OscillatorFlow,
                       vhat_own: np.ndarray) -> np.ndarray:
        """Weighted average of e^{S (t - t_send)} [p_msg; vhat_msg] at the
        time t of the half tick h, as its two halves: (2, m, N), C order.

        The lags are the whole half steps h - send_half; a miss computes h
        to last_half by one lookup in flow's table, one stacked matmul and
        one bincount over rows of all those half ticks per edge, which keep
        each edge's product and the summation order (einsum would not).
        """
        if flow is not self._psi_flow or h not in self._psi:
            half = np.arange(h, max(h, self.last_half) + 1)
            y = np.matmul(flow.table[half - self.send_half[:, None]],
                          self.msg[:, None, :, None])     # (E, H, 2N, 1)
            avg = self._live_average(y.reshape(-1, np.prod(y.shape[1:])))
            avg = np.ascontiguousarray(avg.reshape(  # (H, 2, live rows, N)
                -1, len(half), 2, self.N).transpose(1, 2, 0, 3))
            avg.flags.writeable = False
            self._psi_flow, self._psi = flow, dict(zip(half.tolist(), avg))
        return self._with_fallback(self._psi[h], (self.p_fallback, vhat_own))


class DoubleIntegratorLaw:
    """gamma = -k_d (w - vhat) - k_p (p - psi) for double integrators.

    vhat is the distributed observer's state, or the limit velocity v_d,
    held constant, when one is given; w is v, or phi + p from a first-order
    output filter when use_velocity is off; psi is the extrapolated
    neighbor average ("static"), or that average through a first-order
    filter ("dynamic") so the input stays continuous across arrivals.
    """

    def __init__(self, gains: GainSet, N: int, psi_mode: str = "static",
                 v_d=None, use_velocity: bool = True):
        if psi_mode not in PSI_MODES:
            raise ValueError(f"bad psi_mode {psi_mode!r}")
        if v_d is not None and np.shape(v_d) != (N,):
            raise ValueError(f"v_d must have {N} entries, got shape "
                             f"{np.shape(v_d)}")
        self.L_p, self.k_psi, self.k_d, self.k_p = gains.blocks(
            N, "L_p", "k_psi", "k_d", "k_p")
        self.psi_mode, self.use_velocity = psi_mode, use_velocity
        self.v_d = None if v_d is None else np.asarray(v_d, dtype=float)
        self.names = ("vhat",) + (("psi",) if psi_mode == "dynamic" else ()) \
            + (("phi",) if not use_velocity else ())

    def init_internals(self, p0: np.ndarray) -> np.ndarray:
        x = np.zeros((len(self.names),) + p0.shape)
        if self.v_d is not None:
            x[0] = self.v_d
        if self.psi_mode == "dynamic":
            x[1] = p0
        return x

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        vhat = x[0]
        if self.v_d is None:
            dx[0] = -self.L_p * (vhat - neigh.vhat_avg(vhat))
        else:
            dx[0] = 0.0
        theta = neigh.vartheta_avg(t)
        if self.psi_mode == "dynamic":
            psi = x[1]
            dx[1] = -self.k_psi * (psi - theta) + vhat
        else:
            psi = theta
        w = v if self.use_velocity else x[-1] + p      # phi is last
        gamma = -self.k_d * (w - vhat) - self.k_p * (p - psi)
        if not self.use_velocity:
            dx[-1] = -w + gamma
        return gamma


class NonlinearVSController:
    """Reference-velocity tracking with a smoothed variable-structure term.

    The discontinuous unit-vector term is replaced inside a boundary layer of
    width eps by a linear ramp, which keeps the fixed-step integration free of
    chattering at the cost of an O(eps) steady perturbation.
    """

    names = ("vhat", "sigma1", "eta1", "eta2")

    def __init__(self, gains, N, model: AgentModel):
        if model is None or model.kind != "nonlinear":
            raise ValueError("nonlinear_vs requires the nonlinear model")
        self.gains, self.N, self.model = gains, N, model
        self.L_p, self.L_d, self.k_p, self.k_d, self.k_r = gains.blocks(
            N, "L_p", "L_d", "k_p", "k_d", "k_r")

    @cached_property
    def lam(self) -> np.ndarray:
        """lam_effective as an (m, N) block, after make_controller's check."""
        return np.outer(self.gains.lam_effective(), np.ones(self.N))

    def init_internals(self, p0):
        return np.stack([np.zeros_like(p0), np.zeros_like(p0), p0, p0])

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        vhat, sigma1, eta1, eta2 = x
        dvhat, dsigma1, deta1, deta2 = dx
        theta = neigh.vartheta_avg(t)
        dvhat[:] = -self.L_p * (vhat - sigma1)
        dsigma1[:] = -self.L_d * (sigma1 - neigh.vhat_avg(vhat))
        deta1[:] = -self.k_p * (eta1 - eta2) + vhat
        deta2[:] = -self.k_d * (eta2 - theta) + vhat
        v_r = -self.lam * (p - eta1) + vhat
        dv_r = -self.lam * (v - deta1) + dvhat
        e = v - v_r
        gamma_bar = self.switching_term(e, p, v)
        return -self.k_r * e + dv_r - gamma_bar

    def drift_bound(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        fns = self.model.drift_fns        # each maps an array of norms
        return fns["delta_p"](np.linalg.norm(p, axis=-1)) + \
            fns["delta_v"](np.linalg.norm(v, axis=-1))

    def switching_term(self, e: np.ndarray, p: np.ndarray,
                       v: np.ndarray) -> np.ndarray:
        eps = self.gains.boundary_layer_eps
        bound = self.drift_bound(p, v)
        en = np.linalg.norm(e, axis=-1)
        scale = np.where(en > eps, bound / np.maximum(en, 1e-300), bound / eps)
        return scale[..., None] * e


class OscillatorLaw:
    """Oscillator law: references propagated through the free flow e^{S dt}.

    The one switch is the output filter: without it (oscillator_full) the
    law damps w = v - vhat; with it (oscillator_output) k_phi (phi + p)
    stands in for v, so w = k_phi (phi + p) - vhat.  Three S products,
    four with the filter, each stacked on a leading axis: [vhat, sigma] S2',
    w [S1', S2'], and p S1' used twice.
    """

    def __init__(self, gains: GainSet, N: int, model: AgentModel,
                 output_filter: bool = False):
        if model is None or model.kind != "oscillator":
            raise ValueError("oscillator variants require the oscillator model")
        self.gains, self.N, self.output_filter = gains, N, output_filter
        self.k_p, self.k_d, self.k_phi = gains.blocks(N, "k_p", "k_d",
                                                      "k_phi")
        self.S = np.stack([model.S1, model.S2]).transpose(0, 2, 1)  # S1', S2'
        self.S1T, self.S2T = self.S
        self.flow = OscillatorFlow(model.S1, model.S2)
        self.names = ("vhat", "sigma") + (("phi",) if output_filter else ())

    def init_internals(self, p0):
        return np.zeros((len(self.names),) + p0.shape)

    def deriv(self, t, h, p, v, x, neigh, dx) -> np.ndarray:
        vhat, sigma = x[0], x[1]
        psi_p, psi_v = neigh.oscillator_psi(h, self.flow, vhat)
        if self.output_filter:
            y = x[2] + p
            w = self.k_phi * y - vhat
        else:
            w = v - vhat
        wS, xS2, pS1 = w @ self.S, x[:2] @ self.S2T, p @ self.S1T
        gamma = -(self.k_d * w + wS[1]) - self.k_p * (p - psi_p) + 2.0 * sigma
        dx[0] = pS1 + xS2[0] + sigma
        dx[1] = wS[0] + xS2[1] - self.k_d * sigma - self.k_p * (vhat - psi_v)
        if self.output_filter:
            dx[2] = -(self.k_phi * y - y @ self.S2T) \
                + (gamma + pS1) / self.k_phi
        return gamma


Controller = DoubleIntegratorLaw | NonlinearVSController | OscillatorLaw


def make_controller(variant: str, gains: GainSet, N: int,
                    model: AgentModel | None = None,
                    psi_mode: str = "static",
                    v_d=None, use_velocity: bool = True) -> Controller:
    """The law behind variant, its switches set from the settings; raises
    GainError for gains that fail check_gains, ValueError for a variant,
    model or setting the law cannot run with."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown controller variant {variant!r}")
    if variant == "nonlinear_vs":
        ctrl = NonlinearVSController(gains, N, model)
    elif variant in ("oscillator_full", "oscillator_output"):
        ctrl = OscillatorLaw(gains, N, model,
                             output_filter=variant == "oscillator_output")
    elif model is not None and model.kind == "oscillator":
        raise ValueError(f"{variant} cannot drive the oscillator model")
    elif variant == "known_vd":
        if v_d is None:
            raise ValueError("known_vd requires v_d")
        ctrl = DoubleIntegratorLaw(gains, N, psi_mode, v_d, use_velocity)
    else:
        ctrl = DoubleIntegratorLaw(gains, N, psi_mode,
                                   use_velocity=variant == "full_state")
    ok, problems = check_gains(
        variant, gains, S2=model.S2 if isinstance(ctrl, OscillatorLaw) else None)
    if not ok:
        raise GainError("; ".join(problems))
    return ctrl
