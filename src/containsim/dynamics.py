"""Agent physical models and leader motion profiles.

Follower models: double integrators, with or without a locally Lipschitz
drift on the acceleration, and linear oscillators dv = S1 p + S2 v + u
with bounded free motion (the stacked S has a semi-simple, imaginary
spectrum).  Closed-form leader trajectories have bounded, vanishing
acceleration and a common limit velocity.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPECTRUM_REAL_TOL = 1e-9
MODEL_KINDS = ("double_integrator", "nonlinear", "oscillator")
LEADER_KINDS = ("damped_oscillatory", "constant_velocity", "stationary")

# Named drift functions so scenario files stay declarative.  Each entry maps
# (p, v) -> acceleration drift, plus the class-Kinfty bound pair
# (delta_p(|p|), delta_v(|v|)) dominating its magnitude.
DRIFT_REGISTRY: dict[str, dict] = {
    "zero": {"f": lambda p, v: np.zeros_like(p),
             "delta_p": lambda r: 0.0, "delta_v": lambda r: 0.0},
    "square_velocity": {"f": lambda p, v: v * v,
                        "delta_p": lambda r: 0.0, "delta_v": lambda r: r * r},
}


@dataclass(frozen=True)
class AgentModel:
    kind: str                       # double_integrator | nonlinear | oscillator
    N: int = 2
    drift: str = "zero"             # nonlinear only, DRIFT_REGISTRY key
    S1: np.ndarray | None = None    # oscillator only
    S2: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "nonlinear" and self.drift not in DRIFT_REGISTRY:
            raise ValueError(f"unknown drift {self.drift!r}")
        for name in ("S1", "S2") if self.kind == "oscillator" else ():
            S = np.asarray(getattr(self, name), dtype=float)
            if S.shape != (self.N, self.N):
                raise ValueError("S1, S2 must be NxN")
            object.__setattr__(self, name, S)

    @property
    def drift_fns(self) -> dict:
        return DRIFT_REGISTRY[self.drift]


def stacked_oscillator_matrix(S1: np.ndarray, S2: np.ndarray) -> np.ndarray:
    N = S1.shape[0]
    return np.block([[np.zeros((N, N)), np.eye(N)], [S1, S2]])


def check_oscillator_spectrum(S1: np.ndarray, S2: np.ndarray) -> bool:
    """Pure imaginary and semi-simple spectrum of the stacked matrix."""
    S = stacked_oscillator_matrix(np.asarray(S1, float), np.asarray(S2, float))
    eigvals = np.linalg.eigvals(S)
    if np.any(np.abs(eigvals.real) >= SPECTRUM_REAL_TOL):
        return False
    # Geometric multiplicity of each eigenvalue must match its algebraic one.
    while eigvals.size:
        gap = np.abs(eigvals - eigvals[0])
        geo = S.shape[0] - np.linalg.matrix_rank(
            S - eigvals[0] * np.eye(S.shape[0]), tol=1e-9)
        if geo != np.count_nonzero(gap < 1e-7):
            return False
        eigvals = eigvals[gap >= 1e-7]
    return True


def expm(A: np.ndarray) -> np.ndarray:    # SciPy loads at the first call
    from scipy.linalg import expm
    return expm(A)


class OscillatorFlow:
    """Free flow e^{S tau} of the stacked oscillator matrix S: ``flow(tau)``
    is expm(S * tau), with tau rounded to 12 decimals, and ``table[j]`` is
    ``flow(j * dt/2)`` at each lag j given to ``tabulate``."""

    def __init__(self, S1: np.ndarray, S2: np.ndarray):
        self.S = stacked_oscillator_matrix(np.asarray(S1, float),
                                           np.asarray(S2, float))
        self.table = np.empty((0,) + self.S.shape)

    def __call__(self, tau: float) -> np.ndarray:
        return expm(self.S * round(float(tau), 12))

    def tabulate(self, j: np.ndarray, dt: float) -> None:
        """Fill ``table`` at the int lags j >= 0, in half steps of dt, one
        expm per distinct lag; the rows between them are NaN."""
        j = np.unique(j).tolist()
        self.table = np.full((j[-1] + 1 if j else 0,) + self.S.shape, np.nan)
        for i in j:
            self.table[i] = self(i * dt / 2)


@dataclass(frozen=True)
class LeaderTrajectory:
    """All of a scenario's leaders, one closed-form law; index holds their
    1-based agent indices m+1..n.  ``accel(t)`` and ``velocity(t)`` give
    one (L, N) block per time, (len(t), L, N) for an array of times."""

    kind: str                # one of LEADER_KINDS
    v_d: np.ndarray          # (N,) common limit velocity
    index: np.ndarray        # (L,) 1-based agent indices

    def __post_init__(self):
        object.__setattr__(self, "v_d", np.asarray(self.v_d, dtype=float))
        object.__setattr__(self, "index", np.asarray(self.index, dtype=int))
        if self.kind not in LEADER_KINDS:
            raise ValueError(f"unknown leader trajectory {self.kind!r}")

    def _offset(self, t, envelope) -> np.ndarray:
        """(-1)^i i envelope(t) per axis of leader i; (-1)^i i is exact."""
        coef = (-1.0) ** self.index * self.index
        return (coef[:, None] * np.ones(len(self.v_d))) * \
            envelope(np.asarray(t, dtype=float))[..., None, None]

    def accel(self, t) -> np.ndarray:
        if self.kind == "damped_oscillatory":
            return self._offset(t, _damped_osc_envelope_dot)
        return np.zeros(np.shape(t) + (len(self.index), len(self.v_d)))

    def velocity(self, t) -> np.ndarray:
        if self.kind == "damped_oscillatory":
            return self.v_d + self._offset(t, _damped_osc_envelope)
        out = np.zeros(np.shape(t) + (len(self.index), len(self.v_d)))
        if self.kind == "constant_velocity":
            out[...] = self.v_d             # v_d's bits, -0.0 included
        return out


def _damped_osc_envelope(t: float) -> float:
    # (cos t - 0.2 sin t) e^{-0.2 t}; antiderivative is sin(t) e^{-0.2 t}.
    return (np.cos(t) - 0.2 * np.sin(t)) * np.exp(-0.2 * t)


def _damped_osc_envelope_dot(t: float) -> float:
    return (-0.96 * np.sin(t) - 0.4 * np.cos(t)) * np.exp(-0.2 * t)
