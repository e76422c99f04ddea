"""Directed leader/follower interconnection graphs and their Laplacian algebra.

Agents 1..m are followers, m+1..n leaders, who receive no edges, so the
Laplacian splits into the follower block L1, the leader coupling block L2
and zero rows; the containment weights and certificates come from these.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

# Numeric slack for exact algebraic claims.
WEIGHT_NONNEG_TOL = 1e-12
ROW_SUM_TOL = 1e-9
EIG_REAL_PART_TOL = 1e-10
SPECTRAL_RADIUS_MARGIN = 1e-10


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class DirectedTopology:
    """Weighted digraph with entry weights[i, j] = weight of edge j -> i."""

    n: int
    m: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if not (0 < self.m < self.n):
            raise TopologyError(f"need 0 < m < n, got m={self.m}, n={self.n}")
        if w.shape != (self.n, self.n):
            raise TopologyError(f"weights must be {self.n}x{self.n}, got {w.shape}")
        if not np.all((w >= 0) & (w < np.inf)):     # NaN fails too
            raise TopologyError("edge weights must be finite and nonnegative")
        if np.any(np.diag(w) != 0):
            raise TopologyError("self loops are not allowed")
        if np.any(w[self.m:, :] != 0):
            raise TopologyError("leader rows must be zero (leaders receive no edges)")

    @property
    def kappa(self) -> np.ndarray:
        """Total in-weight of each follower."""
        return self.weights[: self.m].sum(axis=1)

    def edges(self) -> list[tuple[int, int]]:
        """All (src j, dst i) pairs with positive weight."""
        dst, src = np.nonzero(self.weights)
        return list(zip(src.tolist(), dst.tolist()))


@dataclass(frozen=True)
class LaplacianPartition:
    L1: np.ndarray
    L2: np.ndarray
    D1: np.ndarray
    A1: np.ndarray


def validate_assumption1(topo: DirectedTopology) -> tuple[bool, list[int]]:
    """Every follower must be reachable from some leader along edge direction.

    Returns (ok, unreachable_followers); follower indices are 0-based.
    """
    reached = [i >= topo.m for i in range(topo.n)]      # the leaders
    queue = deque(range(topo.m, topo.n))
    # weights[i, j] > 0 is an edge j -> i, so successors of j are rows with
    # a positive entry in column j.
    while queue:
        j = queue.popleft()
        for i in np.nonzero(topo.weights[:, j])[0]:
            if not reached[i]:
                reached[i] = True
                queue.append(int(i))
    unreachable = [i for i in range(topo.m) if not reached[i]]
    return (not unreachable), unreachable


def partition(topo: DirectedTopology) -> LaplacianPartition:
    """Split the Laplacian into follower/leader blocks: L1 = D1 - A1, L2 = -A2."""
    kappa = topo.kappa
    if np.any(kappa == 0):
        dead = np.nonzero(kappa == 0)[0].tolist()
        raise TopologyError(f"followers with zero in-degree: {dead}")
    m = topo.m
    A1 = topo.weights[:m, :m].copy()
    D1 = np.diag(kappa)
    return LaplacianPartition(L1=D1 - A1, L2=-topo.weights[:m, m:], D1=D1,
                              A1=A1)


def containment_weights(part: LaplacianPartition) -> np.ndarray:
    """W = -L1^{-1} L2 via a linear solve: the row-stochastic, nonnegative
    map from leaders to targets; raises on singular L1."""
    try:
        W = np.linalg.solve(part.L1, -part.L2)
    except np.linalg.LinAlgError as exc:
        raise TopologyError("L1 is singular; Assumption-1 violation or "
                            "degenerate weights") from exc
    if np.min(W) < -WEIGHT_NONNEG_TOL:
        raise TopologyError(f"negative containment weight {np.min(W):.3e}")
    rowsum_err = np.max(np.abs(W.sum(axis=1) - 1.0))
    if rowsum_err > ROW_SUM_TOL:
        raise TopologyError(f"containment weight row sums off by {rowsum_err:.3e}")
    return W


def is_nonsingular_m_matrix(L1: np.ndarray) -> bool:
    """Nonpositive off-diagonals and all eigenvalues in the open right half plane."""
    L1 = np.asarray(L1, dtype=float)
    off = L1 - np.diag(np.diag(L1))
    if np.any(off > 0):
        return False
    eigs = np.linalg.eigvals(L1)
    return bool(np.all(eigs.real > EIG_REAL_PART_TOL))


def small_gain_certificate(part: LaplacianPartition) -> dict:
    """Spectral-radius condition on the closed-loop gain matrix D1^{-1} A1."""
    d = np.diag(part.D1)
    gain = part.A1 / d[:, None]
    rho = float(np.max(np.abs(np.linalg.eigvals(gain)))) if gain.size else 0.0
    return {
        "gain_matrix": gain,
        "spectral_radius": rho,
        "pass": rho < 1.0 - SPECTRAL_RADIUS_MARGIN,
    }


def union_rows(topo: DirectedTopology, copies: int) -> np.ndarray:
    """(copies, n) row of agent i of copy b in a batch of ``copies``
    disjoint copies of topo: the followers of every copy, copy by copy,
    then the leaders the same way.  Edge j -> i of copy b is the edge
    rows[b, j] -> rows[b, i] of the batch, with topo's weight."""
    m, n_lead = topo.m, topo.n - topo.m
    b = np.arange(copies)[:, None]
    return np.concatenate((b * m + np.arange(m),
                           copies * m + b * n_lead + np.arange(n_lead)),
                          axis=1)
