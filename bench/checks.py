"""Output checks, run outside the timed region after every operation.

An operation fails when any check returns a problem:

- every recorded state is finite;
- ``hull_dist`` agrees with an independent ``scipy.spatial.ConvexHull``
  oracle on ``HULL_SAMPLES`` evenly spaced steps, within ``sim.HULL_TOL``;
- on bundled workloads, the final errors (or, for the cascade batch, the
  steady bound and both sweeps) match ``references.json`` within
  ``REF_RTOL * |ref| + REF_ATOL``. The references were recorded with
  ``record_references.py`` at comm seeds 0..9. The tolerance leaves room
  for a change in summation order, not for a change of behaviour;
- on the cascade batch, the ISS check reports no violations and the sweeps
  show the monotone trends that ``containsim sweep`` checks.
"""
from __future__ import annotations

import hashlib
import json
import traceback
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from containsim import sim

from workloads import CascadeResult

REF_RTOL = 1e-6
REF_ATOL = 1e-10
HULL_SAMPLES = 16
TREND_TOL = 1e-12             # the slack `containsim sweep` allows
REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def compare(got: dict, ref: dict) -> list[str]:
    """Problems for each value of ``got`` that is off its reference."""
    problems = []
    for key, want in ref.items():
        g, w = np.atleast_1d(got[key]), np.atleast_1d(want)
        if g.shape != w.shape or \
                not np.all(np.abs(g - w) <= REF_RTOL * np.abs(w) + REF_ATOL):
            problems.append(f"{key} {got[key]!r} != reference {want!r}")
    return problems


def hull_oracle(points: np.ndarray, leaders: np.ndarray) -> np.ndarray:
    """Distance of each 2-D point to the convex hull of the leaders."""
    hull = ConvexHull(leaders)
    normals, offsets = hull.equations[:, :2], hull.equations[:, 2]
    inside = np.all(points @ normals.T + offsets <= 0.0, axis=1)
    a = leaders[hull.simplices[:, 0]]
    ab = leaders[hull.simplices[:, 1]] - a
    ap = points[:, None, :] - a[None]
    s = np.clip(np.sum(ap * ab, axis=2) / np.sum(ab * ab, axis=1), 0.0, 1.0)
    dist = np.linalg.norm(ap - s[..., None] * ab, axis=2).min(axis=1)
    return np.where(inside, 0.0, dist)


def _finite(arrays: dict) -> list[str]:
    return [f"{name} has non-finite values" for name, arr in arrays.items()
            if not np.all(np.isfinite(arr))]


def check_trace(trace: sim.Trace, ref: dict | None) -> list[str]:
    problems = _finite({"p": trace.p, "v": trace.v, "gamma": trace.gamma,
                        "err_pos": trace.err_pos, "err_vel": trace.err_vel,
                        "hull_dist": trace.hull_dist,
                        **{f"internals.{k}": v
                           for k, v in trace.internals.items()}})
    m = trace.m
    last = trace.times.shape[0] - 1
    for k in np.unique(np.linspace(0, last, HULL_SAMPLES).round().astype(int)):
        gap = np.max(np.abs(trace.hull_dist[k]
                            - hull_oracle(trace.p[k, :m], trace.p[k, m:])))
        if not gap <= sim.HULL_TOL:
            problems.append(f"hull_dist at step {k} is {gap:.3g} off the "
                            "ConvexHull oracle")
    if ref is not None:
        problems += compare(reference_values(trace), ref)
    return problems


def check_cascade(res: CascadeResult, ref: dict | None) -> list[str]:
    tr = res.trace
    problems = _finite({"eta": tr.eta, "zeta": tr.zeta, "eps": tr.eps})
    if res.iss["violations"] != 0:
        problems.append(f"ISS check: {res.iss['violations']} violations")
    g, b = res.gains, res.blackout
    if not all(x >= y - TREND_TOL for x, y in zip(g, g[1:])):
        problems.append(f"gain sweep not non-increasing: {g}")
    if not all(x <= y + TREND_TOL for x, y in zip(b, b[1:])):
        problems.append(f"blackout sweep not non-decreasing: {b}")
    if ref is not None:
        problems += compare(reference_values(res), ref)
    return problems


def check(result, ref: dict | None) -> list[str]:
    """Problems with one operation's result; a check that raises is one."""
    try:
        if isinstance(result, CascadeResult):
            return check_cascade(result, ref)
        return check_trace(result, ref)
    except Exception:                     # noqa: BLE001 - fails the op
        return [traceback.format_exc(limit=3)]


def reference_values(result) -> dict:
    """The values ``check`` compares against ``references.json``."""
    if isinstance(result, CascadeResult):
        return {"steady_bound": result.trace.steady_bound(),
                "gains": list(result.gains),
                "blackout": list(result.blackout)}
    return {"err_pos_norm": float(result.err_pos_norm[-1]),
            "err_vel_norm": float(result.err_vel_norm[-1])}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
