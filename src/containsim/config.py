"""Strict JSON scenario configuration.

A configuration file fully determines a run.  Unknown keys anywhere, keys
the model would ignore, an ignored controller setting, and NaN or infinite
numbers (which JSON parsers accept) are rejected, so a typo cannot
silently fall back to a default; a gain the variant never reads is still
accepted.  Time-valued keys carry a _seconds suffix.
"""
from __future__ import annotations

import importlib.resources
import json
import math

import numpy as np

from .analysis import CascadeConfig, Perturbation
from .comm import CommConfig
from .control import PSI_MODES, VARIANTS, GainSet
from .dynamics import DRIFT_REGISTRY, LEADER_KINDS, MODEL_KINDS, AgentModel, \
    LeaderTrajectory
from .sim import Scenario
from .topology import DirectedTopology


class ConfigError(ValueError):
    pass


def _check_keys(doc: dict, where: str, required: set, optional: set = frozenset()):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    keys = set(doc)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _expect(value, kind: type, where: str):
    """value as kind (int, float, str or list; float takes an int too)."""
    ok = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, ok):   # bool is int
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _choice(value, choices, where: str) -> str:
    """value, a string that is one of choices."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{where}: unknown {where.split('.')[-1]} "
                          f"{value!r}; expected one of {sorted(choices)}")
    return value


def _array(value, where: str) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array."""
    if not isinstance(value, list):
        return np.asarray(_expect(value, float, where))
    for idx, item in enumerate(value):
        _array(item, f"{where}[{idx}]")
    try:            # every leaf is a number, so only the nesting can fail
        return np.asarray(value, float)
    except ValueError as exc:
        raise ConfigError(f"{where}: rows of unequal length") from exc


def load_bundled(name: str) -> dict:
    """Parse one of the scenario documents shipped with the package (for
    example ``"benchmark_fullstate"``); the builders validate it."""
    resource = importlib.resources.files("containsim").joinpath(
        f"scenarios/{name}.json")
    try:
        text = resource.read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"no bundled scenario named {name!r}") from exc
    return json.loads(text)


def load_config(path: str) -> dict:
    """Parse a JSON config file; the builders validate it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return doc


def validate_config(doc: dict) -> None:
    _check_keys(doc, "top level",
                {"topology", "agents", "controllers", "comm", "sim"},
                {"outputs", "cascade", "label"})
    _check_keys(doc["topology"], "topology", {"n", "m", "edges"})
    _check_keys(doc["agents"], "agents", {"N", "model", "initial"},
                {"leaders"})
    _check_keys(doc["agents"]["model"], "agents.model", {"kind"},
                {"drift", "S1", "S2"})
    _check_keys(doc["agents"]["initial"], "agents.initial", {"p", "v"})
    _check_keys(doc["controllers"], "controllers", {"variant", "gains"},
                {"psi_mode", "v_d", "use_velocity"})
    _check_keys(doc["controllers"]["gains"], "controllers.gains", set(),
                {"k_p", "k_d", "L_p", "L_d", "k_psi", "k_phi", "k_r",
                 "lam", "boundary_layer_eps"})
    _check_controller_settings(doc["controllers"])
    _check_keys(doc["comm"], "comm",
                {"T_seconds", "T_star_seconds"},
                {"drop_prob", "delay_max_seconds", "seed"})
    _check_keys(doc["sim"], "sim", {"dt_seconds", "t_end_seconds"})
    N = _expect(doc["agents"]["N"], int, "agents.N")
    if N < 1:
        raise ConfigError(f"agents.N: must be at least 1, got {N}")
    outputs = doc.get("outputs", {})
    _check_keys(outputs, "outputs", set(), {
        "trace_csv", "audit_csv", "schedule_csv", "sidecar_json", "svg"})
    if "svg" in outputs and N != 2:
        raise ConfigError("outputs.svg: trajectory rendering needs "
                          "planar agents (agents.N = 2)")
    for where, name in [("label", doc.get("label", "")), *(
            (f"outputs.{key}", val) for key, val in outputs.items())]:
        _expect(name, str, where)
    # A known model, only the keys its kind reads, and leaders that fit it;
    # oscillator leaders read no v_d.
    ag = doc["agents"]
    model = _choice(ag["model"]["kind"], MODEL_KINDS, "agents.model.kind")
    oscillator = model == "oscillator"
    _check_keys(ag["model"], f"agents.model ({model})", {"kind"},
                {"nonlinear": {"drift"}, "oscillator": {"S1", "S2"}}.get(
                    model, set()))
    _choice(ag["model"].get("drift", "zero"), DRIFT_REGISTRY,
            "agents.model.drift")
    leaders = ag.get("leaders", {"kind": "oscillator_free"})
    _check_keys(leaders, "agents.leaders", {"kind"}, {"v_d"})
    kind = _choice(leaders["kind"], LEADER_KINDS + ("oscillator_free",),
                   "agents.leaders.kind")
    if (kind == "oscillator_free") != oscillator:
        raise ConfigError(f"agents.leaders.kind: {kind!r} does not fit the "
                          f"{ag['model']['kind']} model")
    if oscillator and "v_d" in leaders:
        raise ConfigError("agents.leaders.v_d: the oscillator model's "
                          "leaders move freely and do not read it")
    if "cascade" in doc:
        _check_keys(doc["cascade"], "cascade",
                    {"alpha", "sigma", "k_eta", "h", "leader_drive"},
                    {"phi1", "phi2", "initial"})
        for key in ("leader_drive", "phi2"):
            for idx, pert in enumerate(_expect(doc["cascade"].get(key, []),
                                               list, f"cascade.{key}")):
                _check_pert(pert, f"cascade.{key}[{idx}]")
        if "phi1" in doc["cascade"]:
            _check_pert(doc["cascade"]["phi1"], "cascade.phi1")
        if "initial" in doc["cascade"]:
            _check_keys(doc["cascade"]["initial"], "cascade.initial", set(),
                        {"eta", "zeta"})
    _check_finite(doc, "")


def _check_controller_settings(ctl: dict) -> None:
    """A known variant, and no setting that variant would ignore."""
    variant = _choice(ctl["variant"], VARIANTS, "controllers.variant")
    unused = sorted(set(ctl) - {"variant", "gains"} - set(VARIANTS[variant]))
    if unused:
        raise ConfigError(f"controllers: variant {variant!r} does not read "
                          + ", ".join(f"controllers.{key}" for key in unused))
    if not isinstance(ctl.get("use_velocity", True), bool):
        raise ConfigError("controllers.use_velocity: expected true or false")
    _choice(ctl.get("psi_mode", "static"), PSI_MODES, "controllers.psi_mode")


def _check_finite(node, where: str) -> None:
    if isinstance(node, dict):
        for key, val in node.items():
            _check_finite(val, f"{where}.{key}" if where else key)
    elif isinstance(node, list):
        for idx, val in enumerate(node):
            _check_finite(val, f"{where}[{idx}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(f"{where}: {node!r} is not a finite number")


def _check_pert(doc: dict, where: str) -> None:
    _check_keys(doc, where, {"kind"}, {"amplitude", "omega", "phase", "rate"})
    for key in sorted({"omega", "phase", "rate"} & set(doc)):
        _expect(doc[key], float, f"{where}.{key}")
    _array(doc.get("amplitude", 0.0), f"{where}.amplitude")


def build_topology(doc: dict) -> DirectedTopology:
    top = doc["topology"]
    n, m = (_expect(top[key], int, f"topology.{key}") for key in "nm")
    weights = np.zeros((n, n))
    edges = _expect(top["edges"], list, "topology.edges")
    for idx, entry in enumerate(edges):
        where = f"topology.edges[{idx}]"
        if len(_expect(entry, list, where)) not in (2, 3):
            raise ConfigError(f"{where}: {entry!r} must be [src, dst] or "
                              "[src, dst, weight]")
        src, dst = (_expect(i, int, f"{where}: agent id") for i in entry[:2])
        w = 1.0 if len(entry) == 2 else \
            _expect(entry[2], float, f"{where}: weight")
        if not (1 <= src <= n and 1 <= dst <= n):
            raise ConfigError(f"{where}: {entry!r}: agent ids are 1..{n}")
        if not w > 0:
            raise ConfigError(f"{where}: weight {w!r} must be > 0")
        if weights[dst - 1, src - 1]:      # every weight set so far is > 0
            raise ConfigError(f"{where}: repeats the edge [{src}, {dst}]")
        weights[dst - 1, src - 1] = w
    return DirectedTopology(n=n, m=m, weights=weights)


def build_perturbation(doc: dict) -> Perturbation:
    return Perturbation(**doc)         # the keys are its fields


def build_comm(doc: dict) -> CommConfig:
    cdoc = doc["comm"]
    return CommConfig(
        **{name: _expect(cdoc.get(key, 0.0), float, f"comm.{key}")
           for name, key in (("T", "T_seconds"), ("T_star", "T_star_seconds"),
                             ("drop_prob", "drop_prob"),
                             ("delay_max", "delay_max_seconds"))},
        seed=_expect(cdoc.get("seed", 0), int, "comm.seed"))


def build_scenario(doc: dict) -> Scenario:
    validate_config(doc)
    topo = build_topology(doc)
    ag = doc["agents"]
    N = _expect(ag["N"], int, "agents.N")
    mdoc = ag["model"]
    model = AgentModel(kind=mdoc["kind"], N=N,
                       drift=mdoc.get("drift", "zero"),
                       **{S: _array(mdoc[S], f"agents.model.{S}")
                          for S in ("S1", "S2") if S in mdoc})

    ldoc = ag.get("leaders", {"kind": "oscillator_free"})
    v_d = _array(ldoc.get("v_d", [0.0] * N), "agents.leaders.v_d")
    if v_d.shape != (N,):
        raise ConfigError(f"agents.leaders.v_d must have {N} entries")
    leaders = None if model.kind == "oscillator" else LeaderTrajectory(
        ldoc["kind"], v_d, np.arange(topo.m + 1, topo.n + 1))

    p0 = _array(ag["initial"]["p"], "agents.initial.p")
    vspec = ag["initial"]["v"]
    if vspec == "auto":
        v0 = np.zeros((topo.n, N))
        if leaders is not None:
            v0[topo.m:] = leaders.velocity(0.0)
    else:
        v0 = _array(vspec, "agents.initial.v")
    for key, x in (("p", p0), ("v", v0)):
        if x.shape != (topo.n, N):
            raise ConfigError(f"agents.initial.{key} must be {topo.n} x {N}")

    ctl = doc["controllers"]
    gains = GainSet(m=topo.m, **{
        k: _expect(v, float, f"controllers.gains.{k}")
        if k == "boundary_layer_eps" else _array(v, f"controllers.gains.{k}")
        for k, v in ctl["gains"].items()})     # eps is one scalar
    sdoc = doc["sim"]
    return Scenario(topo=topo, model=model, leaders=leaders,
                    variant=ctl["variant"], gains=gains, comm=build_comm(doc),
                    dt=_expect(sdoc["dt_seconds"], float, "sim.dt_seconds"),
                    t_end=_expect(sdoc["t_end_seconds"], float,
                                  "sim.t_end_seconds"), N=N, p0=p0, v0=v0,
                    psi_mode=ctl.get("psi_mode", "static"),
                    v_d=_array(ctl["v_d"], "controllers.v_d")
                    if "v_d" in ctl else None,
                    use_velocity=ctl.get("use_velocity", True),
                    label=doc.get("label", "scenario"))


def build_cascade(doc: dict) -> CascadeConfig:
    validate_config(doc)
    if "cascade" not in doc:
        raise ConfigError("document has no cascade section")
    topo = build_topology(doc)
    N = _expect(doc["agents"]["N"], int, "agents.N")
    cas = doc["cascade"]
    sigma = _expect(cas["sigma"], int, "cascade.sigma")
    init = cas.get("initial", {})
    eta, zeta = init.get("eta", "from_p"), init.get("zeta", "zero")
    eta0 = _array(doc["agents"]["initial"]["p"], "agents.initial.p") \
        if eta == "from_p" else _array(eta, "cascade.initial.eta")
    zeta0 = np.zeros((topo.m, sigma, N)) if zeta == "zero" \
        else _array(zeta, "cascade.initial.zeta")
    sdoc = doc["sim"]
    phi2 = [build_perturbation(p) for p in cas.get("phi2", [])]
    return CascadeConfig(
        topo=topo, N=N, alpha=_expect(cas["alpha"], float, "cascade.alpha"),
        sigma=sigma, k_eta=_expect(cas["k_eta"], float, "cascade.k_eta"),
        h=tuple(_expect(r, float, f"cascade.h[{i}]")
                for i, r in enumerate(_expect(cas["h"], list, "cascade.h"))),
        comm=build_comm(doc), eta0=eta0, zeta0=zeta0,
        dt=_expect(sdoc["dt_seconds"], float, "sim.dt_seconds"),
        t_end=_expect(sdoc["t_end_seconds"], float, "sim.t_end_seconds"),
        leader_drive=[build_perturbation(p) for p in cas["leader_drive"]],
        phi1=build_perturbation(cas["phi1"]) if "phi1" in cas
        else Perturbation(), phi2=phi2)
