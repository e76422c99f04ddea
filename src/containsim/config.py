"""Strict JSON scenario configuration.

A document fully determines a run.  ``build`` reads it in one pass and
checks each key where it reads it: an unknown key, one the model or the
variant does not read (a controller setting or gain), or a NaN or infinite
number (which JSON parsers accept) is rejected, so a typo cannot silently
fall back to a default.  Time-valued keys carry a _seconds suffix.
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


def _check_keys(doc: dict, where: str, required: set,
                optional: set = frozenset(), reader: str = ""):
    """doc, an object with the required keys and no others but optional
    (any other is unknown, or, given its reader, one the reader ignores)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object")
    missing = required - set(doc)
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = sorted(set(doc) - required - optional)
    if unknown and reader:
        raise ConfigError(f"{where}: {reader} does not read " + ", ".join(
            f"{where}.{key}" for key in unknown))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")


def _expect(value, kind: type, where: str, low=None):
    """value as kind (bool, int, float, str or list; float takes an int too,
    and only a finite number; only bool takes true or false), and, given
    low, at least low."""
    ok = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, ok):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {value!r} is not a finite number")
    if low is not None and value < low:
        raise ConfigError(f"{where}: must be at least {low}, got {value!r}")
    return kind(value)


def _choice(value, choices, where: str) -> str:
    """value, a string that is one of choices."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{where}: unknown {where.split('.')[-1]} "
                          f"{value!r}; expected one of {sorted(choices)}")
    return value


def _array(value, where: str, *shapes: tuple) -> np.ndarray:
    """value, a number or nested lists of numbers, as a float array."""
    if not isinstance(value, list):
        arr = np.asarray(_expect(value, float, where))
    else:
        for idx, item in enumerate(value):
            _array(item, f"{where}[{idx}]")
        try:        # every leaf is a number, so only the nesting can fail
            arr = np.asarray(value, float)
        except ValueError as exc:
            raise ConfigError(f"{where}: rows of unequal length") from exc
    if shapes and arr.shape not in shapes:      # () is one number
        want = " or ".join(" x ".join(map(str, s)) or "1" for s in shapes)
        raise ConfigError(f"{where} must have {want} entries, got {arr.shape}")
    return arr


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
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def build(doc: dict) -> tuple[Scenario, CascadeConfig | None]:
    """The scenario a document describes and, if it has a cascade section,
    the cascade config on the same topology, comm and sim."""
    _check_keys(doc, "top level",
                {"topology", "agents", "controllers", "comm", "sim"},
                {"outputs", "cascade", "label"})
    topo = build_topology(doc)
    N, model, leaders, p0, v0 = _agents(doc["agents"], topo)
    outputs = doc.get("outputs", {})
    _check_keys(outputs, "outputs", set(), {
        "trace_csv", "audit_csv", "schedule_csv", "sidecar_json", "svg"})
    for key, name in outputs.items():
        _expect(name, str, f"outputs.{key}")
    if "svg" in outputs and N != 2:
        raise ConfigError("outputs.svg: trajectory rendering needs "
                          "planar agents (agents.N = 2)")
    sdoc = doc["sim"]
    _check_keys(sdoc, "sim", {"dt_seconds", "t_end_seconds"})
    scen = Scenario(topo=topo, model=model, leaders=leaders,
                    comm=_comm(doc["comm"]),
                    dt=_expect(sdoc["dt_seconds"], float, "sim.dt_seconds"),
                    t_end=_expect(sdoc["t_end_seconds"], float,
                                  "sim.t_end_seconds"), N=N, p0=p0, v0=v0,
                    label=_expect(doc.get("label", "scenario"), str, "label"),
                    **_controllers(doc["controllers"], topo.m, N))
    return scen, _cascade(doc["cascade"], scen) if "cascade" in doc else None


def build_scenario(doc: dict) -> Scenario:
    return build(doc)[0]


def build_cascade(doc: dict) -> CascadeConfig:
    cas = build(doc)[1]
    if cas is None:
        raise ConfigError("document has no cascade section")
    return cas


def build_topology(doc: dict) -> DirectedTopology:
    top = doc["topology"]
    _check_keys(top, "topology", {"n", "m", "edges"})
    n = _expect(top["n"], int, "topology.n", 2)
    m = _expect(top["m"], int, "topology.m")
    if not 0 < m < n:
        raise ConfigError(f"topology.m: must be in 1..{n - 1}, got {m}")
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
        if src == dst:
            raise ConfigError(f"{where}: {entry!r} is a self loop")
        if dst > m:
            raise ConfigError(f"{where}: {entry!r} ends at leader {dst}; "
                              f"leaders {m + 1}..{n} receive no edges")
        if not w > 0:
            raise ConfigError(f"{where}: weight {w!r} must be > 0")
        if weights[dst - 1, src - 1]:      # every weight set so far is > 0
            raise ConfigError(f"{where}: repeats the edge [{src}, {dst}]")
        weights[dst - 1, src - 1] = w
    return DirectedTopology(n=n, m=m, weights=weights)


def _agents(ag: dict, topo: DirectedTopology) -> tuple:
    """(N, model, leaders, p0, v0): a known model, only the keys its kind
    reads, and leaders that fit it; oscillator leaders read no v_d."""
    _check_keys(ag, "agents", {"N", "model", "initial"}, {"leaders"})
    N = _expect(ag["N"], int, "agents.N", 1)
    mdoc = ag["model"]
    _check_keys(mdoc, "agents.model", {"kind"}, {"drift", "S1", "S2"})
    kind = _choice(mdoc["kind"], MODEL_KINDS, "agents.model.kind")
    oscillator = kind == "oscillator"
    _check_keys(mdoc, f"agents.model ({kind})", {"kind"},
                {"nonlinear": {"drift"}, "oscillator": {"S1", "S2"}}.get(
                    kind, set()))
    model = AgentModel(kind=kind, N=N, drift=_choice(
        mdoc.get("drift", "zero"), DRIFT_REGISTRY, "agents.model.drift"),
                       **{S: _array(mdoc[S], f"agents.model.{S}")
                          for S in ("S1", "S2") if S in mdoc})

    ldoc = ag.get("leaders", {"kind": "oscillator_free"})
    _check_keys(ldoc, "agents.leaders", {"kind"}, {"v_d"})
    lkind = _choice(ldoc["kind"], LEADER_KINDS + ("oscillator_free",),
                    "agents.leaders.kind")
    if (lkind == "oscillator_free") != oscillator:
        raise ConfigError(f"agents.leaders.kind: {lkind!r} does not fit the "
                          f"{kind} model")
    _check_keys(ldoc, "agents.leaders", {"kind"}, set() if oscillator
                else {"v_d"}, f"the {kind} model")
    v_d = _array(ldoc.get("v_d", [0.0] * N), "agents.leaders.v_d", (N,))
    leaders = None if oscillator else LeaderTrajectory(
        lkind, v_d, np.arange(topo.m + 1, topo.n + 1))

    idoc = ag["initial"]
    _check_keys(idoc, "agents.initial", {"p", "v"})
    p0 = _array(idoc["p"], "agents.initial.p", (topo.n, N))
    if idoc["v"] == "auto":
        v0 = np.zeros((topo.n, N))
        if leaders is not None:
            v0[topo.m:] = leaders.velocity(0.0)
    else:
        v0 = _array(idoc["v"], "agents.initial.v", (topo.n, N))
    return N, model, leaders, p0, v0


def _controllers(ctl: dict, m: int, N: int) -> dict:
    """Scenario's controller fields: a known variant, and only the settings
    and gains it reads; k_psi is read only under psi_mode "dynamic"."""
    _check_keys(ctl, "controllers", {"variant", "gains"},
                {"psi_mode", "v_d", "use_velocity"})
    variant = _choice(ctl["variant"], VARIANTS, "controllers.variant")
    settings, reads = VARIANTS[variant]
    _check_keys(ctl, "controllers", {"variant", "gains"}, set(settings),
                f"variant {variant!r}")
    psi_mode = _choice(ctl.get("psi_mode", "static"), PSI_MODES,
                       "controllers.psi_mode")
    _check_keys(ctl["gains"], "controllers.gains", set(),
                set(reads) - ({"k_psi"} if psi_mode == "static" else set()),
                f"variant {variant!r}" + (f" with psi_mode {psi_mode!r}"
                                          if "psi_mode" in settings else ""))
    return dict(variant=variant, psi_mode=psi_mode,
                use_velocity=_expect(ctl.get("use_velocity", True), bool,
                                     "controllers.use_velocity"),
                v_d=_array(ctl["v_d"], "controllers.v_d", (N,))
                if "v_d" in ctl else None,
                gains=GainSet(m=m, **{
                    k: _expect(v, float, f"controllers.gains.{k}")
                    if k == "boundary_layer_eps"     # eps is one scalar
                    else _array(v, f"controllers.gains.{k}", (), (m,))
                    for k, v in ctl["gains"].items()}))


def _comm(cdoc: dict) -> CommConfig:
    _check_keys(cdoc, "comm", {"T_seconds", "T_star_seconds"},
                {"drop_prob", "delay_max_seconds", "seed"})
    return CommConfig(
        **{name: _expect(cdoc.get(key, 0.0), float, f"comm.{key}")
           for name, key in (("T", "T_seconds"), ("T_star", "T_star_seconds"),
                             ("drop_prob", "drop_prob"),
                             ("delay_max", "delay_max_seconds"))},
        seed=_expect(cdoc.get("seed", 0), int, "comm.seed"))


def build_perturbation(doc: dict, where: str = "perturbation") -> Perturbation:
    _check_keys(doc, where, {"kind"}, {"amplitude", "omega", "phase", "rate"})
    return Perturbation(doc["kind"], _array(doc.get("amplitude", 0.0),
                                            f"{where}.amplitude"), **{
        key: _expect(doc[key], float, f"{where}.{key}")
        for key in ("omega", "phase", "rate") if key in doc})


def _cascade(cas: dict, scen: Scenario) -> CascadeConfig:
    """The cascade section, on the scenario's topology, N, comm, sim and
    initial positions."""
    _check_keys(cas, "cascade", {"alpha", "sigma", "k_eta", "h",
                                 "leader_drive"}, {"phi1", "phi2", "initial"})
    sigma = _expect(cas["sigma"], int, "cascade.sigma", 1)
    init = cas.get("initial", {})
    _check_keys(init, "cascade.initial", set(), {"eta", "zeta"})
    eta, zeta = init.get("eta", "from_p"), init.get("zeta", "zero")
    return CascadeConfig(
        topo=scen.topo, N=scen.N, comm=scen.comm, dt=scen.dt,
        t_end=scen.t_end, sigma=sigma,
        alpha=_expect(cas["alpha"], float, "cascade.alpha"),
        k_eta=_expect(cas["k_eta"], float, "cascade.k_eta"),
        h=tuple(_expect(r, float, f"cascade.h[{i}]")
                for i, r in enumerate(_expect(cas["h"], list, "cascade.h"))),
        eta0=scen.p0 if eta == "from_p"
        else _array(eta, "cascade.initial.eta"),
        zeta0=np.zeros((scen.topo.m, sigma, scen.N)) if zeta == "zero"
        else _array(zeta, "cascade.initial.zeta"),
        phi1=build_perturbation(cas["phi1"], "cascade.phi1")
        if "phi1" in cas else Perturbation(),
        **{key: [build_perturbation(p, f"cascade.{key}[{idx}]")
                 for idx, p in enumerate(_expect(cas.get(key, []), list,
                                                 f"cascade.{key}"))]
           for key in ("leader_drive", "phi2")})
