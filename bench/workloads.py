"""The benchmark's four workloads.

Each workload turns the run's seed into validated inputs (``setup``) and
then issues operations on them back to back (``op``). An operation is one
``sim.run`` plus its exports where the workload has them, or one cascade
batch. Calls go through module attributes (``sim.run``, not a captured
``run``) so that the traced mode can wrap them.

The bundled closed-loop scenarios run at comm seed ``seed %
RECORDED_SEEDS``, because ``references.json`` holds their final errors for
exactly those seeds. The cascade batch runs its bundled document as is
(comm seed 0), the input ``containsim sweep`` checks: at comm seed 2 its
blackout sweep is not monotone (2.0763 at T*=1.0 > 2.0723 at T*=1.5), so
``containsim sweep --seed 2`` fails on the code this benchmark was defined
on. The synthetic digraph is drawn from the seed itself.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from containsim import analysis, config, sim

import digraph

RECORDED_SEEDS = 10
GAINS = (1.0, 2.0, 4.0)       # the multipliers `containsim sweep` uses
T_STARS = (0.5, 1.0, 1.5)     # and its blackout bounds


@dataclass
class CascadeResult:
    trace: analysis.CascadeTrace
    iss: dict
    gains: list
    blackout: list


class ScenarioWorkload:
    """Closed-loop runs of one scenario, with or without exports."""

    def __init__(self, name: str, bundled: str | None, export: bool):
        self.name = name
        self.bundled = bundled
        self.export = export

    def comm_seed(self, seed: int) -> int:
        return seed % RECORDED_SEEDS

    def make_doc(self, seed: int) -> dict:
        if self.bundled is None:
            return digraph.make_doc(seed)
        doc = config.load_bundled(self.bundled)
        doc["comm"]["seed"] = self.comm_seed(seed)
        return doc

    def build(self, doc: dict) -> sim.Scenario:
        scen = config.build_scenario(doc)
        scen.validate()
        return scen

    def setup(self, seed: int) -> sim.Scenario:
        return self.build(self.make_doc(seed))

    def op(self, scen: sim.Scenario, outdir: str):
        trace = sim.run(scen)
        if self.export:           # what `containsim run` writes
            sim.export_trace_csv(trace, os.path.join(outdir, "trace.csv"))
            sim.export_audit_csv(trace, os.path.join(outdir, "audit.csv"))
            sim.export_trace_sidecar(trace, scen,
                                     os.path.join(outdir, "sidecar.json"))
        return trace

    def steps(self, scen: sim.Scenario) -> int:
        return int(round(scen.t_end / scen.dt))


class CascadeWorkload:
    """The `containsim sweep` batch plus the ISS estimate check."""

    name = "cascade_sweep"
    bundled = "cascade_estimates"
    export = False

    def comm_seed(self, seed: int) -> int:
        return 0                  # the bundled document's own seed

    def make_doc(self, seed: int) -> dict:
        return config.load_bundled(self.bundled)

    def build(self, doc: dict) -> analysis.CascadeConfig:
        cas = config.build_cascade(doc)
        cas.validate()
        return cas

    def setup(self, seed: int) -> analysis.CascadeConfig:
        return self.build(self.make_doc(seed))

    def op(self, cas: analysis.CascadeConfig, outdir: str) -> CascadeResult:
        trace = analysis.simulate_cascade(cas)
        iss = analysis.iss_estimate_check(trace)
        gains = analysis.run_gain_sweep(cas, multipliers=GAINS)
        blackout = analysis.run_blackout_sweep(cas, t_stars=T_STARS)
        return CascadeResult(trace, iss, gains, blackout)

    def steps(self, cas: analysis.CascadeConfig) -> int:
        runs = 1 + len(GAINS) + len(T_STARS)
        return runs * int(round(cas.t_end / cas.dt))


WORKLOADS = {wl.name: wl for wl in (
    ScenarioWorkload("fullstate_n10", "benchmark_fullstate", export=True),
    ScenarioWorkload("oscillator_n10", "oscillator_harmonic", export=False),
    ScenarioWorkload("digraph_n100", None, export=False),
    CascadeWorkload(),
)}
