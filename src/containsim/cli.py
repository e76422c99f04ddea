"""Command-line front end.

Commands: validate (check a config, print the topology certificates), run
(integrate a scenario, write the requested outputs), sweep (the cascade
gain and blackout sweeps), report (run a scenario, summarize its errors).
Each returns its exit code; main alone turns exceptions into codes, with
one line on stderr and no traceback:
  0  success
  1  "config error:" for any ValueError (every input-error class subclasses
     it): a bad command line, config file or setting (sweep included), a dt
     or horizon not positive or not dividing T and the horizon, an
     oscillator spectrum off the imaginary axis or not semi-simple, a
     follower no leader reaches; also a failed certificate or trend
  2  "runtime error:" for a DivergenceError naming the agent and variable
     (for sweep, also the copy of its one batch of distinct configs)
  3  "output error:" for an OSError while writing the outputs
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis, config, sim
from .comm import export_schedule_csv
from .sim import DivergenceError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):     # a usage error exits 1, like bad input
        raise ValueError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="containsim",
        description="containment-control simulation toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in (("validate", "validate a config and its topology"),
                       ("run", "integrate a scenario"),
                       ("sweep", "cascade gain / blackout sweeps"),
                       ("report", "run and summarize a scenario")):
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--config", required=True, help="JSON scenario file")
        sp.add_argument("--seed", type=int, default=None,
                        help="the communication seed (comm.seed)")
        sp.add_argument("--out", default=".",
                        help="directory for generated files")
    return p


def _seeded(built, seed: int | None):
    """The built scenario or cascade config, its comm seed set to seed."""
    return built if seed is None else dataclasses.replace(
        built, comm=dataclasses.replace(built.comm, seed=seed))


def cmd_validate(args) -> int:
    scen = config.build_scenario(config.load_config(args.config))
    scen.validate()
    report = analysis.containment_certificate(scen.topo)
    print(f"leader reachability: {report['leader_reachability']}")
    print(f"nonsingular M-matrix: {report['m_matrix']}")
    if report["weights_ok"]:
        print(f"weight row-sum error: {report['row_sum_error']:.3e}")
        print(f"minimum weight: {report['min_weight']:.3e}")
    sg = report["small_gain"]
    if sg is not None:
        print(f"small-gain spectral radius: {sg['spectral_radius']:.6f} "
              f"({'ok' if sg['pass'] else 'FAIL'})")
    print(f"certificate: {'PASS' if report['pass'] else 'FAIL'}")
    return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_run(args) -> int:
    doc = config.load_config(args.config)
    scen = _seeded(config.build_scenario(doc), args.seed)
    trace = sim.run(scen)
    outputs = doc.get("outputs", {})
    os.makedirs(args.out, exist_ok=True)

    def dest(name):
        return os.path.join(args.out, name)

    if "trace_csv" in outputs:
        sim.export_trace_csv(trace, dest(outputs["trace_csv"]))
    if "audit_csv" in outputs:
        sim.export_audit_csv(trace, dest(outputs["audit_csv"]))
    if "schedule_csv" in outputs:
        export_schedule_csv(trace.schedules, dest(outputs["schedule_csv"]))
    if "sidecar_json" in outputs:
        sim.export_trace_sidecar(trace, scen, dest(outputs["sidecar_json"]))
    if "svg" in outputs:
        from .svg import write_report_svg
        snaps = (0.0, scen.t_end / 4, scen.t_end / 2, scen.t_end)
        write_report_svg(trace, dest(outputs["svg"]), snapshot_times=snaps)
    print(f"final containment error: {trace.err_pos_norm[-1]:.6e}")
    print(f"final velocity error: {trace.err_vel_norm[-1]:.6e}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cas = _seeded(config.build_cascade(config.load_config(args.config)),
                  args.seed)
    t_stars = (0.5, 1.0, 1.5)
    valid = [ts for ts in t_stars if ts >= cas.comm.T]
    gains, blackout = analysis.run_sweeps(cas, t_stars=valid)
    print("gain sweep (x1, x2, x4):",
          " ".join(f"{g:.6e}" for g in gains))
    print("blackout sweep (" + ", ".join(f"T*={ts:g}" for ts in valid) + "):",
          " ".join(f"{b:.6e}" for b in blackout))
    ok = all(a >= b - 1e-12 for a, b in zip(gains, gains[1:])) and \
        all(a <= b + 1e-12 for a, b in zip(blackout, blackout[1:]))
    print(f"monotone trends: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    scen = _seeded(config.build_scenario(config.load_config(args.config)),
                   args.seed)
    trace = sim.run(scen)
    os.makedirs(args.out, exist_ok=True)
    cert = analysis.containment_certificate(scen.topo)
    summary = {
        "label": scen.label,
        "variant": scen.variant,
        "seed": trace.meta["seed"],
        "certificate_pass": bool(cert["pass"]),
        "small_gain_radius": cert["small_gain"]["spectral_radius"]
        if cert["small_gain"] else None,
        "final_err_pos_norm": float(trace.err_pos_norm[-1]),
        "final_err_vel_norm": float(trace.err_vel_norm[-1]),
        "max_hull_dist_final": float(np.max(trace.hull_dist[-1])),
        "messages_delivered": len(trace.audit),
        "messages_forced": sum(bool(trace.schedules[src, dst].forced[seq])
                               for src, dst, seq, *_ in trace.audit),
    }
    path = os.path.join(args.out, f"{scen.label}_report.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for key, val in summary.items():
        print(f"{key}: {val}")
    print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {"validate": cmd_validate, "run": cmd_run,
                "sweep": cmd_sweep, "report": cmd_report}
    try:
        args = _parser().parse_args(argv)
        return handlers[args.command](args)
    except ValueError as exc:       # every input-error class subclasses it
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DivergenceError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
