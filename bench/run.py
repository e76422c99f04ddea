"""containsim benchmark: one workload, one run.

    python3 bench/run.py --workload fullstate_n10 --seed 3 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. One
process, pinned to one CPU, issues the workload's operations back to back
(a closed loop with one caller), with BLAS threads pinned to 1. Each
operation is checked after it ends, outside the timed region (see
``checks.py``).

``--trace 0`` prints the end-to-end metrics: median time per operation
(``run_s``), per integration step (``step_us``), the median of
``SETUP_PROBES`` fresh-interpreter set-ups (``setup_s``, one after each of
the first operations, so that they meet different moments of the host's
load) and the peak resident memory of this process (``peak_rss_mb``).
Times are wall times scaled to a reference host speed, read from a fixed
calibration kernel sampled during each operation, or run just before and
after each set-up (``speed.py``).

``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics of the traced ones (see ``tracing.py``), with the traced
``run_s`` and its ratio to the untraced one. The spans are saved to
``.bench_out/``.

The last line of standard output is the result; the line before it holds
the sample counts, the checks' findings and the environment. The names and
units of the metrics come from ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
BUILD_REPEATS = 5
MIN_OPS = 3


def import_package() -> None:
    """Import ``containsim`` from this checkout's ``src/`` or exit."""
    if not (SRC / "containsim" / "__init__.py").is_file():
        sys.exit(f"bench: no containsim package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import containsim
    if Path(containsim.__file__).resolve().parent != SRC / "containsim":
        sys.exit(f"bench: imported containsim from {containsim.__file__}")


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "threads": {k: os.environ[k] for k in THREAD_ENV}}


def setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """One fresh-interpreter set-up (``probe.py``): wall seconds, scale."""
    def wall() -> float:
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(BENCH / "probe.py"),
                              workload, str(seed)], capture_output=True,
                             text=True, check=True, timeout=120)
        return float(out.stdout.split()[-1]) - start

    from speed import bracketed
    return bracketed(wall)


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "values": values}


def run_op(op, inputs, outdir: str):
    """One timed operation; an exception is returned as a finding."""
    start = time.perf_counter()
    try:
        result, error = op(inputs, outdir), None
    except Exception:                     # noqa: BLE001 - counted as failed
        result, error = None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, result, error


def measure(wl, inputs, ref: dict | None, seed: int, seconds: float,
            traced: bool, outdir: str) -> dict:
    """Closed loop until the next operation would pass ``seconds``.

    An operation fails when it raises or when ``checks.check`` finds a
    problem with its result (``ref`` holds the reference values, if any).
    Times are scaled to the reference speed (``speed.py``); the wall times
    are returned too.
    """
    import checks
    import tracing
    from speed import Sampler, bracketed

    rec = tracing.Recorder() if traced else None
    plain, wall, scales, layers, problems, hashes = [], [], [], [], [], set()
    setups, setups_wall = [], []
    failed, elapsed = 0, 0.0
    min_ops = 2 if traced else MIN_OPS

    def add_setup_sample():
        seconds, scale = setup_sample(wl.name, seed)
        setups_wall.append(seconds)
        setups.append(seconds * scale)

    if traced:
        build = rec.wrap("config.build", wl.build)
        doc = wl.make_doc(seed)
        built, build_scale = bracketed(
            lambda: [build(doc) for _ in range(BUILD_REPEATS)])
        inputs = built[-1]
    for i in itertools.count():
        op_traced = traced and i % 2 == 1
        op = wl.op
        if op_traced:
            patches = tracing.install(rec)
            rec.op_id = i
            op = rec.wrap(tracing.ROOT, wl.op)
        with Sampler() as sampler:
            dur, result, error = run_op(op, inputs, outdir)
        if op_traced:
            tracing.uninstall(patches)
        dur -= sampler.stolen
        scale = sampler.scale()
        found = [error] if error else checks.check(result, ref)
        if result is not None and wl.export:
            hashes.add(checks.sha256(os.path.join(outdir, "trace.csv")))
        if op_traced:
            op_layers = rec.op_layers(i)
            self_sum = sum(op_layers[m] for m in tracing.SELF_TIMES)
            if abs(self_sum - op_layers["trace.run_s"]) > 1e-6:
                found.append(f"layer self times sum to {self_sum} s, "
                             f"not {op_layers['trace.run_s']} s")
            # The speed samples land in whatever span is open, in
            # proportion to its time: take their share out of every layer.
            keep = 1 - sampler.stolen / op_layers["trace.run_s"]
            layers.append({k: v * keep * scale if k.endswith("_s") else v
                           for k, v in op_layers.items()})
        else:
            plain.append(dur * scale)
            wall.append(dur)
        scales.append(scale)
        failed += bool(found)
        problems += [f"op {i}: {p}" for p in found]
        if not traced and len(setups) < SETUP_PROBES:
            add_setup_sample()
        elapsed += dur
        if i + 1 >= min_ops and elapsed + dur > seconds:
            break
    while not traced and len(setups) < SETUP_PROBES:
        add_setup_sample()
    out = {"ops": i + 1, "failed": failed, "problems": problems,
           "plain": plain, "wall": wall, "speed": scales, "layers": layers,
           "setup": setups, "setup_wall": setups_wall,
           "csv_sha256": sorted(hashes)}
    if traced:
        a = rec.arrays()
        sel = a["name"] == rec.name_id("config.build")
        out["build"] = ((a["end"] - a["start"])[sel] * 1e-9
                        * build_scale).tolist()
        OUT.mkdir(exist_ok=True)
        rec.save(str(OUT / f"spans-{wl.name}-seed{seed}.npz"))
    return out


def parse(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def benchmark(args: argparse.Namespace) -> int:
    for key in THREAD_ENV:
        os.environ[key] = "1"
    # One CPU for this process and its set-up probes, so that the speed
    # kernel runs where the timed code runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_package()
    from checks import load_references
    from tracing import median_layers
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS or args.workload not in \
            {w["name"] for w in spec["workloads"]}:
        sys.exit(f"bench: unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    inputs = wl.setup(args.seed)
    steps = wl.steps(inputs)
    ref = load_references()[wl.name][str(wl.comm_seed(args.seed))] \
        if wl.bundled else None
    outdir = OUT / f"tmp-{wl.name}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        res = measure(wl, inputs, ref, args.seed, args.seconds,
                      bool(args.trace), str(outdir))
    finally:
        shutil.rmtree(outdir)

    plain = res["plain"]
    samples = {"run_s": plain, "step_us": [d / steps * 1e6 for d in plain],
               "run_s_wall": res["wall"], "speed": res["speed"]}
    if args.trace:
        values = median_layers(res["layers"])
        values["config.build_s"] = statistics.median(res["build"])
        values["trace.overhead"] = values["trace.run_s"] / \
            statistics.median(plain)
        samples["trace.run_s"] = [d["trace.run_s"] for d in res["layers"]]
    else:
        samples.update(setup_s=res["setup"], setup_s_wall=res["setup_wall"])
        values = {key: statistics.median(samples[key])
                  for key in ("run_s", "step_us", "setup_s")}
        values["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        sys.exit(f"bench: metrics differ from BENCHMARK.json: {mismatch}")

    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "steps_per_op": steps, "ops": res["ops"],
              "failed_ops": res["failed"], "problems": res["problems"][:20],
              "samples": {k: summary(v) for k, v in samples.items() if v},
              "csv_sha256": res["csv_sha256"], "env": environment()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(benchmark(parse()))
