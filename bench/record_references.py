"""Record the reference values ``checks.py`` compares against.

    python3 bench/record_references.py

Runs one operation of each bundled workload at every recorded comm seed
and writes ``references.json``. Rerun it only in a change that is meant to
alter the simulated results, and say so in that change.
"""
import json
import os
import tempfile

from run import OUT, THREAD_ENV, import_package

for key in THREAD_ENV:
    os.environ[key] = "1"
import_package()

from checks import REFERENCES, reference_values  # noqa: E402
from workloads import RECORDED_SEEDS, WORKLOADS  # noqa: E402

refs = {}
OUT.mkdir(exist_ok=True)
with tempfile.TemporaryDirectory(dir=OUT) as outdir:
    for wl in WORKLOADS.values():
        if wl.bundled:
            seeds = {wl.comm_seed(s): s for s in range(RECORDED_SEEDS)}
            refs[wl.name] = {
                str(comm): reference_values(wl.op(wl.setup(seed), outdir))
                for comm, seed in seeds.items()}
with open(REFERENCES, "w") as fh:
    json.dump(refs, fh, indent=1, sort_keys=True)
    fh.write("\n")
