"""Regenerate perfbench/reference.json: every op's digest and cost per input set.

Run from the root of a checkout, only when an output is meant to change:

    python3 perfbench/make_reference.py

Every workload runs once, untimed, on every input set in
``reference.REFERENCE_SEEDS``, with one BLAS thread as in the benchmark;
the (workload, input set) jobs are spread over the CPUs this process may
use.  Each op must pass every check that does not need a reference
(program verdict, cost >= target norm, promised bound).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"   # before numpy is imported, as in the benchmark

import json   # noqa: E402
import multiprocessing   # noqa: E402
import shutil   # noqa: E402
import sys   # noqa: E402
import tempfile   # noqa: E402

import reference   # noqa: E402
from worker import import_program, warm_up   # noqa: E402
from workloads import WORKLOADS   # noqa: E402

ROOT = os.getcwd()


def records_for(job) -> tuple:
    workload, seed = job
    parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(parent, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"ref-{workload}-", dir=parent)
    try:
        out = {}
        for op in WORKLOADS[workload](seed, workdir):
            outcome = op.check(op.run())
            bad = reference.problems(outcome)
            if bad:
                raise RuntimeError(f"{workload} seed {seed} {op.op_id}: {'; '.join(bad)}")
            out[op.op_id] = (outcome.digest, outcome.cost)
        return workload, seed, out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    import_program(ROOT)
    warm_up()
    jobs = [(wl, seed) for wl in sorted(WORKLOADS) for seed in reference.REFERENCE_SEEDS]
    records = {}
    procs = min(len(os.sched_getaffinity(0)), len(jobs))
    with multiprocessing.get_context("fork").Pool(procs) as pool:
        for wl, seed, ops in pool.imap_unordered(records_for, jobs):
            records.setdefault(wl, {})[seed] = ops
            print(f"{wl} seed {seed}: {len(ops)} ops", flush=True)
    with open(reference.PATH, "w") as f:
        json.dump(reference.build(records), f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
    except OSError:   # a benchmark run is using it
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
