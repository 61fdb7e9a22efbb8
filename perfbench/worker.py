"""One benchmark process: set up a workload, run timed passes, report JSON.

Started by run.py in a fresh interpreter for every measurement, so
set-up time and peak memory mean the same thing on every commit.
The last line of standard output is the JSON result.

    python3 perfbench/worker.py --root . --workload pinch --seed 1 --passes 2 --trace 0

``--seed`` is the input set (see reference.input_seed).  With
``--trace 1`` the passes (rounded up to an even number, at least two)
alternate traced and untraced ops (see run_traced).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import metrics
import spans
from reference import Reference, problems
from workloads import WORKLOADS


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_program(root: str):
    """Import oplength from root/src, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import oplength

    if not os.path.abspath(oplength.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"oplength imported from {oplength.__file__}, not from {src}")
    return oplength


def warm_up() -> None:
    """First BLAS/LAPACK call, outside any timing but inside set-up."""
    import numpy as np
    from oplength import blocks

    blocks.operator_norm(np.ones((128, 128)))


def machine_notes() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class PassRunner:
    """Runs passes over the op list and checks every op as it finishes."""

    def __init__(self, workload: str, seed: int, ops, reference):
        self.workload, self.seed, self.ops, self.reference = workload, seed, ops, reference
        self.times, self.outcomes, self.failures = [], [], []
        self.certs_returned = 0

    def run_op(self, op) -> None:
        t0 = clock()
        try:
            raw = op.run()
        except Exception as exc:   # an op that raises counts as failed
            self.times.append(clock() - t0)
            self.failures.append((op.op_id, [f"{type(exc).__name__}: {exc}"]))
            return
        self.times.append(clock() - t0)
        self.certs_returned += op.returns_cert
        try:
            outcome = op.check(raw)
        except Exception as exc:
            self.failures.append((op.op_id, [f"check raised {type(exc).__name__}: {exc}"]))
            return
        expected = self.reference.expected(self.workload, self.seed, op.op_id)
        bad = problems(outcome, expected)
        if bad:
            self.failures.append((op.op_id, bad))
        self.outcomes.append(outcome)

    def run_passes(self, count: int) -> None:
        for _ in range(count):
            for op in self.ops:
                self.run_op(op)

    @property
    def rate(self) -> float:
        return (len(self.times) - len(self.failures)) / sum(self.times)

    def merge(self, other: "PassRunner") -> None:
        self.times += other.times
        self.failures += other.failures
        self.outcomes += other.outcomes


def run_traced(plain: PassRunner, traced: PassRunner, tracer, passes: int) -> None:
    """Run every op once per pass, traced in every other pass.

    Op i of pass p runs under the tracer when i + p is odd, so with an
    even number of passes each op is traced in half of them, and traced
    and untraced ops alternate in time: the two rates see the same
    drift of the machine's speed, and their ratio is the overhead.
    """
    for p in range(passes):
        for i, op in enumerate(plain.ops):
            if (i + p) % 2:
                with tracer:
                    traced.run_op(op)
            else:
                plain.run_op(op)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the traced spans here as JSON lines")
    args = p.parse_args(argv)

    import_program(args.root)
    warm_up()
    workdir = os.path.join(args.root, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        ready = clock()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        runner = PassRunner(args.workload, args.seed, ops, Reference.load())
        passes = max(2, args.passes + args.passes % 2) if args.trace else args.passes
        result = {"ready": ready, "machine": machine_notes(), "passes": passes}
        if args.trace:
            traced = PassRunner(args.workload, args.seed, ops, runner.reference)
            tracer = spans.Tracer()
            run_traced(runner, traced, tracer, passes)
            leftover = spans.leftover_wrappers()
            if leftover:
                raise RuntimeError(f"trace wrappers left installed: {leftover}")
            result["per_layer"] = metrics.per_layer(
                spans.aggregate(tracer.spans), tracer.counts, passes // 2,
                len(traced.times), traced.certs_returned, runner.rate, traced.rate)
            result["spans"] = len(tracer.spans)
            if args.spans:
                spans.write_jsonl(tracer.spans, args.spans)
            runner.merge(traced)
        else:
            runner.run_passes(passes)
        with_norm = [o for o in runner.outcomes if o.cost is not None and o.target_norm]
        uses = [o.bound_use for o in runner.outcomes if o.bound_use is not None]
        result.update({
            "times": runner.times,
            "failed": len(runner.failures),
            "failures": runner.failures[:5],
            "cost_ratio_max": max((o.cost / o.target_norm for o in with_norm), default=0.0),
            "bound_use_max": max(uses, default=0.0),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:   # another worker's directory is still there
            pass


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
