"""Layered benchmark of oplength: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pinch --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload cli --seed 1 --seconds 40 --trace 0 \\
        --out new.json --compare perfbench/results/BENCH_baseline.json
    python3 perfbench/run.py --workload pinch --seed 1 --seconds 40 --trace 1 \\
        --spans pinch.spans.jsonl

Workloads (each a closed loop: one client, the next op starts when the
previous one has finished):

- ``pinch``: t13 build + verify on Gaussian instances and the pinching
  pipeline with its total bound on blockdiag instances, at (4,16),
  (6,24) and (8,32).  Stresses ``constructions.pinch``; the pipeline's
  total bound also runs the assembly (``add``, ``pad``, ``splitting``).
- ``cli``: in-process ``oplength.cli.main`` calls (gen, factor,
  verify, uniformity, cb) on JSON files.  ``serial`` and ``simhom``.
- ``embed`` and ``assemble`` (not in BENCHMARK.json, whose time budget
  on a noisy 2-core machine allows two workloads of 40 s; run them by
  hand with ``--seconds 22``): sub19/sub18 build + verify up to (8,16),
  and ``assemble_from_approximant`` from approximants built in set-up.

A run makes a fixed number of passes over the workload's op list,
round(--seconds / PASS_SECONDS) of them (workloads.py): the op count,
and the percentile certify_tail_s reports, depend on --seconds only, so
the run's length follows the program's speed.

Every measurement runs in a fresh interpreter (worker.py) with
OPENBLAS_NUM_THREADS = OMP_NUM_THREADS = 1.  Set-up (interpreter start,
``import oplength``, a LAPACK warm-up call, generating the inputs) runs
SETUP_RUNS times and ``setup_s`` is the median.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
pass (and the tracing overhead).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

Every seed runs on one of the input sets that reference.json covers
(reference.input_seed), so every op is checked against the reference.
The held-out seed 7919 has its own set, kept out of tuning; a claimed
gain must also hold on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import metrics
from reference import HELD_OUT_SEED, input_seed
from worker import clock
from workloads import WORKLOADS, passes_for

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_RUNS = 11
THREADS = "1"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: str, extra: list, deadline: float):
    """Run one worker to completion; (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *extra]
    t0 = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root, env=child_env(),
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - clock()))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return t0, json.loads(lines[-1])


def measure(root: str, workload: str, seed: int, seconds: int, trace: int,
            spans_path: str | None = None) -> dict:
    deadline = clock() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(input_seed(seed))]
    setup_times = []
    for _ in range(SETUP_RUNS - 1):
        t0, res = spawn(root, base + ["--setup-only"], deadline)
        setup_times.append(res["ready"] - t0)
    run = base + ["--passes", str(passes_for(workload, seconds)), "--trace", str(trace)]
    if trace and spans_path:
        run += ["--spans", os.path.abspath(spans_path)]
    t0, res = spawn(root, run, deadline)
    setup_times.append(res["ready"] - t0)
    res["setup_times"] = setup_times
    if trace:
        res["metrics"] = res.pop("per_layer")
    else:
        res["metrics"] = metrics.end_to_end(
            res["times"], res["failed"], res["cost_ratio_max"], res["bound_use_max"],
            setup_times, res["peak_rss_mb"])
    return res


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_report(args, res: dict, previous: dict | None) -> None:
    times = res["times"]
    pct, tail_v, beyond = metrics.tail(times)
    m = res["machine"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} held_out_seed={HELD_OUT_SEED}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in m.items()))
    print(f"ops: {len(times)} in {res['passes']} pass(es), {res['failed']} failed; "
          f"setup runs {', '.join(_fmt(t) for t in res['setup_times'])} s")
    print(f"certify_tail_s is p{pct:g} of {len(times)} ops ({beyond} beyond)")
    print(f"seed {args.seed} runs on input set {input_seed(args.seed)}; "
          f"every op checked against the reference outputs")
    for op_id, why in res["failures"]:
        print(f"FAILED {op_id}: {'; '.join(why)}")
    if args.trace:
        print(f"spans recorded: {res['spans']}")
    for name, rec in res["metrics"].items():
        line = f"  {name:<48} {_fmt(rec['value']):>14} {rec['unit']}"
        old = (previous or {}).get(name)
        if old is not None:
            delta = rec["value"] - old["value"]
            rel = f" ({delta / old['value']:+.1%})" if old["value"] else ""
            line += f"   delta {delta:+.6g}{rel}"
        print(line)


def save(path: str, args, res: dict) -> None:
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)
    doc["machine"] = res["machine"]
    doc["held_out_seed"] = HELD_OUT_SEED
    key = args.workload + (".trace" if args.trace else "")
    doc["workloads"][key] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "ops": len(res["times"]),
        "failed": res["failed"],
        "tail_percentile": metrics.tail(res["times"])[0],
        "metrics": res["metrics"],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Layered benchmark of oplength.")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="merge this run's result into a JSON result file")
    p.add_argument("--compare", help="previous result file; print the delta of every metric")
    p.add_argument("--spans", help="with --trace 1, write the traced spans here as JSON lines")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oplength", "__init__.py")):
        print("error: run from the root of an oplength checkout (no src/oplength here)",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    previous = None
    if args.compare:
        with open(args.compare) as f:
            key = args.workload + (".trace" if args.trace else "")
            previous = json.load(f)["workloads"].get(key, {}).get("metrics")
    try:
        res = measure(root, args.workload, args.seed, args.seconds, args.trace, args.spans)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(args, res, previous)
    if args.out:
        save(args.out, args, res)
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": len(res["times"]),
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
