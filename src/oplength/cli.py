"""Command-line driver.

Exit codes: 0 pass, 1 verification or bound failure, 2 input/usage
error.  Reports are single machine-readable JSON objects; benchmark
tables are CSV with a fixed header.  Every command is deterministic
given its flags and seed (timing columns are opt-in, since they are
inherently nondeterministic).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time

import numpy as np

from . import serial
# operator_norm is unused here but kept bound: perfbench's tracer tests read cli.operator_norm
from .blocks import ShapeMismatchError, operator_norm  # noqa: F401
from .certs import verify
from .instances import DISTRIBUTIONS, random_instance
from .pipeline import CONSTRUCTIONS, UniformityError, uniformity_check
from .simhom import similarity_cb_check

USAGE_ERROR = 2
CHECK_FAILED = 1


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_gen(args) -> int:
    x = random_instance(args.n, args.k, args.seed, args.distribution, noise=args.noise)
    _write_out(serial.instance_to_json(x), args.out)
    return 0


def cmd_factor(args) -> int:
    with open(args.instance) as f:
        x = serial.instance_from_json(f.read())
    spec = CONSTRUCTIONS[args.construction]
    if not spec.applicable(x.n, x.k):
        print(serial.dump_report({
            "error": f"construction {args.construction} needs n | k",
            "n": x.n, "k": x.k,
        }))
        return USAGE_ERROR
    cert, target = spec.build(x)
    report = verify(cert, target, args.tol)
    doc = {
        "construction": args.construction,
        "n": x.n,
        "k": x.k,
        "depth": cert.d,
        "target_norm": report.lower,
        **report.as_dict(),
    }
    if args.out:
        with open(args.out, "w") as f:
            f.write(serial.certificate_to_json(cert))
    print(serial.dump_report(doc))
    return 0 if report.passed else CHECK_FAILED


def cmd_verify(args) -> int:
    with open(args.instance) as f:
        x = serial.instance_from_json(f.read())
    with open(args.certificate) as f:
        cert = serial.certificate_from_json(f.read())
    report = verify(cert, x, args.tol)
    print(serial.dump_report(report.as_dict()))
    return 0 if report.passed else CHECK_FAILED


def cmd_bench(args) -> int:
    ns = [int(v) for v in args.n_range.split(",") if v]
    if not ns or args.trials < 1:
        print("empty n range or trials", file=sys.stderr)
        return USAGE_ERROR
    names = [c for c in args.constructions.split(",") if c]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["construction", "n", "k", "trial", "cost", "norm", "ratio"]
    if args.timings:
        header.append("seconds")
    writer.writerow(header)
    ok = True
    for name in names:
        spec = CONSTRUCTIONS[name]
        for n in ns:
            if not spec.applicable(n, args.k):
                continue
            for t in range(args.trials):
                x = random_instance(n, args.k, args.seed * 1000 + t)
                t0 = time.perf_counter()
                cert, target = spec.build(x)
                dt = time.perf_counter() - t0
                rep = verify(cert, target, args.tol)
                row = [name, n, args.k, t, repr(rep.cost), repr(rep.lower), repr(rep.ratio)]
                if args.timings:
                    row.append(repr(dt))
                writer.writerow(row)
                ok = ok and rep.passed
    _write_out(buf.getvalue(), args.out)
    return 0 if ok else CHECK_FAILED


def cmd_cb(args) -> int:
    entries = [complex(v) for v in args.xi_spec.split(",") if v]
    if not entries:
        print("empty --xi-spec", file=sys.stderr)
        return USAGE_ERROR
    xi = np.diag(entries)
    report = similarity_cb_check(xi, args.level, args.restarts, args.seed)
    print(serial.dump_report(report))
    return 0 if report["consistent"] and report["tight"] else CHECK_FAILED


def cmd_uniformity(args) -> int:
    try:
        report = uniformity_check(args.construction, args.n, args.k, args.trials, args.seed)
    except UniformityError as exc:
        print(serial.dump_report({"stable": False, "detail": str(exc)}))
        return CHECK_FAILED
    report["stable"] = True
    print(serial.dump_report(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oplength")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--distribution", choices=DISTRIBUTIONS, default="gaussian")
    g.add_argument("--noise", type=float, default=0.1)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    f = sub.add_parser("factor", help="build and verify a certificate")
    f.add_argument("--instance", required=True)
    f.add_argument("--construction", choices=sorted(CONSTRUCTIONS), required=True)
    f.add_argument("--tol", type=float, default=1e-9)
    f.add_argument("--out", help="write the certificate file here")
    f.set_defaults(func=cmd_factor)

    v = sub.add_parser("verify", help="verify a certificate against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--certificate", required=True)
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="cost/norm ratio table (CSV)")
    b.add_argument("--n-range", default="2,3")
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tol", type=float, default=1e-9)
    b.add_argument("--constructions", default="length1,sub18,sub19,t13")
    b.add_argument("--timings", action="store_true")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bench)

    c = sub.add_parser("cb", help="cb-norm lower bound vs condition-number oracle")
    c.add_argument("--xi-spec", required=True, help="comma-separated diagonal of xi")
    c.add_argument("--level", type=int, default=2)
    c.add_argument("--restarts", type=int, default=50)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_cb)

    u = sub.add_parser("uniformity", help="scalar-factor determinism check")
    u.add_argument("--construction", choices=sorted(CONSTRUCTIONS), required=True)
    u.add_argument("--n", type=int, required=True)
    u.add_argument("--k", type=int, required=True)
    u.add_argument("--trials", type=int, default=10)
    u.add_argument("--seed", type=int, default=0)
    u.set_defaults(func=cmd_uniformity)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ShapeMismatchError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
