"""Command-line driver.

Exit codes: 0 pass, 1 verification or bound failure, 2 input/usage
error; a usage error is raised where its rule lives and printed by
``main`` as one ``error: ...`` line on stderr, nothing on stdout.
Reports are single machine-readable JSON objects; benchmark tables are
CSV with a fixed header.  Every command is deterministic given its
flags and seed (timing columns are opt-in, since they are inherently
nondeterministic).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import sys
import time
from dataclasses import asdict

import numpy as np

from . import serial
# operator_norm is unused here but kept bound: perfbench's tracer tests read cli.operator_norm
from .blocks import ShapeMismatchError, operator_norm  # noqa: F401
from .certs import _TOL, verify
from .instances import DISTRIBUTIONS, random_instance
from .pipeline import CONSTRUCTIONS, UniformityError, _construction, uniformity_check
from .simhom import similarity_cb_check

USAGE_ERROR = 2
CHECK_FAILED = 1
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameter numbers


def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    glibc starts them at 128 KiB and raises them to the size of each mapped
    block freed (and twice that), up to these caps, so whether an array is
    mapped or carved from the retained heap depends on the sizes freed
    before it: the peak memory of the same commands moved by up to 17 MB
    when only the name of the working directory changed.  Pinned at the
    caps from the first command, every array below 32 MiB reuses heap space.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    except (AttributeError, OSError, TypeError):  # no glibc
        pass


def _items(flag: str, text: str, kind) -> list:
    """The comma-separated items of ``flag``'s value as ``kind``; ValueError names flag and item."""
    out = []
    for v in filter(None, text.split(",")):
        try:
            out.append(kind(v))
        except ValueError:
            raise ValueError(f"{flag}: cannot read {v!r} as {kind.__name__}") from None
    if not out:
        raise ValueError(f"{flag}: empty list")
    return out


def _write_out(pieces, out: str | None) -> None:
    """Write the text pieces to the file ``out`` one by one as they come, or to stdout.

    Stdout gets the joined text, ending in a newline.
    """
    if out:
        with open(out, "w") as f:
            f.writelines(pieces)
    else:
        text = "".join(pieces)
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_gen(args) -> int:
    x = random_instance(args.n, args.k, args.seed, args.distribution, noise=args.noise)
    _write_out(serial.json_pieces(x), args.out)
    return 0


def cmd_factor(args) -> int:
    with open(args.instance) as f:
        x = serial.instance_from_json(f.read())
    cert, target = CONSTRUCTIONS[args.construction].build(x)
    report = verify(cert, target, args.tol)
    doc = {
        "construction": args.construction,
        "n": x.n,
        "k": x.k,
        "depth": cert.d,
        "target_norm": report.lower,
        **asdict(report),
    }
    if args.out:
        _write_out(serial.json_pieces(cert), args.out)
    print(serial.dump_report(doc))
    return 0 if report.passed else CHECK_FAILED


def cmd_verify(args) -> int:
    with open(args.instance) as f:
        x = serial.instance_from_json(f.read())
    with open(args.certificate) as f:
        cert = serial.certificate_from_json(f.read())
    report = verify(cert, x, args.tol)
    print(serial.dump_report(asdict(report)))
    return 0 if report.passed else CHECK_FAILED


def cmd_bench(args) -> int:
    ns = _items("--n-range", args.n_range, int)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    names = _items("--constructions", args.constructions, str)
    for name in names:
        _construction(name, "--constructions")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["construction", "n", "k", "trial", "cost", "norm", "ratio"]
    writer.writerow(header + ["seconds"] if args.timings else header)
    ok, skips = True, []
    for name, n in ((c, n) for c in names for n in ns):
        for t in range(args.trials):
            x = random_instance(n, args.k, args.seed * 1000 + t)
            t0 = time.perf_counter()
            try:
                cert, target = CONSTRUCTIONS[name].build(x)
            except ShapeMismatchError as exc:  # the pair does not fit the builder, e.g. n | k
                if t:
                    raise
                skips.append(f"{name} at n={n}, k={args.k}: {exc}")
                break
            dt = time.perf_counter() - t0
            rep = verify(cert, target, args.tol)
            row = [name, n, args.k, t, repr(rep.cost), repr(rep.lower), repr(rep.ratio)]
            writer.writerow(row + [repr(dt)] if args.timings else row)
            ok = ok and rep.passed
    if len(skips) == len(names) * len(ns):
        raise ValueError("nothing to run: " + "; ".join(skips))
    sys.stderr.writelines(f"skipped {skip}\n" for skip in skips)
    _write_out([buf.getvalue()], args.out)
    return 0 if ok else CHECK_FAILED


def cmd_cb(args) -> int:
    xi = np.diag(_items("--xi-spec", args.xi_spec, complex))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's own usage errors, printed by main like the rest
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="oplength")
    sub = p.add_subparsers(dest="command", required=True)  # subparsers are _Parser too

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
    f.add_argument("--tol", type=float, default=_TOL)
    f.add_argument("--out", help="write the certificate file here")
    f.set_defaults(func=cmd_factor)

    v = sub.add_parser("verify", help="verify a certificate against an instance")
    v.add_argument("--instance", required=True)
    v.add_argument("--certificate", required=True)
    v.add_argument("--tol", type=float, default=_TOL)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="cost/norm ratio table (CSV)")
    b.add_argument("--n-range", default="2,3")
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--trials", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--tol", type=float, default=_TOL)
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
    _pin_malloc_thresholds()
    try:
        args = build_parser().parse_args(argv)
        if not 0 <= getattr(args, "tol", 0.0) < np.inf:
            raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
