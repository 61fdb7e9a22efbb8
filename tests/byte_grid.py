"""SHA-256 digests over the bytes of a fixed grid of outputs, to compare two commits.

Run from the repository root, at one BLAS thread (bytes are a one-thread
property):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/byte_grid.py

It prints one line ``<section>: <sha256> <count> items`` for each section of
the grid named below, so a mismatch names its section, then the total line
``<sha256> <count> items`` over all of them, last.  The grid, built twice, at
``evaluate``'s default chunk budget and at one block column per chunk:

- constructions: the five constructions on gaussian and blockdiag input
  (noise 0 and 0.1, seeds 1 and 7) at every ladder shape they fit:
  alphas, diagonals and their norms, targets and ``verify`` reports; and
  on gaussian input with a fixed share of its real and imaginary parts
  set to -0.0 (``signed-zero``), where a pinch that kept a -0 would show;
- pipelines: ``pinching_pipeline(include_total_bound=True)`` and
  ``assemble_from_approximant`` reports and certificates;
- uniformity: ``uniformity_check`` digests;
- cli: the stdout, stderr, exit code and files of CLI ``gen``,
  ``factor --out``, ``verify``, ``uniformity`` and ``bench --out`` runs.

A change that claims to keep every byte shows the same lines here as its
parent.  The file is not collected by pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import struct
import sys
import tempfile
from dataclasses import fields
from unittest import mock

import numpy as np

from oplength import (
    CONSTRUCTIONS,
    BlockMatrix,
    ShapeMismatchError,
    assemble_from_approximant,
    certs,
    cli,
    pinching_pipeline,
    random_instance,
    uniformity_check,
    verify,
)

SECTIONS = ("constructions", "pipelines", "uniformity", "cli")
SHAPES = ((1, 3), (2, 2), (2, 4), (3, 6), (3, 12), (4, 8), (4, 16), (6, 12), (6, 24), (8, 32))
INPUTS = (("gaussian", 0.0), ("blockdiag", 0.0), ("blockdiag", 0.1), ("signed-zero", 0.0))
NEG_ZERO_SHARE = 0.25  # of the signed-zero input's real and imaginary parts
SEEDS = (1, 7)
SUB19_MAX = 48  # n * k: sub19 works over M_{n k}
BIG = 6 * 24  # n * k above which only t13 and the pipelines run, on one input
UNIFORMITY = (("length1", 2, 4), ("lemma5", 3, 6), ("sub18", 2, 4), ("sub19", 2, 3), ("t13", 3, 6))
CLI_RUNS = (
    ("gen", "--n", "3", "--k", "12", "--seed", "7", "--distribution", "blockdiag",
     "--noise", "0", "--out", "{d}/x.json"),
    ("gen", "--n", "4", "--k", "8", "--seed", "3", "--out", "{d}/y.json"),
    *(("factor", "--instance", "{d}/" + f, "--construction", c, "--out", "{d}/" + f + c)
      for f in ("x.json", "y.json") for c in CONSTRUCTIONS),
    *(("verify", "--instance", "{d}/" + f, "--certificate", "{d}/" + f + c)
      for f in ("x.json", "y.json") for c in CONSTRUCTIONS),
    ("uniformity", "--construction", "t13", "--n", "2", "--k", "4", "--trials", "3"),
    ("bench", "--n-range", "2,3", "--k", "6", "--trials", "2", "--out", "{d}/bench.csv"),
    ("factor", "--instance", "{d}/x.json", "--construction", "t13", "--out", "{d}/no/cert.json"),
)


def _num(v) -> bytes:
    if isinstance(v, (bool, np.bool_)) or v is None:
        return repr(v).encode()
    if isinstance(v, (int, np.integer)):
        return b"i" + str(int(v)).encode()
    return struct.pack("<d", float(v))


def _report(rep) -> bytes:
    """A report's fields as bytes; a PipelineReport's target and extra included."""
    out = []
    for f in fields(rep):
        v = getattr(rep, f.name)
        if f.name == "target":
            v = v.blocks.tobytes()
        elif f.name == "extra":
            v = b"".join(k.encode() + _num(v[k]) for k in sorted(v))
        else:
            v = _num(v)
        out.append(f.name.encode() + b"=" + v)
    return b";".join(out)


def _cert(cert):
    yield "widths", repr(cert.widths).encode()
    for i, a in enumerate(cert.alphas):
        yield f"alpha{i}", repr(a.shape).encode() + a.tobytes()
    for i, D in enumerate(cert.diags):
        yield f"diag{i}", repr(D.entries.shape).encode() + D.entries.tobytes()
        yield f"diag{i}.norm", _num(D.norm())


def _instance(n, k, seed, dist, noise):
    """``random_instance``; for signed-zero, gaussian with a share of its parts set to -0.0."""
    if dist != "signed-zero":
        return random_instance(n, k, seed, dist, noise)
    parts = random_instance(n, k, seed).blocks.view(np.float64).copy()
    rng = np.random.default_rng([seed, n, k, 0])
    parts[rng.random(parts.shape) < NEG_ZERO_SHARE] = -0.0
    return BlockMatrix(parts.view(np.complex128))


def _grid():
    """The constructions' and the pipelines' items, each input's in turn."""
    for n, k in SHAPES:
        inputs = INPUTS if n * k <= BIG else INPUTS[2:3]
        for (dist, noise), seed in ((i, s) for i in inputs for s in SEEDS):
            x = _instance(n, k, seed, dist, noise)
            tag = f"{n},{k},{dist},{noise},{seed}"
            for name, spec in CONSTRUCTIONS.items():
                if (name == "sub19" and n * k > SUB19_MAX) or (n * k > BIG and name != "t13"):
                    continue
                try:
                    cert, target = spec.build(x)
                except ShapeMismatchError as exc:
                    yield "constructions", f"{tag}/{name}/refused", str(exc).encode()
                    continue
                for label, b in _cert(cert):
                    yield "constructions", f"{tag}/{name}/{label}", b
                yield "constructions", f"{tag}/{name}/target", target.blocks.tobytes()
                yield "constructions", f"{tag}/{name}/verify", _report(verify(cert, target))
            if k % n == 0 and n * k <= BIG:
                rep, cert = pinching_pipeline(x, include_total_bound=True)
                yield "pipelines", f"{tag}/pinching", _report(rep)
                for label, b in _cert(cert):
                    yield "pipelines", f"{tag}/pinching/{label}", b
                near, _ = CONSTRUCTIONS["length1" if seed == 1 else "t13"].build(x)
                z = x + 0.01 * random_instance(n, k, seed + 1)
                rep, total = assemble_from_approximant(z, near)
                yield "pipelines", f"{tag}/assembly", _report(rep)
                for label, b in _cert(total):
                    yield "pipelines", f"{tag}/assembly/{label}", b


def _uniformity():
    for name, n, k in UNIFORMITY:
        yield "uniformity", f"uniformity/{name}/{n},{k}", repr(uniformity_check(name, n, k, 3, 5)).encode()


def _cli():
    with tempfile.TemporaryDirectory() as d:
        for argv in CLI_RUNS:
            argv = [a.format(d=d) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            label = " ".join(a.replace(d, "") for a in argv)
            yield "cli", label, f"{code}\n{out.getvalue()}\n{err.getvalue()}".replace(d, "").encode()
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                yield "cli", f"file/{name}", f.read()


def items():
    """(section, label, bytes) of every output on the grid, in a fixed order."""
    for budget in (certs._EVALUATE_CHUNK_BYTES, 1):
        with mock.patch.object(certs, "_EVALUATE_CHUNK_BYTES", budget):
            for section, label, b in (*_grid(), *_uniformity(), *_cli()):
                yield section, f"{budget}/{label}", b


def main() -> int:
    total = [hashlib.sha256(), 0]
    sections = {name: [hashlib.sha256(), 0] for name in SECTIONS}
    for section, label, b in items():
        for digest in (sections[section], total):
            for part in (label.encode(), b):
                digest[0].update(len(part).to_bytes(8, "little"))
                digest[0].update(part)
            digest[1] += 1
    for name, (h, count) in sections.items():
        print(f"{name}: {h.hexdigest()} {count} items")
    print(f"{total[0].hexdigest()} {total[1]} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
