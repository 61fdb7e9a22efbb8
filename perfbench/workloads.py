"""The benchmark's workloads: seeded inputs and the op list of one pass.

Each workload's ``setup(seed, workdir)`` makes every input from the
seed (instances, approximants, temporary files) and returns the ops of
one pass.  An op's ``run`` is the only timed part; its ``check`` turns
the raw output into an :class:`Outcome` for the correctness checks.
The program is called through its module attributes at call time, so
a traced run sees every call.

Instance seeds are ``seed * 1000 + j`` for the j-th instance of an op
group, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

DIGEST_CHARS = 16

# Nominal seconds of one pass on a 2-core x86_64 VM at the commit that
# added the benchmark.  A run makes round(--seconds / PASS_SECONDS)
# passes (at least one), so its op count, and with it the percentile
# that certify_tail_s reports, depends on --seconds only, never on how
# fast the program is.
PASS_SECONDS = {"pinch": 20, "embed": 22, "assemble": 22, "cli": 23}


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_SECONDS[workload]))


# (shape, instances) per op group; one pass runs every instance once.
# Sized so that, over two passes, the median op lies inside the (4,16)
# pipeline group and p75 inside the (6,24) pipeline group, not between
# groups, where an order statistic would follow the noise of one op.
PINCH_MIX = (((4, 16), 13), ((6, 24), 5), ((8, 32), 1))
PINCH_NOISE = 0.05
EMBED_MIX = (
    ("sub19", (4, 8), 18),
    ("sub18", (6, 12), 12),
    ("sub19", (6, 12), 14),
    ("sub18", (8, 16), 1),
    ("sub19", (8, 16), 1),
)
ASSEMBLE_MIX = (
    ((4, 16), "length1", 16), ((4, 16), "t13", 16),
    ((6, 24), "length1", 16), ((6, 24), "t13", 24),
    ((8, 32), "length1", 16), ((8, 32), "t13", 16),
)
ASSEMBLE_DEFECTS = (0.01, 0.05)   # L2 mass of z - base, alternating
CLI_ROUNDS = 4


@dataclass(frozen=True)
class Outcome:
    """What one op produced, as the checks need it."""

    passed: bool                     # the program's own verdict (report, exit code)
    cost: float | None = None
    target_norm: float | None = None
    bound_use: float | None = None   # cost over the bound the construction promises
    digest: str | None = None
    detail: str = ""


@dataclass(frozen=True)
class Op:
    op_id: str                       # unique within a pass
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    returns_cert: bool = True


def _norm(blocks: np.ndarray) -> float:
    n, m, k, _ = blocks.shape
    return float(np.linalg.norm(blocks.transpose(0, 2, 1, 3).reshape(n * k, m * k), 2))


def _max_entry_norm(blocks: np.ndarray) -> float:
    return float(max(np.linalg.norm(b, 2) for row in blocks for b in row))


def _diag_mask(n: int, k: int) -> np.ndarray:
    """0/1 mask of the diagonal-partition pinch of M_k (n | k)."""
    r = k // n
    return np.kron(np.eye(n), np.ones((r, r)))


def _gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _digest(cert) -> str:
    from oplength import pipeline

    return pipeline.scalar_digest(cert)[:DIGEST_CHARS]


def _tag(n: int, k: int) -> str:
    return f"{n}x{k}"


def _interleave(groups) -> list:
    """Ops of all groups in one pass, each group spread evenly over it.

    The machine's speed drifts over seconds, so a group run back to back
    would see one stretch of it; spread out, every group sees the pass.
    """
    keyed = [((j + 0.5) / len(g), gi, op)
             for gi, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# -- pinch -------------------------------------------------------------------

def _blockdiag(rng, n: int, k: int, noise: float) -> np.ndarray:
    """A pinch-invariant Gaussian base plus noise times a Gaussian bump.

    The distribution of ``random_instance(n, k, s, "blockdiag", noise)``,
    built with a mask instead of the program's pinch, which keeps set-up
    (three fresh interpreters per run) short.
    """
    base = _gaussian(rng, (n, n, k, k)) * _diag_mask(n, k)
    return base + noise * _gaussian(rng, (n, n, k, k))


def setup_pinch(seed: int, workdir: str) -> list:
    """t13 build + verify on Gaussian instances; pinching pipelines on blockdiag."""
    from oplength import blocks, certs, instances, pipeline

    groups = []
    for (n, k), count in PINCH_MIX:
        t13_ops, pp_ops = [], []
        groups += [t13_ops, pp_ops]
        for j in range(count):
            s = seed * 1000 + j
            x = instances.random_instance(n, k, s)
            xb = blocks.BlockMatrix(
                _blockdiag(np.random.default_rng([seed, n, k, j]), n, k, PINCH_NOISE))
            x_norm = _norm(x.blocks)
            pinched_norm = _norm(xb.blocks * _diag_mask(n, k))

            def run_t13(x=x):
                cert, target = pipeline.CONSTRUCTIONS["t13"].build(x)
                return cert, certs.verify(cert, target)

            def check_t13(out, x_norm=x_norm):
                cert, rep = out
                return Outcome(rep.passed, rep.cost, rep.lower, rep.cost / x_norm,
                               _digest(cert))

            def run_pp(xb=xb):
                return pipeline.pinching_pipeline(xb, include_total_bound=True)

            def check_pp(out, pinched_norm=pinched_norm):
                rep, cert = out
                passed = rep.passed and rep.extra.get("total_passed", False)
                use = max(rep.cost / rep.bound,
                          rep.extra["total_cost"] / rep.extra["total_bound"])
                return Outcome(passed, rep.cost, pinched_norm, use, _digest(cert))

            t13_ops.append(Op(f"t13/{_tag(n, k)}/{j}", run_t13, check_t13))
            pp_ops.append(Op(f"pinching/{_tag(n, k)}/{j}", run_pp, check_pp))
    return _interleave(groups)


# -- embed -------------------------------------------------------------------

def setup_embed(seed: int, workdir: str) -> list:
    """sub19 / sub18 build + verify on Gaussian instances."""
    from oplength import certs, instances, pipeline

    groups = []
    for name, (n, k), count in EMBED_MIX:
        groups.append([])
        for j in range(count):
            x = instances.random_instance(n, k, seed * 1000 + j)
            x_norm = _norm(x.blocks)

            def run(x=x, name=name):
                cert, target = pipeline.CONSTRUCTIONS[name].build(x)
                return cert, certs.verify(cert, target)

            def check(out, x_norm=x_norm):
                cert, rep = out
                return Outcome(rep.passed, rep.cost, rep.lower, rep.cost / x_norm,
                               _digest(cert))

            groups[-1].append(Op(f"{name}/{_tag(n, k)}/{j}", run, check))
    return _interleave(groups)


# -- assemble ----------------------------------------------------------------

def setup_assemble(seed: int, workdir: str) -> list:
    """assemble_from_approximant(z, near) with near built here, in set-up.

    The base is a normalised pinch-invariant matrix (Gaussian blocks
    masked to the diagonal partition); ``near`` is its t13 certificate
    (depth 5, from the pinching pipeline) or its universal depth-1
    certificate padded to depth 3.  Each op's z is the base plus its own
    Gaussian defect of L2 mass 0.01 or 0.05.
    """
    from oplength import blocks, certs, constructions, pipeline

    nears = {}
    for (n, k) in dict.fromkeys(shape for shape, _, _ in ASSEMBLE_MIX):
        rng = np.random.default_rng([seed, n, k, 0])
        base = _gaussian(rng, (n, n, k, k)) * _diag_mask(n, k)
        base = blocks.BlockMatrix(base / _norm(base))
        _, t13 = pipeline.pinching_pipeline(base)
        nears[(n, k)] = {
            "base": base,
            "t13": t13,
            "length1": certs.pad_to(constructions.universal_depth1(base), 3),
        }
    groups = []
    for (n, k), near_name, count in ASSEMBLE_MIX:
        groups.append([])
        base, near = nears[(n, k)]["base"], nears[(n, k)][near_name]
        rng = np.random.default_rng([seed, n, k, 1 if near_name == "t13" else 2])
        for j in range(count):
            defect = _gaussian(rng, (n, n, k, k))
            defect *= ASSEMBLE_DEFECTS[j % 2] * np.sqrt(k) / np.linalg.norm(defect)
            z = blocks.BlockMatrix(base.blocks + defect)
            z_norm = _norm(z.blocks)

            def run(z=z, near=near):
                return pipeline.assemble_from_approximant(z, near)

            def check(out, z_norm=z_norm):
                rep, cert = out
                return Outcome(rep.passed, rep.cost, z_norm, rep.cost / rep.bound,
                               _digest(cert))

            groups[-1].append(Op(f"{near_name}/{_tag(n, k)}/{j}", run, check))
    return _interleave(groups)


# -- cli ---------------------------------------------------------------------

def _read_instance(path: str) -> dict:
    """Digest and norms of an instance file, read with json and numpy only."""
    with open(path, "rb") as f:
        raw = f.read()
    data = np.asarray(json.loads(raw)["blocks"], dtype=float)
    blk = data[..., 0] + 1j * data[..., 1]
    return {
        "digest": hashlib.sha256(raw).hexdigest()[:DIGEST_CHARS],
        "norm": _norm(blk),
        "length1": blk.shape[0] * _max_entry_norm(blk),
    }


def _top_level_value(text: str, key: str):
    """Decode one top-level member of a JSON object without the others."""
    i = text.index(f'"{key}":') + len(key) + 3
    while text[i].isspace():
        i += 1
    return json.JSONDecoder().raw_decode(text, i)[0]


def _file_digest(path: str) -> str:
    """Digest of a certificate file's widths and scalar factors, as stored.

    Only those two members are decoded: decoding the diagonal factors too
    would set the workload's peak memory instead of the program.
    """
    with open(path) as f:
        text = f.read()
    h = hashlib.sha256(json.dumps(_top_level_value(text, "widths")).encode())
    h.update(json.dumps(_top_level_value(text, "alphas")).encode())
    return h.hexdigest()[:DIGEST_CHARS]


def _call_cli(argv):
    from oplength import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _report(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


CLI_INSTANCES = {
    "a": ["--n", "6", "--k", "12"],
    "b": ["--n", "8", "--k", "32"],
    "c": ["--n", "6", "--k", "24", "--distribution", "blockdiag", "--noise", "0"],
}
# (instance, construction, write the certificate file, promised bound)
CLI_FACTOR = (("a", "sub19", True, "norm"), ("a", "sub18", False, "norm"),
              ("b", "length1", True, "length1"), ("c", "t13", True, "norm"),
              ("c", "lemma5", False, "norm"))
CLI_VERIFY = (("c", "norm"), ("b", "length1"))
# (--xi-spec, --level).  The second check makes 13 ops a round, which puts
# the median op inside the verify/b group instead of between two groups.
CLI_CB = (("10,1,1", "3"), ("4,2,1", "2"))


def _cli_op(op_id: str, argv: list, check, returns_cert: bool) -> Op:
    def checked(out):
        code, stdout, err = out
        if code != 0:
            return Outcome(False, detail=f"exit {code}: {err.strip()}")
        return check(stdout)

    return Op(op_id, lambda: _call_cli(argv), checked, returns_cert)


def _cli_round(r: int, s: int, workdir: str) -> list:
    files = {}   # instance name -> facts read back by the gen check
    path = {name: os.path.join(workdir, f"{name}{r}.json") for name in CLI_INSTANCES}
    cert_path = {name: os.path.join(workdir, f"{name}{r}.cert.json") for name in CLI_INSTANCES}
    ops = []
    for name, spec in CLI_INSTANCES.items():
        def check_gen(stdout, name=name):
            files[name] = _read_instance(path[name])
            return Outcome(True, digest=files[name]["digest"])

        argv = ["gen", *spec, "--seed", str(s), "--out", path[name]]
        ops.append(_cli_op(f"gen/{name}/{r}", argv, check_gen, False))

    for name, construction, keep, promise in CLI_FACTOR:
        def check_factor(stdout, name=name, keep=keep, promise=promise):
            rep = _report(stdout)
            digest = _file_digest(cert_path[name]) if keep else None
            return Outcome(rep["passed"], rep["cost"], rep["lower"],
                           rep["cost"] / files[name][promise], digest)

        argv = ["factor", "--instance", path[name], "--construction", construction]
        if keep:
            argv += ["--out", cert_path[name]]
        ops.append(_cli_op(f"factor/{construction}/{r}", argv, check_factor, True))

    for name, promise in CLI_VERIFY:
        def check_verify(stdout, name=name, promise=promise):
            rep = _report(stdout)
            return Outcome(rep["passed"], rep["cost"], rep["lower"],
                           rep["cost"] / files[name][promise])

        argv = ["verify", "--instance", path[name], "--certificate", cert_path[name]]
        ops.append(_cli_op(f"verify/{name}/{r}", argv, check_verify, False))

    def check_uniformity(stdout):
        rep = _report(stdout)
        return Outcome(rep["stable"], digest=rep["digest"][:DIGEST_CHARS])

    argv = ["uniformity", "--construction", "sub19", "--n", "4", "--k", "8", "--seed", str(s)]
    ops.append(_cli_op(f"uniformity/{r}", argv, check_uniformity, False))

    def check_cb(stdout):
        rep = _report(stdout)
        # the cb lower bound sits in the cost slot for the reference check
        return Outcome(rep["consistent"] and rep["tight"], cost=rep["lower"])

    for xi_spec, level in CLI_CB:
        argv = ["cb", "--xi-spec", xi_spec, "--level", level, "--seed", str(s)]
        ops.append(_cli_op(f"cb/{xi_spec}/{level}/{r}", argv, check_cb, False))
    return ops


def setup_cli(seed: int, workdir: str) -> list:
    """In-process ``oplength.cli.main`` calls on files in workdir.

    One round: gen three instances, factor them (sub19, length1, t13
    with --out; sub18, lemma5 without), verify the t13 and length1 files,
    uniformity and two cb checks.  A pass runs CLI_ROUNDS rounds with their own
    seeds.
    """
    ops = []
    for r in range(CLI_ROUNDS):
        ops += _cli_round(r, seed * 1000 + r, workdir)
    return ops


WORKLOADS = {
    "pinch": setup_pinch,
    "embed": setup_embed,
    "assemble": setup_assemble,
    "cli": setup_cli,
}
