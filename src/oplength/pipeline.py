"""Assembled demonstrations: certify a matrix from a nearby certified
approximant, the depth-5 pinching pipeline, scalar-factor uniformity
checks, and certificates over finite direct sums.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockMatrix, DiagonalMatrix, ShapeMismatchError, block_diag, block_l2
from .certs import (
    FactorizationCertificate,
    UniformityError,
    _TOL,
    _check_same_scalars,
    add,
    cost,
    evaluate,
    pad_to,
    rebalance_diags,
    verify,
)
from .constructions import (
    _diagonal_family,
    _unit,
    corner_embedding_certificate,
    diagonal_embedding_certificate,
    diagonal_partition,
    factor_through_family,
    family_from_projections,
    lift,
    pinch,
    pinch_assembly,
    universal_depth1,
)
from .instances import random_instance
from .splitting import split_small_l2

__all__ = [
    "PipelineReport",
    "UniformityError",
    "CONSTRUCTIONS",
    "assemble_from_approximant",
    "pinching_pipeline",
    "uniformity_check",
    "direct_sum_certificate",
    "restrict_direct_sum",
    "scalar_digest",
]


@dataclass(frozen=True)
class PipelineReport:
    target: BlockMatrix = field(repr=False, compare=False)  # the matrix verified
    epsilon: float
    depth: int
    cost: float
    bound: float
    recon_error: float
    passed: bool
    extra: dict = field(default_factory=dict)


def _report(cert, target: BlockMatrix, epsilon: float, bound: float, slack: float, extra: dict):
    """The report of cert against target: verify's verdict and cost <= bound + slack."""
    v = verify(cert, target)
    return PipelineReport(
        target=target,
        epsilon=epsilon,
        depth=cert.d,
        cost=v.cost,
        bound=bound,
        recon_error=v.recon_error,
        passed=bool(v.passed and v.cost <= bound + slack),
        extra=extra,
    )


def assemble_from_approximant(z: BlockMatrix, near_cert: FactorizationCertificate):
    """Certify z given a certificate for a nearby z' with small L2 defect.

    The difference x = z - z' is split through small-trace spectral
    projections; the compressed part is certified at depth 3 through
    orthogonal copies of the projections (cost <= ||x||), the remainder
    through the universal depth-1 construction, and the three pieces are
    added at a common depth >= 3.  The total cost is certified against
    K + 2 + 3 * eps * n**2.5 with K the approximant's cost and eps
    1.01 times the L2 mass of x, just above the least the split accepts.

    Returns ``(report, certificate)``.
    """
    K = cost(near_cert)
    x = z - evaluate(near_cert)
    n, k = z.n, z.k
    depth = max(near_cert.d, 3)
    mass = block_l2(x)
    # mass * sqrt(k) is ||x||_F >= ||x||: at or below verify's tolerance near_cert reproduces z
    if mass * np.sqrt(k) <= _TOL:
        eps_used = 0.0
        total = pad_to(near_cert, depth)
    else:
        eps_used = 1.01 * mass
        split = split_small_l2(x, eps_used)
        fam = family_from_projections(split.p, split.q, n)
        comp_cert = pad_to(factor_through_family(x, fam), depth)
        rem_cert = pad_to(universal_depth1(split.remainder), depth)
        del x, split, fam  # not held through the sums, nor the pieces through the final verify
        total = add(pad_to(near_cert, depth), comp_cert)
        del comp_cert
        total = add(total, rem_cert)
        del rem_cert
    bound = K + 2 + 3 * eps_used * n ** 2.5
    return _report(total, z, eps_used, bound, 1e-6, {"K": K, "defect_l2": mass}), total


def pinching_pipeline(x: BlockMatrix, include_total_bound: bool = False):
    """Depth-5 certificate for the pinched matrix [sum_m p_m x_ij p_m].

    The partition is the diagonal-block decomposition of M_k into n
    projections of trace 1/n (requires n | k).  Each compressed piece
    [p_m x_ij p_m] is certified at depth 3 through orthogonal copies of
    p_m, and the pieces are pinched together at depth 5 with total cost
    at most ||x||.  For pinch-invariant inputs the certificate covers x
    itself.  With ``include_total_bound`` the report also carries the
    assembled bound for x (normalized to the unit ball) using the
    pinched certificate as approximant.

    Returns ``(report, certificate)``; ``report.target`` is the pinched matrix.
    """
    n, k = x.n, x.k
    part = diagonal_partition(n, k)
    px = pinch(x, part)
    cert, nrm = pinch_assembly(
        x, part, lambda xs, m: factor_through_family(xs, _diagonal_family(n, k, m))
    )
    eps = block_l2(x - px)
    report = _report(cert, px, eps, nrm * (1 + 1e-9), 1e-12,
                     {"pinch_invariant": eps == 0.0, "norm": nrm})
    if include_total_bound:
        s = 1.0 / nrm if nrm > 0 else 1.0
        total_report, _ = assemble_from_approximant(x * s, cert.scaled(s))
        report.extra.update(total_cost=total_report.cost, total_bound=total_report.bound,
                            total_passed=total_report.passed)
    return report, cert


# ---------------------------------------------------------------------------
# Named constructions (shared by the uniformity / direct-sum / CLI drivers).
# Each entry maps an instance to (certificate, certified target).

def _build_length1(x: BlockMatrix):
    return universal_depth1(x), x


def _build_compression(x: BlockMatrix):
    # compress through the leading diagonal-block projection (needs n | k)
    s = diagonal_partition(x.n, x.k)._block(0)
    target = np.zeros_like(x.blocks)
    target[..., s, s] += x.blocks[..., s, s]  # p_0 x_ij p_0, with pinch's +0 start
    return factor_through_family(x, _diagonal_family(x.n, x.k, 0)), BlockMatrix(target)


def _build_corner(x: BlockMatrix):
    return corner_embedding_certificate(x, 1, 1), lift(x, _unit(x.n, 0, 0))


def _build_diag_embed(x: BlockMatrix):
    return diagonal_embedding_certificate(x), lift(x, np.eye(x.n, dtype=np.complex128))


def _build_pinched(x: BlockMatrix):
    report, cert = pinching_pipeline(x)
    return cert, report.target


@dataclass(frozen=True)
class _Construction:
    build: callable  # an attribute, not a dict value: perfbench's tracer wraps each spec's .build


CONSTRUCTIONS = {
    "length1": _Construction(_build_length1),
    "lemma5": _Construction(_build_compression),
    "sub18": _Construction(_build_corner),
    "sub19": _Construction(_build_diag_embed),
    "t13": _Construction(_build_pinched),
}


def _construction(name: str, argument: str = "construction") -> _Construction:
    """The named construction; a ValueError naming ``argument`` and the known ones otherwise."""
    if name not in CONSTRUCTIONS:
        known = ", ".join(sorted(CONSTRUCTIONS))
        raise ValueError(f"{argument}: unknown {name!r}; known: {known}")
    return CONSTRUCTIONS[name]


def scalar_digest(cert: FactorizationCertificate) -> str:
    """Content digest of the scalar data (widths and alpha factors)."""
    h = hashlib.sha256()
    h.update(repr(cert.widths).encode())
    for a in cert.alphas:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def uniformity_check(construction: str, n: int, k: int, trials: int, seed: int) -> dict:
    """Assert the construction's scalar data is bitwise identical across inputs.

    Runs the named construction on ``trials`` independent Gaussian
    instances and compares widths and every scalar factor bitwise.
    Returns a digest report; raises :class:`UniformityError` naming the
    first differing factor otherwise.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    spec = _construction(construction)
    ref, _ = spec.build(random_instance(n, k, seed=seed * 100003))
    for t in range(1, trials):
        cert, _ = spec.build(random_instance(n, k, seed=seed * 100003 + t))
        _check_same_scalars(cert, ref, f"at trial {t}")
    return {
        "construction": construction,
        "n": n,
        "k": k,
        "trials": trials,
        "widths": list(ref.widths),
        "digest": scalar_digest(ref),
    }


def direct_sum_certificate(xs, construction: str):
    """One certificate over the direct-sum algebra for a finite family.

    All coordinates share the construction's scalar factors; the
    diagonal entries are direct sums of the per-coordinate diagonals.
    Each coordinate is first put through :func:`rebalance_diags`, which
    moves all its diagonal norms onto its first diagonal, so the sum costs
    the largest coordinate cost.  Returns ``(certificate, targets)`` where
    ``targets[i]`` is the matrix certified at coordinate i.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("empty family")
    n, k = xs[0].n, xs[0].k
    for x in xs:
        if x.n != n or x.k != k:
            raise ShapeMismatchError("coordinates must share a common shape")
    spec = _construction(construction)
    certs, targets = zip(*(spec.build(x) for x in xs))
    ref = certs[0]
    for c in certs[1:]:
        _check_same_scalars(c, ref, "across coordinates")
    certs = [rebalance_diags(c) for c in certs]
    diags = (DiagonalMatrix(block_diag([c.diags[i].entries for c in certs])) for i in range(ref.d))
    return FactorizationCertificate(ref.alphas, tuple(diags)), list(targets)


def restrict_direct_sum(cert: FactorizationCertificate, index: int, count: int):
    """The coordinate certificate of a direct-sum certificate of ``count`` coordinates.

    Of a :func:`direct_sum_certificate`, it is the coordinate's certificate
    after :func:`rebalance_diags`, so it costs that coordinate's cost.

    Raises :class:`ShapeMismatchError` unless ``0 <= index < count``,
    ``count`` divides the block order and every diagonal entry vanishes
    outside the ``count`` coordinate blocks.
    """
    if not 0 <= index < count or cert.k % count:
        raise ShapeMismatchError(f"no coordinate {index} of {count} in block order {cert.k}")
    kc = cert.k // count
    outside = block_diag([np.ones((kc, kc))] * count) == 0
    for i, D in enumerate(cert.diags):
        if np.any(D.entries[:, outside]):
            raise ShapeMismatchError(f"diags[{i}] is nonzero outside the {count} coordinate blocks")
    sl = slice(index * kc, (index + 1) * kc)
    diags = tuple(DiagonalMatrix(D.entries[:, sl, sl]) for D in cert.diags)
    return FactorizationCertificate(cert.alphas, diags)
