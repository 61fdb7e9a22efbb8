"""Factorization certificates x = a_0 D_1 a_1 D_2 ... D_d a_d.

A certificate is one explicit depth-d representation of a block matrix
as an alternating product of (inflated) scalar matrices and block
diagonal matrices.  Its cost, the product of the factor norms, is a
certified upper bound on the depth-d factorization norm of the value,
which in turn dominates the operator norm.  Exact computation of the
infimum over all representations is never attempted: certificates only
witness upper bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blocks import (
    BlockMatrix,
    DiagonalMatrix,
    ShapeMismatchError,
    block_diag,
    inflate,
    operator_norm,
    scalar_norm,
)

__all__ = [
    "FactorizationCertificate",
    "VerificationReport",
    "RowDecomposition",
    "evaluate",
    "cost",
    "verify",
    "pad",
    "add",
    "direct_sum",
    "conjugate",
    "rebalance",
    "rebalance_diags",
]


@dataclass(frozen=True)
class FactorizationCertificate:
    """Depth-d factorization data over the base algebra M_k.

    ``alphas`` holds d+1 scalar matrices with shapes chaining as
    n x N_1, N_1 x N_2, ..., N_d x n; ``diags`` holds d block-diagonal
    factors, the i-th of size N_i.  Widths are stored explicitly so
    uniformity checks can compare them as data.
    """

    alphas: tuple  # d+1 scalar ndarrays
    diags: tuple   # d DiagonalMatrix

    def __post_init__(self):
        alphas = tuple(np.asarray(a, dtype=np.complex128) for a in self.alphas)
        diags = tuple(self.diags)
        if len(alphas) != len(diags) + 1 or not diags:
            raise ShapeMismatchError("need d diagonals and d+1 scalar factors, d >= 1")
        for i, D in enumerate(diags):
            if alphas[i].shape[1] != D.size or alphas[i + 1].shape[0] != D.size:
                raise ShapeMismatchError(
                    f"width mismatch at junction {i}: "
                    f"{alphas[i].shape} | {D.size} | {alphas[i + 1].shape}"
                )
            if D.k != diags[0].k:
                raise ShapeMismatchError("diagonal entries have mixed block orders")
        if alphas[0].shape[0] != alphas[-1].shape[1]:
            raise ShapeMismatchError("outer shape is not square")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "diags", diags)

    @property
    def d(self) -> int:
        return len(self.diags)

    @property
    def n(self) -> int:
        return self.alphas[0].shape[0]

    @property
    def k(self) -> int:
        return self.diags[0].k

    @property
    def widths(self) -> tuple:
        return (self.n,) + tuple(D.size for D in self.diags) + (self.n,)

    def scaled(self, c: complex) -> "FactorizationCertificate":
        """Multiply the value by c (folded into the first diagonal)."""
        diags = (self.diags[0].scaled(c),) + self.diags[1:]
        return FactorizationCertificate(self.alphas, diags)


@dataclass(frozen=True)
class VerificationReport:
    recon_error: float
    cost: float
    lower: float
    ratio: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(cert: FactorizationCertificate) -> BlockMatrix:
    """The alternating product a_0 D_1 a_1 ... D_d a_d as a BlockMatrix.

    Scalar factors are applied through the block structure rather than
    by materializing their inflations.
    """
    k = cert.k
    M = inflate(cert.alphas[-1], k)
    for i in range(cert.d, 0, -1):
        D = cert.diags[i - 1].entries
        N = D.shape[0]
        M = (D @ M.reshape(N, k, -1)).reshape(N * k, -1)
        a = cert.alphas[i - 1]
        M = np.tensordot(a, M.reshape(N, k, -1), axes=(1, 0)).reshape(a.shape[0] * k, -1)
    return BlockMatrix.from_dense(M, k)


def cost(cert: FactorizationCertificate) -> float:
    """Product of factor norms, always recomputed from the factors."""
    c = 1.0
    for a in cert.alphas:
        c *= scalar_norm(a)
    for D in cert.diags:
        c *= D.norm()
    return c


def verify(cert: FactorizationCertificate, x: BlockMatrix, tol: float = 1e-9) -> VerificationReport:
    """Check that the certificate reproduces x within tol (relative to max(1, ||x||)).

    A certificate whose cost is not finite certifies no bound and fails.
    """
    if x.m != x.n or cert.n != x.n or cert.k != x.k:
        raise ShapeMismatchError(
            f"certificate shape ({cert.n}, k={cert.k}) does not match "
            f"target ({x.m}x{x.n}, k={x.k})"
        )
    val = evaluate(cert)
    recon = operator_norm(val - x)
    c = cost(cert)
    lower = operator_norm(x)
    ratio = 0.0 if c == 0.0 else c / max(lower, np.finfo(float).tiny)
    return VerificationReport(
        recon_error=recon,
        cost=c,
        lower=lower,
        ratio=ratio,
        tol=tol,
        passed=bool(recon <= tol * max(1.0, lower) and np.isfinite(c)),
    )


def pad(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Depth d+1 certificate with the same value and cost (unit trailing factors)."""
    n, k = cert.n, cert.k
    alphas = cert.alphas + (np.eye(n, dtype=np.complex128),)
    diags = cert.diags + (DiagonalMatrix.unit(n, k),)
    return FactorizationCertificate(alphas, diags)


def pad_to(cert: FactorizationCertificate, depth: int) -> FactorizationCertificate:
    while cert.d < depth:
        cert = pad(cert)
    return cert


def _unit_diags(diags):
    """Each nonzero diagonal divided by its norm, and the product of those norms."""
    scale = 1.0
    out = []
    for D in diags:
        nD = D.norm()
        if nD > 0:
            scale *= nD
            D = D.scaled(1.0 / nD)
        out.append(D)
    return out, scale


def rebalance(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Same value, with every factor after a_0 normalized and a_0 carrying the cost.

    Zero factors are left in place (the value is then zero regardless).
    """
    diags, scale = _unit_diags(cert.diags)
    alphas = [cert.alphas[0]]
    for a in cert.alphas[1:]:
        na = scalar_norm(a)
        if na > 0:
            scale *= na
            a = a / na
        alphas.append(a)
    alphas[0] = alphas[0] * scale
    return FactorizationCertificate(tuple(alphas), tuple(diags))


def rebalance_diags(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Same value and scalar factors; diagonal norms pushed into the first diagonal.

    Used before direct-summing certificates so the summed diagonal norms
    do not multiply up across positions, while the scalar data stays
    untouched (it must remain independent of the input values).
    """
    diags, scale = _unit_diags(cert.diags[1:])
    return FactorizationCertificate(cert.alphas, (cert.diags[0].scaled(scale), *diags))


def _split_outer(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Move half of a rebalanced certificate's cost onto the trailing scalar."""
    c = scalar_norm(cert.alphas[0])
    if c == 0:
        return cert
    alphas = (cert.alphas[0] / np.sqrt(c),) + cert.alphas[1:-1] + (cert.alphas[-1] * np.sqrt(c),)
    return FactorizationCertificate(alphas, cert.diags)


def direct_sum(certs) -> FactorizationCertificate:
    """Certificate for the block-diagonal sum of the values of ``certs``.

    Scalar factors are placed block-diagonally and diagonal factors
    concatenated, so each factor norm is the largest among the summands.
    """
    certs = list(certs)
    d, k = certs[0].d, certs[0].k
    if any(c.d != d or c.k != k for c in certs):
        raise ShapeMismatchError("direct summands must share depth and block order")
    alphas = tuple(block_diag([c.alphas[i] for c in certs]) for i in range(d + 1))
    diags = tuple(
        DiagonalMatrix(np.concatenate([c.diags[i].entries for c in certs])) for i in range(d)
    )
    return FactorizationCertificate(alphas, diags)


def add(cu: FactorizationCertificate, cv: FactorizationCertificate) -> FactorizationCertificate:
    """Certificate for evaluate(cu) + evaluate(cv) at the same depth.

    Both inputs are rebalanced so the interior factors are contractions
    and the cost is split evenly between the two outer scalars; the
    leading scalars are then row-concatenated, the trailing ones
    column-concatenated, and everything in between is direct-summed,
    giving cost <= cost_u + cost_v (optimal for concatenation-based
    sums: the product of the two concatenation bounds is at least the
    plain sum by Cauchy-Schwarz).
    """
    if cu.d != cv.d or cu.n != cv.n or cu.k != cv.k:
        raise ShapeMismatchError("certificates must share depth, outer shape and block order")
    cu, cv = _split_outer(rebalance(cu)), _split_outer(rebalance(cv))
    s = direct_sum([cu, cv])
    alphas = (
        (np.hstack([cu.alphas[0], cv.alphas[0]]),)
        + s.alphas[1:-1]
        + (np.vstack([cu.alphas[-1], cv.alphas[-1]]),)
    )
    return FactorizationCertificate(alphas, s.diags)


@dataclass(frozen=True)
class RowDecomposition:
    """A block row written as scalar * diagonal * scalar.

    ``alpha0 @ blockdiag(diag) @ w`` (with the scalars inflated) is a
    block row with entries in the base algebra; its cost is bounded by
    the product of the three factor norms.
    """

    alpha0: np.ndarray
    diag: DiagonalMatrix
    w: np.ndarray

    def __post_init__(self):
        a0 = np.asarray(self.alpha0, dtype=np.complex128)
        w = np.asarray(self.w, dtype=np.complex128)
        if a0.shape[1] != self.diag.size or w.shape[0] != self.diag.size:
            raise ShapeMismatchError("row decomposition widths do not chain")
        object.__setattr__(self, "alpha0", a0)
        object.__setattr__(self, "w", w)

    @classmethod
    def identity(cls, n: int, k: int) -> "RowDecomposition":
        eye = np.eye(n, dtype=np.complex128)
        return cls(eye, DiagonalMatrix.unit(n, k), eye)

    def as_block_matrix(self) -> BlockMatrix:
        k = self.diag.k
        M = inflate(self.alpha0, k) @ self.diag.dense() @ inflate(self.w, k)
        return BlockMatrix.from_dense(M, k)


def conjugate(
    left: RowDecomposition,
    inner: FactorizationCertificate,
    right: RowDecomposition,
) -> FactorizationCertificate:
    """Certificate of depth d+2 for L * evaluate(inner) * R^* .

    L and R are the block rows of the two decompositions.  The trailing
    scalar of each decomposition is merged into the adjacent scalar of
    the inner certificate, so only two new diagonal factors appear.
    """
    if left.w.shape[1] != inner.n or right.w.shape[1] != inner.n:
        raise ShapeMismatchError("decompositions do not chain with inner certificate")
    if left.diag.k != inner.k or right.diag.k != inner.k:
        raise ShapeMismatchError("block order mismatch")
    alphas = (
        (left.alpha0, left.w @ inner.alphas[0])
        + inner.alphas[1:-1]
        + (inner.alphas[-1] @ right.w.conj().T, right.alpha0.conj().T)
    )
    diags = (left.diag,) + inner.diags + (right.diag.adjoint(),)
    return FactorizationCertificate(alphas, diags)
