"""Explicit bounded-depth factorizations.

All constructions here share one discipline: the scalar factors they
emit are a deterministic function of the shape parameters alone (matrix
size, block order, corner indices, partition sizes), never of the input
values.  Only the diagonal factors carry the data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    BlockMatrix,
    DiagonalMatrix,
    ShapeMismatchError,
    _phase_normalize,
    block_diag,
    fourier_unitary,
    normalized_trace,
    operator_norm,
)
from .certs import (
    FactorizationCertificate,
    RowDecomposition,
    _check_same_scalars,
    _diag_parts,
    conjugate,
)

__all__ = [
    "IsometryFamily",
    "ProjectionPartition",
    "universal_depth1",
    "factor_through_family",
    "matrix_unit_family",
    "projection_isometries",
    "family_from_projections",
    "lift",
    "corner_embedding_certificate",
    "partition_row_decomposition",
    "pinch_certificate",
    "pinch_assembly",
    "diagonal_embedding_certificate",
    "pinch",
    "diagonal_partition",
]


# Absolute tolerance on the algebraic relations of families, partitions and projections.
_RELATION_TOL = 1e-10


def _product_excess(left: np.ndarray, right: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The (n, n) maxima of |l_i r_j - delta_ij diag_i| over (n, k, k) stacks l, r.

    One GEMM [l_0; ...; l_{n-1}] @ [r_0 ... r_{n-1}]; ``diag`` is (k, k) or (n, k, k).
    """
    n, k = left.shape[0], left.shape[1]
    prod = left.reshape(n * k, k) @ right.transpose(1, 0, 2).reshape(k, n * k)
    prod.reshape(n, k, n, k)[np.arange(n), :, np.arange(n), :] -= diag
    return np.abs(prod.reshape(n, k, n, k)).max(axis=(1, 3))


@dataclass(frozen=True)
class IsometryFamily:
    """Data (p, q, a_i, b_i, c_i, d_i) with a_i b_j = delta_ij p, c_i d_j = delta_ij q.

    The rows b and columns c are jointly contractive:
    ||sum b_i b_i*|| <= 1 and ||sum c_j* c_j|| <= 1.
    """

    p: np.ndarray
    q: np.ndarray
    a: np.ndarray  # (n, k, k)
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def k(self) -> int:
        return self.a.shape[1]

    def validate(self) -> None:
        """Check the four relations, each by one stacked GEMM (see :func:`_product_excess`)."""
        n, k = self.n, self.k
        if _product_excess(self.a, self.b, self.p).max() > _RELATION_TOL:
            raise ValueError("a_i b_j != delta_ij p")
        if _product_excess(self.c, self.d, self.q).max() > _RELATION_TOL:
            raise ValueError("c_i d_j != delta_ij q")
        b = self.b.transpose(1, 0, 2).reshape(k, n * k)
        if operator_norm(b @ b.conj().T) > 1 + _RELATION_TOL:
            raise ValueError("row sum b b* exceeds the unit ball")
        c = self.c.reshape(n * k, k)
        if operator_norm(c.conj().T @ c) > 1 + _RELATION_TOL:
            raise ValueError("column sum c* c exceeds the unit ball")


@dataclass(frozen=True)
class ProjectionPartition:
    """n pairwise-orthogonal projections of normalized trace exactly 1/n."""

    projections: np.ndarray  # (n, k, k)

    def __post_init__(self):
        P = np.asarray(self.projections, dtype=np.complex128)
        object.__setattr__(self, "projections", P)

    @property
    def n(self) -> int:
        return self.projections.shape[0]

    @property
    def k(self) -> int:
        return self.projections.shape[1]

    def validate(self) -> None:
        """Check p_m* = p_m, p_m p_j = delta_mj p_m (one stacked GEMM) and the traces."""
        P, n = self.projections, self.n
        excess = _product_excess(P, P, P)
        for m, pm in enumerate(P):
            if np.abs(pm - pm.conj().T).max() > _RELATION_TOL or excess[m, m] > _RELATION_TOL:
                raise ValueError(f"partition element {m} is not a projection")
            if abs(normalized_trace(pm) - 1.0 / n) > 1e-12:
                raise ValueError(f"partition element {m} has trace != 1/n")
        pairs = np.argwhere(np.triu(excess, 1) > _RELATION_TOL)
        if pairs.size:
            m, mp = pairs[0]
            raise ValueError(f"elements {m}, {mp} are not orthogonal")
        if operator_norm(P.sum(axis=0)) > 1 + _RELATION_TOL:
            raise ValueError("partition sum exceeds the identity")


def diagonal_partition(n: int, k: int) -> ProjectionPartition:
    """The n diagonal-block projections of M_k (n >= 1 dividing k); 0/1 data, exact relations."""
    if n < 1 or k % n:
        raise ShapeMismatchError(f"the diagonal partition needs n | k, got n={n}, k={k}")
    eye = np.eye(n, dtype=np.complex128)
    return ProjectionPartition(np.stack([np.kron(np.diag(e), np.eye(k // n)) for e in eye]))


def universal_depth1(x: BlockMatrix) -> FactorizationCertificate:
    """Depth-1 certificate for any x, with cost n * max_ij ||x_ij||.

    The entries of x are spread on a diagonal of size n**2 indexed
    row-major; the two scalar factors are 0/1 matrices depending only
    on n.
    """
    n, k = x.n, x.k
    eye, ones = np.eye(n, dtype=np.complex128), np.ones((1, n), dtype=np.complex128)
    # a0[i, i * n + t] = 1 and a1[t * n + i, i] = 1
    a0, a1 = np.kron(eye, ones), np.kron(ones.T, eye)
    return FactorizationCertificate((a0, a1), (DiagonalMatrix(x.blocks.reshape(n * n, k, k)),))


def factor_through_family(x: BlockMatrix, fam: IsometryFamily) -> FactorizationCertificate:
    """Depth-3 certificate for the doubly-compressed matrix [p x_ij q].

    The outer diagonals carry the family rows a_i / d_j, the middle
    diagonal averages x against two constant-modulus unitaries, so each
    of its entries has norm at most ||x||.  Scalar factors are
    (identity, W, W, identity) with W the Fourier unitary of size n.
    fam must satisfy its relations (exact for :func:`matrix_unit_family`,
    checked in :func:`family_from_projections`); one that breaks them gives
    a certificate that fails ``verify`` against [p x_ij q], never a false pass.
    """
    if x.n != fam.n or x.k != fam.k:
        raise ShapeMismatchError("matrix and family shapes disagree")
    n, k = x.n, x.k
    W = fourier_unitary(n)
    eps = np.sqrt(n) * W.conj()  # symmetric: eps[i, k] and eps[k, j]
    t = np.einsum("iab,ijbc,jcd->ijad", fam.b, x.blocks, fam.c, optimize=True)
    D2 = np.einsum("ik,kj,ijad->kad", eps, eps, t, optimize=True)
    eye = np.eye(n, dtype=np.complex128)
    return FactorizationCertificate(
        (eye, W, W, eye),
        (DiagonalMatrix(fam.a), DiagonalMatrix(D2), DiagonalMatrix(fam.d)),
    )


def _unit(n: int, r: int, c: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[r, c] = 1.0
    return e


def matrix_unit_family(base_order: int, n: int, r: int, s: int) -> IsometryFamily:
    """Matrix-unit family in M_n(B) for a corner (r, s), 1-based indices.

    p = q = e_rs (x) 1_B, a_i = e_ri (x) 1_B, b_j = e_js (x) 1_B and the
    same for c, d; all relations hold exactly and all norms are 1.
    """
    if not (1 <= r <= n and 1 <= s <= n):
        raise IndexError(f"corner indices ({r}, {s}) out of range for n={n}")
    eyeB = np.eye(base_order)
    p = np.kron(_unit(n, r - 1, s - 1), eyeB)
    a = np.stack([np.kron(_unit(n, r - 1, i), eyeB) for i in range(n)])
    b = np.stack([np.kron(_unit(n, j, s - 1), eyeB) for j in range(n)])
    return IsometryFamily(p=p, q=p.copy(), a=a, b=b, c=a.copy(), d=b.copy())


def projection_isometries(p: np.ndarray, n: int) -> np.ndarray:
    """n partial isometries v_i with v_i* v_j = delta_ij p, sum v_i v_i* <= 1.

    Built from the spectral basis of p: the range basis is mapped onto n
    mutually orthogonal copies inside the same M_k, so n * rank(p) must
    not exceed k.  Deterministic for a fixed p.
    """
    p = np.asarray(p, dtype=np.complex128)
    k = p.shape[0]
    if (_product_excess(p[None], p[None], p)[0, 0] > _RELATION_TOL
            or np.abs(p - p.conj().T).max() > _RELATION_TOL):
        raise ValueError("input is not a projection")
    vals, vecs = np.linalg.eigh(p)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = vals[order], _phase_normalize(vecs[:, order])
    r = int(np.count_nonzero(vals > 0.5))
    if n * r > k:
        raise ValueError(f"need {n}*{r} orthogonal directions in M_{k}")
    uh = vecs[:, :r].conj().T
    return np.stack([vecs[:, i * r:(i + 1) * r] @ uh for i in range(n)])


def family_from_projections(p: np.ndarray, q: np.ndarray, n: int) -> IsometryFamily:
    """Validated isometry family for [p x q], from orthogonal copies of p and q.

    When q has the bytes of p its isometries are those of p (copied, as
    the construction is deterministic), so they are built once.
    """
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    v = projection_isometries(p, n)
    same = q.shape == p.shape and q.tobytes() == p.tobytes()
    w = v.copy() if same else projection_isometries(q, n)
    fam = IsometryFamily(p=p, q=q, a=v.conj().transpose(0, 2, 1), b=v,
                         c=w.conj().transpose(0, 2, 1), d=w)
    fam.validate()
    return fam


def lift(x: BlockMatrix, e: np.ndarray) -> BlockMatrix:
    """The matrix [x_ij (x) e] over M_p(B) for a p x p scalar matrix e."""
    p, kB = e.shape[0], x.k
    return BlockMatrix(
        np.einsum("ab,ijcd->ijacbd", e, x.blocks).reshape(x.n, x.n, p * kB, p * kB)
    )


def corner_embedding_certificate(x: BlockMatrix, r: int, s: int) -> FactorizationCertificate:
    """Depth-3 certificate for [x_ij (x) e_rs] over M_n(B), cost <= ||x||.

    The entries are first lifted to x_ij (x) e_sr so that the corner
    compression of the matrix-unit family reproduces x_ij (x) e_rs; the
    lift has the same operator norm as x.
    """
    fam = matrix_unit_family(x.k, x.n, r, s)
    return factor_through_family(lift(x, _unit(x.n, s - 1, r - 1)), fam)


def partition_row_decomposition(part: ProjectionPartition) -> RowDecomposition:
    """The block row with entries delta_ij p_m, written as scalar * diagonal * scalar.

    The leading scalar is n**-0.5 [I ... I], the diagonal entries are
    Fourier-weighted sums of the partition projections (norm <= 1), and
    the trailing scalar is the inflated Fourier unitary; the product
    reproduces the row exactly and bounds its depth-1 cost by 1.
    """
    n, k = part.n, part.k
    W = fourier_unitary(n)
    eyen = np.eye(n, dtype=np.complex128)
    alpha0 = np.hstack([eyen] * n) / np.sqrt(n)
    dvals = np.einsum("im,iab->mab", np.sqrt(n) * W.conj(), part.projections)
    entries = np.repeat(dvals, n, axis=0)  # entry at (m, j) is dvals[m]
    return RowDecomposition(alpha0, DiagonalMatrix._adopt(entries), np.kron(W, eyen))


def pinch_certificate(inner, part: ProjectionPartition):
    """Depth d+2 certificate for [sum_m p_m X_m(i, j) p_m].

    ``inner(m)`` makes the inner certificate for partition element m; it is
    called once for each m = 0, ..., n-1, in order.  The inner certificates
    are direct-summed and conjugated by the partition row decomposition on
    both sides.  They must share widths and scalar factors bitwise, as one
    construction's certificates of one shape do (:class:`UniformityError`
    otherwise), so the cost is at most the largest inner cost: the row
    decompositions are contractions and the direct sum of the rebalanced
    inner certificates costs as much as its largest summand.  part must be
    a partition (exact for :func:`diagonal_partition`), else verify fails.

    The value is ``conjugate(row, direct_sum(rebalance_diags(inner(m)) for m
    in range(n)))`` bit for bit, but each later inner certificate is checked
    against ``inner(0)``, its rebalanced diagonals are written straight into
    the summed ones, and it is let go before the next is made, so the inner
    certificates need not be live together.
    """
    n, first = part.n, inner(0)

    def rows():
        for m in range(n):
            c = inner(m) if m else first
            if c.d != first.d or c.n != n or c.k != part.k:
                raise ShapeMismatchError("inner certificates must share depth and shape")
            if m:
                _check_same_scalars(c, first, f"between inner certificates 0 and {m}")
            yield _diag_parts(c)
            del c  # not held while the next one is made

    diags = DiagonalMatrix._sums(rows(), [n * D.size for D in first.diags], part.k)
    # the inner scalars are equal bytes, so these are direct_sum's block diagonals
    dsum = FactorizationCertificate(tuple(block_diag([a] * n) for a in first.alphas), diags)
    return conjugate(partition_row_decomposition(part), dsum)


def pinch_assembly(x: BlockMatrix, part: ProjectionPartition, inner):
    """Pinch certificate built from x / ||x||, scaled back to cost <= ||x||.

    ``inner(xs, m)`` certifies the piece of the normalized input xs for
    partition element m at cost <= 1; :func:`pinch_certificate` asks for
    the pieces by index, one at a time.  Returns ``(certificate, ||x||)``.
    The normalization only keeps bytes: building from x itself changes the bits of the
    ``t13`` and ``sub19`` certificates, files and reports and of ``perfbench/reference.json``.
    """
    nrm = operator_norm(x)
    xs = x * (1.0 / nrm) if nrm > 0 else x
    cert = pinch_certificate(lambda m: inner(xs, m), part)
    return (cert.scaled(nrm) if nrm > 0 else cert), nrm


def diagonal_embedding_certificate(x: BlockMatrix) -> FactorizationCertificate:
    """Depth-5 certificate for [x_ij (x) 1_n] over M_n(B), cost <= ||x||.

    Composes the corner embeddings at the n diagonal corners with the
    pinch by the diagonal matrix-unit partition of M_n(B).
    """
    part = diagonal_partition(x.n, x.n * x.k)
    cert, _ = pinch_assembly(
        x, part, lambda xs, m: corner_embedding_certificate(xs, m + 1, m + 1)
    )
    return cert


def pinch(x: BlockMatrix, part: ProjectionPartition) -> BlockMatrix:
    """Entrywise sum_m p_m x_ij p_m; contractive and idempotent.

    One batched matmul pair p_m @ x @ p_m per partition element, added in
    place to a +0 accumulator: O(n^3 k^3) work, all of it in BLAS.  For
    0/1 projections (``diagonal_partition``) every output element is one
    exact product 1 * x_ij[a, d] plus exact zeros.  The +0 start turns
    a -0 that BLAS can leave in an all-zero sum (OpenBLAS does at block
    orders 6, 9 and 10) into +0, as the defining sum does.
    """
    if x.k != part.k:
        raise ShapeMismatchError("block order mismatch")
    out = np.zeros_like(x.blocks)
    for pm in part.projections:
        out += pm @ x.blocks @ pm
    return BlockMatrix(out)
