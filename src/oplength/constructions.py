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
    _finite,
    _phase_normalize,
    block_diag,
    fourier_unitary,
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


# Absolute tolerance on the algebraic relations of families and projections.
_RELATION_TOL = 1e-10


def _product_excess(left: np.ndarray, right: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The (n, n) maxima of |l_i r_j - delta_ij diag| over (n, k, k) stacks l, r.

    One GEMM [l_0; ...; l_{n-1}] @ [r_0 ... r_{n-1}]; ``diag`` is (k, k).
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
    """The n diagonal-block projections p_m of M_k (n >= 1 dividing k), each of trace 1/n.

    p_m is 1 on the diagonal of block m (:meth:`_block`) and 0 elsewhere, so
    p_m* = p_m, p_m p_j = delta_mj p_m and sum_m p_m = 1 hold exactly.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or self.k < 1 or self.k % self.n:
            raise ShapeMismatchError(
                f"the diagonal partition needs n | k, got n={self.n}, k={self.k}")

    def _block(self, m: int) -> slice:
        """The k/n indices that p_m projects onto."""
        r = self.k // self.n
        return slice(m * r, (m + 1) * r)

    @property
    def projections(self) -> np.ndarray:
        """The read-only (n, k, k) stack of the 0/1 projections, built at each read."""
        P = np.zeros((self.n, self.k, self.k), dtype=np.complex128)
        for m in range(self.n):
            s = self._block(m)
            P[m, s, s] = np.eye(self.k // self.n)
        P.setflags(write=False)
        return P


def diagonal_partition(n: int, k: int) -> ProjectionPartition:
    """The n diagonal-block projections of M_k (n >= 1 dividing k)."""
    return ProjectionPartition(n, k)


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
    fam must satisfy its relations (exact for :func:`matrix_unit_family` and
    the closed-form families of a diagonal-partition element, checked in
    :func:`family_from_projections`); one that breaks them gives
    a certificate that fails ``verify`` against [p x_ij q], never a false pass.
    """
    if x.n != fam.n or x.k != fam.k:
        raise ShapeMismatchError("matrix and family shapes disagree")
    n, k = x.n, x.k
    W = fourier_unitary(n)
    eps = np.sqrt(n) * W.conj()  # symmetric: eps[i, k] and eps[k, j]
    t = np.einsum("iab,ijbc,jcd->ijad", fam.b, x.blocks, fam.c, optimize=_COMPRESS_PATH)
    D2 = np.einsum("ik,kj,ijad->kad", eps, eps, t, optimize=_AVERAGE_PATH)
    eye = np.eye(n, dtype=np.complex128)
    diags = (DiagonalMatrix(fam.a), DiagonalMatrix(D2), DiagonalMatrix(fam.d))
    return FactorizationCertificate((eye, W, W, eye), diags)


# The contraction orders ``optimize=True`` picks for factor_through_family's two einsums at
# every n >= 2; at n = 1 it contracts (0, 1) first in the second, with the same bytes.
_COMPRESS_PATH = ["einsum_path", (0, 1), (0, 1)]
_AVERAGE_PATH = ["einsum_path", (0, 2), (0, 1)]


def _unit(n: int, r: int, c: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=np.complex128)
    e[r, c] = 1.0
    return e


def matrix_unit_family(base_order: int, n: int, r: int, s: int) -> IsometryFamily:
    """Matrix-unit family in M_n(B) for a corner (r, s), 1-based indices.

    p = q = e_rs (x) 1_B, a_i = e_ri (x) 1_B, b_j = e_js (x) 1_B and the
    same for c, d; all relations hold exactly and all norms are 1.
    """
    if n < 1:
        raise ShapeMismatchError(f"matrix units need n >= 1, got n={n}")
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
    p = _finite(np.asarray(p, dtype=np.complex128))
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
    """Validated isometry family for [p x q], from orthogonal copies of p and q."""
    p = np.asarray(p, dtype=np.complex128)
    q = np.asarray(q, dtype=np.complex128)
    v, w = projection_isometries(p, n), projection_isometries(q, n)
    fam = IsometryFamily(p=p, q=q, a=v.conj().transpose(0, 2, 1), b=v,
                         c=w.conj().transpose(0, 2, 1), d=w)
    fam.validate()
    return fam


def _diagonal_family(n: int, k: int, m: int) -> IsometryFamily:
    """``family_from_projections(P[m], P[m], n)`` for P = diagonal_partition(n, k), in closed form.

    With R the indices of block m and ``order`` R then the others, each
    ascending, v_i[order[i r + t], R[t]] = 1 (r = k/n): the bytes of the eigh
    path, with no eigh and no check, as 0/1 relations are exact.  Other
    projections keep that path (eigh orders degenerate eigenvectors its own way).
    """
    r = k // n
    R = np.arange(k)[diagonal_partition(n, k)._block(m)]
    p = np.zeros((k, k), dtype=np.complex128)
    p[R, R] = 1  # the bytes of the partition's projections[m], built alone
    p.setflags(write=False)
    order = np.concatenate([R, np.delete(np.arange(k), R)])
    v = np.zeros((n, k, k), dtype=np.complex128)
    v[np.arange(n)[:, None], order.reshape(n, r), R] = 1
    w = v.copy()
    return IsometryFamily(p=p, q=p, a=v.conj().transpose(0, 2, 1), b=v,
                          c=w.conj().transpose(0, 2, 1), d=w)


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
    reproduces the row exactly and bounds its depth-1 cost by 1.  Made in
    each call, from the projections the partition builds at each read.
    """
    n = part.n
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
    inner certificates costs as much as its largest summand.

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

    p_m x_ij p_m keeps block m of x_ij and zeroes the rest, so each of the n
    diagonal blocks is added into a +0 start: O(n^2 k^2) copies, no product.
    The +0 start turns a -0 entry into +0, as the defining sum does.
    """
    if x.k != part.k:
        raise ShapeMismatchError("block order mismatch")
    out = np.zeros_like(x.blocks)
    for m in range(part.n):
        s = part._block(m)
        out[..., s, s] += x.blocks[..., s, s]
    return BlockMatrix(out)
