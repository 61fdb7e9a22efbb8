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

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .blocks import (
    BlockMatrix,
    DiagonalMatrix,
    ShapeMismatchError,
    _WHOLE_TILES,
    block_diag,
    operator_norm,
    scalar_norm,
)

__all__ = [
    "FactorizationCertificate",
    "VerificationReport",
    "UniformityError",
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


class UniformityError(AssertionError):
    """Scalar factors or widths differ across inputs of the same shape."""


@dataclass(frozen=True)
class FactorizationCertificate:
    """Depth-d factorization data over the base algebra M_k.

    ``alphas`` holds d+1 scalar matrices with shapes chaining as
    n x N_1, N_1 x N_2, ..., N_d x n; ``diags`` holds d block-diagonal
    factors, the i-th of size N_i.  ``widths`` is computed from the
    factor shapes, so uniformity checks can compare it as data.  Scalar
    factors are copied read-only, like diagonal entries, so :func:`verify`
    can keep its results on the certificate.
    """

    alphas: tuple  # d+1 scalar ndarrays
    diags: tuple   # d DiagonalMatrix
    _verified: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        alphas = tuple(np.array(a, dtype=np.complex128) for a in self.alphas)
        diags = tuple(self.diags)
        for i, a in enumerate(alphas):
            if a.ndim != 2:
                raise ShapeMismatchError(f"alphas[{i}]: scalar factors must be matrices")
            a.setflags(write=False)
        if len(alphas) != len(diags) + 1 or not diags:
            raise ShapeMismatchError("need d diagonals and d+1 scalar factors, d >= 1")
        for i, D in enumerate(diags):
            if D.size == 0:
                raise ShapeMismatchError(f"zero width at junction {i}")
            if alphas[i].shape[1] != D.size or alphas[i + 1].shape[0] != D.size:
                raise ShapeMismatchError(
                    f"width mismatch at junction {i}: "
                    f"{alphas[i].shape} | {D.size} | {alphas[i + 1].shape}"
                )
            if D.k != diags[0].k:
                raise ShapeMismatchError("diagonal entries have mixed block orders")
        if alphas[0].shape[0] != alphas[-1].shape[1]:
            raise ShapeMismatchError("outer shape is not square")
        if alphas[0].shape[0] == 0:
            raise ShapeMismatchError("zero outer width")
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
    """:func:`verify`'s verdict; ``recon_error`` bounds ||evaluate(cert) - x|| in floating point.

    ``passed``: recon_error <= tol * max(1, lower), lower = ||x||, and the cost is finite.
    """

    recon_error: float
    cost: float
    lower: float
    ratio: float
    tol: float
    passed: bool


# bytes of one chunk's widest intermediate in evaluate: a certificate whose whole
# product fits runs as one chunk, with the operations of the unchunked product
_EVALUATE_CHUNK_BYTES = 4 << 20
_TOL = 1e-9  # verify's default tolerance, relative to max(1, ||x||); the CLI's --tol defaults too


def _scalar_runs(a: np.ndarray):
    """a's runs ``(r, c, q, B)``, a[r:r + q br, c:c + q bc] = I_q (x) B, from its exact zeros.

    The runs tile a's rows and columns in order, a is zero outside them, and
    a run of blocks with a side of 1 (an identity's) is one dense block.
    None where a has a zero row or column, is one dense block, or has a
    block with a side of 1 (a matrix-vector product, other roundings).
    """
    nz = a != 0
    if min(a.shape) < 2 or not (nz.any(axis=1).all() and nz.any(axis=0).all()):
        return None
    reach = np.maximum.accumulate(a.shape[1] - nz[:, ::-1].argmax(axis=1))  # rows [0, i] end there
    start = np.minimum.accumulate(nz.argmax(axis=1)[::-1])[::-1]  # rows [i, R) start there
    cuts = [0, *(np.flatnonzero(reach[:-1] <= start[1:]) + 1), a.shape[0]]
    runs = []
    for r0, r1 in zip(cuts, cuts[1:]):
        c0 = int(reach[r0 - 1]) if r0 else 0
        B = a[r0:r1, c0:reach[r1 - 1]]
        if runs and runs[-1][3].shape == B.shape and runs[-1][3].tobytes() == B.tobytes():
            runs[-1][2] += 1
        else:
            runs.append([int(r0), c0, 1, B])
    runs = [(r, c, 1, a[r:r + q * B.shape[0], c:c + q * B.shape[1]]) if min(B.shape) < 2
            else (r, c, q, B) for r, c, q, B in runs]
    if len(runs) == 1 and runs[0][2] == 1 or any(min(B.shape) < 2 for *_, B in runs):
        return None
    return tuple((r, c, q, np.ascontiguousarray(B)) for r, c, q, B in runs)


def _times_scalar(a: np.ndarray, runs, M: np.ndarray) -> np.ndarray:
    """``tensordot(a, M, axes=(1, 0))`` for a (N, k, w) stack M, run by run where M[0].size allows.

    A run I_q (x) B is one batched matmul of B over q slices of M.
    """
    if runs is None or M[0].size % _WHOLE_TILES:
        return np.tensordot(a, M, axes=(1, 0))
    out = np.empty((a.shape[0], M[0].size), dtype=np.complex128)
    for r, c, q, B in runs:
        br, bc = B.shape
        np.matmul(B, M[c:c + q * bc].reshape(q, bc, -1), out=out[r:r + q * br].reshape(q, br, -1))
    return out.reshape((a.shape[0],) + M.shape[1:])


def evaluate(cert: FactorizationCertificate) -> BlockMatrix:
    """The alternating product a_0 D_1 a_1 ... D_d a_d as a BlockMatrix.

    Block column j of the value is a_0 D_1 ... D_d (a_d[:, j] (x) I_k).  The
    product runs over a few block columns at a time, as many as keep the
    widest intermediate, max(widths) k x c k complex, within
    ``_EVALUATE_CHUNK_BYTES`` (at least one).  Each chunk starts from
    D_d (a_d[:, cols] (x) I_k), whose block (e, j) is a_d[e, j] D_d[e]: one
    product per element, with no inflation built and no GEMM over its zeros
    (the bits of that GEMM where a_d is real, as every built certificate's
    is).  The other factors are applied through the block structure rather
    than by materializing their inflations, and by their fixed zeros where
    they have them (:func:`_scalar_runs`, ``DiagonalMatrix._block``), with
    the bits of the dense products (see ``blocks._WHOLE_TILES``).
    """
    n, k, widths = cert.n, cert.k, cert.widths
    c = max(1, _EVALUATE_CHUNK_BYTES // (max(widths) * k * k * 16))
    runs = [_scalar_runs(a) for a in cert.alphas[:-1]]
    out = np.empty((n, n, k, k), dtype=np.complex128)
    for j in range(0, n, c):
        D = cert.diags[-1].entries
        # C order whatever D's layout (an adjoint's is transposed), so the reshapes below are views
        M = np.multiply(D[:, :, None, :], cert.alphas[-1][:, None, j:j + c, None], order="C")
        for i in range(cert.d, 0, -1):
            M = M.reshape(widths[i], k, -1)
            if i < cert.d:
                M = cert.diags[i - 1]._times(M)
            M = _times_scalar(cert.alphas[i - 1], runs[i - 1], M)
        out[:, j:j + c] = M.reshape(n, k, -1, k).transpose(0, 2, 1, 3)
    return BlockMatrix(out)


def _times_norms(a, norms):
    """a * (product of norms) by exact exponents: a * math.prod(norms) bit for bit while normal."""
    fm, fe = np.frexp(norms)
    m, e = math.prod(fm.tolist()), int(fe.sum())
    a = a[..., None] * m  # a new array; a trailing axis makes the float64 view legal in any layout
    np.ldexp(a.view(np.float64), e, out=a.view(np.float64))
    return a[..., 0]


def cost(cert: FactorizationCertificate) -> float:
    """Product of factor norms (diagonals keep theirs), exact in the exponent."""
    norms = [scalar_norm(a) for a in cert.alphas] + [D.norm() for D in cert.diags]
    with np.errstate(over="ignore"):
        return float(_times_norms(np.float64(1.0), norms))


def verify(cert: FactorizationCertificate, x: BlockMatrix, tol: float = _TOL) -> VerificationReport:
    """Check that the certificate reproduces x within tol (relative to max(1, ||x||)).

    It passes on a bound of ||V - X||, V = evaluate(cert), not on an SVD:
    fl(r g) for the computed Frobenius norm r of fl(V - X), g = fl(1 + (2N + 8)u),
    u = 2**-53, N = 2(nk)**2 real components.  Each component is one rounded
    subtraction (a factor 1/(1 - u) on the norm), the N squares summed in
    any order lose at most a factor 1 - gamma_N = 1 - Nu/(1 - Nu), the
    square root 1 - u; so ||V - X|| <= r/((1 - u)**2 sqrt(1 - gamma_N)) <=
    r(1 + (2N + 4)u) for Nu <= 1/6, below fl(r g) as g >= 1 + (2N + 7)u.
    The components are scaled by 2**-e, e = frexp(max |component|)[1], before
    the dot and the root by 2**e after, which is exact, so r overflows only
    where the norm itself does.  (Squares of scaled components under 2**-511
    may underflow: an error below sqrt(N) 2**-536 relative to r, inside the margin.)

    The bound, the cost and ||x|| are kept on the certificate under x's blake2b
    digest (x's shape is the certificate's), so a repeat costs one hash; tol only
    enters the verdict.  A non-finite cost fails; ValueError unless 0 <= tol < inf.
    """
    if not 0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    if cert.n != x.n or cert.k != x.k:
        raise ShapeMismatchError(
            f"certificate shape ({cert.n}, k={cert.k}) does not match "
            f"target ({x.n}x{x.n}, k={x.k})"
        )
    key = hashlib.blake2b(np.ascontiguousarray(x.blocks)).digest()
    if key not in cert._verified:
        r = np.ravel(evaluate(cert).blocks - x.blocks).view(np.float64)
        e = int(np.frexp(np.abs(r).max(initial=0.0))[1])
        s = np.ldexp(r, -e)
        g = 1 + (2 * r.size + 8) * (np.finfo(float).eps / 2)
        cert._verified[key] = (float(np.ldexp(np.sqrt(s @ s), e)) * g, cost(cert), operator_norm(x))
    recon, c, lower = cert._verified[key]
    with np.errstate(over="ignore"):  # a zero target makes the ratio inf
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
    eye, unit = np.eye(cert.n, dtype=np.complex128), DiagonalMatrix.unit(cert.n, cert.k)
    return FactorizationCertificate(cert.alphas + (eye,), cert.diags + (unit,))


def pad_to(cert: FactorizationCertificate, depth: int) -> FactorizationCertificate:
    while cert.d < depth:
        cert = pad(cert)
    return cert


def _unit_factors(norms):
    """The factor taking each diagonal norm to 1 (1 for a zero one), and the nonzero norms."""
    return [1.0 / v if v > 0 else 1 for v in norms], [v for v in norms if v > 0]


def _rebalanced(alphas, diag_norms):
    """:func:`rebalance`'s scalar factors, and the factor that scales each diagonal."""
    factors, norms = _unit_factors(diag_norms)
    alphas = list(alphas)
    for i, a in enumerate(alphas[1:], 1):
        na = scalar_norm(a)
        if na > 0:
            norms.append(na)
            alphas[i] = a / na
    alphas[0] = _times_norms(alphas[0], norms)
    c = scalar_norm(alphas[0])
    if c != 0:
        alphas[0], alphas[-1] = alphas[0] / np.sqrt(c), alphas[-1] * np.sqrt(c)
    return alphas, factors


def rebalance(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Same value; interior factors of norm 1 and sqrt(cost) on each of a_0 and a_d.

    The interior norms are first moved onto a_0, which then shares the
    cost with a_d.  Zero factors are left in place (the value is then
    zero regardless).
    """
    alphas, factors = _rebalanced(cert.alphas, [D.norm() for D in cert.diags])
    diags = tuple(D.scaled(c) for D, c in zip(cert.diags, factors))
    return FactorizationCertificate(tuple(alphas), diags)


def _diag_parts(cert: FactorizationCertificate) -> list:
    """:func:`rebalance_diags`'s diagonals as (diagonal, factor) parts; diags[0] has the norms."""
    factors, norms = _unit_factors([D.norm() for D in cert.diags[1:]])
    first = cert.diags[0]
    if math.prod(norms) != 1:  # the test scaled(1) made: a plain product of 1 keeps the diagonal
        try:
            with np.errstate(over="raise"):
                first = DiagonalMatrix._adopt(_times_norms(first.entries, norms))
        except FloatingPointError:
            raise ValueError("rebalance_diags: the norms moved onto diags[0] overflow") from None
    return [(first, 1), *zip(cert.diags[1:], factors)]


def rebalance_diags(cert: FactorizationCertificate) -> FactorizationCertificate:
    """Same value and scalar factors; all diagonal norms go onto the first diagonal.

    Used before direct-summing certificates so the summed diagonal norms do not multiply
    up across positions, while the scalar data stays untouched (it must remain independent
    of the input values, bitwise).  ValueError where the moved norms overflow an entry.
    """
    return FactorizationCertificate(cert.alphas, tuple(D.scaled(c) for D, c in _diag_parts(cert)))


def _check_same_scalars(cert: FactorizationCertificate, ref: FactorizationCertificate, where: str):
    """Raise :class:`UniformityError` unless cert and ref share widths and scalar bytes."""
    if cert.widths != ref.widths:
        raise UniformityError(f"widths differ {where}: {cert.widths} vs {ref.widths}")
    for i, (a, b) in enumerate(zip(cert.alphas, ref.alphas)):
        if a.tobytes() != b.tobytes():
            raise UniformityError(f"scalar factor {i} differs {where}")


def direct_sum(certs) -> FactorizationCertificate:
    """Certificate for the block-diagonal sum of the values of ``certs``.

    Scalar factors are placed block-diagonally and diagonal factors
    concatenated, so each factor norm is the largest among the summands.
    """
    certs = list(certs)
    if not certs:
        raise ValueError("direct_sum: empty family")
    d, k = certs[0].d, certs[0].k
    if any(c.d != d or c.k != k for c in certs):
        raise ShapeMismatchError("direct summands must share depth and block order")
    alphas = tuple(block_diag([c.alphas[i] for c in certs]) for i in range(d + 1))
    sizes = [sum(c.diags[i].size for c in certs) for i in range(d)]
    diags = DiagonalMatrix._sums(([(D, 1) for D in c.diags] for c in certs), sizes, k)
    return FactorizationCertificate(alphas, diags)


def add(cu: FactorizationCertificate, cv: FactorizationCertificate) -> FactorizationCertificate:
    """Certificate for evaluate(cu) + evaluate(cv) at the same depth.

    Both inputs are rebalanced (:func:`rebalance`: contractions inside,
    the cost split evenly between the two outer scalars); the leading
    scalars are then row-concatenated, the trailing ones
    column-concatenated, and everything in between is direct-summed,
    giving cost <= cost_u + cost_v (optimal for concatenation-based
    sums: the product of the two concatenation bounds is at least the
    plain sum by Cauchy-Schwarz).  The rebalanced diagonals are never
    built: each summed diagonal is written once from the inputs' entries
    times their unit factors, with the bytes of the rebalance-then-sum.
    """
    if cu.d != cv.d or cu.n != cv.n or cu.k != cv.k:
        raise ShapeMismatchError("certificates must share depth, outer shape and block order")
    nu, nv = [D.norm() for D in cu.diags], [D.norm() for D in cv.diags]
    (au, fu), (av, fv) = _rebalanced(cu.alphas, nu), _rebalanced(cv.alphas, nv)
    alphas = (
        (np.hstack([au[0], av[0]]),)
        + tuple(block_diag(pair) for pair in zip(au[1:-1], av[1:-1]))
        + (np.vstack([au[-1], av[-1]]),)
    )
    sizes = [Du.size + Dv.size for Du, Dv in zip(cu.diags, cv.diags)]
    diags = DiagonalMatrix._sums([zip(cu.diags, fu), zip(cv.diags, fv)], sizes, cu.k)
    return FactorizationCertificate(alphas, diags)


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
        a0 = np.array(self.alpha0, dtype=np.complex128)
        w = np.array(self.w, dtype=np.complex128)
        if a0.shape[1] != self.diag.size or w.shape[0] != self.diag.size:
            raise ShapeMismatchError("row decomposition widths do not chain")
        for name, a in (("alpha0", a0), ("w", w)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def conjugate(row: RowDecomposition, inner: FactorizationCertificate) -> FactorizationCertificate:
    """Certificate of depth d+2 for L * evaluate(inner) * L^*, L the block row of ``row``.

    The trailing scalar w of the decomposition is merged into the
    adjacent scalar of the inner certificate on each side, so only two
    new diagonal factors appear.
    """
    if row.w.shape[1] != inner.n:
        raise ShapeMismatchError("decomposition does not chain with inner certificate")
    alphas = (
        (row.alpha0, row.w @ inner.alphas[0])
        + inner.alphas[1:-1]
        + (inner.alphas[-1] @ row.w.conj().T, row.alpha0.conj().T)
    )
    diags = (row.diag,) + inner.diags + (row.diag.adjoint(),)
    return FactorizationCertificate(alphas, diags)
