"""Block-matrix arithmetic over the matrix algebras M_k.

Elements of the base algebra are plain ``(k, k)`` complex ndarrays.  A
:class:`BlockMatrix` is an ``n x n`` array of such blocks; its value is
entirely determined by the inflated ``(n*k, n*k)`` complex matrix, the
block bookkeeping only records how it is partitioned.  Scalar matrices
act on block matrices by inflation, i.e. tensoring with the identity of
the base algebra, which leaves their operator norm unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockMatrix",
    "DiagonalMatrix",
    "ShapeMismatchError",
    "block_diag",
    "scalar_norm",
    "operator_norm",
    "hermitian_spectral",
    "spectral_projection",
    "normalized_trace",
    "block_l2",
    "fourier_unitary",
    "psd_sqrt",
]


# A product through fixed zeros skips only exact-zero terms: each nonzero element is the dense
# product's sum, bit for bit.  An all-zero sum is +0 in a whole tile of zgemm output columns but
# can be -0 in a part tile (OpenBLAS, 4 columns a tile here; measured), so structured products
# run only where the dense one has a multiple of this many output columns.
_WHOLE_TILES = 8


class ShapeMismatchError(ValueError):
    """Block shapes or orders do not chain."""


def _finite(a: np.ndarray) -> np.ndarray:
    """a itself; ValueError where an entry is NaN or infinite (comparisons would let it through)."""
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    return a


def _as_blocks(blocks) -> np.ndarray:
    b = np.array(blocks, dtype=np.complex128)
    if b.ndim != 4 or b.shape[0] != b.shape[1] or not 0 < b.shape[2] == b.shape[3]:
        raise ShapeMismatchError(f"expected (n, n, k, k) blocks, got {b.shape}")
    return _finite(b)


@dataclass(frozen=True)
class BlockMatrix:
    """An n x n matrix of k x k complex blocks.

    Immutable; all operations return new values.
    """

    blocks: np.ndarray  # shape (n, n, k, k)

    def __post_init__(self):
        object.__setattr__(self, "blocks", _as_blocks(self.blocks))
        self.blocks.setflags(write=False)

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    @property
    def k(self) -> int:
        return self.blocks.shape[2]

    @classmethod
    def from_dense(cls, dense: np.ndarray, k: int) -> "BlockMatrix":
        dense = np.asarray(dense, dtype=np.complex128)
        if k < 1 or dense.shape[0] % k or dense.shape[1] % k:
            raise ShapeMismatchError(f"dense shape {dense.shape} not divisible by k={k}")
        m, n = dense.shape[0] // k, dense.shape[1] // k
        blocks = dense.reshape(m, k, n, k).transpose(0, 2, 1, 3)
        return cls(blocks)

    def dense(self) -> np.ndarray:
        """The inflated (n*k, n*k) complex matrix."""
        n, k = self.n, self.k
        return self.blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)

    def _matching(self, other: "BlockMatrix") -> np.ndarray:
        # numpy would broadcast mismatched shapes instead of failing
        if other.blocks.shape != self.blocks.shape:
            raise ShapeMismatchError(
                f"block shapes differ: {self.blocks.shape} vs {other.blocks.shape}"
            )
        return other.blocks

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix(self.blocks + self._matching(other))

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix(self.blocks - self._matching(other))

    def __mul__(self, c: complex) -> "BlockMatrix":
        return BlockMatrix(self.blocks * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DiagonalMatrix:
    """A block-diagonal matrix in M_N(M_k): N diagonal entries in M_k.

    The operator norm equals the maximum entry norm.  The public
    constructor copies its input read-only; the library's own constructors
    (``scaled``, ``adjoint``, ``_sums``) adopt the array they have just
    allocated instead, read-only, with no second copy.
    """

    entries: np.ndarray  # shape (N, k, k)

    def __post_init__(self):
        self._set_entries(np.array(self.entries, dtype=np.complex128))

    def _set_entries(self, e: np.ndarray):
        if e.ndim != 3 or not 0 < e.shape[1] == e.shape[2]:
            raise ShapeMismatchError(f"expected (N, k, k) entries, got {e.shape}")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    @classmethod
    def _adopt(cls, entries: np.ndarray, norm: float | None = None) -> "DiagonalMatrix":
        """A diagonal over ``entries``, a new array nothing else holds: read-only, not copied."""
        D = object.__new__(cls)
        D._set_entries(np.asarray(entries, dtype=np.complex128))
        if norm is not None:
            D.__dict__["_norm"] = norm
        return D

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def k(self) -> int:
        return self.entries.shape[1]

    @classmethod
    def unit(cls, size: int, k: int) -> "DiagonalMatrix":
        """The identity diagonal of ``size`` entries in M_k."""
        return cls(np.broadcast_to(np.eye(k, dtype=np.complex128), (size, k, k)))

    def norm(self) -> float:
        """The largest entry norm, kept on the instance.

        Where every entry is 0/1 with at most one 1 in each row and column (a
        partial isometry: the isometry families, identities, loaded 0/1 files)
        it is 1.0, or 0.0 with no 1, read from the entries; else one batched
        SVD over all entries gives it.
        """
        return self._norm

    @cached_property
    def _norm(self) -> float:
        e = self.entries
        ones = e == 1
        if (ones | (e == 0)).all() and max(ones.sum(axis=a).max(initial=0) for a in (1, 2)) <= 1:
            return float(ones.any())  # the bits the SVD gives on every such stack tried
        # max over every singular value from +0 is the entrywise max norm bit for bit:
        # max is exact and a +0 start keeps a -0 singular value from deciding a tie
        return float(np.linalg.svd(e, compute_uv=False).max(initial=0.0))

    @cached_property
    def _block(self):
        """``(rows, cols, blocks)``: entry e is zero outside rows[e] x cols[e] and blocks[e] there.

        Found from the exact zeros: index arrays over contiguous ranges, of one
        shape for all entries, smaller than k x k with sides of at least 2 (a
        side of 1 makes a matrix-vector product, other roundings); else None.
        """
        nz = self.entries != 0
        index = []
        for used in (nz.any(axis=2), nz.any(axis=1)):  # the nonzero rows, the nonzero columns
            first = used.argmax(axis=1)
            width = self.k - used[:, ::-1].argmax(axis=1) - first
            s = int(width[0])
            if s < 2 or np.any(width != s) or np.any(used.sum(axis=1) != s):
                return None
            index.append(first[:, None] + np.arange(s))
        rows, cols = index
        if rows.shape[1] == cols.shape[1] == self.k:
            return None
        at = np.arange(self.size)[:, None, None]
        return rows, cols, self.entries[at, rows[:, :, None], cols[:, None, :]]

    def _times(self, M: np.ndarray) -> np.ndarray:
        """``entries @ M`` for a (size, k, w) stack M, through ``_block`` where w allows.

        Gathers the rows of M the blocks' columns meet, runs one batched matmul
        over the blocks and scatters it into zeros.
        """
        if M.shape[2] % _WHOLE_TILES or (block := self._block) is None:
            return self.entries @ M
        rows, cols, blocks = block
        at = np.arange(self.size)[:, None]
        part = blocks @ M[at, cols]
        out = np.zeros(M.shape, dtype=np.complex128)
        out[at, rows] = part
        return out

    def adjoint(self) -> "DiagonalMatrix":
        return DiagonalMatrix._adopt(self.entries.conj().transpose(0, 2, 1))

    def scaled(self, c: complex) -> "DiagonalMatrix":
        """c times this diagonal; for c == 1 this very object, its norm kept."""
        return self if c == 1 else DiagonalMatrix._adopt(self.entries * c)

    @classmethod
    def _sums(cls, rows, sizes, k: int, norms=None) -> tuple:
        """Diagonal i of the result holds part i of each of ``rows``, one row after another.

        A row is a sequence of ``(diagonal, factor)`` parts, and ``sizes[i]``
        is the sum of the sizes of the rows' i-th parts.  Each part's
        ``entries * factor``, the bytes of ``scaled``, is written straight
        into its slice of one new (sizes[i], k, k) array (a factor of 1
        copies), which the result adopts.  Rows are taken one at a time and
        let go once written, so a generator's rows need not be live together.
        Diagonal i keeps ``norms[i]`` where given and not None; any other
        norm is found from the summed entries when asked for.
        """
        outs = [np.empty((N, k, k), dtype=np.complex128) for N in sizes]
        at = [0] * len(sizes)
        for row in rows:
            for i, (D, c) in enumerate(row):
                part = outs[i][at[i]:at[i] + D.size]
                if c == 1:
                    part[...] = D.entries
                else:
                    np.multiply(D.entries, c, out=part)
                at[i] += D.size
            del row, D  # not held while the next row is made
        return tuple(cls._adopt(out, nrm) for out, nrm in zip(outs, norms or [None] * len(outs)))


def block_diag(mats) -> np.ndarray:
    """``mats`` along the diagonal of their last two axes, zero elsewhere; leading axes shared."""
    mats = list(mats)
    shape = (sum(m.shape[-2] for m in mats), sum(m.shape[-1] for m in mats))
    out = np.zeros(np.broadcast_shapes(*(m.shape[:-2] for m in mats)) + shape, np.complex128)
    r = c = 0
    for m in mats:
        out[..., r:r + m.shape[-2], c:c + m.shape[-1]] = m
        r += m.shape[-2]
        c += m.shape[-1]
    return out


# (dtype, shape, blake2b digest of the bytes) -> spectral norm; floats only, least recently used dropped first
_SCALAR_NORMS: dict = {}
_SCALAR_NORMS_MAX = 256


def scalar_norm(alpha: np.ndarray) -> float:
    """Spectral norm of a scalar factor; certificates make these non-empty complex matrices.

    Certificates of one shape share their scalar factors, so the float is kept
    by content in a bounded memo holding no array: a repeat costs one hash.
    """
    key = (alpha.dtype.str, alpha.shape, hashlib.blake2b(np.ascontiguousarray(alpha)).digest())
    if (norm := _SCALAR_NORMS.pop(key, None)) is None:
        norm = float(np.linalg.norm(alpha, 2))
    _SCALAR_NORMS[key] = norm  # put back last, so the least recently used go first
    if len(_SCALAR_NORMS) > _SCALAR_NORMS_MAX:
        del _SCALAR_NORMS[next(iter(_SCALAR_NORMS))]
    return norm


def operator_norm(x) -> float:
    """Largest singular value of x (a BlockMatrix, finite by construction, or a checked array)."""
    d = x.dense() if isinstance(x, BlockMatrix) else _finite(np.asarray(x, dtype=np.complex128))
    if d.size == 0:
        return 0.0
    return float(np.linalg.norm(d, 2))


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = _finite(np.asarray(a, dtype=np.complex128))
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    if np.abs(a - a.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise ValueError("input is not Hermitian within tolerance")
    return a


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Make the first nonzero component of each column real positive."""
    cols, rows = np.nonzero(np.abs(vecs.T) > 1e-12)  # each column's rows in order
    cols, at = np.unique(cols, return_index=True)
    first = vecs[rows[at], cols]
    out = vecs.copy()
    out[:, cols] /= first / np.hypot(first.real, first.imag)  # abs's bits on a scalar, not np.abs's
    return out


def hermitian_spectral(a: np.ndarray):
    """Eigendecomposition of a Hermitian element as (eigenvalue, projection) pairs.

    Eigenvalues are returned in descending order; near-equal eigenvalues
    (within 1e-12 times the spectral scale) are merged into a
    single spectral projection.  The projections are Hermitian
    idempotents summing to the identity and ``sum l_i P_i`` reconstructs
    the input.
    """
    a = _check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    vals, vecs = vals[::-1], _phase_normalize(vecs[:, ::-1])
    scale = max(1.0, float(np.abs(vals).max())) if vals.size else 1.0
    pairs = []
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and vals[i] - vals[j] <= 1e-12 * scale:
            j += 1
        V = vecs[:, i:j]
        pairs.append((float(vals[i:j].mean()), V @ V.conj().T))
        i = j
    return pairs


def spectral_projection(a: np.ndarray, t: float) -> np.ndarray:
    """Projection onto the eigenspaces of a with eigenvalue >= t.

    The threshold is closed: eigenvalues within 1e-12 below t are
    included.
    """
    a = _check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    V = vecs[:, vals >= t - 1e-12]
    return V @ V.conj().T


def normalized_trace(x: np.ndarray) -> complex:
    """Trace divided by the order, so the identity has trace 1."""
    x = np.asarray(x, dtype=np.complex128)
    return complex(np.trace(x) / x.shape[0])


def block_l2(x: BlockMatrix) -> float:
    """L2 mass (sum_ij tau(x_ij* x_ij))**0.5 over the normalized trace, scaled like verify's."""
    r = np.ravel(x.blocks, order="K").view(np.float64)
    e = int(np.frexp(np.abs(r).max(initial=0.0))[1])
    s = np.ldexp(r, -e).view(np.complex128)
    return float(np.ldexp(np.linalg.norm(s), e) / np.sqrt(x.k))


def fourier_unitary(n: int) -> np.ndarray:
    """The n x n discrete Fourier unitary; every entry has modulus n**-0.5."""
    if not (n >= 1 and float(n).is_integer()):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD element, negative eigenvalues clipped at 0."""
    a = _check_hermitian(a)
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
