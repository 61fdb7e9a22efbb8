"""Split a block matrix with small L2 mass into a doubly-compressed part
plus a uniformly small remainder.

Given ``sum_ij tau(x_ij* x_ij) < eps**2``, spectral projections of the
row and column Gram square roots at threshold ``eps * sqrt(n)`` have
normalized trace at most 1/n (a Markov bound on the trace), and the
uncompressed remainder is entrywise bounded by ``2 * eps * sqrt(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockMatrix, block_l2, psd_sqrt, spectral_projection

__all__ = ["SpectralSplit", "split_small_l2"]


@dataclass(frozen=True)
class SpectralSplit:
    p: np.ndarray  # projection (k, k)
    q: np.ndarray  # projection (k, k)
    remainder: BlockMatrix  # x minus its compression, entries x_ij - p x_ij q


def split_small_l2(x: BlockMatrix, eps: float) -> SpectralSplit:
    """Compress x through small-trace spectral projections.

    Requires ``block_l2(x) < eps`` strictly; equality up to rounding is
    refused.  The projections commute with their Gram square roots, and
    every remainder entry has norm at most ``2 * eps * sqrt(n)``.
    """
    mass = block_l2(x)
    if not mass < eps:
        raise ValueError(f"L2 mass {mass!r} is not strictly below eps={eps!r}")
    n = x.n
    t = eps * np.sqrt(n)
    a = psd_sqrt(np.einsum("ijba,ijbc->ac", x.blocks.conj(), x.blocks))
    b = psd_sqrt(np.einsum("ijab,ijcb->ac", x.blocks, x.blocks.conj()))
    q = spectral_projection(a, t)
    p = spectral_projection(b, t)
    compressed = BlockMatrix(np.einsum("ab,ijbc,cd->ijad", p, x.blocks, q, optimize=True))
    return SpectralSplit(p=p, q=q, remainder=x - compressed)
