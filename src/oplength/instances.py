"""Deterministic seeded generation of random block-matrix instances."""

from __future__ import annotations

import numpy as np

from .blocks import BlockMatrix
from .constructions import diagonal_partition, pinch

__all__ = ["random_instance", "DISTRIBUTIONS"]

DISTRIBUTIONS = ("gaussian", "haar", "blockdiag")


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def _haar_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = _complex_gaussian(rng, (k, k))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_instance(
    n: int,
    k: int,
    seed: int,
    distribution: str = "gaussian",
    noise: float = 0.1,
) -> BlockMatrix:
    """An n x n instance over M_k, deterministic for a fixed seed.

    ``gaussian``: iid standard complex normal entries.
    ``haar``: independent Haar-distributed unitary blocks.
    ``blockdiag``: pinch-invariant base for the diagonal partition of
    M_k into n blocks, plus ``noise`` times a Gaussian perturbation
    (requires n | k; ``noise=0`` gives an exactly pinch-invariant
    instance).
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if not np.isfinite(noise):
        raise ValueError(f"noise must be finite, got {noise}")
    rng = np.random.default_rng([seed, n, k])
    if distribution == "gaussian":
        return BlockMatrix(_complex_gaussian(rng, (n, n, k, k)))
    if distribution == "haar":
        blocks = np.stack(
            [[_haar_unitary(rng, k) for _ in range(n)] for _ in range(n)]
        )
        return BlockMatrix(blocks)
    if distribution == "blockdiag":
        part = diagonal_partition(n, k)
        base = pinch(BlockMatrix(_complex_gaussian(rng, (n, n, k, k))), part)
        if noise == 0:
            return base
        with np.errstate(over="ignore"):
            blocks = base.blocks + noise * _complex_gaussian(rng, (n, n, k, k))
        if not np.all(np.isfinite(blocks)):
            raise ValueError(f"noise must keep the instance finite, got {noise}")
        return BlockMatrix(blocks)
    raise ValueError(f"unknown distribution {distribution!r}")
