import numpy as np
import pytest

from oplength import BlockMatrix, DiagonalMatrix, FactorizationCertificate


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_entries(rng, N, k):
    """N standard complex Gaussian (k, k) blocks, as the entries of a DiagonalMatrix."""
    z = rng.standard_normal((N, k, k)) + 1j * rng.standard_normal((N, k, k))
    return z / np.sqrt(2)


def random_block(rng, m, n, k):
    return BlockMatrix(random_entries(rng, m * n, k).reshape(m, n, k, k))


def random_hermitian(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return (z + z.conj().T) / 2


def random_certificate(rng, n=2, k=2, d=2, widths=(3, 4)):
    ws = (n,) + tuple(widths[:d]) + (n,)
    alphas = tuple(
        (rng.standard_normal((ws[i], ws[i + 1])) + 1j * rng.standard_normal((ws[i], ws[i + 1])))
        for i in range(d + 1)
    )
    diags = tuple(
        DiagonalMatrix(random_entries(rng, ws[i + 1], k)) for i in range(d)
    )
    return FactorizationCertificate(alphas, diags)
