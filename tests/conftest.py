import numpy as np
import pytest

from oplength import BlockMatrix, DiagonalMatrix, FactorizationCertificate


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_block(rng, m, n, k):
    z = rng.standard_normal((m, n, k, k)) + 1j * rng.standard_normal((m, n, k, k))
    return BlockMatrix(z / np.sqrt(2))


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
        DiagonalMatrix(random_block(rng, 1, ws[i + 1], k).blocks[0]) for i in range(d)
    )
    return FactorizationCertificate(alphas, diags)
