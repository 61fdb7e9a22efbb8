"""Spectral splitting of block matrices with small L2 mass."""

import numpy as np
import pytest

from oplength import (
    BlockMatrix,
    MassPreconditionError,
    block_l2,
    normalized_trace,
    psd_sqrt,
    split_small_l2,
)

from conftest import random_block


def small_instance(rng, n, k, eps):
    x = random_block(rng, n, n, k)
    return x * (0.5 * eps / max(block_l2(x), 1e-300))


def entry_norms(x):
    return [np.linalg.norm(b, 2) for b in x.blocks.reshape(-1, x.k, x.k)]


def gram_roots(x):
    """The column and row Gram square roots (sum x* x)**0.5 and (sum x x*)**0.5."""
    a = psd_sqrt(np.einsum("ijba,ijbc->ac", x.blocks.conj(), x.blocks))
    b = psd_sqrt(np.einsum("ijab,ijcb->ac", x.blocks, x.blocks.conj()))
    return a, b


class TestPreconditions:
    def test_mass_too_large_refused(self, rng):
        x = random_block(rng, 2, 2, 4)
        eps = 0.5 * block_l2(x)
        with pytest.raises(MassPreconditionError) as info:
            split_small_l2(x, eps)
        assert info.value.measured == pytest.approx(block_l2(x))
        assert info.value.eps == eps

    def test_equality_refused(self):
        blocks = np.zeros((1, 1, 2, 2), dtype=complex)
        blocks[0, 0] = np.eye(2)
        x = BlockMatrix(blocks)
        with pytest.raises(MassPreconditionError):
            split_small_l2(x, block_l2(x))


class TestInvariants:
    @pytest.mark.parametrize("n,k", [(2, 4), (3, 9), (4, 12)])
    def test_projection_traces(self, rng, n, k):
        s = split_small_l2(small_instance(rng, n, k, 0.1), 0.1)
        for pm in (s.p, s.q):
            assert np.abs(pm @ pm - pm).max() <= 1e-10
            assert np.abs(pm - pm.conj().T).max() <= 1e-12
            assert normalized_trace(pm).real <= 1 / n + 1e-9

    def test_markov_trace_bound_tight_family(self, rng):
        # A rank-one structured instance where the Markov bound is attained.
        n, k = 2, 4
        blocks = np.zeros((n, n, k, k), dtype=complex)
        blocks[0, 0, 0, 0] = 0.9 * 0.1 * np.sqrt(n)
        x = BlockMatrix(blocks)
        s = split_small_l2(x, 0.1 * np.sqrt(x.blocks[0, 0, 0, 0].real * 0) + 0.2)
        assert normalized_trace(s.p).real <= 1 / n + 1e-12

    def test_decomposition_exact(self, rng):
        x = small_instance(rng, 3, 6, 0.2)
        s = split_small_l2(x, 0.2)
        assert np.abs((s.compressed + s.remainder - x).blocks).max() <= 1e-12

    def test_compressed_is_double_compression(self, rng):
        x = small_instance(rng, 3, 6, 0.2)
        s = split_small_l2(x, 0.2)
        expected = np.einsum("ab,ijbc,cd->ijad", s.p, x.blocks, s.q)
        assert np.abs(s.compressed.blocks - expected).max() <= 1e-12

    def test_remainder_entry_bound(self, rng):
        for n, k in [(2, 4), (3, 9)]:
            eps = 0.15
            x = small_instance(rng, n, k, eps)
            s = split_small_l2(x, eps)
            bound = 2 * eps * np.sqrt(n) + 1e-9
            assert max(entry_norms(s.remainder)) <= bound

    def test_intermediate_one_sided_bounds(self, rng):
        # Each one-sided compression x(1-q) and (1-p)x is entrywise small.
        n, k, eps = 3, 9, 0.15
        x = small_instance(rng, n, k, eps)
        s = split_small_l2(x, eps)
        t = eps * np.sqrt(n)
        qc = np.eye(k) - s.q
        pc = np.eye(k) - s.p
        right = BlockMatrix(np.einsum("ijab,bc->ijac", x.blocks, qc))
        left = BlockMatrix(np.einsum("ab,ijbc->ijac", pc, x.blocks))
        assert max(entry_norms(right)) <= t + 1e-9
        assert max(entry_norms(left)) <= t + 1e-9

    def test_gram_roots_psd_and_consistent(self, rng):
        x = small_instance(rng, 2, 6, 0.2)
        a, b = gram_roots(x)
        for g, gram in (
            (a, np.einsum("ijba,ijbc->ac", x.blocks.conj(), x.blocks)),
            (b, np.einsum("ijab,ijcb->ac", x.blocks, x.blocks.conj())),
        ):
            assert np.abs(g - g.conj().T).max() <= 1e-10
            assert np.linalg.eigvalsh(g).min() >= -1e-10
            assert np.abs(g @ g - gram).max() <= 1e-9

    def test_projections_commute_with_roots(self, rng):
        x = small_instance(rng, 3, 6, 0.2)
        s = split_small_l2(x, 0.2)
        a, b = gram_roots(x)
        assert np.abs(s.q @ a - a @ s.q).max() <= 1e-9
        assert np.abs(s.p @ b - b @ s.p).max() <= 1e-9

    def test_zero_matrix(self):
        x = BlockMatrix.zeros(2, 2, 4)
        s = split_small_l2(x, 0.1)
        assert not np.any(s.p) and not np.any(s.q)
        assert np.abs(s.remainder.blocks).max() == 0.0


class TestStructuredNonDegenerate:
    def test_spiky_instance_has_nonzero_projection(self, rng):
        # Concentrate mass on one matrix unit so the Gram root exceeds the
        # threshold in one direction while the total L2 mass stays small.
        n, k, eps = 2, 8, 0.3
        blocks = np.zeros((n, n, k, k), dtype=complex)
        blocks[0, 0, 0, 0] = 0.9 * eps * np.sqrt(k)
        x = BlockMatrix(blocks)
        assert block_l2(x) < eps
        s = split_small_l2(x, eps)
        assert normalized_trace(s.p).real > 0
        assert normalized_trace(s.p).real <= 1 / n + 1e-12
        assert np.abs(s.remainder.blocks).max() <= 1e-12
