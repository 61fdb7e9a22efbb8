"""Core block-matrix arithmetic, norms, and spectral calculus."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    BlockMatrix,
    DiagonalMatrix,
    FactorizationCertificate,
    ShapeMismatchError,
    block_l2,
    direct_sum,
    fourier_unitary,
    hermitian_spectral,
    normalized_trace,
    operator_norm,
    spectral_projection,
)

from oplength.blocks import block_diag

from conftest import random_block, random_entries, random_hermitian


def power_iteration_norm(dense, steps=10_000, seed=0):
    """Independent operator-norm oracle: power iteration on x* x."""
    rng = np.random.default_rng(seed)
    g = dense.conj().T @ dense
    v = rng.standard_normal(g.shape[0]) + 1j * rng.standard_normal(g.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(steps):
        w = g @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
    return float(np.sqrt(np.real(np.vdot(v, g @ v))))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(BlockMatrix.from_dense(np.eye(6), 3)) == pytest.approx(1.0)

    def test_diagonal_scalars(self):
        blocks = np.zeros((2, 2, 1, 1), dtype=complex)
        blocks[0, 0, 0, 0] = 3
        blocks[1, 1, 0, 0] = -4j
        assert operator_norm(BlockMatrix(blocks)) == pytest.approx(4.0)

    def test_against_power_iteration(self, rng):
        x = random_block(rng, 4, 4, 3)
        assert operator_norm(x) == pytest.approx(
            power_iteration_norm(x.dense()), abs=1e-8
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BlockMatrix(np.full((1, 1, 2, 2), np.nan))

    def test_plain_array_is_checked_finite(self):
        # a BlockMatrix refused non-finite entries when it was made; a plain array is checked here
        with pytest.raises(ValueError, match="non-finite entries"):
            operator_norm(np.array([[1.0, np.nan]]))

    def test_empty_is_zero(self):
        assert operator_norm(np.zeros((0, 3))) == 0.0
        assert operator_norm(BlockMatrix(np.zeros((0, 0, 2, 2)))) == 0.0

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_submultiplicative(self, seed):
        r = np.random.default_rng(seed)
        x, y = random_block(r, 3, 3, 2), random_block(r, 3, 3, 2)
        assert operator_norm(x.dense() @ y.dense()) <= operator_norm(x) * operator_norm(y) + 1e-9


class TestHermitianSpectral:
    def test_identity(self):
        pairs = hermitian_spectral(np.eye(3))
        assert len(pairs) == 1
        val, proj = pairs[0]
        assert val == pytest.approx(1.0)
        np.testing.assert_allclose(proj, np.eye(3), atol=1e-12)

    def test_diag_0_2(self):
        pairs = hermitian_spectral(np.diag([0.0, 2.0]))
        assert [v for v, _ in pairs] == pytest.approx([2.0, 0.0])
        np.testing.assert_allclose(pairs[0][1], np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(pairs[1][1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_reconstruction(self, rng):
        a = random_hermitian(rng, 8)
        pairs = hermitian_spectral(a)
        rec = sum(v * P for v, P in pairs)
        assert np.abs(rec - a).max() <= 1e-10
        total = sum(P for _, P in pairs)
        assert np.abs(total - np.eye(8)).max() <= 1e-10
        for v, P in pairs:
            assert np.abs(P @ P - P).max() <= 1e-10
            assert np.abs(P - P.conj().T).max() <= 1e-12
        vals = [v for v, _ in pairs]
        assert vals == sorted(vals, reverse=True)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match=re.escape("input is not Hermitian within tolerance")):
            hermitian_spectral(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestSpectralProjection:
    def test_diag_threshold_between(self):
        q = spectral_projection(np.diag([0.0, 2.0]), 1.0)
        np.testing.assert_allclose(q, np.diag([0.0, 1.0]), atol=1e-12)

    def test_diag_threshold_above(self):
        q = spectral_projection(np.diag([0.0, 2.0]), 3.0)
        np.testing.assert_allclose(q, np.zeros((2, 2)), atol=1e-12)

    def test_closed_threshold_includes_edge(self):
        q = spectral_projection(np.diag([0.0, 2.0]), 2.0)
        np.testing.assert_allclose(q, np.diag([0.0, 1.0]), atol=1e-12)

    def test_random_median(self, rng):
        a = random_hermitian(rng, 8)
        t = float(np.median(np.linalg.eigvalsh(a)))
        q = spectral_projection(a, t)
        assert np.abs(q @ q - q).max() <= 1e-10
        assert np.abs(q - q.conj().T).max() <= 1e-10
        assert np.abs(q @ a - a @ q).max() <= 1e-10

    def test_trace_counts_eigenvalues(self, rng):
        a = random_hermitian(rng, 6)
        t = 0.1
        q = spectral_projection(a, t)
        count = int(np.count_nonzero(np.linalg.eigvalsh(a) >= t - 1e-12))
        assert normalized_trace(q).real == pytest.approx(count / 6, abs=1e-10)


class TestTrace:
    def test_identity(self):
        assert normalized_trace(np.eye(5)) == pytest.approx(1.0)

    def test_matrix_unit(self):
        e11 = np.zeros((4, 4))
        e11[0, 0] = 1
        assert normalized_trace(e11) == pytest.approx(0.25)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_commutation(self, seed):
        r = np.random.default_rng(seed)
        x = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        y = r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4))
        assert abs(normalized_trace(x @ y) - normalized_trace(y @ x)) <= 1e-12


class TestBlockL2:
    def test_zero(self):
        assert block_l2(BlockMatrix(np.zeros((2, 2, 4, 4)))) == 0.0

    def test_single_unitary_block(self):
        blocks = np.zeros((2, 2, 3, 3), dtype=complex)
        blocks[0, 1] = fourier_unitary(3)
        assert block_l2(BlockMatrix(blocks)) == pytest.approx(1.0)

    def test_matches_entrywise_eigenvalue_sums(self, rng):
        x = random_block(rng, 3, 3, 4)
        total = 0.0
        for i in range(3):
            for j in range(3):
                b = x.blocks[i, j]
                total += np.sum(np.linalg.eigvalsh(b.conj().T @ b)).real / 4
        assert block_l2(x) == pytest.approx(np.sqrt(total), abs=1e-12)


class TestFourierUnitary:
    def test_n1(self):
        np.testing.assert_allclose(fourier_unitary(1), [[1.0]])

    def test_n2(self):
        np.testing.assert_allclose(
            fourier_unitary(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_unitary_constant_modulus(self, n):
        w = fourier_unitary(n)
        assert np.abs(w.conj().T @ w - np.eye(n)).max() <= 1e-12
        assert np.abs(np.abs(w) - n ** -0.5).max() <= 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fourier_unitary(0)


class TestBlockDiag:
    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(0, 3), max_size=2),
           sizes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_is_the_block_diag_of_each_slice(self, lead, sizes, seed):
        rng = np.random.default_rng(seed)
        mats = []
        for r, c in sizes:
            m = rng.standard_normal((*lead, r, c)) + 1j * rng.standard_normal((*lead, r, c))
            m[rng.random(m.shape) < 0.2] = complex(-0.0, -0.0)
            mats.append(m)
        out = block_diag(mats)
        assert out.shape == (*lead, sum(r for r, _ in sizes), sum(c for _, c in sizes))
        for idx in np.ndindex(*lead):
            assert out[idx].tobytes() == block_diag([m[idx] for m in mats]).tobytes()


class TestAlgebraInvariants:
    @pytest.mark.parametrize("op", ["__add__", "__sub__"])
    def test_mismatched_shapes_refused(self, op):
        # numpy would broadcast (1, 1, 1, 1) against (2, 2, 2, 2) silently
        with pytest.raises(ShapeMismatchError, match=r"\(1, 1, 1, 1\) vs \(2, 2, 2, 2\)"):
            getattr(BlockMatrix(np.zeros((1, 1, 1, 1))), op)(BlockMatrix(np.ones((2, 2, 2, 2))))

    def test_non_square_refused(self):
        with pytest.raises(ShapeMismatchError, match=r"\(n, n, k, k\) blocks, got \(2, 3, 4, 4\)"):
            BlockMatrix(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeMismatchError, match=r"\(n, n, k, k\) blocks, got \(2, 3, 2, 2\)"):
            BlockMatrix.from_dense(np.zeros((4, 6)), 2)

    @pytest.mark.parametrize("k", [3, 0])
    def test_dense_shape_must_divide_into_blocks(self, k):
        with pytest.raises(ShapeMismatchError, match=rf"dense shape \(4, 4\) not divisible by k={k}"):
            BlockMatrix.from_dense(np.zeros((4, 4)), k)

    @pytest.mark.parametrize("make, named", [
        (lambda: BlockMatrix(np.zeros((1, 1, 0, 0))), "blocks, got (1, 1, 0, 0)"),
        (lambda: DiagonalMatrix(np.zeros((2, 0, 0))), "entries, got (2, 0, 0)"),
        (lambda: DiagonalMatrix.unit(2, 0), "entries, got (2, 0, 0)"),
    ], ids=["block-matrix", "diagonal", "unit-diagonal"])
    def test_block_order_zero_refused(self, make, named):
        # over M_0 a certificate's evaluate would divide by k**2 for its chunk width
        with pytest.raises(ShapeMismatchError, match=re.escape(named)):
            make()

    def test_cstar_identity(self, rng):
        x = random_block(rng, 3, 3, 3)
        n = operator_norm(x)
        nsq = operator_norm(x.dense().conj().T @ x.dense())
        assert abs(nsq - n * n) <= 1e-9 * max(1.0, n * n)

    def test_diagonal_norm_is_max_entry_norm(self, rng):
        entries = random_entries(rng, 5, 3)
        D = DiagonalMatrix(entries)
        expected = max(np.linalg.norm(e, 2) for e in entries)
        assert D.norm() == pytest.approx(expected)
        assert operator_norm(block_diag(entries)) == pytest.approx(expected, abs=1e-10)


def _repeated_diagonal(case, k, rng):
    base = random_entries(rng, 3, k)
    if case == "repeat":
        return DiagonalMatrix(np.repeat(base, 4, axis=0))
    if case == "unit":
        return DiagonalMatrix.unit(5, k)
    if case == "adjoint":
        return DiagonalMatrix(np.repeat(base, 4, axis=0)).adjoint()
    # "signed_zero": bitwise distinct entries equal as numbers
    plus = base.copy()
    plus[:, 0, -1] = 0.0
    minus = plus.copy()
    minus[:, 0, -1] = -0.0
    return DiagonalMatrix(np.concatenate([plus, minus, plus]))


class TestDiagonalNorm:
    @pytest.mark.parametrize("k", [3, 16, 32])
    @pytest.mark.parametrize("case", ["repeat", "unit", "adjoint", "signed_zero"])
    def test_bitwise_equal_to_norm_over_all_entries(self, case, k, rng):
        D = _repeated_diagonal(case, k, rng)
        expected = np.linalg.norm(D.entries, 2, axis=(1, 2)).max()
        assert np.float64(D.norm()).tobytes() == expected.tobytes()

    def test_one_batched_svd_over_all_entries_and_none_on_repeat(self, rng, monkeypatch):
        svd = np.linalg.svd
        batches = []

        def counting_svd(a, *args, **kwargs):
            batches.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        D = _repeated_diagonal("signed_zero", 4, rng)
        first = D.norm()
        assert batches == [9]
        assert D.norm() == first
        assert batches == [9]

    @pytest.mark.parametrize("k", [3, 16])
    @pytest.mark.parametrize("known", [True, False])
    def test_direct_sum_takes_its_norms_from_the_parts(self, k, known, rng, monkeypatch):
        parts = [_repeated_diagonal(case, k, rng) for case in ("repeat", "unit", "adjoint",
                                                                "signed_zero")]
        parts.append(DiagonalMatrix(np.full((2, k, k), -0.0, dtype=complex)))
        if known:
            for D in parts:
                D.norm()
        certs = [FactorizationCertificate((np.ones((1, D.size)), np.ones((D.size, 1))), (D,))
                 for D in parts]
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        summed = direct_sum(certs).diags[0]
        got = summed.norm()
        assert len(calls) == (0 if known else 1)
        expected = DiagonalMatrix(summed.entries).norm()
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_public_constructor_copies_and_derived_entries_are_read_only(self, rng):
        a = random_entries(rng, 3, 2)
        D = DiagonalMatrix(a)
        assert not np.shares_memory(D.entries, a)
        summed, = DiagonalMatrix._sums([[(D, 2.0)], [(D, 1)]], [6], 2)
        for E in (D, D.scaled(2.0), D.adjoint(), summed):
            assert E.entries.dtype == np.complex128 and not E.entries.flags.writeable
        np.testing.assert_array_equal(summed.entries, np.concatenate([a * 2.0, a]))

    def test_scaled_by_one_is_the_same_object(self, rng):
        D = _repeated_diagonal("repeat", 3, rng)
        assert D.scaled(1.0) is D and D.scaled(1) is D
        assert D.scaled(2.0) is not D
