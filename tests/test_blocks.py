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
    matrix_unit_family,
    normalized_trace,
    operator_norm,
    projection_isometries,
    psd_sqrt,
    spectral_projection,
)

from oplength import blocks
from oplength.blocks import block_diag, scalar_norm
from oplength.constructions import _diagonal_family

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

    def test_rejects_non_integral(self):
        # a 2 x 2 matrix of entries of modulus 1.5**-0.5 is not unitary
        with pytest.raises(ValueError, match="n must be a positive integer, got 1.5"):
            fourier_unitary(1.5)


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


def _zero_one_stacks(case, rng):
    """(N, k, k) stacks of 0/1 entries with at most one 1 in each row and column."""
    if case == "diagonal_family":
        return [s for n, k in ((1, 3), (2, 4), (3, 6), (4, 16), (8, 32)) for m in range(n)
                for fam in [_diagonal_family(n, k, m)] for s in (fam.a, fam.b, fam.c, fam.d)]
    if case == "matrix_unit_family":
        return [s for base, n in ((1, 1), (2, 3), (3, 4)) for r in range(1, n + 1)
                for c in range(1, n + 1) for fam in [matrix_unit_family(base, n, r, c)]
                for s in (fam.a, fam.b, fam.c, fam.d)]
    if case == "unit":
        return [DiagonalMatrix.unit(size, k).entries for size, k in ((1, 1), (3, 2), (5, 16))]
    if case == "zero":
        return [np.zeros((4, 3, 3), dtype=complex), np.zeros((0, 2, 2), dtype=complex)]
    if case == "signed_zero":
        e = np.array(_diagonal_family(2, 4, 0).a)  # conjugated: 1 - 0j and -0 imaginary parts
        f = np.where(e == 0, complex(-0.0, -0.0), e)
        return [e, f, np.full((2, 3, 3), complex(-0.0, 0.0))]
    stacks = []  # "permutation": random permutation submatrices, k <= 64
    for k in (1, 2, 3, 5, 8, 16, 64):
        for _ in range(20):
            e = np.zeros((int(rng.integers(1, 5)), k, k), dtype=complex)
            for entry in e:
                r = int(rng.integers(0, k + 1))
                entry[rng.permutation(k)[:r], rng.permutation(k)[:r]] = 1
            stacks.append(e)
    return stacks


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("fn", [hermitian_spectral, lambda a: spectral_projection(a, 0.5),
                                psd_sqrt, lambda a: projection_isometries(a, 1)],
                         ids=["hermitian_spectral", "spectral_projection", "psd_sqrt",
                              "projection_isometries"])
def test_non_finite_entries_refused(fn, bad):
    with pytest.raises(ValueError, match="non-finite entries"):
        fn(np.diag([bad, 1.0]))


def _phase_normalize_by_columns(vecs):
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            out[:, j] = col / (col[nz[0]] / abs(col[nz[0]]))
    return out


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (8, 5), (16, 16), (0, 3), (3, 0)])
def test_phase_normalize_has_the_bytes_of_a_column_loop(shape, rng):
    # zero, tiny and real columns, and columns whose first entry is below the cut
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if shape[1] >= 3 and shape[0] >= 2:
        v[:, 0] = 0
        v[0, 1], v[:, 2] = 1e-13, 1e-13j
        v[-1, 2] = -2.5
    if shape[1] >= 4:
        v[:, 3] = v[:, 3].real
    got, want = blocks._phase_normalize(v), _phase_normalize_by_columns(v)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestScalarNorm:
    def test_memo_returns_the_svd_bits_stays_bounded_and_keeps_no_array(self, rng, monkeypatch):
        a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        b = np.kron(np.eye(2), a[:2, :3])  # signed zeros from the complex products
        for m in (a, a.T, a.conj().T, b, -b, np.ascontiguousarray(a.T)):
            want = np.float64(np.linalg.norm(m, 2)).tobytes()
            for _ in range(2):  # computed, then from the memo
                assert np.float64(scalar_norm(m)).tobytes() == want
        for i in range(blocks._SCALAR_NORMS_MAX + 5):
            scalar_norm(a * (i + 2))
            scalar_norm(b)  # used throughout, so kept while the others come and go
        memo = blocks._SCALAR_NORMS
        assert len(memo) == blocks._SCALAR_NORMS_MAX
        assert all(type(v) is float for v in memo.values())
        assert not any(isinstance(part, np.ndarray) for key in memo for part in key)
        norm, calls = np.linalg.norm, []
        monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
        scalar_norm(b)
        assert calls == []
        scalar_norm(a * 2)  # the least recently used went first
        assert calls == [1]

    def test_unit_diagonal_is_a_read_only_identity(self):
        D = DiagonalMatrix.unit(3, 2)
        assert D.entries.tobytes() == np.stack([np.eye(2, dtype=complex)] * 3).tobytes()
        assert not D.entries.flags.writeable


class TestDiagonalNorm:
    @pytest.mark.parametrize("k", [3, 16, 32])
    @pytest.mark.parametrize("case", ["repeat", "unit", "adjoint", "signed_zero"])
    def test_bitwise_equal_to_norm_over_all_entries(self, case, k, rng):
        D = _repeated_diagonal(case, k, rng)
        expected = np.linalg.norm(D.entries, 2, axis=(1, 2)).max()
        assert np.float64(D.norm()).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", ["diagonal_family", "matrix_unit_family", "unit", "zero",
                                      "signed_zero", "permutation"])
    def test_zero_one_partial_isometry_norm_has_the_svd_bytes_with_no_svd(self, case, rng,
                                                                         monkeypatch):
        stacks = _zero_one_stacks(case, rng)
        want = [np.float64(np.linalg.svd(e, compute_uv=False).max(initial=0.0)).tobytes()
                for e in stacks]
        monkeypatch.setattr(np.linalg, "svd", None)  # the rule reads the entries only
        assert [np.float64(DiagonalMatrix(e).norm()).tobytes() for e in stacks] == want

    @pytest.mark.parametrize("entry, want", [([[1, 1], [0, 0]], np.sqrt(2)),
                                             ([[2, 0], [0, 1]], 2.0)], ids=["two-ones", "two"])
    def test_other_entries_take_the_svd(self, entry, want, monkeypatch):
        e = np.stack([np.eye(2), entry]).astype(complex)
        expected = np.linalg.svd(e, compute_uv=False).max(initial=0.0)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        assert np.float64(DiagonalMatrix(e).norm()).tobytes() == expected.tobytes()
        assert calls == [1] and expected == pytest.approx(want)

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
        # the sum finds its norm from its entries, whether or not the parts know theirs:
        # one SVD batch over data, none over 0/1 entries
        data = [_repeated_diagonal(case, k, rng) for case in ("repeat", "adjoint", "signed_zero")]
        data.append(DiagonalMatrix(np.full((2, k, k), -0.0, dtype=complex)))
        zero_one = [DiagonalMatrix.unit(5, k), DiagonalMatrix(np.zeros((2, k, k)))]
        if known:
            for D in data + zero_one:
                D.norm()
        svd = np.linalg.svd
        calls = []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
        for parts, svds in ((data + zero_one, 1), (zero_one, 0)):
            certs = [FactorizationCertificate((np.ones((1, D.size)), np.ones((D.size, 1))), (D,))
                     for D in parts]
            calls.clear()
            got = direct_sum(certs).diags[0].norm()
            assert len(calls) == svds
            expected = max(D.norm() for D in parts)
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
