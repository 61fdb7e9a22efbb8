"""Certificate evaluation, verification, padding, addition, conjugation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    BlockMatrix,
    DiagonalMatrix,
    FactorizationCertificate,
    RowDecomposition,
    ShapeMismatchError,
    add,
    conjugate,
    cost,
    direct_sum,
    direct_sum_certificate,
    evaluate,
    fourier_unitary,
    operator_norm,
    pad,
    pad_to,
    restrict_direct_sum,
    universal_depth1,
    verify,
)
from oplength.blocks import block_diag

from conftest import random_block


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


class TestEvaluateAndCost:
    def test_diagonal_identity_alphas(self, rng):
        n, k = 3, 2
        x = random_block(rng, n, n, k)
        eye = np.eye(n, dtype=complex)
        diag_entries = np.stack([x.entry(i, i) for i in range(n)])
        cert = FactorizationCertificate((eye, eye), (DiagonalMatrix(diag_entries),))
        val = evaluate(cert)
        for i in range(n):
            for j in range(n):
                expected = x.entry(i, i) if i == j else np.zeros((k, k))
                np.testing.assert_allclose(val.entry(i, j), expected, atol=1e-14)

    def test_construction_round_trip(self, rng):
        x = random_block(rng, 4, 4, 3)
        cert = universal_depth1(x)
        assert operator_norm(evaluate(cert) - x) <= 1e-12

    def test_unit_diagonals_give_inflated_scalar_product(self):
        n, k = 3, 2
        W = fourier_unitary(n)
        eye = np.eye(n, dtype=complex)
        unit = DiagonalMatrix.unit(n, k)
        cert = FactorizationCertificate((eye, W, W, eye), (unit, unit, unit))
        expected = BlockMatrix.from_dense(np.kron(W @ W, np.eye(k)), k)
        assert operator_norm(evaluate(cert) - expected) <= 1e-12

    def test_cost_of_identities(self):
        eye = np.eye(2, dtype=complex)
        cert = FactorizationCertificate((eye, eye), (DiagonalMatrix.unit(2, 3),))
        assert cost(cert) == pytest.approx(1.0)

    def test_cost_homogeneous_in_diagonal(self, rng):
        cert = random_certificate(rng)
        assert cost(cert.scaled(2.5)) == pytest.approx(2.5 * cost(cert))

    def test_cost_dominates_norm(self, rng):
        for _ in range(10):
            cert = random_certificate(rng)
            assert cost(cert) >= operator_norm(evaluate(cert)) - 1e-9

    def test_shape_mismatch_rejected(self, rng):
        cert = random_certificate(rng)
        bad = cert.alphas[:-1] + (np.ones((99, 2), dtype=complex),)
        with pytest.raises(ShapeMismatchError):
            FactorizationCertificate(bad, cert.diags)


class TestAlgebraProperties:
    @given(seed=st.integers(0, 10**6), count=st.integers(1, 3), d=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_direct_sum_value_is_block_diagonal(self, seed, count, d):
        rng = np.random.default_rng(seed)
        cs = [
            random_certificate(rng, n=int(rng.integers(1, 4)), d=d,
                               widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
            for _ in range(count)
        ]
        got = evaluate(direct_sum(cs)).dense()
        want = block_diag([evaluate(c).dense() for c in cs])
        assert np.abs(got - want).max() <= 1e-10 * max(1.0, max(cost(c) for c in cs))

    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_add_value_and_subadditive_cost(self, seed, d):
        rng = np.random.default_rng(seed)
        cu, cv = (
            random_certificate(rng, n=2, d=d,
                               widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
            for _ in range(2)
        )
        total = add(cu, cv)
        err = operator_norm(evaluate(total) - (evaluate(cu) + evaluate(cv)))
        assert err <= 1e-10 * max(1.0, cost(cu) + cost(cv))
        assert cost(total) <= (cost(cu) + cost(cv)) * (1 + 1e-9)

    @given(
        seed=st.integers(0, 10**6),
        count=st.integers(1, 3),
        n=st.integers(1, 3),
        construction=st.sampled_from(["length1", "lemma5", "sub18", "sub19", "t13"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_restricted_direct_sum_verifies(self, seed, count, n, construction):
        rng = np.random.default_rng(seed)
        xs = [random_block(rng, n, n, 2 * n) for _ in range(count)]
        cert, targets = direct_sum_certificate(xs, construction)
        for i, target in enumerate(targets):
            assert verify(restrict_direct_sum(cert, i, count), target, 1e-9).passed


class TestVerify:
    def test_round_trip_passes(self, rng):
        x = random_block(rng, 3, 3, 2)
        assert verify(universal_depth1(x), x, 1e-9).passed

    def test_perturbed_target_fails(self, rng):
        x = random_block(rng, 3, 3, 2)
        cert = universal_depth1(x)
        report = verify(cert, x + BlockMatrix.identity(3, 2), 1e-9)
        assert not report.passed
        assert report.recon_error >= 1 - 1e-9

    def test_zero_matrix_zero_certificate(self):
        x = BlockMatrix.zeros(2, 2, 2)
        report = verify(universal_depth1(x), x, 1e-9)
        assert report.passed
        assert report.ratio == 0.0

    def test_shape_mismatch_is_an_error_not_a_failure(self, rng):
        x = random_block(rng, 3, 3, 2)
        y = random_block(rng, 4, 4, 2)
        with pytest.raises(ShapeMismatchError):
            verify(universal_depth1(x), y)


class TestPad:
    def test_value_preserved(self, rng):
        x = random_block(rng, 2, 2, 2)
        cert = universal_depth1(x)
        assert operator_norm(evaluate(pad(cert)) - x) <= 1e-12

    def test_cost_preserved(self, rng):
        for _ in range(5):
            cert = random_certificate(rng)
            assert abs(cost(pad(cert)) - cost(cert)) <= 1e-12 * max(1, cost(cert))

    def test_double_pad_depth_and_value(self, rng):
        cert = random_certificate(rng, d=1, widths=(4,))
        twice = pad(pad(cert))
        assert twice.d == cert.d + 2
        assert operator_norm(evaluate(twice) - evaluate(cert)) <= 1e-12


class TestAdd:
    def test_add_zero(self, rng):
        x = random_block(rng, 2, 2, 2)
        cu = universal_depth1(x)
        cz = universal_depth1(BlockMatrix.zeros(2, 2, 2))
        total = add(cu, cz)
        assert operator_norm(evaluate(total) - x) <= 1e-10

    def test_add_self(self, rng):
        x = random_block(rng, 3, 3, 2)
        c = universal_depth1(x)
        total = add(c, c)
        assert operator_norm(evaluate(total) - 2 * x) <= 1e-10
        assert cost(total) <= 2 * cost(c) + 1e-9

    def test_subadditive_cost(self, rng):
        for _ in range(5):
            cu = random_certificate(rng)
            cv = random_certificate(rng, widths=(5, 2))
            total = add(cu, cv)
            assert operator_norm(
                evaluate(total) - (evaluate(cu) + evaluate(cv))
            ) <= 1e-10
            assert cost(total) <= cost(cu) + cost(cv) + 1e-9

    def test_depth_mismatch_rejected(self, rng):
        cu = random_certificate(rng, d=1, widths=(3,))
        cv = random_certificate(rng, d=2)
        with pytest.raises(ShapeMismatchError):
            add(cu, cv)


class TestConjugate:
    def test_identity_decomposition(self, rng):
        inner = random_certificate(rng, n=3, k=2)
        row = RowDecomposition.identity(3, 2)
        out = conjugate(row, inner, row)
        assert out.d == inner.d + 2
        assert operator_norm(evaluate(out) - evaluate(inner)) <= 1e-10

    def test_evaluate_contract(self, rng):
        n, k = 2, 2
        inner = random_certificate(rng, n=n, k=k)
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        diag = DiagonalMatrix(random_block(rng, 1, n, k).blocks[0])
        w = fourier_unitary(n)
        left = RowDecomposition(a0, diag, w)
        right = RowDecomposition.identity(n, k)
        out = conjugate(left, inner, right)
        L = left.as_block_matrix()
        R = right.as_block_matrix()
        expected = L @ evaluate(inner) @ R.adjoint()
        assert operator_norm(evaluate(out) - expected) <= 1e-10

    def test_contractive_decompositions_preserve_cost(self, rng):
        inner = random_certificate(rng, n=2, k=2)
        row = RowDecomposition.identity(2, 2)
        out = conjugate(row, inner, row)
        assert cost(out) <= cost(inner) * (1 + 1e-9)


class TestRebalanceHelpers:
    def test_pad_to(self, rng):
        cert = random_certificate(rng, d=1, widths=(4,))
        deep = pad_to(cert, 4)
        assert deep.d == 4
        assert operator_norm(evaluate(deep) - evaluate(cert)) <= 1e-12
