"""Certificate evaluation, verification, padding, addition, conjugation."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    CONSTRUCTIONS,
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
    random_instance,
    restrict_direct_sum,
    universal_depth1,
    verify,
)
from oplength import certs
from oplength.blocks import block_diag, scalar_norm
from oplength.certs import rebalance, rebalance_diags

from conftest import assert_same_bytes, random_block, random_certificate, random_entries


def _rebalance_then_sum(cu, cv):
    """add as it was composed: rebalance each, direct-sum, then concatenate the outer scalars."""
    cu, cv = rebalance(cu), rebalance(cv)
    s = direct_sum([cu, cv])
    alphas = (
        (np.hstack([cu.alphas[0], cv.alphas[0]]),)
        + s.alphas[1:-1]
        + (np.vstack([cu.alphas[-1], cv.alphas[-1]]),)
    )
    return FactorizationCertificate(alphas, s.diags)


def _of_kind(D, kind):
    """D itself, its zero, or the unit diagonal of its shape (norm exactly 1)."""
    if kind == "zero":
        return DiagonalMatrix(np.zeros_like(D.entries))
    return DiagonalMatrix.unit(D.size, D.k) if kind == "unit" else D


class TestEvaluateAndCost:
    def test_diagonal_identity_alphas(self, rng):
        n, k = 3, 2
        x = random_block(rng, n, n, k)
        eye = np.eye(n, dtype=complex)
        diag_entries = np.stack([x.blocks[i, i] for i in range(n)])
        cert = FactorizationCertificate((eye, eye), (DiagonalMatrix(diag_entries),))
        val = evaluate(cert)
        for i in range(n):
            for j in range(n):
                expected = x.blocks[i, i] if i == j else np.zeros((k, k))
                np.testing.assert_allclose(val.blocks[i, j], expected, atol=1e-14)

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

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4), k=st.integers(1, 4),
           d=st.integers(1, 3), widths=st.lists(st.integers(1, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_chunked_product_equals_dense_product(self, seed, n, k, d, widths):
        cert = random_certificate(np.random.default_rng(seed), n=n, k=k, d=d, widths=widths)
        eye = np.eye(k)
        dense = np.kron(cert.alphas[0], eye)
        for D, a in zip(cert.diags, cert.alphas[1:]):
            dense = dense @ block_diag(D.entries) @ np.kron(a, eye)
        # the default budget, then one byte: each block column its own chunk
        for budget in (certs._EVALUATE_CHUNK_BYTES, 1):
            with mock.patch.object(certs, "_EVALUATE_CHUNK_BYTES", budget):
                value = evaluate(cert).dense()
            assert np.abs(value - dense).max() <= 1e-12 * max(1.0, cost(cert)), budget

    def test_evaluate_peak_memory_is_a_few_values(self):
        # sub19 at (6, 12): widths (6, 36, ..., 36, 6) over M_72, so the whole
        # (36*72) x (6*72) intermediate is six times the value, and two are live at once
        cert, _ = CONSTRUCTIONS["sub19"].build(random_instance(6, 12, 7))
        tracemalloc.start()
        try:
            value = evaluate(cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = value.blocks.nbytes
        assert peak < 4 * size, f"peak {peak} bytes for a {size}-byte value"

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

    @pytest.mark.parametrize("widths, named", [
        ((2, 0, 2), "zero width at junction 0"),
        ((2, 3, 0, 2), "zero width at junction 1"),
        ((0, 3, 0), "zero outer width"),
        ((2, 3, 4), "outer shape is not square"),
        ((2, 2), "need d diagonals and d"),
    ])
    def test_zero_width_rejected(self, widths, named):
        alphas = tuple(np.ones((widths[i], widths[i + 1])) for i in range(len(widths) - 1))
        diags = tuple(DiagonalMatrix(np.ones((w, 2, 2))) for w in widths[1:-1])
        with pytest.raises(ShapeMismatchError, match=named):
            FactorizationCertificate(alphas, diags)


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

    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3), extra=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_pad_keeps_value_and_cost(self, seed, d, extra):
        rng = np.random.default_rng(seed)
        cert = random_certificate(rng, n=int(rng.integers(1, 4)), k=int(rng.integers(1, 4)), d=d,
                                  widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
        value, c = evaluate(cert).dense(), cost(cert)
        for deep, depth in ((pad(cert), d + 1), (pad_to(cert, d + extra), d + extra)):
            assert deep.d == depth
            assert np.abs(evaluate(deep).dense() - value).max() <= 1e-12 * max(1.0, c)
            assert abs(cost(deep) - c) <= 1e-12 * c

    @given(seed=st.integers(0, 10**6), d=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_value_and_cost_within_product(self, seed, d):
        rng = np.random.default_rng(seed)
        n, k, m = (int(v) for v in rng.integers(1, 4, size=3))
        inner = random_certificate(rng, n=n, k=k, d=d,
                                   widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
        N = int(rng.integers(1, 5))
        a0, w = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((m, N), (N, n)))
        entries = random_entries(rng, N, k)
        row = RowDecomposition(a0, DiagonalMatrix(entries), w)
        out = conjugate(row, inner)
        eye = np.eye(k)
        L = np.kron(a0, eye) @ block_diag(entries) @ np.kron(w, eye)
        expected = L @ evaluate(inner).dense() @ L.conj().T
        bound = cost(inner) * (scalar_norm(a0) * row.diag.norm() * scalar_norm(w)) ** 2
        assert out.d == d + 2
        assert np.abs(evaluate(out).dense() - expected).max() <= 1e-10 * max(1.0, bound)
        assert cost(out) <= bound * (1 + 1e-9)

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
        report = verify(cert, x + BlockMatrix.from_dense(np.eye(6), 2), 1e-9)
        assert not report.passed
        assert report.recon_error >= 1 - 1e-9

    def test_zero_matrix_zero_certificate(self):
        x = BlockMatrix(np.zeros((2, 2, 2, 2)))
        report = verify(universal_depth1(x), x, 1e-9)
        assert report.passed
        assert report.ratio == 0.0

    def test_zero_target_with_positive_cost_has_infinite_ratio(self):
        # value diag(0, 1) sandwiched to 0; c / tiny overflows, which is the ratio, not a fault
        cert = FactorizationCertificate((np.array([[1.0, 0.0]]), np.array([[10.0], [10.0]])),
                                        (DiagonalMatrix(np.array([[[0.0]], [[1.0]]])),))
        report = verify(cert, BlockMatrix(np.zeros((1, 1, 1, 1))))
        assert report.passed and report.cost == 14.142135623730951
        assert report.ratio == np.inf

    def test_shape_mismatch_is_an_error_not_a_failure(self, rng):
        x = random_block(rng, 3, 3, 2)
        y = random_block(rng, 4, 4, 2)
        with pytest.raises(ShapeMismatchError):
            verify(universal_depth1(x), y)

    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3), near=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_recon_error_bounds_the_residual_norm(self, seed, d, near):
        rng = np.random.default_rng(seed)
        n, k = (int(v) for v in rng.integers(1, 4, size=2))
        cert = random_certificate(rng, n=n, k=k, d=d,
                                  widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
        x = random_block(rng, n, n, k)
        if near:
            x = evaluate(cert) + x * 1e-13
        sigma = np.linalg.norm((evaluate(cert) - x).dense(), 2)
        recon = verify(cert, x).recon_error
        assert sigma <= recon <= np.sqrt(n * k) * sigma * (1 + 1e-12)

    def test_same_target_bytes_are_verified_once(self, rng, monkeypatch):
        cert = random_certificate(rng, n=2, k=3)
        x = random_block(rng, 2, 2, 3)
        calls = []
        monkeypatch.setattr(certs, "evaluate", lambda c: calls.append(c) or evaluate(c))
        first = verify(cert, x)
        assert verify(cert, BlockMatrix(x.blocks.copy())) == first
        assert len(calls) == 1
        strict = verify(cert, x, 0.0)
        assert (strict.recon_error, strict.cost, strict.lower) == (
            first.recon_error, first.cost, first.lower)
        assert strict.tol == 0.0 and not strict.passed
        y = evaluate(cert)
        other = verify(cert, y)
        assert len(calls) == 2 and other.passed and other != first
        assert other == verify(FactorizationCertificate(cert.alphas, cert.diags), y)

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-9])
    def test_tol_must_be_finite_and_non_negative(self, rng, tol):
        x = random_block(rng, 2, 2, 2)
        with pytest.raises(ValueError, match="tol"):
            verify(universal_depth1(x), x, tol)

    def test_scalar_factors_are_read_only_copies(self):
        alphas = [np.eye(2, dtype=complex), np.eye(2, dtype=complex)]
        cert = FactorizationCertificate(tuple(alphas), (DiagonalMatrix.unit(2, 2),))
        alphas[0][0, 0] = 5.0
        assert cert.alphas[0][0, 0] == 1.0
        for a in cert.alphas:
            with pytest.raises(ValueError):
                a[0, 0] = 2.0


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
        cz = universal_depth1(BlockMatrix(np.zeros((2, 2, 2, 2))))
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

    def test_interior_norms_whose_product_overflows(self):
        # cost 1 from 1e-200, 1e200, 1, 1e200, 1e-200: the interior product alone is 1e400
        eye = np.eye(2)
        D = DiagonalMatrix(1e200 * np.ones((2, 1, 1)))
        c = FactorizationCertificate((1e-200 * eye, eye, 1e-200 * eye), (D, D))
        assert verify(c, BlockMatrix.from_dense(eye, 1)).passed
        r = rebalance(c)
        assert scalar_norm(r.alphas[0]) == scalar_norm(r.alphas[-1]) == 1.0
        report = verify(r, BlockMatrix.from_dense(eye, 1))
        assert report.passed and report.cost == 1.0
        report = verify(add(c, c), BlockMatrix.from_dense(2 * eye, 1))
        assert report.passed and report.recon_error == 0.0
        assert report.cost == pytest.approx(2.0, rel=1e-12)

    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3), zero_alpha=st.booleans(),
           kinds=st.lists(st.sampled_from(["random", "zero", "unit"]), min_size=6, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_bytes_of_the_rebalanced_direct_sum(self, seed, d, zero_alpha, kinds):
        # zero and norm-1 diagonals take factor 1, the path that copies and keeps norms
        rng = np.random.default_rng(seed)
        n, k = (int(v) for v in rng.integers(1, 4, size=2))
        pair = []
        for j in range(2):
            c = random_certificate(rng, n=n, k=k, d=d,
                                   widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
            alphas = (0 * c.alphas[0],) + c.alphas[1:] if zero_alpha and j else c.alphas
            diags = tuple(_of_kind(D, kind) for D, kind in zip(c.diags, kinds[3 * j:]))
            pair.append(FactorizationCertificate(alphas, diags))
        assert_same_bytes(add(*pair), _rebalance_then_sum(*pair))

    def test_peak_memory_is_about_the_sum(self):
        # rebalanced copies of both inputs, concatenated into a third array, peaked at 2.07x
        cu, _ = CONSTRUCTIONS["t13"].build(random_instance(6, 24, 1))
        cv, _ = CONSTRUCTIONS["t13"].build(random_instance(6, 24, 2))
        tracemalloc.start()
        try:
            total = add(cu, cv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(D.entries.nbytes for D in total.diags)
        assert peak < 1.5 * size, f"peak {peak} bytes for {size} bytes of summed diagonals"

    def test_depth_mismatch_rejected(self, rng):
        cu = random_certificate(rng, d=1, widths=(3,))
        cv = random_certificate(rng, d=2)
        with pytest.raises(ShapeMismatchError):
            add(cu, cv)

    @pytest.mark.parametrize("d, k", [(2, 2), (1, 3)], ids=["depth", "block-order"])
    def test_direct_summands_must_share_depth_and_block_order(self, rng, d, k):
        with pytest.raises(ShapeMismatchError, match="share depth and block order"):
            direct_sum([random_certificate(rng, d=1, k=2), random_certificate(rng, d=d, k=k)])


def _identity_row(n, k):
    eye = np.eye(n, dtype=complex)
    return RowDecomposition(eye, DiagonalMatrix.unit(n, k), eye)


class TestConjugate:
    def test_identity_decomposition(self, rng):
        inner = random_certificate(rng, n=3, k=2)
        out = conjugate(_identity_row(3, 2), inner)
        assert out.d == inner.d + 2
        assert operator_norm(evaluate(out) - evaluate(inner)) <= 1e-10

    def test_evaluate_contract(self, rng):
        n, k = 2, 2
        inner = random_certificate(rng, n=n, k=k)
        a0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        diag = DiagonalMatrix(random_entries(rng, n, k))
        W = fourier_unitary(n)
        out = conjugate(RowDecomposition(a0, diag, W), inner)
        L = np.kron(a0, np.eye(k)) @ block_diag(diag.entries) @ np.kron(W, np.eye(k))
        expected = L @ evaluate(inner).dense() @ L.conj().T
        assert operator_norm(evaluate(out).dense() - expected) <= 1e-10

    def test_contractive_decompositions_preserve_cost(self, rng):
        inner = random_certificate(rng, n=2, k=2)
        out = conjugate(_identity_row(2, 2), inner)
        assert cost(out) <= cost(inner) * (1 + 1e-9)

    def test_row_decomposition_widths_must_chain(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ShapeMismatchError, match="widths do not chain"):
            RowDecomposition(eye, DiagonalMatrix.unit(3, 2), eye)

    def test_mismatched_row_rejected(self, rng):
        inner = random_certificate(rng, n=2, k=2)
        with pytest.raises(ShapeMismatchError, match="does not chain"):
            conjugate(_identity_row(3, 2), inner)
        with pytest.raises(ShapeMismatchError, match="block order"):
            conjugate(_identity_row(2, 3), inner)


class TestRebalanceHelpers:
    @given(seed=st.integers(0, 10**6), d=st.integers(1, 3),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_rebalance_keeps_value_and_splits_cost(self, seed, d, scale):
        rng = np.random.default_rng(seed)
        n, k = (int(v) for v in rng.integers(1, 4, size=2))
        cert = random_certificate(rng, n=n, k=k, d=d,
                                  widths=tuple(int(w) for w in rng.integers(1, 5, size=d)))
        i = seed % d
        diags = cert.diags[:i] + (cert.diags[i].scaled(scale),) + cert.diags[i + 1:]
        cert = FactorizationCertificate(cert.alphas, diags)
        out = rebalance(cert)
        c = cost(cert)
        assert np.abs(evaluate(out).dense() - evaluate(cert).dense()).max() <= 1e-12 * max(1.0, c)
        for f in out.alphas[1:-1]:
            assert scalar_norm(f) <= 1 + 1e-12
        for D in out.diags:
            assert D.norm() <= 1 + 1e-12
        a0, ad = scalar_norm(out.alphas[0]), scalar_norm(out.alphas[-1])
        assert abs(a0 - ad) <= 1e-12 * max(1.0, a0)
        assert abs(cost(out) - c) <= 1e-12 * max(1.0, c)

    @given(seed=st.integers(0, 10**6), count=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_norm_product_has_the_bits_of_the_plain_product(self, seed, count):
        rng = np.random.default_rng(seed)
        # at most six norms in e^[-40, 40] keep the product and the result normal
        norms = [float(v) for v in np.exp(rng.uniform(-40, 40, size=count))]
        a = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))).T  # not C-contiguous
        a[0, 0] = complex(-0.0, -1.0)  # the complex multiply turns this zero's sign
        got, want = certs._times_norms(a, norms), a * math.prod(norms)
        assert got.tobytes() == want.tobytes() and got.strides == want.strides

    def test_unit_norm_product_keeps_the_first_diagonal_itself(self, rng):
        cert = random_certificate(rng, d=2)
        unit = DiagonalMatrix.unit(cert.diags[1].size, cert.k)
        cert = FactorizationCertificate(cert.alphas, (cert.diags[0], unit))
        assert rebalance_diags(cert).diags[0] is cert.diags[0]

    def test_rebalance_diags_refuses_where_the_moved_norms_overflow(self):
        # cost 1, but the two 1e200 diagonal norms multiply to 1e400 on the first diagonal
        eye = np.eye(2)
        D = DiagonalMatrix(1e200 * np.ones((2, 1, 1)))
        c = FactorizationCertificate((1e-200 * eye, eye, 1e-200 * eye), (D, D))
        with pytest.raises(ValueError, match=r"the norms moved onto diags\[0\] overflow"):
            rebalance_diags(c)
        assert cost(c) == 0.9999999999999998

    def test_pad_to(self, rng):
        cert = random_certificate(rng, d=1, widths=(4,))
        deep = pad_to(cert, 4)
        assert deep.d == 4
        assert operator_norm(evaluate(deep) - evaluate(cert)) <= 1e-12
