"""Completely bounded norm estimators and certificate transport."""

import numpy as np
import pytest

from oplength import (
    CbLowerBound,
    InnerDerivation,
    SimilarityHom,
    cb_lower_bound,
    cost,
    derivation_check,
    evaluate,
    norm_lower,
    operator_norm,
    push_through,
    similarity_cb_check,
    universal_depth1,
)
from oplength.simhom import _apply_amplified

from conftest import random_block


class TestSimilarityHom:
    def test_identity_map(self):
        u = SimilarityHom(np.eye(3))
        x = np.arange(9.0).reshape(3, 3)
        np.testing.assert_allclose(u.apply(x), x)
        assert u.norm_upper() == pytest.approx(1.0)

    def test_apply_matches_definition(self, rng):
        xi = np.diag([2.0, 1.0]) + 0.1 * rng.standard_normal((2, 2))
        u = SimilarityHom(xi)
        x = rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            u.apply(x), np.linalg.inv(xi) @ x @ xi, atol=1e-12
        )

    def test_adjoint_trace_pairing(self, rng):
        u = SimilarityHom(np.diag([3.0, 1.0, 1.0]))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(y.conj().T @ u.apply(x))
        rhs = np.trace(u.apply_adjoint(y).conj().T @ x)
        assert abs(lhs - rhs) <= 1e-10

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            SimilarityHom(np.zeros((2, 2)))


class TestInnerDerivation:
    def test_apply(self, rng):
        T = rng.standard_normal((3, 3))
        d = InnerDerivation(T)
        x = rng.standard_normal((3, 3))
        np.testing.assert_allclose(d.apply(x), x @ T - T @ x)

    def test_kills_identity(self):
        d = InnerDerivation(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(d.apply(np.eye(2)), 0)

    def test_adjoint_pairing(self, rng):
        d = InnerDerivation(rng.standard_normal((3, 3)))
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(y.conj().T @ d.apply(x))
        rhs = np.trace(d.apply_adjoint(y).conj().T @ x)
        assert abs(lhs - rhs) <= 1e-10


class TestAmplification:
    def test_level1_is_plain_apply(self, rng):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        x = rng.standard_normal((2, 2)) + 0j
        np.testing.assert_allclose(_apply_amplified(u, x, 2, 1), u.apply(x))

    def test_blockwise_action(self, rng):
        # the explicit loop over the m**2 blocks is the oracle; same arithmetic, same bytes
        k, m = 3, 3
        xi = np.diag([2.0, 1.0, 0.5]) + 0.1 * rng.standard_normal((k, k))
        T = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        X = rng.standard_normal((m * k, m * k)) + 1j * rng.standard_normal((m * k, m * k))
        B = X.reshape(m, k, m, k)
        for op in (SimilarityHom(xi), InnerDerivation(T)):
            for adjoint in (False, True):
                f = op.apply_adjoint if adjoint else op.apply
                expected = np.empty_like(B)
                for i in range(m):
                    for j in range(m):
                        expected[i, :, j, :] = f(B[i, :, j, :])
                out = _apply_amplified(op, X, k, m, adjoint=adjoint)
                assert out.tobytes() == expected.reshape(m * k, m * k).tobytes()


class TestCbLowerBound:
    def test_identity_map_value_one(self):
        b = cb_lower_bound(SimilarityHom(np.eye(2)), level=2, restarts=5, seed=0)
        assert b.value == pytest.approx(1.0, abs=1e-8)

    def test_witness_recertifies_value(self):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        b = cb_lower_bound(u, level=2, restarts=10, seed=1)
        m = b.witness.shape[0] // u.k
        assert operator_norm(b.witness) <= 1 + 1e-8
        image = _apply_amplified(u, b.witness, u.k, m)
        assert operator_norm(image) >= b.value - 1e-8

    def test_monotone_in_level(self):
        u = SimilarityHom(np.diag([3.0, 1.0]))
        v1 = norm_lower(u, 1, restarts=10, seed=3)
        v2 = norm_lower(u, 2, restarts=10, seed=3)
        assert v2 >= v1 - 1e-10

    def test_similarity_oracle_attained(self):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        b = cb_lower_bound(u, level=2, restarts=20, seed=0)
        assert b.value == pytest.approx(2.0, rel=1e-6)
        assert b.value <= u.norm_upper() * (1 + 1e-6)

    def test_deterministic_given_seed(self):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        a = cb_lower_bound(u, 2, restarts=5, seed=42)
        b = cb_lower_bound(u, 2, restarts=5, seed=42)
        assert a.value == b.value
        np.testing.assert_array_equal(a.witness, b.witness)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            cb_lower_bound(SimilarityHom(np.eye(2)), level=0)


class TestSimilarityCheck:
    def test_diag_2_1(self):
        r = similarity_cb_check(np.diag([2.0, 1.0]), level=2, restarts=20, seed=0)
        assert r["consistent"] and r["tight"]
        assert r["oracle"] == pytest.approx(2.0)

    def test_nontrivial_conjugated_xi(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        xi = q @ np.diag([5.0, 1.0, 1.0]) @ q.conj().T
        r = similarity_cb_check(xi, level=3, restarts=20, seed=0)
        assert r["consistent"]
        assert r["lower"] >= 0.98 * r["oracle"]


class TestDerivationCheck:
    def test_zero_derivation_vacuous(self):
        r = derivation_check(np.zeros((2, 2)), K=1.0, d=2, level=2, restarts=5)
        assert r["vacuous"] and r["consistent"]
        assert r["proved"] is False

    def test_nilpotent_consistent(self):
        T = np.array([[0.0, 1.0], [0.0, 0.0]])
        r = derivation_check(T, K=1.0, d=3, level=2, restarts=20)
        assert r["consistent"]
        assert r["lower_cb"] >= r["lower_level1"] - 1e-10


class TestPushThrough:
    def test_evaluate_contract(self, rng):
        u = SimilarityHom(np.diag([2.0, 1.0, 1.0]))
        x = random_block(rng, 2, 2, 3)
        cert = universal_depth1(x)
        pushed = push_through(u, cert)
        val = evaluate(pushed)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    val.entry(i, j), u.apply(x.entry(i, j)), atol=1e-10
                )

    def test_cost_bound(self, rng):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        x = random_block(rng, 2, 2, 2)
        cert = universal_depth1(x)
        pushed = push_through(u, cert)
        assert cost(pushed) <= cost(cert) * u.norm_upper() ** cert.d + 1e-9

    def test_dimension_mismatch(self, rng):
        u = SimilarityHom(np.eye(3))
        cert = universal_depth1(random_block(rng, 2, 2, 2))
        with pytest.raises(ValueError):
            push_through(u, cert)
