"""Completely bounded norm estimators."""

import numpy as np
import pytest

from oplength import (
    CbLowerBound,
    SimilarityHom,
    cb_lower_bound,
    operator_norm,
    similarity_cb_check,
)
from oplength.simhom import _apply_amplified, _ascend


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="xi must be square"):
            SimilarityHom(np.ones((2, 3)))

    def test_rejects_empty(self):
        # numpy's cond has no value on an empty matrix
        with pytest.raises(ValueError, match=r"xi must be square and non-empty, got shape \(0, 0\)"):
            SimilarityHom(np.zeros((0, 0)))

    @pytest.mark.parametrize("entries", [[np.nan, 1], [1, np.nan], [complex(1, np.nan), 1],
                                         [np.inf, 1]])
    def test_rejects_non_finite_naming_xi(self, entries):
        with pytest.raises(ValueError, match="xi has non-finite entries"):
            SimilarityHom(np.diag(entries))


class _Commutator:
    """The map x -> xT - Tx on M_k: a non-normal op for the ascent, with its adjoint
    for the trace pairing and the margin scale that cb_lower_bound reads."""

    def __init__(self, T):
        self.T = np.asarray(T, dtype=np.complex128)
        self.k = self.T.shape[0]
        # || |x| |T| + |T| |x| || <= _abs_scale ||x||_F
        self._abs_scale = 2 * np.linalg.norm(self.T)

    def apply(self, x):
        return x @ self.T - self.T @ x

    def apply_adjoint(self, y):
        return y @ self.T.conj().T - self.T.conj().T @ y


class TestAmplification:
    def test_level1_is_plain_apply(self, rng):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        x = rng.standard_normal((2, 2)) + 0j
        np.testing.assert_allclose(_apply_amplified(u.apply, x, 2), u.apply(x))

    def test_blockwise_action(self, rng):
        # the explicit loop over the m**2 blocks is the oracle; same arithmetic, same bytes
        k, m = 3, 3
        xi = np.diag([2.0, 1.0, 0.5]) + 0.1 * rng.standard_normal((k, k))
        T = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        X = rng.standard_normal((m * k, m * k)) + 1j * rng.standard_normal((m * k, m * k))
        B = X.reshape(m, k, m, k)
        for op in (SimilarityHom(xi), _Commutator(T)):
            for f in (op.apply, op.apply_adjoint):
                expected = np.empty_like(B)
                for i in range(m):
                    for j in range(m):
                        expected[i, :, j, :] = f(B[i, :, j, :])
                out = _apply_amplified(f, X, k)
                assert out.tobytes() == expected.reshape(m * k, m * k).tobytes()


ASCENT_MAPS = [
    SimilarityHom(np.diag([10.0, 1.0, 1.0])),
    SimilarityHom(np.diag([4.0, 2.0, 1.0])),
    _Commutator(np.diag([1.0, 1.0], 1)),  # the nilpotent shift on M_3
]
ASCENT_IDS = ["xi-10-1-1", "xi-4-2-1", "nilpotent-T"]


class TestAscent:
    # the zero map x -> xI - Ix has a zero gradient, so its ascent stops after one step
    @pytest.mark.parametrize("op", ASCENT_MAPS + [_Commutator(np.eye(3))],
                             ids=ASCENT_IDS + ["zero-map"])
    def test_value_is_the_norm_of_the_returned_iterate(self, op):
        # the starts of cb_lower_bound at levels 1-3, seeds 0-5, 10 restarts: 180 ascents per map
        k = op.k
        for m in (1, 2, 3):
            for seed in range(6):
                for r in range(10):
                    rng = np.random.default_rng([seed, m, r])
                    shape = (m * k, m * k)
                    X0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    val, X = _ascend(op, X0 / operator_norm(X0))
                    assert val == float(np.linalg.svd(_apply_amplified(op.apply, X, k))[1][0])

    class _ScriptedOp:
        """An op on M_2 at level 1: the t-th apply scales by gains[t] and records its input
        with the sigma_max of its image; the adjoint step returns a matrix turning with t."""

        k = 2

        def __init__(self, gains):
            self.gains, self.seen = list(gains), {}

        def apply(self, B):
            out = B * self.gains[len(self.seen)]
            self.seen[B.tobytes()] = float(np.linalg.svd(out[0, 0])[1][0])
            return out

        def apply_adjoint(self, Y):
            t = len(self.seen)
            return np.array([[[[np.cos(t), np.sin(t)], [-np.sin(t), 2 * np.cos(t)]]]])

    @pytest.mark.parametrize("gains", [[1.0, 0.5], [1 + 1e-6 * t for t in range(500)]],
                             ids=["value-drops", "500-steps"])
    def test_returned_iterate_is_the_one_attaining_the_value(self, gains):
        # a value drop at the stop test, and the cap of 500 steps; the ascents of
        # test_value_is_the_norm_of_the_returned_iterate reach neither
        op = self._ScriptedOp(gains)
        val, X = _ascend(op, np.eye(2, dtype=np.complex128))
        assert op.seen.get(X.tobytes()) == val == max(op.seen.values())


class TestCbLowerBound:
    def test_identity_map_value_one(self):
        b = cb_lower_bound(SimilarityHom(np.eye(2)), level=2, restarts=5, seed=0)
        assert b.value == pytest.approx(1.0, abs=1e-8)

    def test_witness_recertifies_value(self):
        u = SimilarityHom(np.diag([2.0, 1.0]))
        b = cb_lower_bound(u, level=2, restarts=10, seed=1)
        assert operator_norm(b.witness) <= 1 + 1e-8
        image = _apply_amplified(u.apply, b.witness, u.k)
        assert operator_norm(image) >= b.value - 1e-8

    @pytest.mark.parametrize("op", ASCENT_MAPS, ids=ASCENT_IDS)
    def test_witness_recertifies_value_with_zero_slack(self, op):
        # value is the docstring's rounding-down of the witness's own computed sigma_max
        k, u = op.k, np.finfo(float).eps / 2
        for level in (1, 2, 3):
            for seed in (0, 1):
                b = cb_lower_bound(op, level, restarts=10, seed=seed)
                W = b.witness
                m = W.shape[0] // k
                v = float(np.linalg.svd(_apply_amplified(op.apply, W, k))[1][0])
                g = 1 + 4 * m * k * u
                bound = (v / g - 5 * (k + 2) * u * op._abs_scale * np.sqrt(m * k) * g) / g
                bound *= 1 - 8 * u
                assert b.value == bound
                assert b.value <= operator_norm(_apply_amplified(op.apply, W, k)) / operator_norm(W)

    def test_monotone_in_level(self):
        u = SimilarityHom(np.diag([3.0, 1.0]))
        v1 = cb_lower_bound(u, 1, restarts=10, seed=3).value
        v2 = cb_lower_bound(u, 2, restarts=10, seed=3).value
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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("spec, level", [((10.0, 1.0, 1.0), 3), ((4.0, 2.0, 1.0), 2)])
    def test_lower_never_exceeds_exact_oracle(self, spec, level, seed):
        # the oracles 10 and 4 are exact; the ascent's raw values reach 10.000000000000007
        r = similarity_cb_check(np.diag(spec), level=level, seed=seed)
        assert r["lower"] <= r["oracle"]
        assert r["tight"]

    def test_nontrivial_conjugated_xi(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        xi = q @ np.diag([5.0, 1.0, 1.0]) @ q.conj().T
        r = similarity_cb_check(xi, level=3, restarts=20, seed=0)
        assert r["consistent"]
        assert r["lower"] >= 0.98 * r["oracle"]
