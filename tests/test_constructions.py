"""The explicit factorization constructions and their cost guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    BlockMatrix,
    CapacityError,
    DiagonalMatrix,
    FactorizationCertificate,
    FamilyRelationError,
    IsometryFamily,
    ProjectionPartition,
    corner_embedding_certificate,
    cost,
    diagonal_embedding_certificate,
    diagonal_partition,
    evaluate,
    factor_through_family,
    family_from_projections,
    matrix_unit_family,
    normalized_trace,
    operator_norm,
    pinch,
    pinch_certificate,
    partition_row_decomposition,
    projection_isometries,
    universal_depth1,
)
from oplength.constructions import partition_block_row
from oplength.instances import random_instance

from conftest import random_block


def entry_max(x):
    return max(np.linalg.norm(b, 2) for b in x.blocks.reshape(-1, x.k, x.k))


def compressed(p, x, q):
    return BlockMatrix(np.einsum("ab,ijbc,cd->ijad", p, x.blocks, q))


class TestUniversalDepth1:
    def test_n1(self, rng):
        x = random_block(rng, 1, 1, 3)
        cert = universal_depth1(x)
        np.testing.assert_allclose(cert.alphas[0], [[1.0]])
        np.testing.assert_allclose(cert.alphas[1], [[1.0]])
        assert cost(cert) == pytest.approx(operator_norm(x))

    def test_squared_size_bound(self, rng):
        x = random_block(rng, 2, 2, 2)
        x = x * (1.0 / entry_max(x))
        assert cost(universal_depth1(x)) <= 4 * (1 + 1e-12)

    def test_round_trip(self, rng):
        x = random_block(rng, 4, 4, 3)
        cert = universal_depth1(x)
        assert operator_norm(evaluate(cert) - x) <= 1e-12
        assert cost(cert) <= 16 * entry_max(x) * (1 + 1e-12)

    def test_scalars_depend_only_on_n(self, rng):
        c1 = universal_depth1(random_block(rng, 3, 3, 2))
        c2 = universal_depth1(random_block(rng, 3, 3, 5))
        for a, b in zip(c1.alphas, c2.alphas):
            np.testing.assert_array_equal(a, b)


class TestFactorThroughFamily:
    def test_trivial_family_n1(self, rng):
        eye = np.eye(2, dtype=complex)[None]
        fam = IsometryFamily(p=eye[0], q=eye[0], a=eye, b=eye, c=eye, d=eye)
        x = random_block(rng, 1, 1, 2)
        cert = factor_through_family(x, fam)
        assert operator_norm(evaluate(cert) - x) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)

    def test_matrix_unit_family_on_identity(self):
        n, kB = 3, 2
        fam = matrix_unit_family(kB, n, 1, 1)
        x = BlockMatrix.identity(n, n * kB)
        cert = factor_through_family(x, fam)
        expected = compressed(fam.p, x, fam.q)
        assert operator_norm(evaluate(cert) - expected) <= 1e-10

    def test_projection_family_cost_and_reconstruction(self, rng):
        n, k = 3, 12
        x = random_block(rng, n, n, k)
        part = diagonal_partition(n, k)
        fam = family_from_projections(part.projections[0], part.projections[1], n)
        cert = factor_through_family(x, fam)
        expected = compressed(part.projections[0], x, part.projections[1])
        assert operator_norm(evaluate(cert) - expected) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)

    def test_middle_diagonal_entry_bound(self, rng):
        n, k = 3, 12
        x = random_block(rng, n, n, k)
        p = diagonal_partition(n, k).projections[0]
        cert = factor_through_family(x, family_from_projections(p, p, n))
        nx = operator_norm(x)
        for entry in cert.diags[1].entries:
            assert np.linalg.norm(entry, 2) <= nx + 1e-9

    def test_bad_family_rejected(self, rng):
        n, k = 2, 4
        bad = random_block(rng, 1, n, k).blocks[0]
        fam = IsometryFamily(p=np.eye(k), q=np.eye(k), a=bad, b=bad, c=bad, d=bad)
        x = random_block(rng, n, n, k)
        with pytest.raises(FamilyRelationError):
            factor_through_family(x, fam)


class TestMatrixUnitFamily:
    def test_n1_trivial(self):
        fam = matrix_unit_family(3, 1, 1, 1)
        np.testing.assert_allclose(fam.p, np.eye(3))
        fam.validate(1e-14)

    def test_relations_exact(self):
        fam = matrix_unit_family(2, 3, 1, 1)
        fam.validate(1e-14)

    def test_row_sum_is_unital(self):
        fam = matrix_unit_family(2, 3, 2, 3)
        s = np.einsum("iab,icb->ac", fam.b, fam.b.conj())
        assert operator_norm(s) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            matrix_unit_family(2, 3, 0, 1)


class TestProjectionIsometries:
    def test_zero_projection(self):
        vs = projection_isometries(np.zeros((4, 4)), 3)
        assert not np.any(vs)

    def test_rank_one_corner(self):
        n = 4
        p = np.zeros((n, n), dtype=complex)
        p[0, 0] = 1
        vs = projection_isometries(p, n)
        for i, v in enumerate(vs):
            assert np.count_nonzero(np.abs(v) > 1e-12) == 1

    def test_relations_random_projection(self, rng):
        g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        qb, _ = np.linalg.qr(g)
        p = qb @ qb.conj().T
        vs = projection_isometries(p, 4)
        rel = np.einsum("iba,jbc->ijac", vs.conj(), vs)
        delta = np.eye(4)[:, :, None, None]
        assert np.abs(rel - delta * p).max() <= 1e-10
        assert operator_norm(np.einsum("iab,icb->ac", vs, vs.conj())) <= 1 + 1e-10

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            projection_isometries(np.eye(4), 2)


class TestCornerEmbedding:
    def test_n1_is_identity_embedding(self, rng):
        x = random_block(rng, 1, 1, 2)
        cert = corner_embedding_certificate(x, 1, 1)
        assert operator_norm(evaluate(cert) - x) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)

    def test_identity_corner(self):
        n, kB = 2, 2
        x = BlockMatrix.identity(n, kB)
        cert = corner_embedding_certificate(x, 1, 1)
        e11 = np.zeros((n, n), dtype=complex)
        e11[0, 0] = 1
        target = BlockMatrix(
            np.einsum("ab,ijcd->ijacbd", e11, x.blocks).reshape(n, n, n * kB, n * kB)
        )
        assert operator_norm(evaluate(cert) - target) <= 1e-10
        assert cost(cert) <= 1 + 1e-9

    @pytest.mark.parametrize("r,s", [(1, 1), (2, 3), (3, 1)])
    def test_random_corner(self, rng, r, s):
        n, kB = 3, 2
        x = random_block(rng, n, n, kB)
        cert = corner_embedding_certificate(x, r, s)
        assert cert.d == 3
        e = np.zeros((n, n), dtype=complex)
        e[r - 1, s - 1] = 1
        target = BlockMatrix(
            np.einsum("ab,ijcd->ijacbd", e, x.blocks).reshape(n, n, n * kB, n * kB)
        )
        assert operator_norm(evaluate(cert) - target) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)


class TestPartitionRowDecomposition:
    def test_n1(self):
        part = diagonal_partition(1, 3)
        row = partition_row_decomposition(part)
        assert operator_norm(row.as_block_matrix() - partition_block_row(part)) <= 1e-12

    def test_identity_residual(self):
        part = diagonal_partition(2, 4)
        row = partition_row_decomposition(part)
        assert operator_norm(row.as_block_matrix() - partition_block_row(part)) <= 1e-12
        norm_bound = (np.linalg.norm(row.alpha0, 2) * row.diag.norm()
                      * np.linalg.norm(row.w, 2))
        assert norm_bound <= 1 + 1e-10

    def test_diagonal_entries_contractive(self):
        part = diagonal_partition(3, 6)
        row = partition_row_decomposition(part)
        for entry in row.diag.entries:
            assert np.linalg.norm(entry, 2) <= 1 + 1e-10


class TestPinchCertificate:
    def test_identity_inners(self):
        n, k = 2, 4
        part = diagonal_partition(n, k)
        eye = np.eye(n, dtype=complex)
        inner = [
            FactorizationCertificate((eye, eye), (DiagonalMatrix.unit(n, k),))
            for _ in range(n)
        ]
        out = pinch_certificate(inner, part)
        total = part.projections.sum(axis=0)
        expected = BlockMatrix(
            np.einsum("ij,ab->ijab", np.eye(n), total).reshape(n, n, k, k)
        )
        assert operator_norm(evaluate(out) - expected) <= 1e-10

    def test_depth_arity(self, rng):
        n, k = 2, 4
        part = diagonal_partition(n, k)
        inners = []
        for _ in range(n):
            x = random_block(rng, n, n, k)
            x = x * (1.0 / cost(universal_depth1(x)))
            inners.append(universal_depth1(x))
        out = pinch_certificate(inners, part)
        assert out.d == 3

    def test_normalized_inners_cost_and_value(self, rng):
        n, k = 3, 6
        part = diagonal_partition(n, k)
        xs, inners = [], []
        for _ in range(n):
            x = random_block(rng, n, n, k)
            x = x * (1.0 / cost(universal_depth1(x)))
            xs.append(x)
            inners.append(universal_depth1(x))
        out = pinch_certificate(inners, part)
        P = part.projections
        expected = BlockMatrix(
            sum(
                np.einsum("ab,ijbc,cd->ijad", P[m], xs[m].blocks, P[m])
                for m in range(n)
            )
        )
        assert operator_norm(evaluate(out) - expected) <= 1e-10
        assert cost(out) <= max(cost(c) for c in inners) + 1e-9

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), r=st.integers(1, 3),
           d=st.integers(1, 2), rotated=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_value_is_pinched_sum_and_cost_within_largest_inner(self, seed, n, r, d, rotated):
        # inner certificates share their scalar factors, as the library's constructions do
        rng = np.random.default_rng(seed)
        k = n * r
        P = diagonal_partition(n, k).projections
        if rotated:
            q, t = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
            u = q * (np.diagonal(t) / np.abs(np.diagonal(t)))
            P = np.stack([u @ pm @ u.conj().T for pm in P])
        widths = (n,) + tuple(int(w) for w in rng.integers(1, 5, size=d)) + (n,)
        alphas = tuple(
            rng.standard_normal((widths[i], widths[i + 1]))
            + 1j * rng.standard_normal((widths[i], widths[i + 1]))
            for i in range(d + 1)
        )
        inners = []
        for _ in range(n):
            diags = tuple(
                DiagonalMatrix(random_block(rng, 1, w, k).blocks[0]) for w in widths[1:-1]
            )
            c = FactorizationCertificate(alphas, diags)
            inners.append(c.scaled(rng.uniform(0.1, 1.0) / cost(c)))
        out = pinch_certificate(inners, ProjectionPartition(P))
        expected = sum(
            np.einsum("ab,ijbc,cd->ijad", P[m], evaluate(c).blocks, P[m])
            for m, c in enumerate(inners)
        )
        assert np.abs(evaluate(out).blocks - expected).max() <= 1e-10
        assert cost(out) <= max(cost(c) for c in inners) * (1 + 1e-9)

    def test_cost_precondition_enforced(self, rng):
        n, k = 2, 4
        part = diagonal_partition(n, k)
        big = universal_depth1(random_block(rng, n, n, k) * 100.0)
        with pytest.raises(ValueError):
            pinch_certificate([big, big], part)


class TestDiagonalEmbedding:
    def test_zero(self):
        x = BlockMatrix.zeros(2, 2, 2)
        cert = diagonal_embedding_certificate(x)
        assert cost(cert) == 0.0
        assert operator_norm(evaluate(cert)) <= 1e-12

    def test_identity(self):
        x = BlockMatrix.identity(2, 2)
        cert = diagonal_embedding_certificate(x)
        assert cert.d == 5
        target = BlockMatrix.identity(2, 4)
        assert operator_norm(evaluate(cert) - target) <= 1e-10
        assert cost(cert) <= 1 + 1e-9

    def test_random(self, rng):
        n, kB = 2, 2
        x = random_block(rng, n, n, kB)
        cert = diagonal_embedding_certificate(x)
        target = BlockMatrix(
            np.einsum("ab,ijcd->ijacbd", np.eye(n), x.blocks).reshape(n, n, n * kB, n * kB)
        )
        assert operator_norm(evaluate(cert) - target) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)


class TestPinch:
    def test_commuting_fixed_point(self, rng):
        n, k = 2, 4
        part = diagonal_partition(n, k)
        x = pinch(random_block(rng, n, n, k), part)
        assert operator_norm(pinch(x, part) - x) <= 1e-12

    def test_norm_non_increase(self, rng):
        n, k = 3, 6
        part = diagonal_partition(n, k)
        x = random_block(rng, n, n, k)
        assert operator_norm(pinch(x, part)) <= operator_norm(x) + 1e-10

    def test_idempotent(self, rng):
        n, k = 3, 6
        part = diagonal_partition(n, k)
        x = random_block(rng, n, n, k)
        px = pinch(x, part)
        assert operator_norm(pinch(px, part) - px) <= 1e-12

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 6), (4, 16), (6, 24)])
    @pytest.mark.parametrize("distribution", ["gaussian", "blockdiag"])
    def test_diagonal_partition_bytes_match_defining_sum(self, n, k, distribution):
        # at k = 6 OpenBLAS leaves -0 in some all-zero sums; the defining sum has +0
        part = diagonal_partition(n, k)
        x = random_instance(n, k, 5, distribution)
        P = part.projections
        expected = np.einsum("mab,ijbc,mcd->ijad", P, x.blocks, P)
        assert pinch(x, part).blocks.tobytes() == expected.tobytes()

    def test_rotated_partition_matches_double_loop(self):
        n, k = 4, 8
        rng = np.random.default_rng(4)
        z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        P = np.stack([u @ pm @ u.conj().T for pm in diagonal_partition(n, k).projections])
        part = ProjectionPartition(P)
        part.validate()
        x = random_block(rng, n, n, k)
        expected = np.zeros_like(x.blocks)
        for i in range(n):
            for j in range(n):
                expected[i, j] = sum(pm @ x.blocks[i, j] @ pm for pm in P)
        px = pinch(x, part)
        assert np.abs(px.blocks - expected).max() <= 1e-12
        assert operator_norm(pinch(px, part) - px) <= 1e-10
        assert operator_norm(px) <= operator_norm(x) + 1e-10

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 6), (4, 16)])
    def test_blockdiag_instance_is_bytewise_fixed_point(self, n, k):
        x = random_instance(n, k, 11, "blockdiag", noise=0)
        assert pinch(x, diagonal_partition(n, k)).blocks.tobytes() == x.blocks.tobytes()


class TestProjectionPartition:
    def test_diagonal_partition_traces(self):
        part = diagonal_partition(4, 8)
        part.validate()
        for pm in part.projections:
            assert normalized_trace(pm).real == pytest.approx(0.25)

    def test_rejects_bad_trace(self):
        P = np.zeros((2, 4, 4), dtype=complex)
        P[0, 0, 0] = 1
        P[1, 1, 1] = 1
        with pytest.raises(FamilyRelationError):
            ProjectionPartition(P).validate()

    def test_indivisible_order(self):
        with pytest.raises(Exception):
            diagonal_partition(3, 4)
