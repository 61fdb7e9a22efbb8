"""The explicit factorization constructions and their cost guarantees."""

import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplength import (
    CONSTRUCTIONS,
    BlockMatrix,
    DiagonalMatrix,
    FactorizationCertificate,
    IsometryFamily,
    ProjectionPartition,
    RowDecomposition,
    ShapeMismatchError,
    UniformityError,
    conjugate,
    corner_embedding_certificate,
    cost,
    diagonal_embedding_certificate,
    diagonal_partition,
    direct_sum,
    evaluate,
    factor_through_family,
    family_from_projections,
    fourier_unitary,
    matrix_unit_family,
    normalized_trace,
    operator_norm,
    pinch,
    pinch_certificate,
    pinching_pipeline,
    partition_row_decomposition,
    projection_isometries,
    universal_depth1,
    verify,
)
from oplength.blocks import block_diag
from oplength.certs import rebalance_diags
from oplength.constructions import _diagonal_family
from oplength.instances import random_instance

from conftest import assert_same_bytes, random_block, random_entries


def entry_max(x):
    return max(np.linalg.norm(b, 2) for b in x.blocks.reshape(-1, x.k, x.k))


def compressed(p, x, q):
    return BlockMatrix(np.einsum("ab,ijbc,cd->ijad", p, x.blocks, q))


def family_residual(fam):
    """The largest violation of the four family relations, block by block."""
    delta = np.eye(fam.n)
    ab = np.einsum("iab,jbc->ijac", fam.a, fam.b) - np.einsum("ij,ac->ijac", delta, fam.p)
    cd = np.einsum("iab,jbc->ijac", fam.c, fam.d) - np.einsum("ij,ac->ijac", delta, fam.q)
    rows = operator_norm(np.einsum("iab,icb->ac", fam.b, fam.b.conj())) - 1
    cols = operator_norm(np.einsum("iba,ibc->ac", fam.c.conj(), fam.c)) - 1
    return max(np.abs(ab).max(), np.abs(cd).max(), rows, cols)


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
        x = BlockMatrix.from_dense(np.eye(n * n * kB), n * kB)
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bytes_of_the_optimized_einsums(self, rng, n):
        # the fixed contraction orders give the bytes of the ones optimize=True finds
        eps = np.sqrt(n) * fourier_unitary(n).conj()
        for k in (1, 2, 5, 8):
            x = random_block(rng, n, n, k)
            a, b, c, d = (random_entries(rng, n, k) for _ in range(4))
            fam = IsometryFamily(p=a[0], q=d[0], a=a, b=b, c=c, d=d)
            t = np.einsum("iab,ijbc,jcd->ijad", b, x.blocks, c, optimize=True)
            want = np.einsum("ik,kj,ijad->kad", eps, eps, t, optimize=True)
            assert factor_through_family(x, fam).diags[1].entries.tobytes() == want.tobytes(), k

    def test_middle_diagonal_entry_bound(self, rng):
        n, k = 3, 12
        x = random_block(rng, n, n, k)
        p = diagonal_partition(n, k).projections[0]
        cert = factor_through_family(x, family_from_projections(p, p, n))
        nx = operator_norm(x)
        for entry in cert.diags[1].entries:
            assert np.linalg.norm(entry, 2) <= nx + 1e-9

    def test_bad_family_rejected(self, rng):
        # a hand-built family is checked by validate(); its certificate fails verify
        n, k = 2, 4
        bad = random_entries(rng, n, k)
        fam = IsometryFamily(p=np.eye(k), q=np.eye(k), a=bad, b=bad, c=bad, d=bad)
        with pytest.raises(ValueError, match=re.escape("a_i b_j != delta_ij p")):
            fam.validate()
        x = random_block(rng, n, n, k)
        assert not verify(factor_through_family(x, fam), x).passed

    def test_shape_mismatch_rejected(self, rng):
        fam = matrix_unit_family(2, 2, 1, 1)  # n = 2 over M_4
        with pytest.raises(ShapeMismatchError, match="matrix and family shapes disagree"):
            factor_through_family(random_block(rng, 3, 3, 4), fam)


@pytest.fixture
def validate_calls(monkeypatch):
    """Counts of IsometryFamily.validate calls."""
    calls = {"family": 0}

    def counted(self, _validate=IsometryFamily.validate):
        calls["family"] += 1
        return _validate(self)

    monkeypatch.setattr(IsometryFamily, "validate", counted)
    return calls


class TestRelationsCheckedWhereNumbersMakeThem:
    def test_exact_families_and_partitions_are_not_checked(self, rng, validate_calls):
        x = random_block(rng, 3, 3, 2)
        corner_embedding_certificate(x, 2, 1)
        diagonal_embedding_certificate(x)  # the sub19 build
        assert validate_calls == {"family": 0}

    def test_family_from_projections_checks_once(self, validate_calls):
        P = haar_rotated_partition(3, 12, 1)
        family_from_projections(P[0], P[1], 3)
        assert validate_calls == {"family": 1}

    def test_pinching_pipeline_checks_each_numerical_family(self, validate_calls):
        # the pinch's diagonal-partition families are exact 0/1 data, built in closed form;
        # the assembly's family comes from the split's spectral projections, and is checked
        pinching_pipeline(random_instance(3, 6, 2), include_total_bound=True)
        assert validate_calls == {"family": 1}


class TestMatrixUnitFamily:
    def test_n1_trivial(self):
        fam = matrix_unit_family(3, 1, 1, 1)
        np.testing.assert_allclose(fam.p, np.eye(3))
        fam.validate()
        assert family_residual(fam) <= 1e-14

    def test_relations_exact(self):
        fam = matrix_unit_family(2, 3, 1, 1)
        fam.validate()
        assert family_residual(fam) <= 1e-14

    def test_row_sum_is_unital(self):
        fam = matrix_unit_family(2, 3, 2, 3)
        s = np.einsum("iab,icb->ac", fam.b, fam.b.conj())
        assert operator_norm(s) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            matrix_unit_family(2, 3, 0, 1)

    def test_zero_size_refused(self):
        with pytest.raises(ShapeMismatchError, match=re.escape("matrix units need n >= 1, got n=0")):
            matrix_unit_family(2, 0, 1, 1)


def haar_unitary(k, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def haar_rotated_partition(n, k, seed):
    u = haar_unitary(k, seed)
    return np.stack([u @ pm @ u.conj().T for pm in diagonal_partition(n, k).projections])


FAMILY_MESSAGES = [
    "a_i b_j != delta_ij p",
    "c_i d_j != delta_ij q",
    "row sum b b* exceeds the unit ball",
    "column sum c* c exceeds the unit ball",
]


def break_relation(fam, relation):
    """fam with exactly one of its four relations broken."""
    a, b, c, d = (x.copy() for x in (fam.a, fam.b, fam.c, fam.d))
    if relation == 0:
        a[0] += 1e-6 * a[1]      # moves a_0 b_1 only
    elif relation == 1:
        d[0] *= 1 + 1e-6         # moves c_0 d_0 only
    elif relation == 2:
        a /= 1.001               # keeps every a_i b_j
        b *= 1.001
    else:
        c *= 1.001
        d /= 1.001
    return replace(fam, a=a, b=b, c=c, d=d)


class TestFamilyValidate:
    @pytest.mark.parametrize("relation", range(4))
    @pytest.mark.parametrize("source", ["matrix_unit", "projections"])
    def test_rejects_each_relation_alone(self, relation, source):
        if source == "matrix_unit":
            fam = matrix_unit_family(2, 3, 2, 3)
        else:
            P = haar_rotated_partition(3, 12, 1)
            fam = family_from_projections(P[0], P[1], 3)
        fam.validate()
        with pytest.raises(ValueError, match=re.escape(FAMILY_MESSAGES[relation])):
            break_relation(fam, relation).validate()

    @pytest.mark.parametrize("n,r,s", [(1, 1, 1), (3, 1, 1), (3, 2, 3), (3, 3, 1), (4, 4, 4)])
    def test_accepts_matrix_unit_corners(self, n, r, s):
        fam = matrix_unit_family(2, n, r, s)
        fam.validate()
        assert family_residual(fam) <= 1e-14

    @pytest.mark.parametrize("n,k,seed", [(2, 4, 0), (3, 12, 1), (4, 16, 2)])
    def test_accepts_haar_rotated_projection_families(self, n, k, seed):
        P = haar_rotated_partition(n, k, seed)
        for q in (P[-1], P[0].copy()):
            fam = family_from_projections(P[0], q, n)
            fam.validate()
            assert family_residual(fam) <= 1e-14
        # q with p's bytes reuses p's isometries, which equal q's own
        assert fam.d.tobytes() == projection_isometries(P[0], n).tobytes()
        assert fam.d is not fam.b


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
        with pytest.raises(ValueError, match=re.escape("need 2*4 orthogonal directions in M_4")):
            projection_isometries(np.eye(4), 2)

    def test_rejects_non_projection(self):
        # Hermitian but not idempotent: the eigenvalue 1/2 is neither 0 nor 1
        with pytest.raises(ValueError, match=re.escape("input is not a projection")):
            projection_isometries(np.diag([1.0, 0.5, 0.0, 0.0]), 2)


class TestDiagonalFamily:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_closed_form_has_the_bytes_of_the_eigh_path(self, n):
        for k in range(n, 8 * n + 1, n):
            P = diagonal_partition(n, k).projections
            for m in range(n):
                got, want = _diagonal_family(n, k, m), family_from_projections(P[m], P[m], n)
                for name in ("p", "q", "a", "b", "c", "d"):
                    g, w = getattr(got, name), getattr(want, name)
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (k, m, name)
                for stack in (got.a, got.d):  # the SVD gives the 1.0 the 0/1 rule reads
                    assert np.linalg.svd(stack, compute_uv=False).max() == 1.0, (k, m)

    def test_certificate_carries_the_unit_norms_and_the_eigh_path_bytes(self, rng):
        x = random_block(rng, 3, 3, 6)
        P = diagonal_partition(3, 6).projections
        got = factor_through_family(x, _diagonal_family(3, 6, 1))
        want = factor_through_family(x, family_from_projections(P[1], P[1], 3))
        assert [got.diags[i].norm() for i in (0, 2)] == [1.0, 1.0]
        for D in want.diags:
            D.norm()
        got.diags[1].norm()
        assert_same_bytes(got, want)


class TestCornerEmbedding:
    def test_n1_is_identity_embedding(self, rng):
        x = random_block(rng, 1, 1, 2)
        cert = corner_embedding_certificate(x, 1, 1)
        assert operator_norm(evaluate(cert) - x) <= 1e-10
        assert cost(cert) <= operator_norm(x) * (1 + 1e-9)

    def test_identity_corner(self):
        n, kB = 2, 2
        x = BlockMatrix.from_dense(np.eye(n * kB), kB)
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


def _row_residual(part, row):
    """||kron(a0, I) blockdiag(D) kron(w, I) - R||, R the row with entry delta_ij p_m at (m, j)."""
    n, eye = part.n, np.eye(part.k)
    dense_row = np.hstack([np.kron(np.eye(n), pm) for pm in part.projections])
    product = np.kron(row.alpha0, eye) @ block_diag(row.diag.entries) @ np.kron(row.w, eye)
    return operator_norm(product - dense_row)


class TestPartitionRowDecomposition:
    def test_n1(self):
        part = diagonal_partition(1, 3)
        assert _row_residual(part, partition_row_decomposition(part)) <= 1e-12

    def test_identity_residual(self):
        part = diagonal_partition(2, 4)
        row = partition_row_decomposition(part)
        assert _row_residual(part, row) <= 1e-12
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
        out = pinch_certificate(inner.__getitem__, part)
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
        out = pinch_certificate(inners.__getitem__, part)
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
        out = pinch_certificate(inners.__getitem__, part)
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
           d=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_value_is_pinched_sum_and_cost_within_largest_inner(self, seed, n, r, d):
        # inner certificates share their scalar factors, as the library's constructions do
        rng = np.random.default_rng(seed)
        k = n * r
        part = diagonal_partition(n, k)
        P = part.projections
        widths = (n,) + tuple(int(w) for w in rng.integers(1, 5, size=d)) + (n,)
        alphas = tuple(
            rng.standard_normal((widths[i], widths[i + 1]))
            + 1j * rng.standard_normal((widths[i], widths[i + 1]))
            for i in range(d + 1)
        )
        inners = []
        for _ in range(n):
            diags = tuple(
                DiagonalMatrix(random_entries(rng, w, k)) for w in widths[1:-1]
            )
            c = FactorizationCertificate(alphas, diags)
            # inner costs up to 100: the bound needs no cost <= 1
            inners.append(c.scaled(rng.uniform(0.1, 100.0) / cost(c)))
        out = pinch_certificate(inners.__getitem__, part)
        expected = sum(
            np.einsum("ab,ijbc,cd->ijad", P[m], evaluate(c).blocks, P[m])
            for m, c in enumerate(inners)
        )
        largest = max(cost(c) for c in inners)
        assert np.abs(evaluate(out).blocks - expected).max() <= 1e-10 * max(1.0, largest)
        assert cost(out) <= largest * (1 + 1e-9)

    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3), r=st.integers(1, 2),
           d=st.integers(1, 3),
           kinds=st.lists(st.sampled_from(["random", "zero", "unit", "known"]), min_size=9,
                          max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_bytes_of_the_rebalanced_direct_sum(self, seed, n, r, d, kinds):
        # zero and norm-1 diagonals keep factor 1 and their norms; "known" has its norm computed
        rng = np.random.default_rng(seed)
        k = n * r
        part = diagonal_partition(n, k)
        widths = (n,) + tuple(int(w) for w in rng.integers(1, 4, size=d)) + (n,)
        alphas = tuple(
            rng.standard_normal((widths[i], widths[i + 1]))
            + 1j * rng.standard_normal((widths[i], widths[i + 1]))
            for i in range(d + 1)
        )
        inners = []
        for m in range(n):
            diags = []
            for i, w in enumerate(widths[1:-1]):
                kind = kinds[(3 * m + i) % len(kinds)]
                if kind == "zero":
                    D = DiagonalMatrix(np.zeros((w, k, k)))
                elif kind == "unit":
                    D = DiagonalMatrix.unit(w, k)
                else:
                    D = DiagonalMatrix(rng.uniform(0.1, 10) * random_entries(rng, w, k))
                    if kind == "known":
                        D.norm()
                diags.append(D)
            inners.append(FactorizationCertificate(alphas, tuple(diags)))
        got = pinch_certificate(inners.__getitem__, part)
        want = conjugate(partition_row_decomposition(part),
                         direct_sum(rebalance_diags(c) for c in inners))
        assert_same_bytes(got, want)

    def test_inner_certificates_are_let_go_one_at_a_time(self):
        n, k = 4, 8
        eye = np.eye(n, dtype=complex)
        made, calls = [], []

        def inner(m):
            # the first is kept for the checks; every later one is gone before the next is made
            assert sum(ref() is not None for ref in made[1:]) == 0, m
            calls.append(m)
            c = FactorizationCertificate((eye, eye, eye),
                                         (DiagonalMatrix.unit(n, k), DiagonalMatrix.unit(n, k)))
            made.append(weakref.ref(c))
            return c

        out = pinch_certificate(inner, diagonal_partition(n, k))
        assert calls == list(range(n)) and out.d == 4

    def test_inner_scalars_must_agree(self):
        # each inner has cost 1, but summing them would give cost 100 for a value of norm 1
        eye = np.eye(2, dtype=complex)
        unit = DiagonalMatrix.unit(2, 4)
        a = FactorizationCertificate((10 * eye, 0.1 * eye), (unit,))
        b = FactorizationCertificate((0.1 * eye, 10 * eye), (unit,))
        with pytest.raises(UniformityError, match="scalar factor 0 differs"):
            pinch_certificate([a, b].__getitem__, diagonal_partition(2, 4))

    def test_inner_widths_must_agree(self):
        eye = np.eye(2, dtype=complex)
        a = FactorizationCertificate((eye, eye), (DiagonalMatrix.unit(2, 4),))
        b = FactorizationCertificate((np.ones((2, 3)) / 3, np.ones((3, 2)) / 3),
                                     (DiagonalMatrix.unit(3, 4),))
        with pytest.raises(UniformityError, match="widths differ"):
            pinch_certificate([a, b].__getitem__, diagonal_partition(2, 4))

    @pytest.mark.parametrize("m", [0, 1])
    def test_inner_shape_must_match_the_partition(self, m):
        # the first inner is checked against the partition, each later one against it too
        eye = np.eye(2, dtype=complex)
        inners = [FactorizationCertificate((eye, eye), (DiagonalMatrix.unit(2, 4),))] * 2
        inners[m] = FactorizationCertificate((eye, eye), (DiagonalMatrix.unit(2, 2),))
        with pytest.raises(ShapeMismatchError, match="must share depth and shape"):
            pinch_certificate(inners.__getitem__, diagonal_partition(2, 4))


class TestDiagonalEmbedding:
    def test_zero(self):
        x = BlockMatrix(np.zeros((2, 2, 2, 2)))
        cert = diagonal_embedding_certificate(x)
        assert cost(cert) == 0.0
        assert operator_norm(evaluate(cert)) <= 1e-12

    def test_identity(self):
        x = BlockMatrix.from_dense(np.eye(4), 2)
        cert = diagonal_embedding_certificate(x)
        assert cert.d == 5
        target = BlockMatrix.from_dense(np.eye(8), 4)
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
    def test_block_order_mismatch_rejected(self, rng):
        with pytest.raises(ShapeMismatchError, match="block order mismatch"):
            pinch(random_block(rng, 2, 2, 3), diagonal_partition(2, 4))

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
        # a partition in another basis u is pinched by conjugating: u pinch(u* x u) u*
        n, k = 4, 8
        u = haar_unitary(k, 4)
        P = np.stack([u @ pm @ u.conj().T for pm in diagonal_partition(n, k).projections])
        part = diagonal_partition(n, k)

        def rotated_pinch(y):
            return BlockMatrix(u @ pinch(BlockMatrix(u.conj().T @ y.blocks @ u), part).blocks
                               @ u.conj().T)

        x = random_block(np.random.default_rng(4), n, n, k)
        expected = np.zeros_like(x.blocks)
        for i in range(n):
            for j in range(n):
                expected[i, j] = sum(pm @ x.blocks[i, j] @ pm for pm in P)
        px = rotated_pinch(x)
        assert np.abs(px.blocks - expected).max() <= 1e-12
        assert operator_norm(rotated_pinch(px) - px) <= 1e-10
        assert operator_norm(px) <= operator_norm(x) + 1e-10

    @pytest.mark.parametrize("n,k", [(3, 6), (3, 9), (5, 10)])
    def test_signed_zeros_match_the_defining_sum(self, n, k):
        # OpenBLAS leaves -0 in some all-zero sums at block orders 6, 9 and 10
        rng = np.random.default_rng(k)
        parts = rng.standard_normal((n, n, k, 2 * k))  # real and imaginary parts
        share = rng.random(parts.shape)
        parts[share < 0.2], parts[share > 0.8] = 0.0, -0.0
        x = BlockMatrix(parts.view(np.complex128))
        r = k // n
        for a in (x.blocks.real, x.blocks.imag):  # -0 parts inside the block p_0 keeps
            assert np.any((a[..., :r, :r] == 0) & np.signbit(a[..., :r, :r]))
        P = diagonal_partition(n, k).projections
        want = np.zeros_like(x.blocks)  # the defining sums, accumulated into +0
        for pm in P:
            want += pm @ x.blocks @ pm
        want0 = np.zeros_like(x.blocks)
        want0 += P[0] @ x.blocks @ P[0]
        assert pinch(x, diagonal_partition(n, k)).blocks.tobytes() == want.tobytes()
        assert CONSTRUCTIONS["lemma5"].build(x)[1].blocks.tobytes() == want0.tobytes()

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 6), (4, 16)])
    def test_blockdiag_instance_is_bytewise_fixed_point(self, n, k):
        x = random_instance(n, k, 11, "blockdiag", noise=0)
        assert pinch(x, diagonal_partition(n, k)).blocks.tobytes() == x.blocks.tobytes()


class TestProjectionPartition:
    def test_partition_and_row_decomposition_are_read_only(self):
        x = random_instance(3, 6, 1, "blockdiag", 0.1)
        _, before = pinching_pipeline(x)
        part = diagonal_partition(3, 6)
        row = partition_row_decomposition(part)
        for a in (part.projections, row.alpha0, row.w, row.diag.entries):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] += 1
        _, after = pinching_pipeline(x)
        assert_same_bytes(after, before)

    def test_partition_and_row_decomposition_copy_their_input(self):
        part = diagonal_partition(2, 4)
        P = np.array(part.projections)
        P[0] = 0  # a writeable copy of one read leaves the next read alone
        assert part.projections[0, 0, 0] == 1
        row = partition_row_decomposition(part)
        alpha0, w = np.array(row.alpha0), np.array(row.w)
        copy = RowDecomposition(alpha0, row.diag, w)
        alpha0[0], w[0] = 0, 0
        assert copy.alpha0.tobytes() == row.alpha0.tobytes() and copy.w.tobytes() == row.w.tobytes()

    def test_diagonal_partition_traces(self):
        part = diagonal_partition(4, 8)
        for pm in part.projections:
            assert normalized_trace(pm).real == pytest.approx(0.25)

    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 4), (3, 9), (4, 16)])
    def test_projections_keep_the_kron_bytes(self, n, k):
        # the stack that demo 02, the acceptance tests and the row decomposition read
        eye = np.eye(n, dtype=np.complex128)
        kron = np.stack([np.kron(np.diag(e), np.eye(k // n)) for e in eye])
        P = ProjectionPartition(n, k).projections
        assert P.dtype == np.complex128 and P.shape == (n, k, k)
        assert P.tobytes() == kron.tobytes()

    @pytest.mark.parametrize("n,k,seed", [(1, 3, 0), (2, 4, 0), (3, 12, 1), (4, 16, 2)])
    def test_haar_rotated_partitions_keep_the_relations(self, n, k, seed):
        # the stacks the family tests build from: p_m* = p_m, p_m p_j = delta_mj p_m,
        # trace 1/n, and sum_m p_m = 1
        P = haar_rotated_partition(n, k, seed)
        assert np.abs(P - P.conj().transpose(0, 2, 1)).max() <= 1e-10
        products = np.einsum("mab,jbc->mjac", P, P)
        assert np.abs(products - np.eye(n)[:, :, None, None] * P[:, None]).max() <= 1e-10
        for pm in P:
            assert normalized_trace(pm).real == pytest.approx(1 / n, abs=1e-12)
        assert np.abs(P.sum(axis=0) - np.eye(k)).max() <= 1e-10

    def test_partition_is_frozen_and_equal_by_shape(self):
        part = diagonal_partition(2, 4)
        assert part == ProjectionPartition(2, 4) != ProjectionPartition(2, 6)
        assert hash(part) == hash(ProjectionPartition(2, 4))
        with pytest.raises(AttributeError):
            part.n = 4

    def test_indivisible_order(self):
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=3, k=4"):
            diagonal_partition(3, 4)

    def test_zero_parts_refused(self):
        # n = 0 divides nothing: k % 0 would raise ZeroDivisionError
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=0, k=4"):
            diagonal_partition(0, 4)
        # k = 0 is divisible by every n, but there is no block of order 0
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=2, k=0"):
            diagonal_partition(2, 0)

    @pytest.mark.parametrize("n,k", [(0, 0), (-2, 4), (2, -4), (-2, -4)])
    def test_constructor_holds_the_rule(self, n, k):
        with pytest.raises(ShapeMismatchError, match=re.escape(f"needs n | k, got n={n}, k={k}")):
            ProjectionPartition(n, k)
