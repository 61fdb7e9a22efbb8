"""Assembled pipelines, uniformity checks, and direct-sum certificates."""

import warnings

import numpy as np
import pytest

from oplength import (
    BlockMatrix,
    CONSTRUCTIONS,
    FactorizationCertificate,
    block_l2,
    cost,
    diagonal_partition,
    direct_sum_certificate,
    evaluate,
    operator_norm,
    pinch,
    pinching_pipeline,
    restrict_direct_sum,
    scalar_digest,
    uniformity_check,
    universal_depth1,
    verify,
)
from oplength.blocks import ShapeMismatchError
from oplength import pipeline
from oplength.pipeline import assemble_from_approximant
from oplength.instances import random_instance

from conftest import random_block


def near_pair(rng, n, k, defect):
    """A target z, and a certificate for z' = z - x with block_l2(x) small."""
    zprime = random_block(rng, n, n, k)
    x = random_block(rng, n, n, k)
    x = x * (defect / block_l2(x))
    return zprime + x, universal_depth1(zprime)


class TestAssembleFromApproximant:
    @pytest.mark.parametrize("n,k", [(2, 12), (3, 12)])
    def test_bound_holds(self, rng, n, k):
        z, near = near_pair(rng, n, k, 0.05)
        report, cert = assemble_from_approximant(z, near)
        assert report.passed
        assert report.cost <= report.bound + 1e-6
        assert report.recon_error <= 1e-9
        assert cert.d >= 3
        assert verify(cert, z, 1e-9).passed

    def test_zero_defect_branch(self, rng):
        zprime = random_block(rng, 2, 2, 4)
        near = universal_depth1(zprime)
        report, cert = assemble_from_approximant(zprime, near)
        assert report.passed
        assert report.epsilon == 0.0
        assert report.bound == pytest.approx(report.extra["K"] + 2)
        assert cert.d == 3

    def test_wrong_block_order_refused_at_difference(self, rng):
        z = random_block(rng, 2, 2, 4)
        near = universal_depth1(random_block(rng, 2, 2, 1))
        with pytest.raises(ShapeMismatchError, match="block shapes differ"):
            assemble_from_approximant(z, near)

    def test_report_extra_fields(self, rng):
        z, near = near_pair(rng, 2, 12, 0.05)
        report, _ = assemble_from_approximant(z, near)
        assert report.extra["K"] == pytest.approx(cost(near))
        assert report.extra["defect_l2"] == pytest.approx(0.05)
        assert report.epsilon == 1.01 * report.extra["defect_l2"]
        assert report.bound == report.extra["K"] + 2 + 3 * report.epsilon * 2 ** 2.5


class TestPinchingPipeline:
    @pytest.mark.parametrize("n,k", [(2, 12), (3, 12), (4, 12)])
    def test_depth_cost_reconstruction(self, rng, n, k):
        x = random_block(rng, n, n, k)
        report, cert = pinching_pipeline(x)
        assert report.depth == 5
        assert report.passed
        assert report.cost <= operator_norm(x) * (1 + 1e-9) + 1e-12
        target = pinch(x, diagonal_partition(n, k))
        assert verify(cert, target, 1e-9).passed

    def test_pinch_invariant_input_certified_directly(self, rng):
        n, k = 3, 12
        part = diagonal_partition(n, k)
        x = pinch(random_block(rng, n, n, k), part)
        report, cert = pinching_pipeline(x)
        assert report.extra["pinch_invariant"]
        assert verify(cert, x, 1e-9).passed

    def test_zero_input(self):
        x = BlockMatrix(np.zeros((2, 2, 4, 4)))
        report, cert = pinching_pipeline(x)
        assert report.passed
        assert report.cost == 0.0

    def test_zero_input_carries_the_total_bound(self):
        # the report's keys do not depend on the input's value
        x = BlockMatrix(np.zeros((2, 2, 4, 4)))
        report, _ = pinching_pipeline(x, include_total_bound=True)
        assert report.extra == {"pinch_invariant": True, "norm": 0.0, "total_cost": 0.0,
                                "total_bound": 2.0, "total_passed": True}

    def test_indivisible_order_rejected(self, rng):
        x = random_block(rng, 3, 3, 4)
        with pytest.raises(ShapeMismatchError):
            pinching_pipeline(x)

    def test_large_input_keeps_a_finite_epsilon(self):
        # the unscaled sum of squares of x - pinch(x) would overflow
        x = random_instance(3, 12, 7, "blockdiag", 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report, _ = pinching_pipeline(x * 1e200)
        assert report.passed
        assert report.epsilon == pytest.approx(1e200 * pinching_pipeline(x)[0].epsilon, rel=1e-12)

    def test_total_bound_option(self, rng):
        x = random_block(rng, 2, 2, 12)
        report, _ = pinching_pipeline(x, include_total_bound=True)
        assert "total_bound" in report.extra
        assert report.extra["total_cost"] <= report.extra["total_bound"] + 1e-6

    @pytest.mark.parametrize("n,k", [(2, 4), (3, 6), (4, 8)])
    def test_total_bound_on_exactly_pinch_invariant_input(self, n, k):
        # the defect is rounding noise, below spectral_projection's edge slack
        x = random_instance(n, k, 11, "blockdiag", noise=0)
        report, _ = pinching_pipeline(x, include_total_bound=True)
        assert report.passed and report.extra["pinch_invariant"]
        assert report.extra["total_passed"]
        assert report.extra["total_cost"] <= report.extra["total_bound"] + 1e-6


def fresh_verify(cert, target):
    """verify on a copy of cert, so it recomputes rather than reading cert's kept result."""
    return verify(FactorizationCertificate(cert.alphas, cert.diags), target)


class TestReports:
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_pinching_report_is_verify_of_its_certificate(self, noise):
        x = random_instance(3, 12, 5, "blockdiag", noise=noise)
        report, cert = pinching_pipeline(x, include_total_bound=True)
        v = fresh_verify(cert, pinch(x, diagonal_partition(3, 12)))
        assert (report.target.n, report.target.k, report.depth) == (3, 12, cert.d)
        assert (report.cost, report.recon_error) == (v.cost, v.recon_error)
        assert report.passed == (v.passed and v.cost <= report.bound + 1e-12)
        nrm = report.extra["norm"]
        total, _ = assemble_from_approximant(x * (1.0 / nrm), cert.scaled(1.0 / nrm))
        assert report.extra["total_cost"] == total.cost
        assert report.extra["total_bound"] == total.bound
        assert report.extra["total_passed"] == total.passed

    @pytest.mark.parametrize("defect", [0.0, 0.05])
    def test_assembly_report_is_verify_of_its_certificate(self, rng, defect):
        z, near = near_pair(rng, 2, 12, defect)
        report, cert = assemble_from_approximant(z, near)
        v = fresh_verify(cert, z)
        assert (report.target.n, report.target.k, report.depth) == (2, 12, cert.d)
        assert (report.cost, report.recon_error) == (v.cost, v.recon_error)
        assert report.passed == (v.passed and v.cost <= report.bound + 1e-6)


class TestConstructionsRegistry:
    def test_registry_names(self):
        assert set(CONSTRUCTIONS) == {"length1", "lemma5", "sub18", "sub19", "t13"}

    def test_applicability(self):
        # the builders state their own fit: lemma5 and t13 need n | k, sub18 fits any shape
        for name in ("lemma5", "t13"):
            with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=3, k=4"):
                CONSTRUCTIONS[name].build(random_instance(3, 4, seed=0))
            CONSTRUCTIONS[name].build(random_instance(2, 4, seed=0))
        CONSTRUCTIONS["sub18"].build(random_instance(3, 4, seed=0))

    def test_t13_returns_the_pinch_its_pipeline_verified(self, monkeypatch):
        n, k = 3, 12
        x = random_instance(n, k, seed=7)
        calls, reports = [], []

        def counted_pinch(*args):
            calls.append(args)
            return pinch(*args)

        def kept_pipeline(*args, **kwargs):
            report, cert = pinching_pipeline(*args, **kwargs)
            reports.append(report)
            return report, cert

        monkeypatch.setattr(pipeline, "pinch", counted_pinch)
        monkeypatch.setattr(pipeline, "pinching_pipeline", kept_pipeline)
        _, target = CONSTRUCTIONS["t13"].build(x)
        assert len(calls) == 1
        assert len(reports) == 1 and target is reports[0].target
        want = pinch(x, diagonal_partition(n, k))
        assert target.blocks.tobytes() == want.blocks.tobytes()

    @pytest.mark.parametrize("name", ["lemma5", "t13"])  # t13 through pinching_pipeline
    def test_zero_size_is_refused_by_the_partition_rule(self, name):
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=0, k=4"):
            CONSTRUCTIONS[name].build(BlockMatrix(np.zeros((0, 0, 4, 4))))

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_each_construction_verifies(self, name):
        spec = CONSTRUCTIONS[name]
        n, k = (2, 4)
        x = random_instance(n, k, seed=7)
        cert, target = spec.build(x)
        assert verify(cert, target, 1e-9).passed

    @pytest.mark.parametrize("scale", [1e200, 2.0**-600])
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_each_construction_verifies_at_extreme_scale(self, name, scale):
        # the residual's squares would overflow (1e200) or underflow (2**-600) unscaled
        cert, target = CONSTRUCTIONS[name].build(random_instance(2, 4, 1) * scale)
        report = verify(cert, target, 1e-9)
        assert report.passed and np.isfinite(report.recon_error)


class TestRandomInstance:
    def test_haar_blocks_are_unitary_and_seeded(self):
        x = random_instance(2, 3, 5, "haar")
        assert x.blocks.tobytes() == random_instance(2, 3, 5, "haar").blocks.tobytes()
        assert x.blocks.tobytes() != random_instance(2, 3, 6, "haar").blocks.tobytes()
        for block in x.blocks.reshape(-1, 3, 3):
            assert np.abs(block @ block.conj().T - np.eye(3)).max() <= 1e-12

    def test_unknown_distribution_refused(self):
        with pytest.raises(ValueError, match="unknown distribution 'nope'"):
            random_instance(2, 2, 0, "nope")


class TestUniformity:
    @pytest.mark.parametrize("name", ["length1", "sub18", "sub19"])
    def test_digest_stable(self, name):
        r1 = uniformity_check(name, 2, 3, trials=4, seed=11)
        r2 = uniformity_check(name, 2, 3, trials=4, seed=99)
        assert r1["digest"] == r2["digest"]

    def test_trials_minimum(self):
        with pytest.raises(ValueError):
            uniformity_check("length1", 2, 2, trials=1, seed=0)

    def test_inapplicable_shape(self):
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k, got n=3, k=4"):
            uniformity_check("lemma5", 3, 4, trials=2, seed=0)

    def test_digest_depends_on_shape(self):
        a = uniformity_check("length1", 2, 2, trials=2, seed=0)
        b = uniformity_check("length1", 3, 2, trials=2, seed=0)
        assert a["digest"] != b["digest"]


class TestDirectSum:
    def test_shared_scalars_and_restriction(self, rng):
        xs = [random_instance(2, 3, seed=s) for s in (1, 2, 3)]
        cert, targets = direct_sum_certificate(xs, "length1")
        assert cert.k == 9
        for i, t in enumerate(targets):
            sub = restrict_direct_sum(cert, i, 3)
            assert verify(sub, t, 1e-9).passed
            assert scalar_digest(sub)[:8] != ""  # digest well-defined
            for a, b in zip(sub.alphas, cert.alphas):
                np.testing.assert_array_equal(a, b)

    def test_direct_sum_evaluates_blockwise(self, rng):
        xs = [random_instance(2, 2, seed=s) for s in (4, 5)]
        cert, targets = direct_sum_certificate(xs, "length1")
        val = evaluate(cert)
        for i in range(2):
            for j in range(2):
                entry = val.blocks[i, j]
                np.testing.assert_allclose(entry[:2, :2], targets[0].blocks[i, j], atol=1e-10)
                np.testing.assert_allclose(entry[2:, 2:], targets[1].blocks[i, j], atol=1e-10)
                np.testing.assert_allclose(entry[:2, 2:], 0, atol=1e-12)

    def test_cost_is_max_like(self, rng):
        xs = [random_instance(2, 2, seed=s) for s in (6, 7)]
        cert, _ = direct_sum_certificate(xs, "length1")
        parts = [CONSTRUCTIONS["length1"].build(x)[0] for x in xs]
        assert cost(cert) <= max(cost(c) for c in parts) + 1e-9

    @pytest.mark.parametrize("construction", ["length1", "sub19", "t13"])
    def test_diagonals_are_per_entry_block_diagonals(self, construction):
        xs = [random_instance(2, 4, seed=s) for s in (1, 2, 3)]
        cert, _ = direct_sum_certificate(xs, construction)
        parts = [CONSTRUCTIONS[construction].build(x)[0] for x in xs]
        kc = parts[0].k
        for i, D in enumerate(cert.diags):
            want = np.zeros((D.size, 3 * kc, 3 * kc), dtype=np.complex128)
            for j in range(D.size):
                for c, part in enumerate(parts):
                    want[j, c * kc:(c + 1) * kc, c * kc:(c + 1) * kc] = part.diags[i].entries[j]
            assert D.entries.tobytes() == want.tobytes()

    def test_shape_mismatch_rejected(self, rng):
        xs = [random_instance(2, 2, seed=1), random_instance(3, 2, seed=1)]
        with pytest.raises(ShapeMismatchError):
            direct_sum_certificate(xs, "length1")

    def test_indivisible_shape_rejected_by_the_partition_rule(self):
        xs = [random_instance(2, 3, seed=s) for s in (1, 2)]
        with pytest.raises(ShapeMismatchError, match=r"needs n \| k"):
            direct_sum_certificate(xs, "t13")

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            direct_sum_certificate([], "length1")

    def test_restrict_rejects_index_outside_count(self):
        xs = [random_instance(2, 2, seed=s) for s in (1, 2, 3)]
        cert, _ = direct_sum_certificate(xs, "length1")
        with pytest.raises(ShapeMismatchError):
            restrict_direct_sum(cert, 5, 3)
        with pytest.raises(ShapeMismatchError):
            restrict_direct_sum(cert, -1, 3)

    def test_restrict_rejects_count_not_dividing_block_order(self):
        xs = [random_instance(2, 2, seed=s) for s in (1, 2, 3)]
        cert, _ = direct_sum_certificate(xs, "length1")
        with pytest.raises(ShapeMismatchError):
            restrict_direct_sum(cert, 0, 4)

    def test_restrict_rejects_entries_outside_coordinate_blocks(self):
        # k = 6 is divisible by 2, but the three 2 x 2 coordinate blocks
        # straddle the two 3 x 3 blocks a count of 2 would assume
        xs = [random_instance(2, 2, seed=s) for s in (1, 2, 3)]
        cert, _ = direct_sum_certificate(xs, "length1")
        with pytest.raises(ShapeMismatchError):
            restrict_direct_sum(cert, 0, 2)
