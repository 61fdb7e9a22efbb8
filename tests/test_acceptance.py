"""Acceptance gate: one printed pass/fail line per criterion.

Each test exercises the corresponding guarantee at its pinned tolerance
and prints a single ``[criterion NN] ... PASS|FAIL`` line (run pytest
with ``-s`` or read captured output to see them).  Certificates built
here are pooled so the global soundness criterion at the end sees every
certificate produced by the suite.
"""

import time

import numpy as np
import pytest

from oplength import (
    CONSTRUCTIONS,
    block_l2,
    cb_lower_bound,
    cost,
    diagonal_embedding_certificate,
    diagonal_partition,
    direct_sum_certificate,
    evaluate,
    factor_through_family,
    family_from_projections,
    operator_norm,
    pad,
    pinch,
    pinching_pipeline,
    restrict_direct_sum,
    scalar_digest,
    split_small_l2,
    universal_depth1,
    verify,
    SimilarityHom,
)
from oplength.blocks import ShapeMismatchError, block_diag
from oplength.constructions import partition_row_decomposition
from oplength.instances import random_instance
from oplength.pipeline import assemble_from_approximant

# every certificate produced during the acceptance run, for criterion 12
_POOL = []


def _pool(cert):
    _POOL.append(cert)
    return cert


def _report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _entry_max(x):
    return max(np.linalg.norm(b, 2) for b in x.blocks.reshape(-1, x.k, x.k))


SHAPES = [(n, k) for n in (2, 3, 4, 6) for k in (2, 3, 4, 12)]


def _instances(count):
    out = []
    s = 0
    while len(out) < count:
        n, k = SHAPES[len(out) % len(SHAPES)]
        out.append(random_instance(n, k, seed=s))
        s += 1
    return out


def test_01_reconstruction_suite():
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for x in _instances(100):
        for name, spec in CONSTRUCTIONS.items():
            if name in ("lemma5", "t13") and x.k % x.n:
                with pytest.raises(ShapeMismatchError, match=r"needs n \| k"):
                    spec.build(x)
                continue
            cert, target = spec.build(x)
            _pool(cert)
            rep = verify(cert, target, 1e-9)
            worst = max(worst, rep.recon_error)
            checked += 1
            if not rep.passed:
                _report(1, False, f"{name} failed on n={x.n}, k={x.k}")
    dt = time.perf_counter() - t0
    ok = worst <= 1e-9 and dt < 60
    _report(1, ok, f"{checked} certificates, worst rel err {worst:.2e}, {dt:.1f}s")


def test_02_universal_depth1_constant():
    worst = 0.0
    for x in _instances(40):
        cert = _pool(universal_depth1(x))
        bound = x.n ** 2 * _entry_max(x) * (1 + 1e-12)
        if bound > 0:
            worst = max(worst, cost(cert) / bound)
    ok = worst <= 1.0
    _report(2, ok, f"max cost/(n^2 max entry) ratio {worst:.6f}")


def test_03_family_factorization_bounds():
    worst_mid, worst_total = 0.0, 0.0
    for x in _instances(30):
        if x.k % x.n:
            continue
        part = diagonal_partition(x.n, x.k)
        fam = family_from_projections(part.projections[0], part.projections[0], x.n)
        cert = _pool(factor_through_family(x, fam))
        nx = operator_norm(x)
        sup_a = max(np.linalg.norm(a, 2) for a in fam.a)
        sup_d = max(np.linalg.norm(d, 2) for d in fam.d)
        mid = max(np.linalg.norm(e, 2) for e in cert.diags[1].entries)
        worst_mid = max(worst_mid, mid - nx)
        worst_total = max(worst_total, cost(cert) - sup_a * sup_d * nx * (1 + 1e-9))
    ok = worst_mid <= 1e-9 and worst_total <= 0
    _report(3, ok, f"max mid-entry excess {worst_mid:.2e}, max total excess {worst_total:.2e}")


def test_04_corner_embeddings():
    from oplength import corner_embedding_certificate

    worst = 0.0
    ok = True
    for n in (2, 3):
        for base in (2, 3):
            x = random_instance(n, base, seed=n * 10 + base)
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    cert = _pool(corner_embedding_certificate(x, r, s))
                    ok = ok and cert.d == 3
                    worst = max(worst, cost(cert) / (operator_norm(x) * (1 + 1e-9)))
    ok = ok and worst <= 1.0
    _report(4, ok, f"depth 3 everywhere, max cost/||x|| {worst:.6f}")


def test_05_row_identity_and_depth5():
    worst_res = 0.0
    for n, k in [(2, 4), (3, 6), (4, 8)]:
        part = diagonal_partition(n, k)
        row = partition_row_decomposition(part)
        # the n x n**2 block row with entry delta_ij p_m at column (m, j), built densely
        dense_row = np.hstack([np.kron(np.eye(n), pm) for pm in part.projections])
        eye = np.eye(k)
        product = np.kron(row.alpha0, eye) @ block_diag(row.diag.entries) @ np.kron(row.w, eye)
        res = operator_norm(product - dense_row)
        worst_res = max(worst_res, res)
    worst_cost = 0.0
    ok_depth = True
    for n, base in [(2, 2), (3, 2)]:
        x = random_instance(n, base, seed=77 + n)
        cert = _pool(diagonal_embedding_certificate(x))
        ok_depth = ok_depth and cert.d == 5
        worst_cost = max(worst_cost, cost(cert) / (operator_norm(x) * (1 + 1e-9)))
    ok = worst_res <= 1e-12 and ok_depth and worst_cost <= 1.0
    _report(5, ok, f"row residual {worst_res:.2e}, depth-5 max cost/||x|| {worst_cost:.6f}")


def test_06_spectral_split_bounds():
    slack = 1e-9
    ok = True
    worst = 0.0
    for t in range(50):
        n, k = [(2, 4), (3, 9), (4, 12), (6, 12)][t % 4]
        eps = 0.1 + 0.01 * (t % 5)
        x = random_instance(n, k, seed=500 + t)
        x = x * (0.6 * eps / block_l2(x))
        s = split_small_l2(x, eps)
        rt = eps * np.sqrt(n)
        tau_p = np.trace(s.p).real / k
        tau_q = np.trace(s.q).real / k
        rem = max(np.linalg.norm(b, 2) for b in s.remainder.blocks.reshape(-1, k, k))
        qc = np.eye(k) - s.q
        pc = np.eye(k) - s.p
        one_r = max(
            np.linalg.norm(b @ qc, 2) for b in x.blocks.reshape(-1, k, k)
        )
        one_l = max(
            np.linalg.norm(pc @ b @ s.q, 2) for b in x.blocks.reshape(-1, k, k)
        )
        checks = [
            tau_p - (1 / n + slack),
            tau_q - (1 / n + slack),
            rem - (2 * rt + slack),
            one_r - (rt + slack),
            one_l - (rt + slack),
        ]
        worst = max(worst, *checks)
        ok = ok and all(c <= 0 for c in checks)
    _report(6, ok, f"50 splits, worst bound excess {worst:.2e}")


def test_07_assembly_bound():
    ok = True
    detail = []
    for n in (2, 3):
        k = 12
        for t in range(3):
            zp = random_instance(n, k, seed=900 + 10 * n + t)
            x = random_instance(n, k, seed=901 + 10 * n + t)
            x = x * (0.05 / block_l2(x))
            z = zp + x
            report, cert = assemble_from_approximant(z, universal_depth1(zp))
            _pool(cert)
            ok = ok and report.passed and report.cost <= report.bound + 1e-6
            detail.append(f"n={n}: {report.cost:.3f}<={report.bound:.3f}")
    _report(7, ok, "; ".join(detail[:4]))


def test_08_pinching_depth5():
    ok = True
    worst = 0.0
    for n in (2, 3, 4):
        k = 12
        x = random_instance(n, k, seed=40 + n)
        report, cert = pinching_pipeline(x)
        _pool(cert)
        ok = ok and report.depth == 5 and report.passed
        target = pinch(x, diagonal_partition(n, k))
        worst = max(worst, cost(cert) / (operator_norm(x) * (1 + 1e-9)))
        ok = ok and verify(cert, target, 1e-9).passed
        # pinch-invariant input: the certificate covers x itself
        xi = random_instance(n, k, seed=60 + n, distribution="blockdiag", noise=0.0)
        _, ci = pinching_pipeline(xi)
        _pool(ci)
        ok = ok and verify(ci, xi, 1e-9).passed
    _report(8, ok, f"depth 5, max cost/||x|| {worst:.6f}, invariant inputs covered")


def test_09_uniformity_and_direct_sums():
    ok = True
    for name in ("length1", "sub18", "sub19"):
        digests = set()
        for seed in range(10):
            x = random_instance(2, 3, seed=1000 + seed)
            cert, _ = CONSTRUCTIONS[name].build(x)
            digests.add(scalar_digest(cert))
        ok = ok and len(digests) == 1
    xs = [random_instance(2, 3, seed=2000 + s) for s in range(3)]
    cert, targets = direct_sum_certificate(xs, "length1")
    _pool(cert)
    for i, t in enumerate(targets):
        ok = ok and verify(restrict_direct_sum(cert, i, 3), t, 1e-9).passed
    _report(9, ok, "digests stable over 10 seeds; direct-sum restrictions verify")


def test_10_pad_preserves():
    worst_v, worst_c = 0.0, 0.0
    pool = _POOL or [universal_depth1(random_instance(2, 2, seed=1))]
    for cert in pool[:60]:
        padded = pad(cert)
        scale = max(1.0, cost(cert))
        worst_v = max(
            worst_v, operator_norm(evaluate(padded) - evaluate(cert)) / scale
        )
        worst_c = max(worst_c, abs(cost(padded) - cost(cert)) / scale)
    ok = worst_v <= 1e-12 and worst_c <= 1e-12
    _report(10, ok, f"value drift {worst_v:.2e}, cost drift {worst_c:.2e}")


def test_11_cb_similarity_oracle():
    ok = True
    detail = []
    for k in (2, 3):
        for c in (2.0, 10.0):
            xi = np.diag([c] + [1.0] * (k - 1))
            t0 = time.perf_counter()
            lower = cb_lower_bound(SimilarityHom(xi), level=k, restarts=50, seed=0).value
            dt = time.perf_counter() - t0
            good = 0.98 * c <= lower <= c * (1 + 1e-6) and dt < 30
            ok = ok and good
            detail.append(f"k={k},c={c:g}: {lower:.6f} ({dt:.1f}s)")
    _report(11, ok, "; ".join(detail))


def test_12_global_soundness():
    # runs last: every certificate built above must dominate its own value
    worst = -np.inf
    for cert in _POOL:
        worst = max(worst, operator_norm(evaluate(cert)) - cost(cert))
    ok = len(_POOL) > 0 and worst <= 1e-9
    _report(12, ok, f"{len(_POOL)} certificates, max ||evaluate|| - cost = {worst:.2e}")
