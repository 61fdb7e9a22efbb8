"""Depth-5 certificates for pinched matrices, and shared scalar factors.

Pinching by an orthogonal partition of trace-1/n projections sends x to
[sum_m p_m x_ij p_m].  Each compressed piece is certified at depth 3 and
the pieces are recombined by conjugating their direct sum with an exact
scalar*diagonal*scalar decomposition of the partition row, giving depth
5 and cost at most ||x||.  The scalar factors depend only on the shape,
so a whole family of inputs shares them in one direct-sum certificate.
"""

from oplength import (
    cost,
    direct_sum_certificate,
    operator_norm,
    pinching_pipeline,
    restrict_direct_sum,
    scalar_digest,
    uniformity_check,
    verify,
)
from oplength.instances import random_instance

n, k = 3, 12
x = random_instance(n, k, seed=4)
report, cert = pinching_pipeline(x)
print(
    f"pinching pipeline: depth {report.depth}, cost {report.cost:.4f} "
    f"<= ||x|| = {operator_norm(x):.4f}, passed = {report.passed}"
)

# Pinch-invariant inputs are certified directly.
xi = random_instance(n, k, seed=5, distribution="blockdiag", noise=0.0)
ri, ci = pinching_pipeline(xi)
print(
    f"pinch-invariant input: certificate covers x itself -> "
    f"{verify(ci, xi, 1e-9).passed}"
)

# Scalar factors are a function of the shape alone.
check = uniformity_check("t13", n, k, trials=5, seed=0)
print(f"scalar digest over 5 inputs: {check['digest'][:16]}... (stable)")

# One certificate over the direct sum of three algebras.
xs = [random_instance(2, 4, seed=s) for s in (10, 11, 12)]
dsum, targets = direct_sum_certificate(xs, "length1")
print(f"direct-sum certificate over M_4^3: k = {dsum.k}, cost {cost(dsum):.4f}")
for i, t in enumerate(targets):
    ok = verify(restrict_direct_sum(dsum, i, 3), t, 1e-9).passed
    print(f"  coordinate {i}: restriction verifies = {ok}")
print(f"shared scalars digest: {scalar_digest(dsum)[:16]}...")

print(f"certificate target check: {verify(cert, report.target, 1e-9).passed}")
