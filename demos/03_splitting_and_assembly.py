"""Certify a matrix from a certificate for a nearby approximant.

If sum_ij tau(x_ij* x_ij) < eps**2, spectral projections of the Gram
square roots at threshold eps*sqrt(n) have trace at most 1/n, and the
uncompressed remainder is entrywise below 2*eps*sqrt(n).  Splitting the
defect z - z' this way lets a certificate for z' extend to one for z
with cost at most K + 2 + 3*eps*n**2.5.
"""

import numpy as np

from oplength import block_l2, normalized_trace, split_small_l2, universal_depth1
from oplength.instances import random_instance
from oplength.pipeline import assemble_from_approximant

n, k = 3, 12
zprime = random_instance(n, k, seed=2)
defect = random_instance(n, k, seed=3)
defect = defect * (0.05 / block_l2(defect))
z = zprime + defect

eps = 0.06
split = split_small_l2(defect, eps)
print(f"defect L2 mass: {block_l2(defect):.4f} < eps = {eps}")
print(
    f"projection traces: tau(p) = {normalized_trace(split.p).real:.4f}, "
    f"tau(q) = {normalized_trace(split.q).real:.4f} (bound 1/{n})"
)
rem = max(
    np.linalg.norm(b, 2) for b in split.remainder.blocks.reshape(-1, k, k)
)
print(f"max remainder entry: {rem:.4f} <= 2*eps*sqrt(n) = {2 * eps * np.sqrt(n):.4f}")

report, cert = assemble_from_approximant(z, universal_depth1(zprime))
print(
    f"assembled certificate: depth {report.depth}, cost {report.cost:.4f} "
    f"<= bound {report.bound:.4f}, passed = {report.passed}"
)
