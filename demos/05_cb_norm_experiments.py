"""Lower bounds on completely bounded norms by alternating ascent.

The cb norm of a map on M_k is the supremum of the amplified norms
||u (x) id_m||.  Exact computation is nonconvex, so the estimator only
reports certified lower bounds: alternate between the optimal output
pairing (top singular pair) and the optimal input (polar factor of the
back-propagated gradient), carrying the best witness across levels.

For the similarity map x -> xi^-1 x xi the cb norm is exactly the
condition number of xi, attained at level k -- an exact oracle.
"""

import numpy as np

from oplength import (
    InnerDerivation,
    SimilarityHom,
    cb_lower_bound,
    derivation_check,
    similarity_cb_check,
)

xi = np.diag([10.0, 1.0, 1.0])
u = SimilarityHom(xi)
print(f"similarity map with xi = diag(10, 1, 1); oracle = {u.norm_upper():.4f}")
for level in (1, 2, 3):
    val = cb_lower_bound(u, level, restarts=20, seed=0).value
    print(f"  level {level}: lower bound {val:.6f}")

check = similarity_cb_check(xi, level=3, restarts=50, seed=0)
print(f"tight against oracle: {check['tight']} (lower = {check['lower']:.6f})")

bound = cb_lower_bound(u, level=3, restarts=20, seed=0)
print(
    f"witness: level {bound.witness.shape[0] // u.k}, input norm "
    f"{np.linalg.norm(bound.witness, 2):.4f} <= 1"
)

# Derivations x -> xT - Tx: both sides of the comparison are lower
# bounds, so the result is observational, never a proof.
T = np.array([[0.0, 1.0], [0.0, 0.0]])
report = derivation_check(T, K=1.0, d=3, level=2, restarts=20)
print(
    f"derivation check: cb lower {report['lower_cb']:.4f} vs bound "
    f"{report['bound']:.4f}; consistent = {report['consistent']}, "
    f"proved = {report['proved']}"
)
