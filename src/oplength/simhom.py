"""Completely bounded norm experiments for maps on M_k.

Norms of amplified maps are estimated from below only: exact cb-norm
computation is a global nonconvex problem.  The estimator is an
alternating ascent (optimal output pairing via the top singular pair,
optimal input via the polar factor of the back-propagated pairing) from
several random restarts; every reported value comes with a stored
witness input of norm at most 1 up to rounding.

For a similarity map x -> xi^-1 x xi on M_k the cb norm equals
``||xi|| * ||xi^-1||`` and is attained at amplification level k, which
serves as the exact oracle for the ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import operator_norm

__all__ = [
    "SimilarityHom",
    "CbLowerBound",
    "cb_lower_bound",
    "similarity_cb_check",
]


@dataclass(frozen=True)
class SimilarityHom:
    """The unital homomorphism x -> xi^-1 x xi on M_k."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.complex128)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ValueError("xi must be square")
        if not np.all(np.isfinite(xi)):
            raise ValueError("xi has non-finite entries")
        if not np.linalg.cond(xi) <= 1e14:  # a NaN condition number fails too
            raise ValueError("xi is singular or numerically singular")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "_xi_inv", np.linalg.inv(xi))
        # || |xi^-1| |x| |xi| || <= _abs_scale ||x||_F, for cb_lower_bound's margin
        object.__setattr__(self, "_abs_scale", np.linalg.norm(self._xi_inv) * np.linalg.norm(xi))

    @property
    def k(self) -> int:
        return self.xi.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._xi_inv @ x @ self.xi

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        # adjoint for the trace pairing <y, xi^-1 x xi>
        return self._xi_inv.conj().T @ y @ self.xi.conj().T

    def norm_upper(self) -> float:
        """The certified upper bound ||xi|| * ||xi^-1|| (also the cb norm)."""
        return operator_norm(self.xi) * operator_norm(self._xi_inv)


@dataclass(frozen=True)
class CbLowerBound:
    """An amplified-norm lower bound; the witness is the ascent iterate attaining it."""

    value: float
    witness: np.ndarray  # order m k at level m, carried to level m + 1; norm <= 1 + 4Nu, N = m k


def _apply_amplified(f, X: np.ndarray, k: int) -> np.ndarray:
    """f applied to each k x k block of X (f is ``op.apply`` or ``op.apply_adjoint``)."""
    m = X.shape[0] // k
    B = X.reshape(m, k, m, k).transpose(0, 2, 1, 3)  # B[i, j] is block (i, j)
    return f(B).transpose(0, 2, 1, 3).reshape(m * k, m * k)


def _ascend(op, X0: np.ndarray):
    """The largest computed sigma_max(fl(op_m(X))) over the iterates, and the X attaining it."""
    k = op.k
    X = best_X = X0
    best = -np.inf
    for _ in range(500):
        Y = _apply_amplified(op.apply, X, k)
        U, s, Vh = np.linalg.svd(Y)
        val = float(s[0]) if s.size else 0.0
        improved = val > best + 1e-8
        if val > best:
            best, best_X = val, X
        if not improved:
            break
        pairing = np.outer(U[:, 0], Vh[0])
        G = _apply_amplified(op.apply_adjoint, pairing, k)
        Ug, sg, Vgh = np.linalg.svd(G)
        if sg.max(initial=0.0) == 0.0:
            break
        X = Ug @ Vgh  # polar factor: the trace-norm maximizer of Re<G, X>
    return best, best_X


def cb_lower_bound(op, level: int, restarts: int = 50, seed: int = 0) -> CbLowerBound:
    """Certified lower bound on the amplified-map norm at the given level.

    Each level's witness, the iterate attaining its value, is padded
    with zeros and carried to the next, so the bound is nondecreasing in
    the level by construction.  Deterministic for a fixed seed; restarts
    use independent per-(level, restart) substreams.

    A level's value v, the computed top singular value of Y' = fl(op(X))
    for an iterate X of order N = m k, is rounded down to hold exactly
    (u = 2**-53, g = 1 + 4Nu, s = ``op._abs_scale``).  Each block of Y'
    takes at most two complex k x k products, each within sqrt(2)
    gamma_{k+2} |L| |X| |R|, so ||Y' - op(X)|| <= 5 (k + 2) u s sqrt(N) ||X||;
    LAPACK's SVD is backward stable, taken as ||Y'|| >= v / g; an iterate
    is a normalized start or a product of two computed unitaries, so
    ||X|| <= g.  Hence ||op_m|| >= (v / g - 5 (k + 2) u s sqrt(N) g) / g,
    times 1 - 8u for the roundings of that expression.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    k, u = op.k, np.finfo(float).eps / 2
    best_val, best_X = 0.0, np.zeros((k, k), dtype=np.complex128)
    carried = None
    for m in range(1, level + 1):
        starts = []
        if carried is not None:
            pad = np.zeros((m * k, m * k), dtype=np.complex128)
            pad[: (m - 1) * k, : (m - 1) * k] = carried
            starts.append(pad)
        for r in range(restarts):
            rng = np.random.default_rng([seed, m, r])
            X0 = rng.standard_normal((m * k, m * k)) + 1j * rng.standard_normal((m * k, m * k))
            starts.append(X0 / operator_norm(X0))
        level_best, level_X = -np.inf, None
        for X0 in starts:
            val, X = _ascend(op, X0)
            if val > level_best:
                level_best, level_X = val, X
        carried = level_X
        g = 1 + 4 * m * k * u
        level_best = (level_best / g - 5 * (k + 2) * u * op._abs_scale * np.sqrt(m * k) * g) / g
        level_best *= 1 - 8 * u
        if level_best > best_val:
            best_val, best_X = level_best, level_X
    return CbLowerBound(value=float(best_val), witness=best_X)


def similarity_cb_check(xi: np.ndarray, level: int, restarts: int = 50, seed: int = 0) -> dict:
    """Ascent lower bound vs the condition-number oracle for x -> xi^-1 x xi."""
    u = SimilarityHom(xi)
    bound = cb_lower_bound(u, level, restarts, seed)
    oracle = u.norm_upper()
    return {
        "lower": bound.value,
        "oracle": oracle,
        "level": level,
        "restarts": restarts,
        "consistent": bool(bound.value <= oracle * (1 + 1e-6)),
        "tight": bool(bound.value >= 0.98 * oracle),
    }
