"""Completely bounded norm experiments for maps on M_k.

Norms of amplified maps are estimated from below only: exact cb-norm
computation is a global nonconvex problem.  The estimator is an
alternating ascent (optimal output pairing via the top singular pair,
optimal input via the polar factor of the back-propagated pairing) from
several random restarts; every reported value comes with a stored
witness input of norm at most 1.

For a similarity map x -> xi^-1 x xi on M_k the cb norm equals
``||xi|| * ||xi^-1||`` and is attained at amplification level k, which
serves as the exact oracle for the ascent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import DiagonalMatrix, operator_norm
from .certs import FactorizationCertificate

__all__ = [
    "SimilarityHom",
    "InnerDerivation",
    "CbLowerBound",
    "cb_lower_bound",
    "norm_lower",
    "push_through",
    "similarity_cb_check",
    "derivation_check",
]


@dataclass(frozen=True)
class SimilarityHom:
    """The unital homomorphism x -> xi^-1 x xi on M_k."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=np.complex128)
        if xi.ndim != 2 or xi.shape[0] != xi.shape[1]:
            raise ValueError("xi must be square")
        if np.linalg.cond(xi) > 1e14:
            raise ValueError("xi is singular or numerically singular")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "_xi_inv", np.linalg.inv(xi))

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
class InnerDerivation:
    """The inner derivation x -> xT - Tx on M_k (identity representation)."""

    T: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=np.complex128)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be square")
        object.__setattr__(self, "T", T)

    @property
    def k(self) -> int:
        return self.T.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x @ self.T - self.T @ x

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        return y @ self.T.conj().T - self.T.conj().T @ y


@dataclass(frozen=True)
class CbLowerBound:
    value: float
    witness: np.ndarray  # input of norm <= 1 at the witness level
    level: int


def _apply_amplified(op, X: np.ndarray, k: int, m: int, adjoint: bool = False) -> np.ndarray:
    f = op.apply_adjoint if adjoint else op.apply
    B = X.reshape(m, k, m, k).transpose(0, 2, 1, 3)  # B[i, j] is block (i, j)
    return f(B).transpose(0, 2, 1, 3).reshape(m * k, m * k)


def _ascend(op, k: int, m: int, X0: np.ndarray):
    X = X0
    best = -np.inf
    for _ in range(500):
        Y = _apply_amplified(op, X, k, m)
        U, s, Vh = np.linalg.svd(Y)
        val = float(s[0]) if s.size else 0.0
        if val <= best + 1e-8:
            best = max(best, val)
            break
        best = val
        pairing = np.outer(U[:, 0], Vh[0])
        G = _apply_amplified(op, pairing, k, m, adjoint=True)
        Ug, sg, Vgh = np.linalg.svd(G)
        if sg.max(initial=0.0) == 0.0:
            break
        X = Ug @ Vgh  # polar factor: the trace-norm maximizer of Re<G, X>
    return best, X


def cb_lower_bound(op, level: int, restarts: int = 50, seed: int = 0) -> CbLowerBound:
    """Certified lower bound on the amplified-map norm at the given level.

    The best witness of each level is padded with zeros and carried to
    the next, so the bound is nondecreasing in the level by
    construction.  Deterministic for a fixed seed; restarts use
    independent per-(level, restart) substreams.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    k = op.k
    best_val, best_X, best_level = 0.0, None, 1
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
            val, X = _ascend(op, k, m, X0)
            if val > level_best:
                level_best, level_X = val, X
        carried = level_X
        if level_best > best_val:
            best_val, best_X, best_level = level_best, level_X, m
    if best_X is None:
        best_X = np.zeros((k, k), dtype=np.complex128)
    return CbLowerBound(value=float(best_val), witness=best_X, level=best_level)


def norm_lower(op, level: int, restarts: int = 50, seed: int = 0) -> float:
    return cb_lower_bound(op, level, restarts, seed).value


def push_through(u: SimilarityHom, cert: FactorizationCertificate) -> FactorizationCertificate:
    """Apply the homomorphism entrywise to the diagonals of a certificate.

    The result evaluates to the amplified image of the original value,
    and its cost is bounded by the original cost times the certified
    upper bound ``||xi|| ||xi^-1||`` per diagonal factor.
    """
    if u.k != cert.k:
        raise ValueError(f"homomorphism on M_{u.k} does not match certificate over M_{cert.k}")
    diags = tuple(
        DiagonalMatrix(np.stack([u.apply(e) for e in D.entries])) for D in cert.diags
    )
    return FactorizationCertificate(cert.alphas, diags)


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


def derivation_check(
    T: np.ndarray, K: float, d: int, level: int, restarts: int = 50, seed: int = 0
) -> dict:
    """Observational check that the cb norm of x -> xT - Tx stays below K*d times its norm.

    The bound allows 5% slack over ``K * d`` times the level-1 lower bound.

    Both sides are alternating-ascent *lower* bounds, so a pass means
    "consistent with" the inequality, not a proof; the report says so.
    """
    delta = InnerDerivation(T)
    l_cb = norm_lower(delta, level, restarts, seed)
    l_1 = norm_lower(delta, 1, restarts, seed)
    vacuous = l_cb == 0.0 and l_1 == 0.0
    bound = K * d * l_1 * 1.05
    return {
        "lower_cb": l_cb,
        "lower_level1": l_1,
        "K": K,
        "d": d,
        "bound": bound,
        "vacuous": vacuous,
        "consistent": bool(vacuous or l_cb <= bound),
        "proved": False,
    }
