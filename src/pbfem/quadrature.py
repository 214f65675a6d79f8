"""Gauss-Legendre quadrature on the reference interval and over meshes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EvaluationError, InputError
from .polynomials import legendre_deriv, legendre_eval

__all__ = ["QuadratureRule", "gauss_legendre", "integrate_on_mesh"]


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule on (-1, 1), exact for polynomials of degree 2n - 1."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return len(self.nodes)

    @property
    def degree(self) -> int:
        """Highest polynomial degree integrated exactly."""
        return 2 * self.n_points - 1

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the physical interval (a, b)."""
        half = 0.5 * (b - a)
        return 0.5 * (a + b) + half * self.nodes, half * self.weights


@lru_cache(maxsize=None)
def _gauss_legendre_cached(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    # Newton iteration on P_n from Chebyshev initial guesses.
    k = np.arange(n)
    x = -np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        f = np.asarray(legendre_eval(n, x))
        fp = np.asarray(legendre_deriv(n, x))
        dx = f / fp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # enforce symmetry about 0
    fp = np.asarray(legendre_deriv(n, x))
    w = 2.0 / ((1.0 - x**2) * fp**2)
    w = 0.5 * (w + w[::-1])
    return tuple(x), tuple(w)


def _row_dots(w, v):
    """``np.dot(w[b], v[..., b, :])`` for every (leading index, b) row, in
    that order, as one ``matmul``.

    A row times a column takes numpy's dot kernel, so each value equals
    ``np.dot``'s bit for bit.  ``np.dot`` hands BLAS a contiguous copy of a
    broadcast row, so ``v`` is made contiguous first.  Callers add the
    values one by one: ``np.sum`` would add them pairwise."""
    return np.matmul(w[:, None, :], np.ascontiguousarray(v)[..., None]).ravel()


def gauss_legendre(n_points: int) -> QuadratureRule:
    """The ``n_points``-point Gauss-Legendre rule on (-1, 1)."""
    if n_points < 1:
        raise InputError("quadrature rule needs at least one point")
    nodes, weights = _gauss_legendre_cached(n_points)
    return QuadratureRule(np.array(nodes), np.array(weights))


def integrate_on_mesh(mesh, rule: QuadratureRule, integrand) -> float:
    """Composite integral of ``integrand`` over ``mesh`` with ``rule``.

    ``integrand`` must accept a numpy array of times and return values of
    the same shape.  Accumulation runs interval-major, node-minor, so the
    result is reproducible run to run.
    """
    total = 0.0
    for a, b in mesh.intervals:
        t, w = rule.mapped(a, b)
        v = np.asarray(integrand(t), dtype=float)
        if not np.all(np.isfinite(v)):
            bad = t[~np.isfinite(v)][0]
            raise EvaluationError(f"non-finite integrand at t = {bad:.6g}", node=bad)
        total += float(np.dot(w, v))
    return total
