"""Meshes, the piecewise-polynomial trial space, and trajectories.

The trial space uses a nodal Lagrange basis at Gauss-Lobatto points on each
interval.  Differential-state components share their interval-endpoint
coefficients, which enforces continuity structurally; algebraic components
are discontinuous by default (independent coefficients per interval) with a
switch for the all-continuous variant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import InputError, InternalError
from .newton import _factor
from .polynomials import basis_deriv_matrix, basis_matrix, gauss_lobatto_nodes
from .quadrature import gauss_legendre

__all__ = [
    "Mesh",
    "uniform_mesh",
    "FESpace",
    "Trajectory",
    "evaluate",
    "best_approximation",
    "norm_equivalence_bound_check",
]


class Mesh:
    """Ordered disjoint intervals whose closures cover [t0, tE]."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or len(nodes) < 2:
            raise InputError("a mesh needs at least two nodes")
        if not np.all(np.diff(nodes) > 0):
            raise InputError("mesh nodes must be strictly increasing")
        self.nodes = nodes

    @classmethod
    def from_intervals(cls, intervals) -> "Mesh":
        intervals = sorted((float(a), float(b)) for a, b in intervals)
        # no intervals give no nodes, which the constructor refuses
        nodes = [a for a, _ in intervals[:1]]
        for a, b in intervals:
            if not np.isclose(a, nodes[-1]):
                raise InputError("intervals must be disjoint and cover the horizon")
            nodes.append(b)
        return cls(nodes)

    @property
    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.nodes[:-1], self.nodes[1:]))

    @property
    def n_intervals(self) -> int:
        return len(self.nodes) - 1

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def tE(self) -> float:
        return float(self.nodes[-1])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def h(self) -> float:
        """Largest interval length."""
        return float(np.max(self.lengths))

    @property
    def sigma(self) -> float:
        """Quasi-uniformity ratio: smallest over largest interval length."""
        return float(np.min(self.lengths) / np.max(self.lengths))

    def interval_index(self, t) -> np.ndarray:
        """Interval containing ``t``; interior boundaries go to the left
        interval (left-limit convention), t0 to the first."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.t0 - 1e-12) or np.any(t > self.tE + 1e-12):
            raise InputError("time outside the horizon")
        idx = np.searchsorted(self.nodes, t, side="left") - 1
        return np.clip(idx, 0, self.n_intervals - 1)

    def __eq__(self, other):
        return isinstance(other, Mesh) and np.array_equal(self.nodes, other.nodes)

    def __repr__(self):
        return f"Mesh({self.n_intervals} intervals on [{self.t0:g}, {self.tE:g}])"


def uniform_mesh(t0: float, tE: float, n_intervals: int) -> Mesh:
    """``n_intervals`` equal intervals on (t0, tE)."""
    if n_intervals < 1:
        raise InputError("n_intervals must be at least 1")
    if not t0 < tE:
        raise InputError("t0 must be smaller than tE")
    return Mesh(np.linspace(t0, tE, n_intervals + 1))


class FESpace:
    """Trial space: degree-p piecewise polynomials over a mesh.

    Differential components (``n_y`` of them) are continuous; algebraic
    components (``n_z``) are discontinuous unless ``z_continuous``.
    Coefficients are nodal values at the per-interval Gauss-Lobatto points.
    """

    def __init__(self, mesh: Mesh, p: int, n_y: int, n_z: int, z_continuous=False):
        if p < 0:
            raise InputError("polynomial degree must be nonnegative")
        if n_y < 0 or n_z < 0 or n_y + n_z == 0:
            raise InputError("need at least one component")
        if n_y > 0 and p == 0:
            raise InputError("continuous components need degree p >= 1")
        self.mesh = mesh
        self.p = p
        self.n_y = n_y
        self.n_z = n_z
        self.z_continuous = bool(z_continuous)
        self.ref_nodes = np.array(gauss_lobatto_nodes(p))
        self._build_dof_maps()

    def _build_dof_maps(self):
        nb, p = self.mesh.n_intervals, self.p
        y_dofs = np.full((self.n_y, nb, p + 1), -1, dtype=int)
        z_dofs = np.full((self.n_z, nb, p + 1), -1, dtype=int)
        counter = 0
        for b in range(nb):
            for j in range(self.n_y):
                if b == 0:
                    y_dofs[j, b, 0] = counter
                    counter += 1
                else:
                    y_dofs[j, b, 0] = y_dofs[j, b - 1, p]
            for l in range(1, p + 1):
                for j in range(self.n_y):
                    y_dofs[j, b, l] = counter
                    counter += 1
            z_start = 1 if (self.z_continuous and b > 0) else 0
            for j in range(self.n_z):
                if self.z_continuous and b > 0:
                    z_dofs[j, b, 0] = z_dofs[j, b - 1, p]
            for l in range(z_start, p + 1):
                for j in range(self.n_z):
                    z_dofs[j, b, l] = counter
                    counter += 1
        self.y_dofs = y_dofs
        self.z_dofs = z_dofs
        self.dimension = counter
        zc = np.unique(z_dofs)
        self.z_dof_indices = zc[zc >= 0]

    @property
    def n_components(self) -> int:
        return self.n_y + self.n_z

    def component_dofs(self, comp: int) -> np.ndarray:
        """Dof map (n_intervals, p + 1) of one component, y first then z."""
        if comp < self.n_y:
            return self.y_dofs[comp]
        return self.z_dofs[comp - self.n_y]

    def _component_is_continuous(self, comp: int) -> bool:
        return comp < self.n_y or self.z_continuous

    def zero_coeffs(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def interpolate(self, funcs) -> "Trajectory":
        """Nodal interpolant of callables ``funcs[comp](t)`` (y then z)."""
        coeffs = self.zero_coeffs()
        for b, (a, c) in enumerate(self.mesh.intervals):
            t = 0.5 * (a + c) + 0.5 * (c - a) * self.ref_nodes
            for comp in range(self.n_components):
                coeffs[self.component_dofs(comp)[b]] = np.asarray(funcs[comp](t))
        return Trajectory(self, coeffs)

    def point_evaluation_row(self, comp: int, t: float):
        """Global sparse row evaluating component ``comp`` at time ``t``;
        returns (dof_indices, weights)."""
        b = int(self.mesh.interval_index(t))
        a, c = self.mesh.nodes[b], self.mesh.nodes[b + 1]
        ref = (2.0 * t - (a + c)) / (c - a)
        return self.component_dofs(comp)[b], basis_matrix(tuple(self.ref_nodes), [ref])[0]

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "mesh_nodes": self.mesh.nodes.tolist(),
            "p": self.p,
            "n_y": self.n_y,
            "n_z": self.n_z,
            "z_continuous": self.z_continuous,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FESpace":
        return cls(Mesh(d["mesh_nodes"]), d["p"], d["n_y"], d["n_z"], d["z_continuous"])


@dataclass
class Trajectory:
    """A member of the trial space: flat global coefficient vector."""

    space: FESpace
    coeffs: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coeffs is None:
            self.coeffs = self.space.zero_coeffs()
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.dimension,):
            raise InputError(
                f"coefficient vector must have length {self.space.dimension}"
            )

    def __call__(self, t, derivative_order: int = 0) -> np.ndarray:
        return evaluate(self, t, derivative_order)

    def component(self, comp: int, t, derivative_order: int = 0) -> np.ndarray:
        """Evaluate a single component at array-valued ``t``."""
        space = self.space
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = space.mesh.interval_index(t)
        a = space.mesh.nodes[idx]
        c = space.mesh.nodes[idx + 1]
        ref = (2.0 * t - (a + c)) / (c - a)
        if derivative_order == 0:
            B = basis_matrix(tuple(space.ref_nodes), ref)
        elif derivative_order == 1:
            B = basis_deriv_matrix(tuple(space.ref_nodes), ref) * (2.0 / (c - a))[:, None]
        else:
            raise InputError("derivative_order must be 0 or 1")
        dofs = space.component_dofs(comp)[idx]  # (nt, p+1)
        return np.einsum("tl,tl->t", B, self.coeffs[dofs])

    def to_json(self) -> str:
        return json.dumps(
            {"space": self.space.to_dict(), "coeffs": self.coeffs.tolist()}
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        return cls(FESpace.from_dict(d["space"]), np.array(d["coeffs"]))

    @classmethod
    def from_json(cls, text: str) -> "Trajectory":
        return cls.from_dict(json.loads(text))


def evaluate(trajectory: Trajectory, t, derivative_order: int = 0) -> np.ndarray:
    """All components of a trajectory at time(s) ``t``.

    Returns shape ``(n_components,)`` for scalar ``t`` or
    ``(n_components, nt)`` for array input.  At interval boundaries,
    discontinuous components take the left-interval value.
    """
    scalar = np.isscalar(t) or np.asarray(t).ndim == 0
    out = np.stack(
        [
            trajectory.component(comp, t, derivative_order)
            for comp in range(trajectory.space.n_components)
        ]
    )
    return out[:, 0] if scalar else out


def best_approximation(space: FESpace, target) -> Trajectory:
    """Componentwise L2 projection of ``target`` onto the trial space,
    integrated by a Gauss rule of 2p + 4 points per interval.

    ``target[comp]`` is a callable of a time array.  For continuous
    components the projection is taken within the continuous subspace via
    the (banded) normal equations.
    """
    rule = gauss_legendre(2 * space.p + 4)
    nodes = tuple(space.ref_nodes)
    V = basis_matrix(nodes, rule.nodes)  # (q, p+1)
    coeffs = space.zero_coeffs()
    gram_ref = V.T @ (rule.weights[:, None] * V)  # reference Gram / (len/2)

    for comp in range(space.n_components):
        dofs = space.component_dofs(comp)
        if not space._component_is_continuous(comp):
            for b, (a, c) in enumerate(space.mesh.intervals):
                t, w = rule.mapped(a, c)
                rhs = V.T @ (w * np.asarray(target[comp](t)))
                half = 0.5 * (c - a)
                coeffs[dofs[b]] = np.linalg.solve(half * gram_ref, rhs)
        else:
            n = space.dimension
            rows, cols, data = [], [], []
            rhs = np.zeros(n)
            for b, (a, c) in enumerate(space.mesh.intervals):
                t, w = rule.mapped(a, c)
                half = 0.5 * (c - a)
                G = half * gram_ref
                rows.append(np.broadcast_to(dofs[b][:, None], G.shape).ravel())
                cols.append(np.broadcast_to(dofs[b][None, :], G.shape).ravel())
                data.append(G.ravel())
                rhs[dofs[b]] += V.T @ (w * np.asarray(target[comp](t)))
            used = np.unique(dofs)
            A = scipy.sparse.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n),
            ).tocsc()
            sub = A[used][:, used]
            try:
                sol = _factor(sub.tocsc()).solve(rhs[used])
            except RuntimeError as exc:  # pragma: no cover
                raise InternalError(f"singular Gram matrix: {exc}") from exc
            coeffs[used] = sol
    return Trajectory(space, coeffs)


def norm_equivalence_bound_check(poly_coeffs, interval, p: int):
    """Check the inverse inequality sup <= (p+1)/sqrt(|T|) * L2 on one interval.

    ``poly_coeffs`` are Legendre coefficients on the reference interval,
    mapped affinely onto ``interval``.  The sup norm is measured by dense
    sampling (50 * (p+1) points) plus one Newton refinement on the
    derivative at the best sample; the L2 norm by exact Gauss quadrature.
    Returns ``(sup_norm, l2_norm, bound_satisfied)``.
    """
    a, b = float(interval[0]), float(interval[1])
    coeffs = np.zeros(p + 1)
    coeffs[: len(poly_coeffs)] = poly_coeffs

    def u(x):  # x on reference interval
        return np.polynomial.legendre.legval(x, coeffs)

    du = np.polynomial.legendre.legder(coeffs)

    xs = np.linspace(-1.0, 1.0, 50 * (p + 1))
    vals = np.abs(u(xs))
    i = int(np.argmax(vals))
    sup = float(vals[i])
    if 0 < i < len(xs) - 1 and p >= 2:
        # one Newton step on u' to refine the interior extremum
        x0 = xs[i]
        d1 = np.polynomial.legendre.legval(x0, du)
        d2 = np.polynomial.legendre.legval(x0, np.polynomial.legendre.legder(du))
        if d2 != 0.0:
            x1 = np.clip(x0 - d1 / d2, -1.0, 1.0)
            sup = max(sup, float(abs(u(x1))))

    rule = gauss_legendre(p + 1)  # exact for degree 2p
    half = 0.5 * (b - a)
    l2 = float(np.sqrt(half * np.dot(rule.weights, u(rule.nodes) ** 2)))
    bound = (p + 1) / np.sqrt(b - a) * l2
    return sup, l2, bool(sup <= bound * (1.0 + 1e-12))
