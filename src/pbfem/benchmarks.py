"""Built-in benchmark problems with reference data.

All four problems are stated directly in the canonical form.  Two-sided
control bounds u in [lo, hi] are modeled with a pair of nonnegative
algebraic variables: u = lo + z_a together with the path equality
z_a + z_b = hi - lo, so z_a, z_b >= 0 encodes the box.  Sign-free
quantities use a plain difference of two nonnegative variables.

Reference trajectories are fine-mesh self-converged solutions stored as
package data with provenance; where the literature documents structure
(bang arcs, switch times), that is recorded as metadata.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .mesh import Trajectory
from .problem import DynamicProblem

__all__ = ["BenchmarkSpec", "build", "registered_names", "control_values"]

GRAVITY = 9.81


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    problem: DynamicProblem
    reference_objective: float | None = None
    reference_trajectory: Trajectory | None = None
    metadata: dict = field(default_factory=dict)

    def reference_control(self, t):
        """Reference control samples, or None when no reference is stored."""
        if self.reference_trajectory is None:
            return None
        return control_values(self.problem, self.reference_trajectory, t)


def control_values(problem: DynamicProblem, trajectory, t) -> np.ndarray:
    """The physical control recovered from the algebraic components."""
    spec = problem.metadata.get("control")
    if spec is None:
        raise InputError("problem has no registered control extractor")
    ny = problem.n_y
    if spec["kind"] == "affine":
        z = trajectory.component(ny + spec["z_index"], t)
        return spec["scale"] * z + spec["offset"]
    if spec["kind"] == "diff":
        return trajectory.component(ny + spec["z_plus"], t) - trajectory.component(
            ny + spec["z_minus"], t
        )
    raise InputError(f"unknown control extractor kind {spec['kind']!r}")


def _boxed_control_oscillator(name, tE, sign, metadata):
    """Shared two-state family: y1' = y2, y2' = rhs(y, u), |u| <= 1,
    y(0) = (0, 1), objective 0.5 * int (y1^2 + sign * y2^2)."""

    def f(yd, y, z, t):
        return 0.5 * (y[0] ** 2 + sign * y[1] ** 2)

    if name == "vanderpol":
        def rhs(y, u):
            return -y[0] + y[1] * (1.0 - y[0] ** 2) + u
    else:
        def rhs(y, u):
            return u

    def c(yd, y, z, t):
        u = z[0] - 1.0
        return [yd[0] - y[1], yd[1] - rhs(y, u), z[0] + z[1] - 2.0]

    def b(y0):
        return [y0[0] - 0.0, y0[1] - 1.0]

    md = {
        "boundary_start": (0.0, 1.0),
        "control": {"kind": "affine", "z_index": 0, "scale": 1.0, "offset": -1.0},
        "control_bounds": (-1.0, 1.0),
    }
    md.update(metadata)
    return DynamicProblem(
        n_y=2, n_z=2, n_c=3, n_b=2, t0=0.0, tE=tE, point_times=(0.0,),
        f=f, c=c, b=b, metadata=md,
    )


def _pendulum(case: str) -> DynamicProblem:
    """Frictionless pendulum swing-down: states (chi1, chi2, v1, v2), rod
    tension xi = z1 - z2 and torque input u = z3 - z4, minimizing the
    integrated squared input over (0, 3)."""
    n_z = 5 if case == "b" else 4
    n_c = 6 if case == "b" else 5

    def f(yd, y, z, t):
        u = z[2] - z[3]
        return u**2

    def c(yd, y, z, t):
        xi = z[0] - z[1]
        u = z[2] - z[3]
        rows = [
            yd[0] - y[2],
            yd[1] - y[3],
            yd[2] - (-2.0 * y[0] * xi - y[1] * u),
            yd[3] - (-GRAVITY - 2.0 * y[1] * xi + y[0] * u),
        ]
        if case == "c":
            rows.append(y[0] ** 2 + y[1] ** 2 - 1.0)
        else:
            rows.append(y[2] ** 2 + y[3] ** 2 - 2.0 * xi - GRAVITY * y[1])
        if case == "b":
            rows.append(z[4] + (xi - 8.0))
        return rows

    def b(y0, yE):
        return [
            y0[0] - 1.0, y0[1] - 0.0, y0[2] - 0.0, y0[3] - 0.0,
            yE[0] - 0.0, yE[1] + 1.0, yE[2] - 0.0, yE[3] - 0.0,
        ]

    md = {
        "boundary_start": (1.0, 0.0, 0.0, 0.0),
        "boundary_end": (0.0, -1.0, 0.0, 0.0),
        "control": {"kind": "diff", "z_plus": 2, "z_minus": 3},
        "dae_index": 3 if case == "c" else 1,
    }
    return DynamicProblem(
        n_y=4, n_z=n_z, n_c=n_c, n_b=8, t0=0.0, tE=3.0, point_times=(0.0, 3.0),
        f=f, c=c, b=b, metadata=md,
    )


def _builders():
    return {
        "vanderpol": lambda: _boxed_control_oscillator(
            "vanderpol", 4.0, 1.0,
            {"switch_times": (1.3667, 2.4601), "singular_window": (2.4601, 4.0)},
        ),
        "regulator": lambda: _boxed_control_oscillator(
            "regulator", 5.0, 1.0, {"singular_window": (1.5, 5.0)},
        ),
        "alychan": lambda: _boxed_control_oscillator(
            "alychan", 0.5 * np.pi, -1.0,
            # the indefinite objective leaves a nearly flat landscape around
            # many stationary controls; starting the continuation at the
            # strongest admissible stage keeps the descent path reproducible
            # across meshes (without it the p = 5 PBF solve ends at
            # F_h = -0.07363 with control error 2.507 on 20 and on 100
            # elements, against -1.01901 and about 1e-9 with it)
            {"singular_window": (0.0, 0.5 * np.pi),
             "solver_hints": {"continuation_start": 0.5}},
        ),
        "pendulum-a": lambda: _pendulum("a"),
        "pendulum-b": lambda: _pendulum("b"),
        "pendulum-c": lambda: _pendulum("c"),
    }


def registered_names():
    return sorted(_builders().keys())


def _load_reference(name: str):
    try:
        path = importlib.resources.files("pbfem").joinpath(f"refdata/{name}.json")
        doc = json.loads(path.read_text())
    except (FileNotFoundError, ModuleNotFoundError):
        return None, None
    return Trajectory.from_json(json.dumps(doc["trajectory"])), doc["objective"]


def build(name: str) -> BenchmarkSpec:
    """Construct a registered benchmark with its reference data."""
    builders = _builders()
    if name not in builders:
        raise InputError(
            f"unknown problem {name!r}; registered: {', '.join(registered_names())}"
        )
    problem = builders[name]()
    ref_traj, ref_obj = _load_reference(name)
    return BenchmarkSpec(
        name=name,
        problem=problem,
        reference_objective=ref_obj,
        reference_trajectory=ref_traj,
        metadata=dict(problem.metadata),
    )
