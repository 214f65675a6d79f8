import importlib.resources
import json

import numpy as np
import pytest

from pbfem import (
    FESpace,
    InputError,
    Trajectory,
    control_values,
    evaluate_dae_residual,
    registered_names,
    uniform_mesh,
)
from pbfem.benchmarks import build


EXPECTED = ["alychan", "pendulum-a", "pendulum-b", "pendulum-c",
            "regulator", "vanderpol"]


def test_registry():
    assert registered_names() == EXPECTED
    with pytest.raises(InputError):
        build("brachistochrone")


@pytest.mark.parametrize("name", EXPECTED)
def test_problems_well_formed(name):
    spec = build(name)
    prob = spec.problem
    assert prob.tE > prob.t0
    # every problem evaluates cleanly at an interior point
    y = [0.1] * prob.n_y
    yd = [0.0] * prob.n_y
    z = [1.0] * prob.n_z
    res = evaluate_dae_residual(prob, yd, y, z, 0.5 * (prob.t0 + prob.tE))
    assert res.shape == (prob.n_c,)
    assert np.all(np.isfinite(res))


def test_dimensions():
    assert build("vanderpol").problem.n_y == 2
    assert build("vanderpol").problem.n_z == 2
    pa = build("pendulum-a").problem
    assert (pa.n_y, pa.n_z, pa.n_c, pa.n_b) == (4, 4, 5, 8)
    pb = build("pendulum-b").problem
    assert (pb.n_z, pb.n_c) == (5, 6)  # slack for the beam-force bound
    assert build("pendulum-c").metadata["dae_index"] == 3
    assert build("pendulum-a").metadata["dae_index"] == 1


def test_boxed_control_extraction():
    prob = build("regulator").problem
    space = FESpace(uniform_mesh(prob.t0, prob.tE, 2), 1, prob.n_y, prob.n_z)
    traj = space.interpolate(
        [lambda t: np.zeros_like(t)] * prob.n_y
        + [lambda t: np.full_like(t, 1.6), lambda t: np.full_like(t, 0.4)]
    )
    u = control_values(prob, traj, np.array([0.5, 2.5]))
    assert np.allclose(u, 0.6)  # u = z1 - 1 with the box encoded as z1 + z2 = 2


def test_diff_control_extraction():
    prob = build("pendulum-a").problem
    space = FESpace(uniform_mesh(prob.t0, prob.tE, 2), 1, prob.n_y, prob.n_z)
    funcs = [lambda t: np.zeros_like(t)] * prob.n_y + [
        lambda t: np.ones_like(t),
        lambda t: np.ones_like(t),
        lambda t: np.full_like(t, 2.5),
        lambda t: np.full_like(t, 0.5),
    ]
    traj = space.interpolate(funcs)
    assert np.allclose(control_values(prob, traj, np.array([1.0])), 2.0)


def test_no_control_extractor():
    from pbfem import DynamicProblem

    bare = DynamicProblem(
        n_y=1, n_z=0, n_c=0, n_b=0, t0=0.0, tE=1.0, point_times=(),
        f=lambda yd, y, z, t: 0.0, c=lambda yd, y, z, t: [], b=lambda: [],
    )
    with pytest.raises(InputError):
        control_values(bare, None, 0.0)


def test_pendulum_length_preserving_dynamics():
    # index-1 beam-force row equals the second derivative of the rod-length
    # constraint along the dynamics: rod length stays at 1 when it holds
    prob = build("pendulum-a").problem
    rng = np.random.default_rng(2)
    for _ in range(20):
        th, w, u = rng.uniform(-2, 2, 3)
        y = [np.cos(th), np.sin(th), -w * np.sin(th), w * np.cos(th)]
        v2 = y[2] ** 2 + y[3] ** 2
        xi = 0.5 * (v2 - 9.81 * y[1])
        z = [xi + 1.0, 1.0, u + 1.0, 1.0]
        res = evaluate_dae_residual(prob, [0.0] * 4, y, z, 0.0)
        assert abs(res[4]) < 1e-12  # beam-force row holds at this xi
        acc = np.array([float(r) for r in res[2:4]])  # -(chi double dot)
        # chi . chidd + |chid|^2 = d^2/dt^2 (|chi|^2 / 2) must vanish
        chidd = -acc
        assert abs(y[0] * chidd[0] + y[1] * chidd[1] + v2) < 1e-12


def test_alychan_metadata_window():
    md = build("alychan").metadata
    lo, hi = md["singular_window"]
    assert lo == 0.0 and np.isclose(hi, 0.5 * np.pi)


def test_reference_control_absent_is_none():
    spec = build("vanderpol")
    if spec.reference_trajectory is None:
        assert spec.reference_control(np.array([0.0])) is None
    else:
        u = spec.reference_control(np.array([0.1, 3.9]))
        assert u.shape == (2,)
        assert np.all(np.abs(u) <= 1.0 + 1e-6)


@pytest.mark.parametrize("name", EXPECTED)
def test_reference_parsed_once_keeps_the_bits(name):
    # against the dict dumped back to text and parsed again: JSON floats round-trip exactly
    text = importlib.resources.files("pbfem").joinpath(f"refdata/{name}.json").read_text()
    old = Trajectory.from_json(json.dumps(json.loads(text)["trajectory"]))
    new = build(name).reference_trajectory
    assert new.space.to_dict() == old.space.to_dict()
    for a, b in [(new.coeffs, old.coeffs), (new.space.mesh.nodes, old.space.mesh.nodes)]:
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
