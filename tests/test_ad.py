import numpy as np
import pytest

from pbfem import ad

import dense_ad


def fd_gradient(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h * (1.0 + abs(x[i]))
        g[i] = (func(x + e) - func(x - e)) / (2.0 * e[i])
    return g


def test_seed_and_value():
    a, b = ad.seed([2.0, 3.0], 2)
    assert ad.value(a) == 2.0
    assert ad.value(5.0) == 5.0
    assert a.grad[0] == 1.0 and a.grad[1] == 0.0
    assert b.grad[1] == 1.0


def test_arithmetic_first_order():
    def f(v):
        return v[0] * v[1] + v[0] ** 2 - v[1] / v[0] + 3.0

    x = np.array([1.3, -0.7])
    a, b = ad.seed(x, 2)
    out = f([a, b])
    assert np.isclose(out.val, f(x))
    assert np.allclose(out.grad, fd_gradient(lambda v: f(v), x), atol=1e-7)


def test_transcendentals_first_order():
    def f(v):
        return ad.sin(v[0]) * ad.exp(v[1]) + ad.log(v[0]) + ad.sqrt(v[1]) \
            + ad.cos(v[0]) + ad.tanh(v[1]) + ad.tan(0.3 * v[0])

    x = np.array([0.9, 1.7])
    duals = ad.seed(x, 2)
    out = f(duals)
    ref = f(x)
    assert np.isclose(out.val, ref)

    def plain(v):
        return np.sin(v[0]) * np.exp(v[1]) + np.log(v[0]) + np.sqrt(v[1]) \
            + np.cos(v[0]) + np.tanh(v[1]) + np.tan(0.3 * v[0])

    assert np.allclose(out.grad, fd_gradient(plain, x), atol=1e-6)


def test_second_order_hessian():
    def f(v):
        return v[0] ** 2 * v[1] + ad.sin(v[0] * v[1])

    x = np.array([0.8, 0.5])
    duals = ad.seed(x, 2, second_order=True)
    out = f(duals)
    x0, x1 = x
    H = np.array([
        [2 * x1 - x1**2 * np.sin(x0 * x1),
         2 * x0 + np.cos(x0 * x1) - x0 * x1 * np.sin(x0 * x1)],
        [2 * x0 + np.cos(x0 * x1) - x0 * x1 * np.sin(x0 * x1),
         -x0**2 * np.sin(x0 * x1)],
    ])
    assert np.allclose(out.hess, H, atol=1e-12)


def test_batched_arrays():
    t = np.linspace(0.1, 1.0, 7)
    a, b = ad.seed(np.stack([t, 2 * t]), 2)
    out = a * b + ad.sqrt(a)
    assert out.val.shape == (7,)
    assert np.allclose(out.val, 2 * t**2 + np.sqrt(t))
    assert np.allclose(out.grad[0], 2 * t + 0.5 / np.sqrt(t))
    assert np.allclose(out.grad[1], t)


def test_division_and_pow():
    (a,) = ad.seed([2.0], 1)
    assert np.isclose((1.0 / a).grad[0], -0.25)
    assert np.isclose((a**3).grad[0], 12.0)
    assert np.isclose((a**-1).grad[0], -0.25)
    assert np.isclose((3.0 - a).grad[0], -1.0)


def test_dual_exponent_rejected():
    a, b = ad.seed([2.0, 3.0], 2)
    with pytest.raises(TypeError):
        a**b


def test_seed_preserves_float_dtype():
    vals = np.asarray([1.0, 2.0], dtype=np.longdouble)
    duals = ad.seed(vals, 2)
    assert duals[0].grad.dtype == np.longdouble


# -- bit parity with dense propagation ------------------------------------
# every expression runs on support-tracked Duals and on the dense reference
# (tests/dense_ad.py); each derivative entry must agree exactly, so a
# reordered sum or product anywhere in the propagation fails here

PARITY_EXPRESSIONS = {
    "add": lambda v, lib, k: v["a"] + v["b"],
    "add-disjoint": lambda v, lib, k: v["b"] + v["d"],
    "add-const": lambda v, lib, k: v["c"] + k,
    "radd-const": lambda v, lib, k: 2.5 + v["c"],
    "sub": lambda v, lib, k: v["b"] - v["c"],
    "sub-const": lambda v, lib, k: v["b"] - k,
    "rsub": lambda v, lib, k: 2.0 - v["d"],
    "neg": lambda v, lib, k: -v["b"],
    "mul": lambda v, lib, k: v["a"] * v["b"],
    "mul-overlap": lambda v, lib, k: (v["a"] * v["b"]) * (v["b"] + v["c"]),
    # both factors curved along the shared direction b: four nonzero terms
    # meet in each (b, b) Hessian entry, so their summation order shows
    "mul-shared": lambda v, lib, k: lib.sin(v["a"] * v["b"]) * lib.exp(v["b"] - v["c"]),
    "div-shared": lambda v, lib, k: lib.log(v["b"] + v["d"]) / lib.sqrt(v["b"] * v["d"]),
    "mul-const": lambda v, lib, k: v["d"] * k,
    "rmul-const": lambda v, lib, k: 3.0 * v["c"],
    "div": lambda v, lib, k: v["b"] / v["c"],
    "rdiv": lambda v, lib, k: 1.5 / v["d"],
    "div-const": lambda v, lib, k: v["d"] / k,
    "square": lambda v, lib, k: v["b"] ** 2,
    "cube": lambda v, lib, k: (v["a"] - v["c"]) ** 3,
    "inverse-power": lambda v, lib, k: v["d"] ** -1,
    "root-power": lambda v, lib, k: (v["b"] * v["d"]) ** 0.5,
    "sin": lambda v, lib, k: lib.sin(v["a"] * v["b"]),
    "cos": lambda v, lib, k: lib.cos(v["c"] + v["d"]),
    "tan": lambda v, lib, k: lib.tan(v["b"] - v["a"]),
    "exp": lambda v, lib, k: lib.exp(v["d"] - v["a"]),
    "log": lambda v, lib, k: lib.log(v["b"] + v["d"]),
    "sqrt": lambda v, lib, k: lib.sqrt(v["c"] * v["b"]),
    "tanh": lambda v, lib, k: lib.tanh(v["a"] - v["d"]),
    "composite": lambda v, lib, k: (
        lib.sin(v["a"] * v["b"]) * lib.exp(v["c"] - v["b"]) / (1.0 + (v["d"] * v["a"]) ** 2)
        - lib.sqrt(v["b"]) * lib.log(v["c"] * k) + v["a"] ** 3 * v["d"]
    ),
}

# value shapes of the seeded arguments, each with a constant that
# broadcasts against it
PARITY_SHAPES = {"scalar": ((), 1.25), "batch": ((3, 4), np.arange(1.0, 5.0))}


def _parity_inputs(lib, shape, second_order, dtype):
    """Seeds over m = 6 directions with mixed supports: a on direction 0,
    b and c on 2 and 3, d on 5; directions 1 and 4 stay unused."""
    vals = np.random.default_rng(5).uniform(0.5, 1.5, (6,) + shape).astype(dtype)
    s = lib.seed(vals, 6, second_order)
    return {"a": s[0], "b": s[2], "c": s[3], "d": s[5]}


@pytest.mark.parametrize("name", sorted(PARITY_EXPRESSIONS))
@pytest.mark.parametrize("shape", sorted(PARITY_SHAPES))
@pytest.mark.parametrize("second_order", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_support_tracking_matches_dense(name, shape, second_order, dtype):
    expr = PARITY_EXPRESSIONS[name]
    val_shape, const = PARITY_SHAPES[shape]
    out = expr(_parity_inputs(ad, val_shape, second_order, dtype), ad, const)
    ref = expr(_parity_inputs(dense_ad, val_shape, second_order, dtype), dense_ad, const)
    assert np.array_equal(out.val, ref.val)
    assert out.grad.shape == ref.grad.shape
    assert np.array_equal(out.grad, ref.grad)
    if second_order:
        assert out.hess.shape == ref.hess.shape
        assert np.array_equal(out.hess, ref.hess)
    else:
        assert out.hess is None and ref.hess is None


def test_derivatives_stored_over_support_only():
    v = _parity_inputs(ad, (4,), True, np.float64)
    out = v["b"] * v["c"] + v["a"]
    assert out.sup == (0, 2, 3)
    assert out.g.shape == (3, 4) and out.h.shape == (3, 3, 4)
    assert out.grad.shape == (6, 4) and out.hess.shape == (6, 6, 4)
    assert not np.any(out.grad[[1, 4, 5]]) and not np.any(out.hess[:, [1, 4, 5]])


def test_dense_constructor_still_supported():
    a = ad.Dual(2.0, np.array([1.0, 0.0]), np.zeros((2, 2)))
    b = ad.Dual(3.0, np.array([0.0, 1.0]), np.zeros((2, 2)))
    (x, y) = ad.seed([2.0, 3.0], 2, second_order=True)
    for out in (a * b + ad.sin(a), x * y + ad.sin(x)):
        assert np.array_equal(out.grad, [3.0 + np.cos(2.0), 2.0])
        assert np.array_equal(out.hess, [[-np.sin(2.0), 1.0], [1.0, 0.0]])
