import numpy as np
import pytest

from pbfem import (
    CollocationScheme,
    DynamicProblem,
    InputError,
    SolverConfig,
    TranscribedNLP,
    detect_ringing,
    initial_guess,
    radau_right,
    solve,
    transcribe_collocation,
    uniform_mesh,
)


def decay_problem():
    """ydot = -y, y(0) = 1: the merit reduces to the penalty terms, so the
    minimizer is the scheme's approximation of e^{-t}."""
    return DynamicProblem(
        n_y=1, n_z=0, n_c=1, n_b=1, t0=0.0, tE=1.0, point_times=(0.0,),
        f=lambda yd, y, z, t: 0.0,
        c=lambda yd, y, z, t: [yd[0] + y[0]],
        b=lambda y0: [y0[0] - 1.0],
    )


def solve_decay(scheme, n_elements):
    prob = decay_problem()
    mesh = uniform_mesh(0.0, 1.0, n_elements)
    nlp = transcribe_collocation(prob, mesh, scheme)
    rep = solve(nlp, np.zeros(nlp.dimension), SolverConfig())
    assert rep.success
    return float(rep.trajectory.component(0, [1.0])[0])


def endpoint_order(scheme, counts):
    errs = [abs(solve_decay(scheme, n) - np.exp(-1.0)) for n in counts]
    return np.polyfit(np.log([1.0 / n for n in counts]), np.log(errs), 1)[0]


class TestRadau:
    def test_single_point(self):
        nodes, weights = radau_right(1)
        assert np.allclose(nodes, [1.0]) and np.allclose(weights, [2.0])

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_node_layout(self, n):
        nodes, weights = radau_right(n)
        assert len(nodes) == n
        assert np.isclose(nodes[-1], 1.0)
        assert np.all(nodes > -1.0) and np.all(np.diff(nodes) > 0.0)
        assert np.all(weights > 0.0)
        assert np.isclose(weights.sum(), 2.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_quadrature_exactness(self, n):
        nodes, weights = radau_right(n)
        rng = np.random.default_rng(n)
        coeffs = rng.standard_normal(2 * n - 1)  # degree 2n - 2
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        assert np.isclose(weights @ poly(nodes), exact, atol=1e-12)

    def test_invalid(self):
        with pytest.raises(InputError):
            radau_right(0)


class TestScheme:
    def test_kinds(self):
        assert CollocationScheme("TR").kind == "tr"
        with pytest.raises(InputError):
            CollocationScheme("euler")
        with pytest.raises(InputError):
            CollocationScheme("lgr", p=0)


@pytest.mark.parametrize("kind", ["tr", "hs"])
def test_linear_rows_refused_in_extended_precision(monkeypatch, kind):
    # the saddle form, which an extended transcription takes at small
    # omega, has no rows for the linkage conditions E x + e0
    of_tensors = TranscribedNLP._of_tensors.__func__
    monkeypatch.setattr(TranscribedNLP, "_of_tensors", classmethod(
        lambda cls, *args, **kwargs: of_tensors(cls, *args, **{**kwargs, "extended": True})))
    with pytest.raises(InputError, match="extended=False"):
        transcribe_collocation(decay_problem(), uniform_mesh(0.0, 1.0, 4), CollocationScheme(kind))
    monkeypatch.undo()
    assert transcribe_collocation(decay_problem(), uniform_mesh(0.0, 1.0, 4),
                                  CollocationScheme(kind)).E is not None


class TestAccuracy:
    def test_lgr_high_order(self):
        val = solve_decay(CollocationScheme("lgr", p=5), 4)
        assert abs(val - np.exp(-1.0)) < 1e-8

    def test_tr_second_order(self):
        order = endpoint_order(CollocationScheme("tr"), [8, 16, 32])
        assert abs(order - 2.0) < 0.2

    def test_hs_fourth_order(self):
        order = endpoint_order(CollocationScheme("hs"), [4, 8, 16])
        assert abs(order - 4.0) < 0.4

    def test_lgr_stage_order(self):
        # 2-stage Radau IIA: endpoint order 2p - 1 = 3
        order = endpoint_order(CollocationScheme("lgr", p=2), [4, 8, 16])
        assert abs(order - 3.0) < 0.4


class TestRingring:
    def test_smooth_signal_low(self):
        t = np.linspace(0.0, 1.0, 200)
        assert detect_ringing(np.sin(2.0 * np.pi * t)) < 0.1

    def test_alternating_high(self):
        s = np.array([(-1.0) ** k for k in range(200)])
        assert detect_ringing(s) > 0.8

    def test_smoothing_window(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 100)
        s = np.sin(2.0 * np.pi * t) + 1e-4 * rng.standard_normal(100)
        assert detect_ringing(s, window=9) < 0.3
        assert detect_ringing(s, window=9) <= detect_ringing(s)

    def test_too_few_samples(self):
        with pytest.raises(InputError):
            detect_ringing([1.0, 2.0, 3.0, 4.0])
