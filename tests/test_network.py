import numpy as np
import pytest

from adjointkit.errors import NumericalError
from adjointkit.network import (AdjointTrace, NetworkSpec,
                                NetworkTrainingProblem, Parameters,
                                adjoint_pass, as_constrained_problem,
                                flatten_parameters, forward, gradients,
                                init_parameters, loss, loss_gradients,
                                parameter_count, train, unflatten_parameters)
from adjointkit.optim import fd_gradient_check, kkt_residuals, reduced_gradient
from adjointkit.rand import Lcg
from reference import (bits, dense_state_jacobian, network_adjoint,
                       network_control_adjoint, network_forward)


def fd_loss_gradient(spec, params, x, a_obs, h=1e-5):
    """Central differences on every scalar parameter (independent oracle)."""
    z0 = flatten_parameters(params)
    out = np.zeros_like(z0)
    for j in range(z0.size):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += h
        zm[j] -= h
        fp = loss(forward(spec, unflatten_parameters(spec, zp), x), a_obs)
        fm = loss(forward(spec, unflatten_parameters(spec, zm), x), a_obs)
        out[j] = (fp - fm) / (2.0 * h)
    return out


# -- forward -------------------------------------------------------------------

def test_forward_identity_network():
    spec = NetworkSpec((3, 3, 3), activation="identity")
    params = Parameters([np.eye(3), np.eye(3)], [np.zeros(3), np.zeros(3)])
    x = np.array([0.3, -1.2, 2.0])
    trace = forward(spec, params, x)
    for a in trace.activations:
        np.testing.assert_array_equal(a, x)


def test_forward_tanh_odd_at_zero():
    spec = NetworkSpec((1, 1))
    params = Parameters([np.array([[2.0]])], [np.zeros(1)])
    trace = forward(spec, params, np.zeros(1))
    np.testing.assert_array_equal(trace.activations[1], [0.0])


def test_forward_matches_explicit_composition():
    spec = NetworkSpec((2, 3, 1))
    params = init_parameters(spec, seed=7)
    x = np.array([0.4, -0.9])
    trace = forward(spec, params, x)
    # straightforward recomputation, no shared code path
    w1, w2 = params.weights
    b1, b2 = params.biases
    expected = np.tanh(w2 @ np.tanh(w1 @ x + b1) + b2)
    np.testing.assert_array_equal(trace.activations[-1], expected)
    assert trace.activations[0] is not None
    np.testing.assert_array_equal(trace.activations[0], x)


def test_forward_shape_errors():
    spec = NetworkSpec((2, 2))
    params = init_parameters(spec, seed=1)
    with pytest.raises(ValueError):
        forward(spec, params, np.zeros(3))
    bad = Parameters([np.zeros((3, 2))], [np.zeros(3)])
    with pytest.raises(ValueError):
        forward(spec, bad, np.zeros(2))


# -- loss ----------------------------------------------------------------------

def test_loss_zero_at_match():
    spec = NetworkSpec((1, 1), activation="identity")
    params = Parameters([np.array([[1.0]])], [np.zeros(1)])
    trace = forward(spec, params, np.array([0.7]))
    assert loss(trace, np.array([0.7])) == 0.0


def test_loss_half_squared_distance():
    spec = NetworkSpec((1, 1), activation="identity")
    params = Parameters([np.array([[0.0]])], [np.zeros(1)])
    trace = forward(spec, params, np.array([5.0]))  # output 0
    assert loss(trace, np.array([2.0])) == pytest.approx(2.0)


def test_loss_matches_dot_product_oracle():
    rng = np.random.default_rng(40)
    spec = NetworkSpec((3, 2))
    params = init_parameters(spec, seed=3)
    x = rng.standard_normal(3)
    a_obs = rng.standard_normal(2)
    trace = forward(spec, params, x)
    d = a_obs - trace.activations[-1]
    assert loss(trace, a_obs) == pytest.approx(0.5 * np.dot(d, d), rel=1e-15)


# -- adjoint pass ----------------------------------------------------------------

def test_adjoint_pass_zero_misfit():
    spec = NetworkSpec((2, 2), activation="identity")
    params = Parameters([np.eye(2)], [np.zeros(2)])
    x = np.array([1.0, -2.0])
    trace = forward(spec, params, x)
    adj = adjoint_pass(spec, params, trace, x)
    for y in adj.adjoints:
        np.testing.assert_array_equal(y, np.zeros(2))


def test_adjoint_pass_single_identity_layer():
    rng = np.random.default_rng(41)
    w = rng.standard_normal((3, 2))
    spec = NetworkSpec((2, 3), activation="identity")
    params = Parameters([w], [np.zeros(3)])
    x = rng.standard_normal(2)
    a_obs = rng.standard_normal(3)
    trace = forward(spec, params, x)
    adj = adjoint_pass(spec, params, trace, a_obs)
    np.testing.assert_allclose(adj.adjoints[0], w.T @ adj.adjoints[1], atol=1e-14)


def test_adjoint_pass_matches_dense_adjoint_solve():
    # cross-check the backward sweep against a dense solve of the
    # transposed state-Jacobian system from the optimizer interface
    spec = NetworkSpec((2, 3, 1))
    params = init_parameters(spec, seed=11)
    x = np.array([0.2, -0.5])
    a_obs = np.array([0.3])
    trace = forward(spec, params, x)
    adj = adjoint_pass(spec, params, trace, a_obs)
    problem = as_constrained_problem(spec, x, a_obs)
    z = flatten_parameters(params)
    u = problem.solve_forward(z)
    jac = dense_state_jacobian(problem, u, z)
    # block lower bidiagonal with identity diagonal blocks
    offsets = np.cumsum((0,) + spec.layer_sizes)
    for bi in range(len(spec.layer_sizes)):
        rows = slice(offsets[bi], offsets[bi + 1])
        for bj in range(len(spec.layer_sizes)):
            cols = slice(offsets[bj], offsets[bj + 1])
            block = jac[rows, cols]
            if bi == bj:
                np.testing.assert_array_equal(block, np.eye(block.shape[0]))
            elif bj != bi - 1:
                assert np.abs(block).max() == 0.0
    rhs = -problem.objective_grad_state(u, z)
    y_dense = np.linalg.solve(jac.T, rhs)
    y_sweep = np.concatenate(adj.adjoints)
    np.testing.assert_allclose(y_sweep, y_dense, atol=1e-12)
    # every adjoint block satisfies its equation
    resid = problem.apply_state_adjoint(u, z, y_sweep) - rhs
    assert np.abs(resid).max() <= 1e-12


# -- gradients -------------------------------------------------------------------

def test_gradients_zero_adjoints():
    spec = NetworkSpec((2, 2))
    params = init_parameters(spec, seed=5)
    trace = forward(spec, params, np.zeros(2))
    zero = AdjointTrace(adjoints=tuple(np.zeros(2) for _ in range(2)))
    g = gradients(spec, params, trace, zero)
    assert np.abs(g.weights[0]).max() == 0.0
    assert np.abs(g.biases[0]).max() == 0.0


def test_gradients_scalar_identity_formula():
    # f(w) = 0.5 (a_obs - w x)^2 so df/dw = -(a_obs - w x) x
    spec = NetworkSpec((1, 1), activation="identity")
    w, x, a_obs = 1.7, 0.6, -0.4
    params = Parameters([np.array([[w]])], [np.zeros(1)])
    trace = forward(spec, params, np.array([x]))
    adj = adjoint_pass(spec, params, trace, np.array([a_obs]))
    g = gradients(spec, params, trace, adj)
    assert g.weights[0][0, 0] == pytest.approx(-(a_obs - w * x) * x, rel=1e-14)


def test_gradients_match_finite_differences():
    spec = NetworkSpec((2, 3, 1))
    params = init_parameters(spec, seed=13)
    x = np.array([0.5, -0.2])
    a_obs = np.array([0.8])
    _, g = loss_gradients(spec, params, x, a_obs)
    flat = flatten_parameters(g)
    fd = fd_loss_gradient(spec, params, x, a_obs, h=1e-5)
    assert np.abs(flat - fd).max() <= 1e-7 * max(np.abs(fd).max(), 1e-12)


def test_gradient_fd_sweep_of_seeded_networks():
    shapes = [(2, 3, 1), (3, 4, 2), (4, 8, 8, 3), (2, 2), (1, 5, 1),
              (4, 4, 3), (2, 6, 2), (3, 3, 3, 2), (4, 8, 3), (2, 4, 4, 1)]
    rng = np.random.default_rng(42)
    for seed, sizes in enumerate(shapes):
        spec = NetworkSpec(tuple(sizes))
        params = init_parameters(spec, seed=seed)
        x = rng.uniform(-1.0, 1.0, sizes[0])
        a_obs = rng.uniform(-1.0, 1.0, sizes[-1])
        _, g = loss_gradients(spec, params, x, a_obs)
        flat = flatten_parameters(g)
        fd = fd_loss_gradient(spec, params, x, a_obs, h=1e-5)
        rel = np.abs(flat - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel <= 1e-6


# -- reduced-space equivalence -----------------------------------------------------

def test_single_identity_layer_both_routes():
    spec = NetworkSpec((2, 2), activation="identity")
    params = init_parameters(spec, seed=21)
    x = np.array([0.4, -1.1])
    a_obs = np.array([0.2, 0.9])
    _, g = loss_gradients(spec, params, x, a_obs)
    problem = as_constrained_problem(spec, x, a_obs)
    report = reduced_gradient(problem, flatten_parameters(params))
    np.testing.assert_array_equal(report.gradient, flatten_parameters(g))
    misfit = a_obs - params.weights[0] @ x - params.biases[0]
    expected_w = -np.outer(misfit, x)
    np.testing.assert_allclose(g.weights[0], expected_w, atol=1e-14)


def test_zero_loss_configuration_both_zero():
    spec = NetworkSpec((2, 2), activation="identity")
    params = Parameters([np.eye(2)], [np.zeros(2)])
    x = np.array([0.3, 0.6])
    _, g = loss_gradients(spec, params, x, x)
    problem = as_constrained_problem(spec, x, x)
    report = reduced_gradient(problem, flatten_parameters(params))
    assert np.abs(flatten_parameters(g)).max() == 0.0
    assert np.abs(report.gradient).max() == 0.0


def test_backprop_equals_reduced_space_three_layers():
    spec = NetworkSpec((3, 4, 4, 2))
    params = init_parameters(spec, seed=31)
    x = np.array([0.1, -0.6, 0.8])
    a_obs = np.array([0.5, -0.3])
    _, g = loss_gradients(spec, params, x, a_obs)
    problem = as_constrained_problem(spec, x, a_obs)
    z = flatten_parameters(params)
    report = reduced_gradient(problem, z)
    diff = np.abs(report.gradient - flatten_parameters(g)).max()
    assert diff <= 1e-13
    assert kkt_residuals(problem, report.state, z, report.multiplier)["forward"] == 0.0


def test_batched_problem_matches_sum_of_single_sample_passes():
    # samples as columns, against the per-sample backprop of loss_gradients
    spec = NetworkSpec((2, 16, 16, 1))
    params = init_parameters(spec, seed=51)
    rng = np.random.default_rng(52)
    xs = rng.uniform(-1.0, 1.0, (16, 2))
    targets = rng.uniform(-1.0, 1.0, (16, 1))
    total_loss, total_grad = 0.0, np.zeros(parameter_count(spec))
    for x, a_obs in zip(xs, targets):
        f, g = loss_gradients(spec, params, x, a_obs)
        total_loss += f
        total_grad += flatten_parameters(g)
    problem = NetworkTrainingProblem(spec, xs.T, targets.T)
    z = flatten_parameters(params)
    report = reduced_gradient(problem, z)
    assert report.f_value == pytest.approx(total_loss, rel=1e-13)
    assert (np.abs(report.gradient - total_grad).max()
            <= 1e-13 * np.abs(total_grad).max())
    assert kkt_residuals(problem, report.state, z, report.multiplier)["forward"] == 0.0


def test_batched_problem_rejects_mismatched_columns():
    spec = NetworkSpec((2, 3, 1))
    with pytest.raises(ValueError, match="columns"):
        NetworkTrainingProblem(spec, np.zeros((2, 4)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="columns"):
        NetworkTrainingProblem(spec, np.zeros(2), np.zeros(1))


@pytest.mark.parametrize("activation", ["tanh", "logistic", "identity"])
@pytest.mark.parametrize("sizes, m", [((2, 16, 16, 1), 64), ((3, 5, 2), 1)],
                         ids=["2-16-16-1x64", "3-5-2x1"])
def test_sweeps_match_the_concatenating_reference_bitwise(sizes, m, activation):
    rng = Lcg(53)
    spec = NetworkSpec(sizes, activation)
    problem = NetworkTrainingProblem(spec, rng.matrix(sizes[0], m), rng.matrix(sizes[-1], m))
    for _ in range(3):
        z = rng.floats(problem.control_dim, -1.5, 1.5)
        u = problem.solve_forward(z)
        assert np.array_equal(bits(u), bits(network_forward(problem, z)))
        # at the forward state and at an arbitrary one
        for state in (u, rng.floats(problem.state_dim)):
            rhs = rng.floats(problem.state_dim)
            y, pull = problem.solve_adjoint(state, z, rhs)
            y_ref = network_adjoint(problem, state, z, rhs)
            pull_ref = network_control_adjoint(problem, state, z, y_ref)
            assert np.array_equal(bits(y), bits(y_ref))
            assert np.array_equal(bits(pull), bits(pull_ref))
            assert np.array_equal(bits(problem.apply_control_adjoint(state, z, y)),
                                  bits(pull_ref))


def test_logistic_saturates_without_overflow_warnings():
    # pre-activations of -1e6: exp(-t) overflows to inf and the activation is
    # exactly 0; warnings are errors, so an overflow warning fails this test
    spec = NetworkSpec((1, 1), activation="logistic")
    params = Parameters([np.array([[1e6]])], [np.zeros(1)])
    trace = forward(spec, params, [-1.0])
    assert trace.activations[-1][0] == 0.0
    adjoints = adjoint_pass(spec, params, trace, [0.1])
    assert gradients(spec, params, trace, adjoints).weights[0][0, 0] == 0.0
    problem = NetworkTrainingProblem(spec, np.array([[1.0, -1.0]]), np.array([[0.9, 0.1]]))
    z = flatten_parameters(params)
    u = problem.solve_forward(z)
    assert np.array_equal(u, [1.0, -1.0, 1.0, 0.0])
    assert np.all(np.isfinite(reduced_gradient(problem, z).gradient))


def test_constrained_problem_fd_check():
    spec = NetworkSpec((2, 3, 1))
    problem = as_constrained_problem(spec, np.array([0.3, 0.7]), np.array([-0.2]))
    z = flatten_parameters(init_parameters(spec, seed=17))
    errors = fd_gradient_check(problem, z, steps=(1e-5,))
    assert errors[1e-5] <= 1e-7


def test_parameter_flatten_round_trip():
    spec = NetworkSpec((3, 5, 2))
    params = init_parameters(spec, seed=3)
    flat = flatten_parameters(params)
    assert flat.size == parameter_count(spec)
    back = unflatten_parameters(spec, flat)
    for w1, w2 in zip(params.weights, back.weights):
        np.testing.assert_array_equal(w1, w2)


def init_parameters_oracle(spec, seed):
    """Per-layer draws from one generator: ``W_i`` as a matrix, then ``b_i``."""
    rng = Lcg(seed)
    sizes = spec.layer_sizes
    weights, biases = [], []
    for rows, cols in zip(sizes[1:], sizes):
        weights.append(rng.matrix(rows, cols, -0.5, 0.5))
        biases.append(rng.floats(rows, -0.5, 0.5))
    return weights, biases


def test_init_parameters_match_per_layer_draws_bitwise():
    for sizes in [(1, 1), (2, 1), (3, 5, 2), (4, 8, 8, 3), (7, 1, 6), (2, 3, 4, 5, 1)]:
        spec = NetworkSpec(sizes)
        for seed in (0, 3, 42, 2 ** 40):
            params = init_parameters(spec, seed)
            weights, biases = init_parameters_oracle(spec, seed)
            assert len(params.weights) == len(weights) == spec.num_layers
            for got, want in zip(params.weights + params.biases, weights + biases):
                assert np.array_equal(got, want)
            flat = np.concatenate([part for w, b in zip(weights, biases)
                                   for part in (w.ravel(), b)])
            assert np.array_equal(flatten_parameters(params), flat)


# -- training ---------------------------------------------------------------------

def test_wrong_length_controls_rejected():
    spec = NetworkSpec((2, 3, 1))
    problem = NetworkTrainingProblem(spec, np.zeros((2, 4)), np.zeros((1, 4)))
    flat = flatten_parameters(init_parameters(spec, seed=5))
    for bad in (flat[:-1], np.append(flat, 0.0)):
        with pytest.raises(ValueError, match="wrong length"):
            problem.solve_forward(bad)
        with pytest.raises(ValueError, match="wrong length"):
            unflatten_parameters(spec, bad)


def test_training_reduces_loss_monotonically():
    spec = NetworkSpec((2, 4, 1))
    params = init_parameters(spec, seed=9)
    rng = np.random.default_rng(43)
    samples = [(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1)) for _ in range(4)]
    trained, history = train(spec, params, samples, iters=200, step=1.0)
    losses = [row[1] for row in history]
    assert len(losses) == 200
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_training_raises_on_failed_line_search(monkeypatch):
    # every Armijo trial's forward solve fails; training must not return
    # a history as if it had finished
    solve = NetworkTrainingProblem.solve_forward
    calls = []

    def first_solve_only(self, z):
        calls.append(z)
        if len(calls) > 1:
            raise NumericalError("forward sweep overflowed")
        return solve(self, z)

    monkeypatch.setattr(NetworkTrainingProblem, "solve_forward", first_solve_only)
    spec = NetworkSpec((2, 3, 1))
    params = init_parameters(spec, seed=9)
    samples = [(np.array([0.1, 0.2]), np.array([0.7])),
               (np.array([0.3, 0.4]), np.array([0.5]))]
    with pytest.raises(NumericalError, match="line search failed at iteration 0"):
        train(spec, params, samples, iters=5)
    assert len(calls) == 61  # the initial state, then every backtrack


def test_training_rejects_samples_of_unequal_or_wrong_shape():
    spec = NetworkSpec((2, 3, 1))
    params = init_parameters(spec, seed=9)
    uneven = [(np.array([0.1, 0.2]), np.array([0.5])),
              (np.array([0.3, 0.4, 0.5]), np.array([0.5]))]
    with pytest.raises(ValueError, match="same shape"):
        train(spec, params, uneven, iters=5)
    wide = [(np.array([0.1, 0.2, 0.3]), np.array([0.5]))]
    with pytest.raises(ValueError, match="sample shapes do not match the network sizes"):
        train(spec, params, wide, iters=5)
    nested = [(np.array([[0.1], [0.2]]), np.array([0.5]))]
    with pytest.raises(ValueError, match="sample shapes do not match the network sizes"):
        train(spec, params, nested, iters=5)


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((3,))
    with pytest.raises(ValueError):
        NetworkSpec((2, 0))
    with pytest.raises(ValueError):
        NetworkSpec((2, 2), activation="relu")
