"""Feed-forward networks: forward, adjoint, and gradient passes.

The network is the constraint ``a^i = act(W^i a^{i-1} + b^i)`` chained
over layers.  Training under the half squared error loss fits the
reduced-space pattern exactly: the state Jacobian of the stacked layer
equations is block lower bidiagonal with identity diagonal blocks, so
the adjoint system is solved by one backward sweep

    y_top = target - output,
    y_i   = W_{i+1}^T (act'(pre_{i+1}) o y_{i+1}),

and the parameter gradients follow layer by layer.  ``forward``,
``adjoint_pass`` and ``gradients`` spell this out for one sample.
``NetworkTrainingProblem`` runs the same sweeps on a batch of samples
stored as matrix columns, and ``train`` is ``gradient_descent`` on it,
so training has one forward and one backward sweep per batch and the
optimizer's Armijo line search.  On one column the two routes produce
identical floats.
"""

from dataclasses import dataclass

import numpy as np

from .optim import ConstrainedProblem, gradient_descent
from .rand import Lcg

# name -> (activation, its derivative), both componentwise
ACTIVATIONS = {
    "tanh": (np.tanh, lambda t: 1.0 - np.tanh(t) ** 2),
    "logistic": (lambda t: 1.0 / (1.0 + np.exp(-t)),
                 lambda t: (s := 1.0 / (1.0 + np.exp(-t))) * (1.0 - s)),
    "identity": (lambda t: t, lambda t: np.ones_like(t)),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths (input first) and the componentwise activation name."""
    layer_sizes: tuple
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least one layer (two sizes)")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def act(self, t):
        return ACTIVATIONS[self.activation][0](t)

    def act_prime(self, t):
        return ACTIVATIONS[self.activation][1](t)


class Parameters:
    """Weight matrices and bias vectors, one pair per layer."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up per layer")
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError("bias length must match weight rows")

    def check_spec(self, spec: NetworkSpec):
        sizes = spec.layer_sizes
        if len(self.weights) != spec.num_layers:
            raise ValueError("layer count does not match spec")
        for i, w in enumerate(self.weights):
            if w.shape != (sizes[i + 1], sizes[i]):
                raise ValueError(
                    f"layer {i + 1} weight shape {w.shape}, expected "
                    f"({sizes[i + 1]}, {sizes[i]})")


@dataclass(frozen=True)
class ForwardTrace:
    """Activations a^0..a^L plus the cached pre-activation inputs."""
    activations: tuple
    preactivations: tuple


@dataclass(frozen=True)
class AdjointTrace:
    adjoints: tuple


def init_parameters(spec: NetworkSpec, seed: int = 42) -> Parameters:
    """Seeded uniform(-0.5, 0.5) weights and biases."""
    rng = Lcg(seed)
    sizes = spec.layer_sizes
    weights, biases = [], []
    for i in range(spec.num_layers):
        weights.append(rng.matrix(sizes[i + 1], sizes[i], -0.5, 0.5))
        biases.append(rng.floats(sizes[i + 1], -0.5, 0.5))
    return Parameters(weights, biases)


def forward(spec: NetworkSpec, params: Parameters, x) -> ForwardTrace:
    """Propagate an input through every layer."""
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.layer_sizes[0],):
        raise ValueError("input length does not match first layer size")
    params.check_spec(spec)
    acts = [x]
    pres = []
    for w, b in zip(params.weights, params.biases):
        t = w @ acts[-1] + b
        pres.append(t)
        acts.append(spec.act(t))
    return ForwardTrace(activations=tuple(acts), preactivations=tuple(pres))


def loss(trace: ForwardTrace, a_obs) -> float:
    """Half squared distance between the output layer and the target."""
    a_obs = np.asarray(a_obs, dtype=float)
    out = trace.activations[-1]
    if a_obs.shape != out.shape:
        raise ValueError("target length does not match output layer")
    diff = a_obs - out
    return 0.5 * float(diff @ diff)


def adjoint_pass(spec: NetworkSpec, params: Parameters, trace: ForwardTrace,
                 a_obs) -> AdjointTrace:
    """Backward sweep for the layer multipliers.

    The top adjoint equals the output misfit; each lower one pulls the
    next adjoint back through the transposed weights, masked by the
    activation slope at the stored pre-activations.
    """
    a_obs = np.asarray(a_obs, dtype=float)
    n_layers = spec.num_layers
    ys = [None] * (n_layers + 1)
    ys[n_layers] = a_obs - trace.activations[-1]
    for i in range(n_layers - 1, -1, -1):
        slope = spec.act_prime(trace.preactivations[i])
        ys[i] = params.weights[i].T @ (slope * ys[i + 1])
    return AdjointTrace(adjoints=tuple(ys))


def gradients(spec: NetworkSpec, params: Parameters, trace: ForwardTrace,
              adjoints: AdjointTrace) -> Parameters:
    """Loss gradients with respect to every weight and bias.

    Carries the leading minus sign that comes from defining the top
    adjoint as target minus output.
    """
    gw, gb = [], []
    for i in range(spec.num_layers):
        masked = adjoints.adjoints[i + 1] * spec.act_prime(trace.preactivations[i])
        gw.append(-np.outer(masked, trace.activations[i]))
        gb.append(-masked)
    return Parameters(gw, gb)


def loss_gradients(spec: NetworkSpec, params: Parameters, x, a_obs):
    """Convenience wrapper: one forward/backward round trip."""
    trace = forward(spec, params, x)
    adj = adjoint_pass(spec, params, trace, a_obs)
    return loss(trace, a_obs), gradients(spec, params, trace, adj)


# -- flattening helpers -------------------------------------------------------

def flatten_parameters(params: Parameters) -> np.ndarray:
    parts = []
    for w, b in zip(params.weights, params.biases):
        parts.append(w.ravel())
        parts.append(b)
    return np.concatenate(parts)


def _layer_views(spec: NetworkSpec, z: np.ndarray):
    """Yield ``(W_i, b_i)`` for each layer as views of the flat vector ``z``."""
    if z.size != parameter_count(spec):
        raise ValueError("flat parameter vector has wrong length")
    sizes = spec.layer_sizes
    pos = 0
    for rows, cols in zip(sizes[1:], sizes):
        end = pos + rows * cols
        yield z[pos:end].reshape(rows, cols), z[end:end + rows]
        pos = end + rows


def unflatten_parameters(spec: NetworkSpec, z: np.ndarray) -> Parameters:
    return Parameters(*zip(*_layer_views(spec, z)))


def parameter_count(spec: NetworkSpec) -> int:
    sizes = spec.layer_sizes
    return sum(sizes[i + 1] * (sizes[i] + 1) for i in range(spec.num_layers))


def _ravel(blocks) -> np.ndarray:
    return np.concatenate([block.ravel() for block in blocks])


class NetworkTrainingProblem(ConstrainedProblem):
    """Full-batch training cast as an equality-constrained problem.

    The samples are columns: ``x`` has shape ``(n0, m)`` and ``a_obs``
    shape ``(nL, m)``, and a single sample is a batch of one column.
    State: the ``(size, m)`` activation blocks, input layer included,
    raveled and concatenated layer by layer.  Control: flattened weights
    and biases.  Objective: the half squared error summed over the
    batch.  The layer structure makes the adjoint solve one backward
    substitution, the sweep of ``adjoint_pass`` applied to every column
    at once, so on one column the two gradient routes agree bit for bit.
    """

    def __init__(self, spec: NetworkSpec, x, a_obs):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.a_obs = np.asarray(a_obs, dtype=float)
        sizes = spec.layer_sizes
        m = self.x.shape[1] if self.x.ndim == 2 else 0
        if m < 1 or self.x.shape[0] != sizes[0] or self.a_obs.shape != (sizes[-1], m):
            raise ValueError("samples must be columns: x of shape (n0, m) and "
                             "a_obs of shape (nL, m) with m >= 1")
        self.state_dim = sum(sizes) * m
        self.control_dim = parameter_count(spec)
        self._offsets = np.cumsum((0,) + sizes) * m

    def _split_state(self, u):
        m = self.x.shape[1]
        return [u[lo:hi].reshape(-1, m)
                for lo, hi in zip(self._offsets, self._offsets[1:])]

    def _layers(self, u, z):
        """Weights, activation blocks and pre-activations at ``(u, z)``."""
        layers = list(_layer_views(self.spec, z))
        acts = self._split_state(u)
        pres = [w @ a + b[:, None] for (w, b), a in zip(layers, acts)]
        return [w for w, _ in layers], acts, pres

    def residual(self, u, z):
        _, acts, pres = self._layers(u, z)
        return _ravel([acts[0] - self.x]
                      + [a - self.spec.act(t) for a, t in zip(acts[1:], pres)])

    def solve_forward(self, z):
        acts = [self.x]
        for w, b in _layer_views(self.spec, z):
            acts.append(self.spec.act(w @ acts[-1] + b[:, None]))
        return _ravel(acts)

    def apply_state_jacobian(self, u, z, du):
        weights, _, pres = self._layers(u, z)
        d = self._split_state(du)
        return _ravel([d[0]] + [d_next - self.spec.act_prime(t) * (w @ d_i)
                                for d_i, d_next, w, t
                                in zip(d, d[1:], weights, pres)])

    def apply_state_adjoint(self, u, z, y):
        weights, _, pres = self._layers(u, z)
        ys = self._split_state(y)
        return _ravel([y_i - w.T @ (self.spec.act_prime(t) * y_next)
                       for y_i, y_next, w, t in zip(ys, ys[1:], weights, pres)]
                      + [ys[-1]])

    def solve_adjoint(self, u, z, rhs):
        # identity diagonal blocks: a single backward substitution
        weights, _, pres = self._layers(u, z)
        ys = self._split_state(rhs)
        for i in range(self.spec.num_layers - 1, -1, -1):
            ys[i] = ys[i] + weights[i].T @ (self.spec.act_prime(pres[i]) * ys[i + 1])
        return _ravel(ys)

    def apply_control_adjoint(self, u, z, y):
        _, acts, pres = self._layers(u, z)
        parts = []
        for a, t, y_next in zip(acts, pres, self._split_state(y)[1:]):
            masked = y_next * self.spec.act_prime(t)
            parts += [-(masked @ a.T), -masked.sum(axis=1)]
        return _ravel(parts)

    def objective(self, u, z):
        diff = self.a_obs - u[self._offsets[-2]:].reshape(self.a_obs.shape)
        return 0.5 * float(np.vdot(diff, diff))

    def objective_grad_state(self, u, z):
        g = np.zeros(self.state_dim)
        g[self._offsets[-2]:] = (self._split_state(u)[-1] - self.a_obs).ravel()
        return g

    def objective_grad_control(self, u, z):
        return np.zeros(self.control_dim)


def as_constrained_problem(spec: NetworkSpec, x, a_obs) -> NetworkTrainingProblem:
    """Expose one training sample, as a batch of one column, to the optimizer."""
    return NetworkTrainingProblem(spec, np.reshape(x, (-1, 1)), np.reshape(a_obs, (-1, 1)))


def train(spec: NetworkSpec, params: Parameters, samples, iters: int,
          step: float = 1.0):
    """Full-batch ``gradient_descent`` on the summed per-sample loss.

    ``samples`` is a sequence of (x, a_obs) pairs, stacked as the columns
    of one ``NetworkTrainingProblem``.  Runs ``iters`` iterations, stopping
    early only at an exactly zero gradient, and returns the trained
    parameters and the per-iteration history rows (k, loss, grad_norm,
    step).  A failed Armijo line search raises ``NumericalError``.
    """
    x, a_obs = (np.column_stack(side) for side in zip(*samples))
    result = gradient_descent(NetworkTrainingProblem(spec, x, a_obs),
                              flatten_parameters(params), step, iters, 0.0)
    return unflatten_parameters(spec, result.z), result.history
