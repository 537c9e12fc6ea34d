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

from .core import checked_size, checked_vector
from .optim import ConstrainedProblem, gradient_descent
from .rand import Lcg


def _logistic(t, out=None):
    with np.errstate(all="ignore"):  # exp(-t) = inf below t = -709: 1 / (1 + inf) = 0 is exact
        return np.divide(1.0, 1.0 + np.exp(-t), out=out)


# name -> (activation, its derivative), both componentwise; the activation takes ``out=``
ACTIVATIONS = {
    "tanh": (np.tanh, lambda t: 1.0 - np.tanh(t) ** 2),
    "logistic": (_logistic, lambda t: (s := _logistic(t)) * (1.0 - s)),
    "identity": (np.positive, lambda t: np.ones_like(t)),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths (input first, each at least 1) and the componentwise activation name."""
    layer_sizes: tuple
    activation: str = "tanh"

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least one layer (two sizes)")
        object.__setattr__(self, "layer_sizes",  # frozen: store the ints
                           tuple(checked_size(s, "layer size", 1) for s in self.layer_sizes))
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
    """Seeded uniform(-0.5, 0.5) weights and biases, one draw in the flat layout."""
    return unflatten_parameters(spec, Lcg(seed).floats(parameter_count(spec), -0.5, 0.5))


def forward(spec: NetworkSpec, params: Parameters, x) -> ForwardTrace:
    """Propagate an input through every layer."""
    x = checked_vector(x, spec.layer_sizes[0], "input", "first layer size")
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
    out = trace.activations[-1]
    diff = checked_vector(a_obs, out.size, "target", "output layer size") - out
    return 0.5 * float(diff @ diff)


def adjoint_pass(spec: NetworkSpec, params: Parameters, trace: ForwardTrace,
                 a_obs) -> AdjointTrace:
    """Backward sweep for the layer multipliers.

    The top adjoint equals the output misfit; each lower one pulls the
    next adjoint back through the transposed weights, masked by the
    activation slope at the stored pre-activations.
    """
    out = trace.activations[-1]
    n_layers = spec.num_layers
    ys = [None] * (n_layers + 1)
    ys[n_layers] = checked_vector(a_obs, out.size, "target", "output layer size") - out
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
    return _ravel([block for pair in zip(params.weights, params.biases) for block in pair])


def _control_layout(sizes) -> list:
    """``(weight slice, weight shape, bias slice)`` of each layer in the flat control."""
    ends = np.cumsum([rows * (cols + 1) for rows, cols in zip(sizes[1:], sizes)]).tolist()
    return [(slice(end - rows * (cols + 1), end - rows), (rows, cols), slice(end - rows, end))
            for end, rows, cols in zip(ends, sizes[1:], sizes)]


def _layer_views(layout, z: np.ndarray) -> list:
    """``(W_i, b_i)`` for each layer of ``layout`` as views of the flat vector ``z``."""
    if z.size != layout[-1][2].stop:
        raise ValueError("flat parameter vector has wrong length")
    return [(z[w].reshape(shape), z[b]) for w, shape, b, *_ in layout]


def _pull_layer(g, layer, masked, a):
    """One layer's control blocks ``masked a^T`` and ``masked 1``, unnegated, into ``g``."""
    w, shape, b, _, _ = layer
    np.matmul(masked, a.T, out=g[w].reshape(shape))
    np.add.reduce(masked, axis=1, out=g[b])


def unflatten_parameters(spec: NetworkSpec, z: np.ndarray) -> Parameters:
    return Parameters(*zip(*_layer_views(_control_layout(spec.layer_sizes), z)))


def parameter_count(spec: NetworkSpec) -> int:
    return _control_layout(spec.layer_sizes)[-1][2].stop


def _ravel(blocks) -> np.ndarray:
    return np.concatenate([block.ravel() for block in blocks])


class NetworkTrainingProblem(ConstrainedProblem):
    """Full-batch training cast as an equality-constrained problem.

    The samples are columns: ``x`` has shape ``(n0, m)`` and ``a_obs``
    shape ``(nL, m)``, and a single sample is a batch of one column.
    State: the ``(size, m)`` activation blocks, input layer included,
    raveled and concatenated layer by layer; ``solve_forward`` writes them
    layer by layer in place into one new state, whose layout, like the
    control's, is fixed at construction.  Control: flattened weights
    and biases.  Objective: the half squared error summed over the
    batch.  The layer structure makes the adjoint solve one backward
    substitution, the sweep of ``adjoint_pass`` applied to every column
    at once, so on one column the two gradient routes agree bit for bit.
    The sweep forms each layer's masked adjoint ``act'(pre) o y_next`` once,
    for the next multiplier and for that layer's blocks of the pull-back.
    """

    def __init__(self, spec: NetworkSpec, x, a_obs):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.a_obs = np.asarray(a_obs, dtype=float)
        sizes = spec.layer_sizes
        m = self.x.shape[1] if self.x.ndim == 2 else 0
        shapes = f"x {self.x.shape}, a_obs {self.a_obs.shape}"
        if m < 1 or self.x.shape[0] != sizes[0] or self.a_obs.shape != (sizes[-1], m):
            raise ValueError(f"sample shapes do not match the network sizes: need "
                             f"columns x ({sizes[0]}, m), a_obs ({sizes[-1]}, m), "
                             f"m >= 1, got {shapes}")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.a_obs))):
            raise ValueError(f"training samples have non-finite entries (shapes {shapes})")
        self.state_dim = sum(sizes) * m
        self.control_dim = parameter_count(spec)
        self._act, self._act_prime = ACTIVATIONS[spec.activation]
        # per layer: weight slice and shape, bias slice, and its activation block and shape
        self._layout = [(*layer, slice((end - size) * m, end * m), (size, m)) for layer, size, end
                        in zip(_control_layout(sizes), sizes[1:], np.cumsum(sizes).tolist()[1:])]

    def _split_state(self, u):
        return [u[:self.x.size].reshape(self.x.shape)] + [
            u[block].reshape(shape) for _, _, _, block, shape in self._layout]

    def _layers(self, u, z):
        """Weights, activation blocks and pre-activations at ``(u, z)``."""
        layers = _layer_views(self._layout, z)
        acts = self._split_state(u)
        pres = [w @ a + b[:, None] for (w, b), a in zip(layers, acts)]
        return [w for w, _ in layers], acts, pres

    def residual(self, u, z):
        _, acts, pres = self._layers(u, z)
        return _ravel([acts[0] - self.x]
                      + [a - self._act(t) for a, t in zip(acts[1:], pres)])

    def solve_forward(self, z):
        if z.size != self.control_dim:
            raise ValueError("flat parameter vector has wrong length")
        u = np.empty(self.state_dim)
        u[:self.x.size].reshape(self.x.shape)[...] = a_prev = self.x
        for w, w_shape, b, block, shape in self._layout:
            a = u[block].reshape(shape)
            np.add(np.matmul(z[w].reshape(w_shape), a_prev, out=a), z[b, None], out=a)
            a_prev = self._act(a, out=a)
        return u

    def apply_state_jacobian(self, u, z, du):
        weights, _, pres = self._layers(u, z)
        d = self._split_state(du)
        return _ravel([d[0]] + [d_next - self._act_prime(t) * (w @ d_i)
                                for d_i, d_next, w, t
                                in zip(d, d[1:], weights, pres)])

    def apply_state_adjoint(self, u, z, y):
        weights, _, pres = self._layers(u, z)
        ys = self._split_state(y)
        return _ravel([y_i - w.T @ (self._act_prime(t) * y_next)
                       for y_i, y_next, w, t in zip(ys, ys[1:], weights, pres)]
                      + [ys[-1]])

    def solve_adjoint(self, u, z, rhs):
        # identity diagonal blocks: a single backward substitution, in place on a copy
        weights, acts, pres = self._layers(u, z)
        y = np.array(rhs, dtype=float)
        ys = self._split_state(y)
        g = np.empty(self.control_dim)
        for i in range(self.spec.num_layers - 1, -1, -1):
            masked = self._act_prime(pres[i]) * ys[i + 1]
            ys[i] += weights[i].T @ masked
            _pull_layer(g, self._layout[i], masked, acts[i])
        return y, np.negative(g, out=g)

    def apply_control_adjoint(self, u, z, y):
        _, acts, pres = self._layers(u, z)
        g = np.empty(self.control_dim)
        for layer, a, t, y_next in zip(self._layout, acts, pres, self._split_state(y)[1:]):
            _pull_layer(g, layer, y_next * self._act_prime(t), a)
        return np.negative(g, out=g)

    def objective(self, u, z):
        diff = self.a_obs - u[self._layout[-1][3]].reshape(self.a_obs.shape)
        return 0.5 * float(np.vdot(diff, diff))

    def objective_grad_state(self, u, z):
        g = np.zeros(self.state_dim)
        g[self._layout[-1][3]] = (self._split_state(u)[-1] - self.a_obs).ravel()
        return g

    def objective_grad_control(self, u, z):
        return np.zeros(self.control_dim)


def as_constrained_problem(spec: NetworkSpec, x, a_obs) -> NetworkTrainingProblem:
    """Expose one training sample, as a batch of one column, to the optimizer."""
    return NetworkTrainingProblem(spec, np.reshape(x, (-1, 1)), np.reshape(a_obs, (-1, 1)))


def train(spec: NetworkSpec, params: Parameters, samples, iters: int,
          step: float = 1.0):
    """Full-batch ``gradient_descent`` on the summed per-sample loss.

    ``samples`` is a sequence of (x, a_obs) pairs of flat arrays, stacked
    as the columns of one ``NetworkTrainingProblem``.  Runs ``iters`` iterations, stopping
    early only at an exactly zero gradient, and returns the trained
    parameters and the per-iteration history rows (k, loss, grad_norm,
    step).  Each Armijo line search starts at ``min(step, 8 × the last
    accepted step)``, the first at ``step``; a failed one raises
    ``NumericalError``.
    """
    samples = [(np.asarray(x, dtype=float), np.asarray(a, dtype=float)) for x, a in samples]
    if not samples:
        raise ValueError("training needs at least one (x, a_obs) sample")
    sizes = (spec.layer_sizes[0], spec.layer_sizes[-1])
    for i, pair in enumerate(samples):
        for name, v, v0, size in zip(("x", "a_obs"), pair, samples[0], sizes):
            if v.ndim != 1:
                raise ValueError(f"sample {i} {name} has shape {v.shape}: sample shapes do not "
                                 f"match the network sizes, need a flat {name} of length {size}")
            if v.shape != v0.shape:
                raise ValueError(f"sample {i} {name} has shape {v.shape}, sample 0 {v0.shape}: "
                                 "every sample must have the same shape")
    x, a_obs = (np.stack(side, axis=1) for side in zip(*samples))
    params.check_spec(spec)
    result = gradient_descent(NetworkTrainingProblem(spec, x, a_obs),
                              flatten_parameters(params), step, iters, 0.0)
    return unflatten_parameters(spec, result.z), result.history
