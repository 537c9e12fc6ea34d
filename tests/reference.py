"""Reference implementations shared by the tests; not part of the library.

Besides the dense state Jacobian and the dense elliptic stiffness, these
are the advection, elliptic and network kernels in their first, plainer
form (one node at a time, more NumPy passes, concatenated blocks, a full
finiteness scan); the library's kernels must match them bit for bit.
``adjoint_then_pull`` takes the adjoint solve apart again: the
multiplier by these kernels, then its pull-back by
``apply_control_adjoint``.  ``fd_gradient_check_by_direction`` is the
central-difference check as two single forward solves per direction.
``lyapunov_by_scipy`` is the Lyapunov solve through SciPy's own
``solve_continuous_lyapunov``, ``json_numbers_by_object_array`` the
JSON number conversion through an object array, and
``sturm_stiffness_by_product`` the Sturm-Liouville stiffness as the
dense triple product, each in its first form.
"""

import warnings

import numpy as np

from adjointkit.errors import NumericalError
from adjointkit.network import NetworkTrainingProblem
from adjointkit.optim import reduced_gradient
from adjointkit.pde import AdvectionControlProblem
from adjointkit.stability import SingularLyapunovError


def bits(a):
    """The IEEE bit patterns of a float array, for exact comparisons."""
    return np.asarray(a, dtype=float).view(np.uint64)


def dense_state_jacobian(problem, u, z):
    """The state Jacobian at ``(u, z)``, one ``apply_state_jacobian`` per column."""
    return np.column_stack([problem.apply_state_jacobian(u, z, e)
                            for e in np.eye(problem.state_dim)])


def adjoint_then_pull(problem, u, z, rhs):
    """``solve_adjoint``'s pair in two steps: the multiplier, then its control pull-back."""
    if isinstance(problem, AdvectionControlProblem):
        y = advection_sweep_oracle(problem, rhs)
    elif isinstance(problem, NetworkTrainingProblem):
        y = network_adjoint(problem, u, z, rhs)
    else:
        y = elliptic_solve(problem, z, rhs, 0.0, 0.0)
    return y, problem.apply_control_adjoint(u, z, y)


def fd_gradient_check_by_direction(problem, z, steps=(1e-2, 1e-3, 1e-4)):
    """``fd_gradient_check``, one direction at a time: ``f(z + h e_j)`` and
    ``f(z - h e_j)`` each by one forward solve of one control."""
    def f(control):
        return float(problem.objective(problem.solve_forward(control), control))

    grad = reduced_gradient(problem, z).gradient
    out = {}
    for h in steps:
        fd = np.zeros(problem.control_dim)
        for j in range(problem.control_dim):
            e = np.zeros(problem.control_dim)
            e[j] = h
            fd[j] = (f(z + e) - f(z - e)) / (2.0 * h)
        scale = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12)
        out[h] = float(np.linalg.norm(fd - grad) / scale)
    return out


def lyapunov_by_scipy(a, q):
    """``P A + A^T P + Q = 0`` by ``scipy.linalg.solve_continuous_lyapunov(A^T, -Q)``.

    SciPy's warning on an eigenvalue pair summing to zero becomes
    ``SingularLyapunovError``; then come ``lyapunov_solve``'s symmetrization
    and residual gate (1e-9 of ``|Q|``), with its messages.
    """
    from scipy.linalg import solve_continuous_lyapunov
    with warnings.catch_warnings():
        warnings.filterwarnings("error", ".*eigenvalue pair", RuntimeWarning)
        try:
            p = solve_continuous_lyapunov(a.T, -q)
        except RuntimeWarning:
            raise SingularLyapunovError("Lyapunov system is singular "
                                        "(A and -A share an eigenvalue)") from None
    p = 0.5 * (p + p.T)
    residual = np.linalg.norm(p @ a + a.T @ p + q)
    if residual > 1e-9 * np.linalg.norm(q):
        raise NumericalError(f"Lyapunov residual too large ({residual:.3e})")
    return p


def sturm_stiffness_by_product(problem):
    """``K = D^T diag(p_half) D / h^2 + diag(q)``, with ``D`` formed densely."""
    n = problem.n
    if problem.bc == "dirichlet":
        h = 1.0 / (n + 1)
        grid = (np.arange(n) + 1.0) * h
        interfaces = (np.arange(n + 1) + 0.5) * h
        d = np.eye(n + 1, n) - np.eye(n + 1, n, -1)
    elif problem.bc == "neumann":
        h = 1.0 / n
        grid = (np.arange(n) + 0.5) * h
        interfaces = np.arange(1, n) * h
        d = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    else:
        h = 1.0 / n
        grid = np.arange(n) * h
        interfaces = (np.arange(n) + 0.5) * h
        d = np.roll(np.eye(n), 1, axis=1) - np.eye(n)
    p_half = np.asarray([problem.p(x) for x in interfaces], dtype=float)
    q = np.asarray([problem.q(x) for x in grid], dtype=float)
    return d.T @ (p_half[:, None] * d) / h ** 2 + np.diag(q)


def json_numbers_by_object_array(values, name):
    """``core.json_numbers`` with every input going through an object array."""
    items = np.asarray(values, dtype=object)
    if {str, bool} & set(map(type, items.flat)):
        bad = next(x for x in items.flat if type(x) in (str, bool))
        raise ValueError(f"{name}: expected a number, got {bad!r}")
    return items.astype(float)


def advection_sweep_oracle(problem, rhs):
    """The downwind sweep one node at a time, from the outflow end."""
    y = np.zeros(problem.state_dim)
    y[-1] = problem.h * rhs[-1] / problem.beta
    for i in range(problem.n - 1, 0, -1):
        y[i] = y[i + 1] + problem.h * rhs[i] / problem.beta
    y[0] = rhs[0] / problem.beta + y[1] / problem.h
    return y


# -- the elliptic kernels with the three-reduction guard ------------------------------

def elliptic_solve(problem, z, rhs, g0, g1):
    """``K v = rhs`` with end values (g0, g1) by two running sums, guarded by
    ``min(w)``, ``max(w)`` and the finiteness of every ``v``."""
    with np.errstate(all="ignore"):
        w = problem.h / np.exp(z)
        if rhs is None:
            v = g0 + np.add.accumulate(w[:-1] * ((g1 - g0) / w.sum()))
        else:
            s = np.zeros(problem.n + 1)
            np.add.accumulate(problem.h * rhs, out=s[1:])
            f0 = (g1 - g0 + w @ s) / w.sum()
            v = g0 + np.add.accumulate(w * (f0 - s))[:-1]
    if not (0.0 < w.min() and w.max() < np.inf and np.isfinite(v).all()):
        raise NumericalError("exp(z) is not positive and finite in every cell, "
                             "or the elliptic solve overflowed")
    return v


def elliptic_jumps(u, g0, g1):
    """``D u`` by padding with the end values and differencing."""
    return np.diff(np.concatenate([[g0], u, [g1]]))


def elliptic_stiffness(problem, z):
    """``K = D^T diag(exp(z)) D / h^2``, with the same Dirichlet ``D`` as ``sturm``."""
    d = np.eye(problem.n + 1, problem.n) - np.eye(problem.n + 1, problem.n, -1)
    return d.T @ (np.exp(z)[:, None] * d) / problem.h ** 2


def elliptic_control_adjoint(problem, u, z, y):
    du = elliptic_jumps(u, problem.g0, problem.g1)
    return np.exp(z) * du * elliptic_jumps(y, 0.0, 0.0) / problem.h ** 2


# -- the network sweeps that concatenate their blocks ---------------------------------

ACTIVATIONS = {
    "tanh": (np.tanh, lambda t: 1.0 - np.tanh(t) ** 2),
    "logistic": (lambda t: 1.0 / (1.0 + np.exp(-t)),
                 lambda t: (s := 1.0 / (1.0 + np.exp(-t))) * (1.0 - s)),
    "identity": (lambda t: t, lambda t: np.ones_like(t)),
}


def _ravel(blocks):
    return np.concatenate([block.ravel() for block in blocks])


def _layer_views(sizes, z):
    pos = 0
    for rows, cols in zip(sizes[1:], sizes):
        end = pos + rows * cols
        yield z[pos:end].reshape(rows, cols), z[end:end + rows]
        pos = end + rows


def _split_state(problem, u):
    m = problem.x.shape[1]
    offsets = np.cumsum((0,) + problem.spec.layer_sizes) * m
    return [u[lo:hi].reshape(-1, m) for lo, hi in zip(offsets, offsets[1:])]


def _network_layers(problem, u, z):
    layers = list(_layer_views(problem.spec.layer_sizes, z))
    acts = _split_state(problem, u)
    pres = [w @ a + b[:, None] for (w, b), a in zip(layers, acts)]
    return [w for w, _ in layers], acts, pres


def network_forward(problem, z):
    act = ACTIVATIONS[problem.spec.activation][0]
    acts = [problem.x]
    for w, b in _layer_views(problem.spec.layer_sizes, z):
        acts.append(act(w @ acts[-1] + b[:, None]))
    return _ravel(acts)


def network_adjoint(problem, u, z, rhs):
    act_prime = ACTIVATIONS[problem.spec.activation][1]
    weights, _, pres = _network_layers(problem, u, z)
    ys = _split_state(problem, rhs)
    for i in range(problem.spec.num_layers - 1, -1, -1):
        ys[i] = ys[i] + weights[i].T @ (act_prime(pres[i]) * ys[i + 1])
    return _ravel(ys)


def network_control_adjoint(problem, u, z, y):
    act_prime = ACTIVATIONS[problem.spec.activation][1]
    _, acts, pres = _network_layers(problem, u, z)
    parts = []
    for a, t, y_next in zip(acts, pres, _split_state(problem, y)[1:]):
        masked = y_next * act_prime(t)
        parts += [-(masked @ a.T), -masked.sum(axis=1)]
    return _ravel(parts)
