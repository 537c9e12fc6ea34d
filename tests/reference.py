"""Reference implementations shared by the tests; not part of the library."""

import numpy as np


def dense_state_jacobian(problem, u, z):
    """The state Jacobian at ``(u, z)``, one ``apply_state_jacobian`` per column."""
    return np.column_stack([problem.apply_state_jacobian(u, z, e)
                            for e in np.eye(problem.state_dim)])
