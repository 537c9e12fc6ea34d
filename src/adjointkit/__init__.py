"""Adjoint-consistent numerical toolkit.

Dense operators between weighted inner-product spaces with a
machine-checkable adjoint identity, and the applications built on it:
SVD and fundamental subspaces, least squares and Tikhonov inversion,
reduced-gradient optimization, feed-forward network training, ODE
stability certificates, and Sturm-Liouville mode expansions.
"""

from .core import (AdjointReport, DenseOperator, InnerProductSpace, adjoint,
                   adjoint_consistency_check, matrix_operator,
                   operator_from_record, operator_norm, operator_to_record,
                   orthonormalize)
from .errors import NumericalError
from .leastsq import (PicardTable, TikhonovSolution, instability_demo,
                      integration_operator, normal_solve, picard_diagnostic,
                      tikhonov_solve)
from .network import (NetworkSpec, Parameters, adjoint_pass,
                      as_constrained_problem, forward, gradients,
                      init_parameters, loss)
from .optim import (ConstrainedProblem, ReducedGradientReport,
                    fd_gradient_check, gradient_descent, kkt_residuals,
                    reduced_gradient)
from .pde import build_advection_problem, build_elliptic_problem
from .spectral import (EigResult, SubspaceBases, SvdResult, eig_self_adjoint,
                       fundamental_subspaces, orthogonal_projector,
                       solvability_check, svd)
from .stability import (StabilityReport, hurwitz_check, jacobian_verdict,
                        linearize, lyapunov_solve, r0, stability_verdict)
from .sturm import (ModeSet, SLProblem, discretize, fourier_coefficients,
                    solve_modes, truncation_error)

__version__ = "0.1.0"

__all__ = [
    "AdjointReport", "ConstrainedProblem", "DenseOperator", "EigResult",
    "InnerProductSpace", "ModeSet", "NetworkSpec", "NumericalError",
    "Parameters", "PicardTable", "ReducedGradientReport", "SLProblem",
    "StabilityReport", "SubspaceBases", "SvdResult", "TikhonovSolution",
    "adjoint", "adjoint_consistency_check", "adjoint_pass",
    "as_constrained_problem", "build_advection_problem",
    "build_elliptic_problem", "discretize",
    "eig_self_adjoint", "fd_gradient_check", "forward",
    "fourier_coefficients", "fundamental_subspaces", "gradient_descent",
    "gradients", "hurwitz_check", "init_parameters", "instability_demo",
    "integration_operator", "jacobian_verdict", "kkt_residuals", "linearize",
    "loss", "lyapunov_solve", "matrix_operator", "normal_solve",
    "operator_from_record", "operator_norm", "operator_to_record",
    "orthogonal_projector", "orthonormalize",
    "picard_diagnostic", "r0", "reduced_gradient", "solvability_check",
    "solve_modes", "stability_verdict", "svd", "tikhonov_solve",
    "truncation_error",
]
