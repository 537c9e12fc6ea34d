import ast
from pathlib import Path

import adjointkit
from adjointkit.optim import ConstrainedProblem


def imported_public_names():
    """Names that ``adjointkit/__init__.py`` binds by its imports, minus private ones."""
    tree = ast.parse(Path(adjointkit.__file__).read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_all_names_resolve():
    missing = [name for name in adjointkit.__all__ if not hasattr(adjointkit, name)]
    assert missing == []


def test_all_lists_exactly_the_imported_public_names():
    assert len(adjointkit.__all__) == len(set(adjointkit.__all__))
    assert set(adjointkit.__all__) == imported_public_names()


def test_no_module_reads_the_environment():
    # stdout may depend only on argv and the input files
    package = Path(adjointkit.__file__).parent
    hits = [f"{path.name}:{number}"
            for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "os.environ" in line or "getenv" in line]
    assert hits == []


def test_no_module_forms_an_explicit_inverse():
    # core.adjoint promises solves with the Cholesky factor, never a formed inverse
    package = Path(adjointkit.__file__).parent
    hits = [f"{path.name}:{number}"
            for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "linalg.inv(" in line]
    assert hits == []


def test_every_constrained_problem_operation_is_abstract():
    # each problem derives its own adjoint; no generic default may stand in for it
    assert ConstrainedProblem.__abstractmethods__ == {
        "residual", "solve_forward", "apply_state_jacobian", "apply_state_adjoint",
        "solve_adjoint", "apply_control_adjoint", "objective", "objective_grad_state",
        "objective_grad_control"}
    # the one default: the row loop of forward solve and objective, which a
    # problem may replace by a stacked sweep
    concrete = {name for name, value in vars(ConstrainedProblem).items()
                if callable(value) and not name.startswith("_")}
    assert concrete - ConstrainedProblem.__abstractmethods__ == {"reduced_objectives"}
