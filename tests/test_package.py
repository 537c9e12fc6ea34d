import ast
import inspect
from pathlib import Path

import adjointkit
from adjointkit.core import checked_matrix
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


def test_every_private_module_name_is_read():
    # a private helper, class or constant that nothing reads is vestigial code
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(adjointkit.__file__).parent.glob("*.py"))]
    reads = [node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)]
    unread = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [target.id for target in ast.walk(node)
                         if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)]
            else:
                continue
            for name in names:
                # a read inside the definition itself, such as a recursive call, does not count
                inside = sum(isinstance(sub, ast.Name) and sub.id == name
                             and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node))
                private = name.startswith("_") and not name.startswith("__")
                if private and reads.count(name) <= inside:
                    unread.append(name)
    assert unread == []


def scopes_where(node, scope, hit):
    """The dotted scope (module, class, function) of each node under ``node``
    that ``hit`` accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from scopes_where(child, f"{scope}.{child.name}", hit)
            continue
        if hit(child):
            yield scope
        yield from scopes_where(child, scope, hit)


def package_scopes_where(hit):
    return [scope for path in sorted(Path(adjointkit.__file__).parent.glob("*.py"))
            for scope in scopes_where(ast.parse(path.read_text()), path.stem, hit)]


def imports_scipy(node):
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and not node.level:
        modules = [node.module]
    else:
        return False
    return any(name == "scipy" or name.startswith("scipy.") for name in modules)


def calls(node, name):
    """Whether ``node`` calls ``name`` (such as ``linalg.svd``) under any module prefix."""
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith(name)


def test_only_lyapunov_solve_imports_scipy():
    # loading scipy.linalg adds about 27 MB of resident memory; no module may pay
    # for it at import, and no command but a Lyapunov solve may pay for it at all
    assert package_scopes_where(imports_scipy) == ["stability.lyapunov_solve"]


def test_only_the_space_solves_with_its_metric():
    # every metric solve goes through the space's maps, which take the diagonal
    # path where the factor allows; r0's solve with V is not a metric solve
    assert package_scopes_where(lambda node: calls(node, "linalg.solve")) == [
        "core.InnerProductSpace._solve", "stability.r0"]


def test_one_svd_per_operator_and_no_norm_by_an_svd_of_its_own():
    # every singular value comes from the operator's one cached factorization;
    # the 2-norm stays only where a symmetry defect is measured against |B|
    assert package_scopes_where(lambda node: calls(node, "linalg.svd")) == [
        "core._factors"]

    def spectral_norm(node):
        if not calls(node, "linalg.norm"):
            return False
        ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        return any(ast.unparse(o) in ("2", "-2") for o in ords)

    assert package_scopes_where(spectral_norm) == ["spectral.eig_self_adjoint"] * 2


def test_the_adjoint_check_sees_operators_only_through_their_whitened_matrices():
    # the probes are metric-orthonormal coordinates, so no metric product belongs in it
    def reads_metric(node):
        return isinstance(node, ast.Attribute) and node.attr == "metric"

    scopes = package_scopes_where(reads_metric)
    assert "core.InnerProductSpace.inner" in scopes
    assert "core.adjoint_consistency_check" not in scopes


def package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(adjointkit.__file__).parent.glob("*.py"))}


def sizes_checked_again(tree):
    """``function: test`` of each ``if`` that raises on a name ``checked_size`` bound.

    A name is bound by an assignment, or by ``object.__setattr__`` on a frozen
    record, whose value calls ``checked_size``; an ``if`` below the binding
    that reads the name is a range test outside the gate.
    """
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {}  # name -> line of its first binding
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and any(
                    calls(sub, "checked_size") for sub in ast.walk(node.value)):
                names = [ast.unparse(t) for target in node.targets
                         for t in (target.elts if isinstance(target, ast.Tuple) else [target])]
            elif (calls(node, "__setattr__") and len(node.args) == 3
                  and any(calls(sub, "checked_size") for sub in ast.walk(node.args[2]))):
                names = [f"{ast.unparse(node.args[0])}.{node.args[1].value}"]
            else:
                continue
            for name in names:
                bound[name] = min(bound.get(name, node.lineno), node.lineno)
        for node in ast.walk(func):
            if not (isinstance(node, ast.If) and any(
                    isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt))):
                continue
            read = {ast.unparse(sub) for sub in ast.walk(node.test)
                    if isinstance(sub, (ast.Name, ast.Attribute))}
            if any(bound[name] < node.lineno for name in read & bound.keys()):
                hits.append(f"{func.name}: {ast.unparse(node.test)}")
    return hits


CAPS = {"MAX_LYAPUNOV_DIM", "MAX_SL_NODES"}


def cap_reads(tree):
    """``(cap, whether it is the high of a checked_size call)`` for each read of a cap."""
    highs = {id(bound) for node in ast.walk(tree) if calls(node, "checked_size")
             for bound in node.args[3:4] + [kw.value for kw in node.keywords
                                            if kw.arg == "high"]}
    return [(node.id, id(node) in highs) for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in CAPS and isinstance(node.ctx, ast.Load)]


def test_every_size_range_lives_in_checked_size():
    # a size is range-checked once, by the bounds of its checked_size call
    trees = package_trees()
    assert {name: hits for name, tree in trees.items()
            if (hits := sizes_checked_again(tree))} == {}
    # each cap is read, only ever as a high, and checked_matrix has no cap of its own
    reads = [read for tree in trees.values() for read in cap_reads(tree)]
    assert {cap for cap, _ in reads} == CAPS
    assert [cap for cap, high in reads if not high] == []
    assert list(inspect.signature(checked_matrix).parameters) == [
        "a", "what", "shape", "where"]


# scopes that open an errstate block but keep a test of their own: the elliptic
# solve's guard, which also refuses a finite resistance of 0, the logistic
# activation whose overflow to 1 / (1 + inf) = 0 is exact, and the Lyapunov
# residual and scale tests, tolerance gates that refuse inf and NaN too
OWN_FINITENESS_TESTS = ["network._logistic", "pde.EllipticInversionProblem._solve",
                        "stability.lyapunov_solve"]


def raises_numerical_error_on_isfinite(node):
    """Whether ``node`` is an ``if`` on an ``isfinite`` test that raises ``NumericalError``."""
    return (isinstance(node, ast.If)
            and any(calls(sub, "isfinite") for sub in ast.walk(node.test))
            and any(isinstance(sub, ast.Raise) and sub.exc is not None
                    and ast.unparse(sub.exc).startswith("NumericalError(")
                    for stmt in node.body for sub in ast.walk(stmt)))


def test_every_non_finite_result_is_refused_by_checked_finite():
    # a result past the float range is a NumericalError from one gate, after
    # an errstate block that turns the overflow into an inf instead of a warning
    errstates = [node for tree in package_trees().values() for node in ast.walk(tree)
                 if calls(node, "np.errstate")]
    assert errstates
    assert [ast.unparse(node) for node in errstates
            if node.args or [(kw.arg, ast.unparse(kw.value)) for kw in node.keywords]
            != [("all", "'ignore'")]] == []
    opening = set(package_scopes_where(lambda node: calls(node, "np.errstate")))
    gated = set(package_scopes_where(lambda node: calls(node, "checked_finite")))
    assert sorted(opening - gated) == OWN_FINITENESS_TESTS
    assert package_scopes_where(raises_numerical_error_on_isfinite) == ["core.checked_finite"]
