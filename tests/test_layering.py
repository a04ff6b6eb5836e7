"""Module layering of the package: imports sit at module level and form no
cycle, one loop sweeps for every fixed-point solver, one lockstep loop
draws every Monte Carlo batch, one function keys numpy's Philox, one
table holds the sampling rule, only ``model`` builds and checks policies,
the command line runs the dual once for both Lagrangian modes, the
relative-safety route runs on arrays, and the evaluation core searches
the support graph and takes eigenvalues only where its proofs from the
Green operator fail."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "safemdp"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _package_imports(tree: ast.AST):
    """Yield the package modules imported anywhere under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "safemdp" if node.level else ""
            base = ".".join(filter(None, [package, node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        modules = {name.split(".")[1] for name in names if name.startswith("safemdp.")}
        yield from sorted(modules & set(MODULES))


def _tree(module: str) -> ast.AST:
    return ast.parse((PACKAGE / f"{module}.py").read_text(), filename=module)


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    tree = _tree(module)
    nested = [
        f"{module}.{func.name} imports {name}"
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in _package_imports(func)
    ]
    assert not nested


def test_module_import_graph_is_acyclic():
    graph = {m: set(_package_imports(_tree(m))) for m in MODULES}
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> None:
        assert module not in path, "import cycle " + " -> ".join(path + (module,))
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, path + (module,))
        done.add(module)

    for module in MODULES:
        visit(module, ())


def test_one_sweep_loop():
    """One sweep kernel serves every fixed-point solver: the package holds
    exactly one ``for sweep in range(...)`` loop."""
    loops = [
        f"{module}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == "sweep"
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Name)
        and node.iter.func.id == "range"
    ]
    assert len(loops) == 1, loops


def _call_sites(name: str) -> list[str]:
    """Every call of a function or method ``name`` in the package."""
    return [
        f"{module}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_philox_pass():
    """Monte Carlo steps in lockstep in one loop: the package calls
    ``_philox_blocks`` from exactly one place."""
    calls = _call_sites("_philox_blocks")
    assert len(calls) == 1, calls


def test_one_philox_constructor():
    """One place keys numpy's Philox: the package builds ``Philox`` in one
    function, ``simulate._stream``; ``_Streams`` re-keys that generator."""
    sites = [
        f"{module}:{func.name}"
        for module in MODULES
        for func in ast.walk(_tree(module))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and "Philox" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sites == ["simulate:_stream"], sites


def test_policies_are_built_in_model():
    """One policy rule: only ``model`` calls ``Policy(...)``, and no other
    module raises PolicyError or reads a policy matrix's shape to check it."""
    sites = [site for site in _call_sites("Policy") if not site.startswith("model:")]
    sites += [
        f"{module}:{node.lineno}"
        for module in MODULES
        if module != "model"
        for node in ast.walk(_tree(module))
        if (isinstance(node, ast.Raise) and "PolicyError" in ast.unparse(node))
        or (isinstance(node, ast.Attribute) and node.attr == "shape"
            and getattr(node.value, "attr", None) == "matrix")
    ]
    assert not sites, sites


def test_one_dual_run_in_cli():
    """``solve --mode lp`` and ``--mode dual`` share one dual run and one
    infeasibility report: ``cli`` calls ``dual_ascent`` from exactly one place."""
    calls = [site for site in _call_sites("dual_ascent") if site.startswith("cli:")]
    assert len(calls) == 1, calls


def test_one_sampling_table():
    """The sampling rule is built once and searched one by one in one place:
    ``_support_table`` and ``bisect_right`` each have one call site, and no
    module imports ``accumulate`` to build running sums of its own."""
    assert len(_call_sites("_support_table")) == 1, _call_sites("_support_table")
    assert len(_call_sites("bisect_right")) == 1, _call_sites("bisect_right")
    imports = [
        f"{module}:{node.lineno}"
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(alias.name.split(".")[-1] == "accumulate" for alias in node.names)
    ]
    assert not imports, imports


def test_relative_route_has_no_loop():
    """The relative-safety vertices and sweeps are array operations: neither
    ``relative_admissible`` nor ``relative_vi`` holds a ``for`` statement or
    a comprehension."""
    loops = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(_tree("constrained"))
        if isinstance(func, ast.FunctionDef)
        and func.name in ("relative_admissible", "relative_vi")
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
    ]
    assert not loops, loops


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(
        node for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_one_eigvals_fallback():
    """``np.linalg.eigvals`` has one call site, ``evaluate._radius``'s
    fallback, and both radius reports go through ``_radius``."""
    radius = _function("evaluate", "_radius")
    inside = [
        f"evaluate:{node.lineno}" for node in ast.walk(radius)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "eigvals"
    ]
    assert _call_sites("eigvals") == inside and len(inside) == 1
    for caller in ("check_transient", "chain_quantities"):
        calls = [node for node in ast.walk(_function("evaluate", caller))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_radius"]
        assert len(calls) == 1, caller


def test_solve_searches_the_graph_only_after_a_failed_proof():
    """``_solve`` reaches ``_trapped``, through ``_require_transient``, only
    in the branch where ``_proves_transient`` failed or where the LU found
    ``I - Q`` singular, so no proof could be tried.  ``_witness`` and
    ``_pure_blocks`` keep their own search, the fast path where every
    candidate row leaks."""
    solve = _function("evaluate", "_solve")
    guarded = set()
    for node in ast.walk(solve):
        if isinstance(node, ast.If) and ast.unparse(node.test).startswith("not _proves_transient("):
            guarded |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
        if isinstance(node, ast.ExceptHandler) and ast.unparse(node.type).endswith("LinAlgError"):
            guarded |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    searches = [
        node for node in ast.walk(solve)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("_trapped", "_require_transient")
    ]
    assert searches and all(id(node) in guarded for node in searches), ast.unparse(solve)
    require = _function("evaluate", "_require_transient")
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_trapped"
               for node in ast.walk(require))
