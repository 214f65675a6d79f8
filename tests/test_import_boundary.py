"""The Newton linear algebra sits behind one module.

``pbfem.newton`` is the only module that reaches SuperLU and SciPy's private
sparse modules, and no module imports the operating system's process,
signal, shared-memory or foreign-function modules; the solver takes no
private name from the transcription, and the imports run transcription ->
plans -> newton and solver -> newton.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pbfem"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imports(module):
    """(module, name) of every import in ``src/pbfem/<module>.py``: name
    None for ``import module`` and ``from . import module``, relative
    modules with their leading dots."""
    found = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            # from . import x
            found += [("." * node.level + alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [("." * node.level + node.module, alias.name) for alias in node.names]
    return found


def reaches_superlu(module, name):
    path = module if name is None else f"{module}.{name}"
    return any(part in path for part in ("scipy.sparse.linalg", "_superlu", "_sparsetools"))


def test_solver_takes_no_private_name_from_the_transcription():
    private = [name for module, name in imports("solver")
               if module == ".transcription" and name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_only_newton_reaches_superlu(module):
    reached = [imp for imp in imports(module) if reaches_superlu(*imp)]
    if module == "newton":
        assert reached
    else:
        assert reached == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_reaches_the_os(module):
    # every Newton direction is factored in the solving process
    os_modules = {"ctypes", "mmap", "signal", "multiprocessing"}
    reached = {m.split(".")[0] for m, _ in imports(module)} & os_modules
    assert reached == set()


def test_imports_run_towards_newton():
    def pbfem_modules(module):
        return {m for m, _ in imports(module) if m.startswith(".")}

    assert pbfem_modules("newton") == set()
    assert pbfem_modules("plans") == {".newton"}
    assert ".plans" in pbfem_modules("transcription")
    assert ".newton" in pbfem_modules("solver")
