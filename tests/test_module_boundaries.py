"""The import boundaries of the expression modules, read from their source with `ast`.

`exprcore` (the trees) imports neither numpy nor the code-generation modules, `codegen`
imports numpy nowhere at module level, and of the three only `lanes` imports numpy at
module level, so the trees and the scalar code stay usable without numpy.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clmech"
EXPRESSION_MODULES = ("exprcore", "codegen", "lanes")


def _imported(module: str, *, module_level: bool) -> set[str]:
    """The absolute names of the modules `clmech/<module>.py` imports: only the imports run at
    import time with `module_level` (no function body), else every import statement."""
    todo, found = list(ast.parse((SRC / f"{module}.py").read_text()).body), set()
    while todo:
        node = todo.pop()
        if module_level and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "clmech" if node.level else ""
            name = ".".join(filter(None, (base, node.module)))
            found |= {f"{name}.{alias.name}" for alias in node.names} if not node.module else {name}
        todo.extend(ast.iter_child_nodes(node))
    return found


def _numpy(names: set[str]) -> bool:
    return any(name == "numpy" or name.startswith("numpy.") for name in names)


def test_exprcore_imports_no_numpy_and_no_code_generation():
    names = _imported("exprcore", module_level=False)
    assert not _numpy(names)
    assert not names & {"clmech.codegen", "clmech.lanes"}


def test_codegen_imports_numpy_nowhere_at_module_level():
    names = _imported("codegen", module_level=True)
    assert not _numpy(names)
    assert "clmech.lanes" not in names  # which imports numpy; `_compile` imports it where arrays are
    assert "clmech.lanes" in _imported("codegen", module_level=False)


def test_only_lanes_imports_numpy_at_module_level():
    with_numpy = [m for m in EXPRESSION_MODULES if _numpy(_imported(m, module_level=True))]
    assert with_numpy == ["lanes"]
