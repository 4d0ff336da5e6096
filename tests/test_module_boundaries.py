"""The import boundaries of the modules, read from their source with `ast`.

`exprcore` (the trees) imports neither numpy nor the code-generation modules, `codegen`
imports numpy nowhere at module level, and of the three only `lanes` imports numpy at
module level, so the trees and the scalar code stay usable without numpy. `solves` holds
every solve and imports numpy nowhere. No module imports another's underscore name but
the three expression modules. Only `records` imports `dataclasses`, and importing the
package compiles one generated source.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "clmech"
EXPRESSION_MODULES = ("exprcore", "codegen", "lanes")
# (importer, module): the private names it imports. The expression modules are one concern,
# the trees, their scalar code and their array code, split in three files;
# `test_only_the_expression_modules_import_private_codegen_names` pins the codegen side
EXPRESSION_PRIVATE_IMPORTS = {
    ("codegen", "exprcore"): {"_CMATH", "_INLINE_CALLS", "_apply_call", "_domain_div", "_domain_pow"},
    ("codegen", "lanes"): {"_LANE_HELPERS", "_lane_kernel"},
    ("lanes", "codegen"): {"_not_real", "_where"},
}


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


def test_only_the_expression_modules_import_private_codegen_names():
    # a module that writes generated text goes through `compile_expr` and `compile_step`
    private = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("codegen", "clmech.codegen"):
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                private.setdefault(path.stem, []).extend(names)
    assert {m for m, names in private.items() if names} <= {"codegen", "lanes"}
    assert private["lanes"] and private["lagrangian"] == []


def test_no_module_imports_a_private_name_of_another_but_the_expression_modules():
    private = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("clmech")):
                module = (node.module or "").removeprefix("clmech").lstrip(".")
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    private.setdefault((path.stem, module), set()).update(names)
    assert private == EXPRESSION_PRIVATE_IMPORTS


def _defined(module: str) -> set[str]:
    """The names `clmech/<module>.py` defines at module level by `def`, `class` or assignment."""
    found = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Assign):
            found |= {n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name)}
    return found


def test_the_solves_live_in_one_module_without_numpy():
    assert not _numpy(_imported("solves", module_level=False))
    assert {"solve_linear", "solver", "solve_plan", "newton_solver", "SingularMass"} <= _defined("solves")
    assert not _defined("lagrangian") & _defined("solves")


def test_no_module_reads_the_globals_of_a_generated_function():
    reads = [path.name for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "__globals__"]
    assert reads == []


def test_only_the_record_module_imports_dataclasses():
    importing = [path.stem for path in sorted(SRC.glob("*.py"))
                 if any(name.split(".")[0] == "dataclasses" for name in _imported(path.stem, module_level=False))]
    assert importing == ["records"]


def test_importing_the_cli_compiles_one_generated_source():
    # numpy is imported before the hook: its own import compiles namedtuple sources
    code = (
        "import sys, numpy\n"
        "texts = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and args[1] == '<string>' and texts.append(args[0]))\n"
        "import clmech.cli\n"
        "print(repr([text if isinstance(text, str) else bytes(text).decode() for text in texts]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    texts = ast.literal_eval(done.stdout)
    # `solves`' constant text of `_solve_scalar`, compiled once at import
    assert len(texts) == 1 and texts[0].startswith("def _solve_scalar(a, b):"), texts
