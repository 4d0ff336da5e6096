"""No map kernel of the bundled corpus or of perfbench's simulate round
carries the complex guard or calls a domain helper.

After the Re/Im split and the parameter fold, every map tree of these inputs
is real at real arguments, so its kernel returns the floats it computes and
checks no imaginary part. A tree change that brought back a complex constant,
or a power or call that can turn complex, would put `_not_real` back into the
kernels without changing a single value, so only this test would see it.

Likewise every `/`, `^` and call of these kernels and steps runs inline on
their fast path; the helpers `_h_div`, `_h_pow` and `_h_call` run only in the
helper kernel a raise falls back to. A regression to the helpers changes no
value either.
"""

import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

from clmech import codegen, hamiltonian, lagrangian, solves
from clmech.corpus import bundled_corpus
from clmech.dynamics import IntegratorConfig
from clmech.exprcore import subs
from clmech.lagrangian import _constant
from clmech.sampling import DEFAULT_SEED
from clmech.scenario import Scenario
from clmech.solves import solver
from clmech.suites import RunContext, run_suites

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

SCENARIOS = {sc.name: sc for sc in bundled_corpus()}
SCENARIOS.update(
    (spec.name, Scenario.from_dict(spec.scenario()))
    for spec in (gen.simulate_spec(7, i) for i in range(len(gen.SIMULATE_ROUND)))
)


def _kernels(sc: Scenario) -> dict:
    """The scalar map kernels and generated RK4 steps a run of the scenario can compile."""
    run = RunContext(sc)
    _, eom, _ = run.derived
    kernels = {"kernel": eom.maps.kernel, "newton": eom.maps.newton}
    if eom.is_regular:
        kernels["regular step"] = eom.maps.step
    if eom.is_regular and sc.dim == 1:
        field = run.field
        if field._qd is None:
            kernels["hamiltonian grads"] = field._grads
        else:
            kernels.update({"hamiltonian phase": field._phase, "hamiltonian step": field.step, "hamiltonian inverse": field._qd_f})
    return kernels


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_map_kernel_compiles_with_the_complex_guard(name):
    guarded = [k for k, fn in _kernels(SCENARIOS[name]).items() if "_h_not_real" in fn.__code__.co_names]
    assert guarded == []


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_map_kernel_or_step_calls_a_domain_helper(name):
    # with no guard (above), every `^` is to an integral real constant and every call is
    # sin, cos, exp or tanh of a real argument, so no helper is left on the fast path
    kernels = _kernels(SCENARIOS[name])
    assert {k for k, fn in kernels.items() if {"_h_div", "_h_pow", "_h_call"} & set(fn.__code__.co_names)} == set()


@pytest.mark.parametrize("name", [name for name, sc in SCENARIOS.items() if sc.dim > 1 and sc.closure_mass is None])
def test_a_derive_of_the_same_system_reuses_its_step(name):
    # each `simulate` operation derives afresh; the step compiles once per system
    # because `compile_step` caches on the hash-consed trees
    steps = [RunContext(SCENARIOS[name]).derived[1].maps.step for _ in range(2)]
    assert steps[0] is steps[1]


def test_every_varying_mass_step_binds_the_one_generated_solve():
    # a dim-3 mass matrix that does not fold to constants is solved at each stage
    # by `solver(3)`, compiled once for every system of that dimension
    solve, varying = solver(3), []
    for name, sc in SCENARIOS.items():
        if sc.dim == 3 and sc.closure_mass is None:
            maps = RunContext(sc).derived[1].maps
            constant = _constant([subs(row, maps._params) for row in maps.A])
            assert (solve.__name__ in maps.step.__code__.co_names) is not constant, name
            if not constant:
                assert maps.step.__globals__[solve.__name__] is solve, name
                varying.append(name)
    assert varying


def _int_operations(src: str) -> list[str]:
    """The operations of a generated source with an int literal operand, but the loop count `_n + 1`."""
    found = []
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.BinOp) and not (isinstance(node.left, ast.Name) and node.left.id == "_n"):
            if any(isinstance(x, ast.Constant) and type(x.value) is int for x in (node.left, node.right)):
                found.append(ast.unparse(node))
    return found


def test_generated_sources_write_float_literals_and_read_the_grid_only_for_t0(monkeypatch):
    """The sample loops `check all` over the corpus and the seed-7 simulate round build, as
    scripts/step_sources.py builds them, and the generated solvers: no operation has an int literal
    operand (CPython 3.11 runs float arithmetic with one on its generic path), and a loop reads its
    time grid `_tg` only where its text reads the sample's time t0."""
    built: list[str] = []

    def recording_exec(src: str, ns: dict) -> None:
        built.append(src)
        builtins.exec(src, ns)  # noqa: S102 - the generated source about to run

    for module in (codegen, solves):
        monkeypatch.setattr(module, "exec", recording_exec, raising=False)
    for module in (lagrangian, hamiltonian):  # past the loop cache, so that every loop is built here
        monkeypatch.setattr(module, "compile_step", codegen.compile_step.__wrapped__)
    for sc in bundled_corpus():
        run_suites(sc, sc.checks, seed=DEFAULT_SEED)
    for i in range(len(gen.SIMULATE_ROUND)):
        sc = Scenario.from_dict(gen.simulate_spec(7, i).scenario())
        run, cfg = RunContext(sc), IntegratorConfig(sc.h, sc.t_start, sc.t_end)
        if sc.initial_p is not None:
            run.phase_trajectory(cfg)
        else:
            run.trajectory(cfg)
    for n in range(1, 5):  # past the solver caches too
        solves.newton_solver.__wrapped__(n)
        if n > 1:
            solves.solver.__wrapped__(n)
    loops = [src for src in built if src.startswith("def _loop(")]
    generated = loops + [src for src in built if src.startswith(("def _solve_", "def _newton_"))]
    generated.append(f"def _solve_scalar(a, b):\n{solves.SOLVE_SCALAR}\n    return x\n")
    assert len(loops) >= 20 and len(generated) >= len(loops) + 8
    assert {src.split("(")[0]: _int_operations(src) for src in generated if _int_operations(src)} == {}
    for src in loops:
        reads_t0 = re.search(r"\bt0\b", src.replace("t0 = _tg[_i]", ""))
        assert ("_tg[" in src) is bool(reads_t0), src.split("\n", 1)[0]


def _zero_products(src: str) -> list[str]:
    """The products of a generated source with a +-0.0 literal operand."""

    def zero(x: ast.expr) -> bool:
        return isinstance(x, ast.UnaryOp) and zero(x.operand) or isinstance(x, ast.Constant) and x.value == 0.0

    products = (n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult))
    return [ast.unparse(n) for n in products if zero(n.left) or zero(n.right)]


@pytest.mark.parametrize("name", ["free_particle", "classical_oscillator", "imaginary_ho", "damped_oscillator"])
def test_the_regular_loops_with_a_zero_df_dq_hold_no_zero_product(name, monkeypatch):
    """df/dq folds to 0.0 in these scenarios, so the regular loop's slope g - (0.0 + 0.0 * qd) and its
    sample's residual held zero products before `codegen._drop_zero_terms`; the pass leaves none."""
    built: list[str] = []

    def recording_exec(src: str, ns: dict) -> None:
        built.append(src)
        builtins.exec(src, ns)  # noqa: S102 - the generated source about to run

    monkeypatch.setattr(codegen, "exec", recording_exec, raising=False)
    monkeypatch.setattr(lagrangian, "compile_step", codegen.compile_step.__wrapped__)  # past the loop cache
    [sc] = [sc for sc in bundled_corpus() if sc.name == name]  # not SCENARIOS', whose maps hold their step
    assert RunContext(sc).derived[1].maps.step
    [loop] = [src for src in built if src.startswith("def _loop(")]
    assert _zero_products(loop) == []
