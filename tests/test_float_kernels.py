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

import sys
from pathlib import Path

import pytest

from clmech.corpus import bundled_corpus
from clmech.exprcore import subs
from clmech.lagrangian import _constant
from clmech.scenario import Scenario
from clmech.solves import solver
from clmech.suites import RunContext

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
