"""No map kernel of the bundled corpus or of perfbench's simulate round
carries the complex guard.

After the Re/Im split and the parameter fold, every map tree of these inputs
is real at real arguments, so its kernel returns the floats it computes and
checks no imaginary part. A tree change that brought back a complex constant,
or a power or call that can turn complex, would put `_not_real` back into the
kernels without changing a single value, so only this test would see it.
"""

import sys
from pathlib import Path

import pytest

from clmech.corpus import bundled_corpus
from clmech.scenario import Scenario
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
    if eom.is_regular and sc.dim == 1:
        kernels["regular step"] = eom.maps.step
        field = run.field
        if field._qd is None:
            kernels["hamiltonian grads"] = field._grads
        else:
            kernels.update({"hamiltonian phase": field._phase, "hamiltonian step": field.step})
    return kernels


@pytest.mark.parametrize("name", SCENARIOS)
def test_no_map_kernel_compiles_with_the_complex_guard(name):
    guarded = [k for k, fn in _kernels(SCENARIOS[name]).items() if "_h_not_real" in fn.__code__.co_names]
    assert guarded == []
