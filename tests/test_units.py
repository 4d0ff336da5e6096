"""Unit covariance: a power-of-two change of the unit of action moves no trajectory.

Every bundled Lagrangian is linear in its parameters. Multiplying each
parameter and each closure mass by 2^k therefore scales f, g, A and p by
exactly 2^k (a power of two rounds nothing, so partial pivoting picks the same
pivots) and leaves the Euler-Lagrange law unchanged: the classification and
the q and qd columns must stay bit for bit, and p and the residual must be
exactly 2^k times the unscaled columns (metamorphic testing: T. Y. Chen et
al., ACM Computing Surveys 51(1), 2018). The corpus scenarios run the generated
float-state sample loop. The regular
`simulate` inputs at two and three coordinates, whose coefficients are partly
literals, scale as the whole Lagrangian times 2^k; they run the generated
list-state step, whose compile-time pivots and multipliers of a constant mass
matrix a power of two leaves exact. Where A varies, the closures and the
Legendre inversion run the damped Newton, whose stop is relative to
max|A - diag(m)|: the same power of two scales every residual and every
Jacobian entry, so no iterate and no verdict moves.
"""

from functools import lru_cache

import numpy as np
import pytest

from clmech.corpus import corpus_scenario
from clmech.dynamics import IntegratorConfig, StepBlowUp, Trajectory
from clmech.exprcore import parse
from clmech.hamiltonian import HamiltonianField
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom
from clmech.scenario import Scenario
from clmech.suites import RunContext
from test_scenario_cli import LIST_SIMULATE_SHA256, PHASE_SIMULATE_SHA256, variant

REGULAR = ("classical_oscillator", "damped_oscillator", "free_particle", "gauge_pair_oscillator", "imaginary_ho")
# The corpus closures are affine, solved in closed form, (0 - f(t, q, 0))/(A - m),
# whose quotient a power of two leaves exact at every scale.
CLOSURES = ("damped_oscillator_literal", "gauge_pair_imaginary", "inverted_oscillator")
LISTED = tuple(name for name, (changes, _) in LIST_SIMULATE_SHA256.items() if "closure_mass" not in changes)
QUARTIC = PHASE_SIMULATE_SHA256["quartic"][0]
# The Newton runs, whose 𝔏, closure mass and initial p scale by 2^k: perfbench's seed-41
# closure at one coordinate, the list golden's closure at two, and the quartic phase run
NEWTON = {
    "newton_closure_dim1": dict(
        lagrangian="(0.587*i)*qd*qd + (0.505*i)*q*q + 0.121*qd^4 + (-0.14*i)*cos(q)",
        omega0=0.642,
        params={},
        initial={"q": [0.872], "qd": [0.0]},
        integrator={"h": 0.004, "t_start": 0.0, "t_end": 0.164},
        closure_mass=[-1.247],
    ),
    "closure_dim2": LIST_SIMULATE_SHA256["closure_dim2"][0],
    "quartic": QUARTIC,
}
CASES = [(name, k) for name in REGULAR for k in (-40, -20, 20, 40)] + [(name, k) for name in CLOSURES for k in (-40, -20, 20, 40)]
CASES += [(name, k) for name in LISTED for k in (-40, 40)] + [(name, k) for name in NEWTON for k in (-40, -20, 20, 40)]


@lru_cache(maxsize=None)
def run(name: str, k: int) -> tuple[str, Trajectory]:
    """The classification and the trajectory of the scenario in units 2^k."""
    if name in LISTED or name in NEWTON:
        raw = variant(**(NEWTON.get(name) or LIST_SIMULATE_SHA256[name][0]))
        raw["lagrangian"] = f"{2.0**k!r}*({raw['lagrangian']})" if k else raw["lagrangian"]
        if "p" in raw["initial"]:
            raw["initial"] = {**raw["initial"], "p": [v * 2.0**k for v in raw["initial"]["p"]]}
    else:
        raw = corpus_scenario(name).to_dict()
        raw["params"] = {key: v * 2.0**k for key, v in raw["params"].items()}
    if raw.get("closure_mass") is not None:
        raw["closure_mass"] = [m * 2.0**k for m in raw["closure_mass"]]
    sc = Scenario.from_dict(raw)
    context, cfg = RunContext(sc), IntegratorConfig(sc.h, sc.t_start, sc.t_end)
    traj = context.phase_trajectory(cfg) if sc.initial_p is not None else context.trajectory(cfg)
    return context.derived[1].classification, traj


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("name,k", CASES)
def test_power_of_two_unit_of_action(name, k):
    kind, base = run(name, 0)
    got_kind, traj = run(name, k)
    assert got_kind == kind
    assert _bits(traj.t) == _bits(base.t)
    assert _bits(traj.q) == _bits(base.q) and _bits(traj.qd) == _bits(base.qd)
    for got, want in ((traj.p, base.p), (traj.el_residual, base.el_residual)):
        assert np.array_equal(got, 2.0**k * want) and _bits(got) == _bits(2.0**k * want)


def _inverse(k: int) -> float:
    """The quartic field's Newton inversion at (t, q, p) = (0, 0.5, 0.8) in units 2^k."""
    lagr = ComplexLagrangian(parse(f"{2.0**k!r}*({QUARTIC['lagrangian']})"), 1.0)
    field = HamiltonianField(lagr, derive_eom(lagr, MechState(0.0, (0.5,), (1.0,))))
    assert field._qd is None
    return field.invert(0.0, 0.5, 0.8 * 2.0**k)


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
def test_power_of_two_unit_of_action_in_the_newton_inversion(k):
    assert _inverse(k).hex() == _inverse(0).hex()


@pytest.mark.xfail(raises=StepBlowUp, strict=True, reason="the blow-up test bounds p, which has the unit of action")
def test_the_blow_up_limit_is_not_free_of_units():
    # the quartic run's |p| peaks at its initial 0.8, so at 2^40 it stays below 1e12; at 2^41
    # its first sample is 1.76e12, and the run stops where the unscaled one goes on
    run("quartic", 41)
