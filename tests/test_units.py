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
matrix a power of two leaves exact.
"""

from functools import lru_cache

import numpy as np
import pytest

from clmech.corpus import corpus_scenario
from clmech.dynamics import IntegratorConfig, Trajectory
from clmech.scenario import Scenario
from clmech.suites import RunContext
from test_scenario_cli import LIST_SIMULATE_SHA256, variant

REGULAR = ("classical_oscillator", "damped_oscillator", "free_particle", "gauge_pair_oscillator", "imaginary_ho")
# The corpus closures are affine, solved in closed form, (0 - f(t, q, 0))/(A - m),
# whose quotient a power of two leaves exact at every scale. The Newton that a
# closure with a varying A runs stops on an absolute residual, and below the unit
# scale it would accept its starting guess.
CLOSURES = ("damped_oscillator_literal", "gauge_pair_imaginary", "inverted_oscillator")
LISTED = tuple(name for name, (changes, _) in LIST_SIMULATE_SHA256.items() if "closure_mass" not in changes)
CASES = [(name, k) for name in REGULAR for k in (-40, -20, 20, 40)] + [(name, k) for name in CLOSURES for k in (-40, -20, 20, 40)]
CASES += [(name, k) for name in LISTED for k in (-40, 40)]


@lru_cache(maxsize=None)
def run(name: str, k: int) -> tuple[str, Trajectory]:
    """The classification and the trajectory of the scenario in units 2^k."""
    if name in LISTED:
        raw = variant(**LIST_SIMULATE_SHA256[name][0])
        raw["lagrangian"] = f"{2.0**k!r}*({raw['lagrangian']})" if k else raw["lagrangian"]
    else:
        raw = corpus_scenario(name).to_dict()
        raw["params"] = {key: v * 2.0**k for key, v in raw["params"].items()}
        if raw.get("closure_mass") is not None:
            raw["closure_mass"] = [m * 2.0**k for m in raw["closure_mass"]]
    sc = Scenario.from_dict(raw)
    context = RunContext(sc)
    return context.derived[1].classification, context.trajectory(IntegratorConfig(sc.h, sc.t_start, sc.t_end))


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
