"""A Lagrangian with explicit time against its exact solution, and what "equivalent" decides.

The Caldirola–Kanai Lagrangian exp(g t)(m qd²/2 − k q²/2) (Caldirola, Nuovo Cimento 18,
1941; Kanai, Prog. Theor. Phys. 3, 1948) gives the damped oscillator qdd + g qd + (k/m) q = 0.
Its mass matrix m e^{gt} varies in time, so the phase side inverts the momentum map by Newton.
From q = 1, qd = 0 at m = k = 1 its exact motion is

    q(t) = e^{−gt/2} (cos ωd t + g/(2 ωd) sin ωd t),    ωd = sqrt(1 − g²/4).

At g = ω0 l0/m it has the equations of motion of the bundled `damped_oscillator`,
½(m qd² − k q²) + ½ i l0 qd², which has no explicit time. The two differ by no total
derivative, since their momenta differ by the factor e^{gt}; `eom_equivalent` still reads
`equivalent`, because it compares the equations at the samples, and one set of equations
has many Lagrangians (Currie & Saletan, J. Math. Phys. 7, 1966).
"""

import json
import math

import pytest

from clmech.cli import main
from clmech.dynamics import IntegratorConfig, integrate
from clmech.equivalence import LagrangianPair, eom_equivalent
from clmech.exprcore import parse
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom
from clmech.sampling import sample_states

G = 0.2
CALDIROLA_KANAI = {
    "schema_version": 1,
    "name": "caldirola_kanai",
    "lagrangian": "exp(g*t)*(0.5*m*qd^2 - 0.5*k*q^2)",
    "omega0": 1.0,
    "dim": 1,
    "params": {"m": 1.0, "k": 1.0, "g": G},
    "initial": {"q": [1.0], "qd": [0.0]},
    "integrator": {"h": 0.001, "t_start": 0.0, "t_end": 10.0},
    "checks": ["variation", "noether", "equivalence", "geometry", "hamiltonian"],
}


def _exact_q(t: float) -> float:
    wd = math.sqrt(1.0 - G * G / 4.0)
    return math.exp(-G * t / 2.0) * (math.cos(wd * t) + G / (2.0 * wd) * math.sin(wd * t))


def _final_q_error(tmp_path, h: float) -> float:
    """The relative error of `clmech simulate`'s final q at step h."""
    raw = {**CALDIROLA_KANAI, "integrator": {**CALDIROLA_KANAI["integrator"], "h": h}}
    scenario, csv = tmp_path / "caldirola_kanai.json", tmp_path / "out.csv"
    scenario.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["simulate", str(scenario), "-o", str(csv)]) == 0
    t, q = map(float, csv.read_text().splitlines()[-1].split(",")[:2])
    assert t == 10.0
    return abs(q - _exact_q(t)) / abs(_exact_q(t))


def test_caldirola_kanai_converges_at_fourth_order(tmp_path):
    errors = [_final_q_error(tmp_path, h) for h in (0.1, 0.05, 0.025, 0.0125)]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    assert all(14.0 <= r <= 18.0 for r in ratios), (errors, ratios)
    assert _final_q_error(tmp_path, 0.001) <= 1e-12


def test_caldirola_kanai_passes_every_suite(tmp_path, capsys):
    scenario = tmp_path / "caldirola_kanai.json"
    scenario.write_text(json.dumps(CALDIROLA_KANAI), encoding="utf-8")
    assert main(["check", "all", str(scenario)]) == 0
    assert "RESULT pass" in capsys.readouterr().out


# the two Lagrangians share one parameter space, so g is a literal of the second
DAMPED = "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2"
PARAMS = {"m": 1.0, "k": 1.0, "l0": 0.1}
TWIN_G = 1.0 * PARAMS["l0"] / PARAMS["m"]  # g = omega0 l0 / m


def _pair(g: float) -> LagrangianPair:
    twin = f"exp({g!r}*t)*(0.5*m*qd^2 - 0.5*k*q^2)"
    return LagrangianPair(*(ComplexLagrangian(parse(e), 1.0, 1, PARAMS) for e in (DAMPED, twin)))


def test_the_damped_oscillator_and_its_caldirola_kanai_twin_move_alike():
    init, cfg = MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.001, 0.0, 10.0)
    pair = _pair(TWIN_G)
    damped, twin = (integrate(derive_eom(lagr, init), init, cfg) for lagr in (pair.first, pair.second))
    assert damped.n_samples == twin.n_samples == 10_001
    assert abs(damped.q - twin.q).max() <= 1e-12
    assert abs(damped.qd - twin.qd).max() <= 1e-12


@pytest.mark.parametrize("g, verdict", [(TWIN_G, "equivalent"), (0.11, "not-equivalent"), (0.2, "not-equivalent")])
def test_equivalent_means_the_same_equations_at_the_samples(g, verdict):
    assert eom_equivalent(_pair(g), sample_states(1, 256)).verdict == verdict
