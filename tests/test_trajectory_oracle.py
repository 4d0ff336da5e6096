"""Final rows of `clmech simulate` against references that never import clmech.

perfbench's generator draws one scenario for each (kind, dim, nonlinear)
category of its simulate round: regular and closure flows at dims 1 and 3
and the Hamiltonian flow at dim 1. Its oracle judges the last CSV row with
`scipy.linalg.expm` of the flow matrix for quadratic Lagrangians and with
`solve_ivp` at rtol 1e-12 for the rest.

A hypothesis test draws quadratic Lagrangians at dims 1-3 with complex
coefficients of every `qd_a qd_b`, `q_a qd_b` and `q_a q_b`. Every flow kind
is then a linear ODE, whose exact solution `expm` gives from the coefficient
matrices alone, and RK4's error must fall about sixteenfold when h halves.
Two closures at dims 2 and 3 whose constant A is singular but not zero are
pinned as examples: `integrate` solves them in closed form.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
pytest.importorskip("sympy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402
import oracle  # noqa: E402

from scipy.linalg import expm  # noqa: E402

from clmech.cli import main  # noqa: E402
from clmech.lagrangian import coordinate_names, velocity_names  # noqa: E402

SEED = 7
# the first index of each category in a round
FIRST_OF_CATEGORY = {}
for index, (category, _) in enumerate(gen.SIMULATE_ROUND):
    FIRST_OF_CATEGORY.setdefault(category, index)


@pytest.mark.parametrize(
    "index",
    FIRST_OF_CATEGORY.values(),
    ids=[f"{kind}-dim{dim}-{'nonlinear' if nl else 'quadratic'}" for kind, dim, nl in FIRST_OF_CATEGORY],
)
def test_final_row_matches_the_reference(index, tmp_path):
    spec = gen.simulate_spec(SEED, index)
    csv = tmp_path / "out.csv"
    assert main(["simulate", str(spec.write(tmp_path)), "-o", str(csv)]) == 0
    last_row = csv.read_text().splitlines()[-1]
    assert oracle.check_final_row(spec, last_row) == []



# With 𝔏 = qd^T P qd + q^T R qd + q^T S q for complex P, R and S (L is its
# real part, M its imaginary one), the momentum map is f = Fv qd + Fq q and
# the force map g = Gv qd + Gq q; see `_linear_flow`.
COARSE_H = 0.05


@st.composite
def _quadratic_systems(draw):
    """(kind, dim, omega0, P, R, S, closure mass, initial state y0).

    A regular or Hamiltonian system gets a dominant real qd_a^2 and a
    restoring q_a^2 term, so Fv is invertible and the flow stays bounded. A
    closure gets no real qd qd and no imaginary q qd term, so A vanishes."""
    part = lambda lo, hi: draw(st.floats(lo, hi))  # noqa: E731
    signed = lambda lo, hi: part(lo, hi) * draw(st.sampled_from((-1, 1)))  # noqa: E731
    kind = draw(st.sampled_from(("regular", "closure", "hamiltonian")))
    dim = 1 if kind == "hamiltonian" else draw(st.integers(1, 3))
    omega0 = draw(st.sampled_from((1.0, 1.5, -2.0)))
    closure = kind == "closure"
    P, R, S = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    for a in range(dim):
        for b in range(a, dim):
            if a != b:
                P[a, b] = complex(0.0 if closure else part(-0.15, 0.15), part(-0.15, 0.15))
                S[a, b] = complex(part(-0.15, 0.15), part(-0.15, 0.15))
            elif closure:
                P[a, b] = complex(0.0, part(0.25, 0.75))
                S[a, b] = complex(part(-0.5, 0.5), part(0.5, 1.0))
            else:
                P[a, b] = complex(part(0.5, 1.0), part(-0.15, 0.15))
                S[a, b] = complex(part(-0.75, -0.25), part(-0.1, 0.1))
        for b in range(dim):
            R[a, b] = complex(part(-0.2, 0.2), 0.0 if closure else part(-0.2, 0.2))
    mass = [signed(0.8, 1.5) for _ in range(dim)]
    y0 = [signed(0.25, 1.0) for _ in range(2 * dim)]
    return kind, dim, omega0, P, R, S, mass, y0


def _linear_flow(kind, dim, omega0, P, R, S, mass):
    """J of y' = J y: y = (q, qd) on a regular system, (q, p) on the
    Hamiltonian one and q on a closure, from the coefficient matrices alone."""
    Fv = P.real + P.real.T + R.imag / omega0
    Fq = R.real.T + (S.imag + S.imag.T) / omega0
    Gv = R.real - omega0 * (P.imag + P.imag.T)
    Gq = S.real + S.real.T - omega0 * R.imag.T
    if kind == "closure":  # f = Fv qd + Fq q = m qd, Fv constant and singular
        return np.linalg.solve(np.diag(mass) - Fv, Fq)
    if kind == "hamiltonian":  # qd = (p - Fq q)/Fv and pd = g
        inv = np.linalg.inv(Fv)
        return np.block([[-inv @ Fq, inv], [Gq - Gv @ inv @ Fq, Gv @ inv]])
    inv = np.linalg.inv(Fv)  # Fv qdd + Fq qd = Gv qd + Gq q
    return np.block([[np.zeros((dim, dim)), np.eye(dim)], [inv @ Gq, inv @ (Gv - Fq)]])


def _scenario(kind, dim, omega0, P, R, S, mass, y0, h):
    q, qd = coordinate_names(dim), velocity_names(dim)
    terms = [(P[a, b], f"{qd[a]}*{qd[b]}") for a in range(dim) for b in range(a, dim)]
    terms += [(R[a, b], f"{q[a]}*{qd[b]}") for a in range(dim) for b in range(dim)]
    terms += [(S[a, b], f"{q[a]}*{q[b]}") for a in range(dim) for b in range(a, dim)]
    initial = {"q": y0[:dim], ("p" if kind == "hamiltonian" else "qd"): y0[dim:]}
    if kind == "closure":
        initial["qd"] = [0.0] * dim
    raw = {
        "schema_version": 1,
        "name": "quadratic",
        "lagrangian": " + ".join(f"({float(c.real)!r} + {float(c.imag)!r}*i)*{body}" for c, body in terms),
        "omega0": omega0,
        "dim": dim,
        "params": {},
        "initial": initial,
        "integrator": {"h": h, "t_start": 0.0, "t_end": 1.0},
        "checks": [],
    }
    if kind == "closure":
        raw["closure_mass"] = mass
    return raw


def _final_state(kind, dim, raw, directory):
    """The compared columns of the last `clmech simulate` row."""
    path = Path(directory) / f"{raw['integrator']['h']}.json"
    path.write_text(json.dumps(raw))
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        assert main(["simulate", str(path)]) == 0
    row = [float(x) for x in out.getvalue().splitlines()[-1].split(",")]
    q, qd, p = row[1 : 1 + dim], row[1 + dim : 1 + 2 * dim], row[1 + 2 * dim : 1 + 3 * dim]
    return np.array(q if kind == "closure" else q + (p if kind == "hamiltonian" else qd))


def _affine_closure(dim: int, mass: list[float]):
    """A closure whose A = Fv folds to a constant singular matrix that is not zero:
    real qd1^2 and qd1*qd3 terms and an imaginary q1*qd2 one, no qd2 row."""
    P, R, S = (np.zeros((dim, dim), dtype=complex) for _ in range(3))
    P[0, 0], P[0, dim - 1], R[0, 1] = 0.5 + 0.25j, 0.2 if dim > 2 else 0.0, 0.1 + 0.3j
    for a in range(dim):
        S[a, a] = complex(0.2 - 0.1 * a, 0.75)
        R[a, a] += 0.05 * (a + 1)
    return "closure", dim, 1.0, P, R, S, mass, [0.5, -0.4, 0.3, 0.0, 0.0, 0.0][:dim] + [0.0] * dim


@given(_quadratic_systems())
@example(_affine_closure(2, [-1.2, 1.1]))
@example(_affine_closure(3, [-1.1, 0.9, 1.3]))
@settings(max_examples=30, deadline=None)
def test_quadratic_flows_match_expm_at_fourth_order(system):
    kind, dim, omega0, P, R, S, mass, y0 = system
    J = _linear_flow(kind, dim, omega0, P, R, S, mass)
    start = np.array(y0[:dim] if kind == "closure" else y0)
    want = expm(J) @ start
    scale = 1.0 + np.abs(want).max()
    with tempfile.TemporaryDirectory() as directory:
        coarse, fine = (
            np.abs(_final_state(kind, dim, _scenario(kind, dim, omega0, P, R, S, mass, y0, h), directory) - want).max()
            for h in (COARSE_H, COARSE_H / 2)
        )
    assert fine <= 1e-6 * scale, (kind, dim, fine)
    assert 14.0 <= coarse / fine <= 18.0, (kind, dim, coarse, fine)
