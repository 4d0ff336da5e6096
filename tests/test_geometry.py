import math

import pytest

from clmech import geometry
from clmech.dynamics import integrate
from clmech.exprcore import parse
from clmech.geometry import (
    CARTAN_SUBSTEPS,
    OneForm,
    lie_theta,
    lie_theta_cartan,
    rhs_pairing_form,
    theta,
)
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom, force, momentum
from clmech.sampling import sample_states

PROBE = MechState(0.0, (1.0,), (1.0,))


def make(expr, omega0=1.0, params=None, closure_mass=None, dim=1):
    lagr = ComplexLagrangian(parse(expr), omega0, dim=dim, params=params or {})
    probe = PROBE if dim == 1 else MechState(0.0, (1.0,) * dim, (1.0,) * dim)
    return lagr, derive_eom(lagr, probe, closure_mass=closure_mass)


FAMILIES = [
    make("0.5*m*qd^2 - 0.5*k*q^2", params={"m": 2.0, "k": 3.0}),
    make("i*a0*q*qd", params={"a0": 1.5}),
    make("0.5*i*(m*qd^2 - k*q^2)", params={"m": 1.0, "k": 1.0}, closure_mass=(-1.0,)),
    make(
        "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2",
        params={"m": 1.0, "k": 1.0, "l0": 0.1},
    ),
]


class TestOneForm:
    def test_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            OneForm((1.0,), (1.0, 2.0), PROBE)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            OneForm((math.nan,), (0.0,), PROBE)


class TestTheta:
    def test_momentum_in_dq_slot_only(self):
        lagr, eom = FAMILIES[0]
        s = MechState(0.2, (0.5,), (-1.5,))
        form = theta(lagr, eom, s)
        assert form.dq[0] == pytest.approx(momentum(eom, s)[0])
        assert form.dqd[0] == 0.0


class TestLieDerivativeIdentity:
    @pytest.mark.parametrize("idx", range(len(FAMILIES)))
    def test_closed_form_equals_pairing_form(self, idx):
        # L_X Theta = (g, f) must match the one-form read off i w0 dL/dw
        lagr, eom = FAMILIES[idx]
        worst = 0.0
        for s in sample_states(1, 100):
            lt = lie_theta(lagr, eom, s)
            pf = rhs_pairing_form(lagr, s)
            worst = max(worst, abs(lt.dq[0] - pf.dq[0]), abs(lt.dqd[0] - pf.dqd[0]))
        assert worst < 1e-10

    def test_components_are_force_and_momentum(self):
        lagr, eom = FAMILIES[3]
        s = MechState(0.7, (-0.3,), (0.9,))
        lt = lie_theta(lagr, eom, s)
        assert lt.dq[0] == pytest.approx(force(eom, s)[0])
        assert lt.dqd[0] == pytest.approx(momentum(eom, s)[0])

    def test_classical_collapse_when_m_vanishes(self):
        # real Lagrangian: the identity reduces to the plain gradient of L
        lagr, eom = FAMILIES[0]
        s = MechState(0.0, (0.4,), (1.1,))
        lt = lie_theta(lagr, eom, s)
        assert lt.dq[0] == pytest.approx(-3.0 * 0.4, abs=1e-12)  # dL/dq
        assert lt.dqd[0] == pytest.approx(2.0 * 1.1, abs=1e-12)  # dL/dqd

    def test_two_dof(self):
        lagr, eom = make(
            "0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + 2*q2^2)", dim=2
        )
        for s in sample_states(2, 20):
            lt = lie_theta(lagr, eom, s)
            pf = rhs_pairing_form(lagr, s)
            for a in range(2):
                assert lt.dq[a] == pytest.approx(pf.dq[a], abs=1e-10)
                assert lt.dqd[a] == pytest.approx(pf.dqd[a], abs=1e-10)


class TestLinearity:
    def test_real_scalar_combinations(self):
        # theta and the Lie derivative are additive over real coefficients
        a, b = 0.75, 0.5
        e1 = parse("0.5*(2*qd^2 - 3*q^2)")
        e2 = parse("0.5*(qd^2 - q^2) + 0.5*i*0.1*qd^2")
        lagr1 = ComplexLagrangian(e1, 1.0)
        lagr2 = ComplexLagrangian(e2, 1.0)
        combo = ComplexLagrangian(parse("0.75")*e1 + parse("0.5")*e2, 1.0)
        eom1, eom2 = derive_eom(lagr1, PROBE), derive_eom(lagr2, PROBE)
        eomc = derive_eom(combo, PROBE)
        for s in sample_states(1, 25, seed=3):
            for fn in (theta, lie_theta):
                f1, f2, fc = fn(lagr1, eom1, s), fn(lagr2, eom2, s), fn(combo, eomc, s)
                assert fc.dq[0] == pytest.approx(a * f1.dq[0] + b * f2.dq[0], abs=1e-12)
                assert fc.dqd[0] == pytest.approx(a * f1.dqd[0] + b * f2.dqd[0], abs=1e-12)


class TestCartanCrossCheck:
    @pytest.mark.parametrize("idx", [0, 1, 3])
    def test_differenced_flow_matches_closed_form(self, idx):
        lagr, eom = FAMILIES[idx]
        for s in sample_states(1, 5, seed=77):
            ct = lie_theta_cartan(lagr, eom, s)
            cf = lie_theta(lagr, eom, s)
            assert ct.dq[0] == pytest.approx(cf.dq[0], abs=1e-9)
            assert ct.dqd[0] == pytest.approx(cf.dqd[0], abs=1e-9)

    def test_one_integration_each_way(self, monkeypatch):
        # the seven stencil points come from one arc forward and one back
        arcs = []

        def spy(eom, init, cfg):
            arcs.append(cfg)
            return integrate(eom, init, cfg)

        monkeypatch.setattr(geometry, "integrate", spy)
        lagr, eom = FAMILIES[0]
        s = MechState(0.2, (0.5,), (-0.3,))
        lie_theta_cartan(lagr, eom, s)
        assert [(c.t_start, c.t_end - c.t_start > 0, c.n_steps) for c in arcs] == [
            (0.2, False, 3 * CARTAN_SUBSTEPS),
            (0.2, True, 3 * CARTAN_SUBSTEPS),
        ]

    def test_consistent_closure_flow_also_matches(self):
        # the first-order flow of a consistent closure transports f the same way
        lagr, eom = FAMILIES[2]
        s = MechState(0.0, (0.8,), (0.8,))
        ct = lie_theta_cartan(lagr, eom, s)
        cf = lie_theta(lagr, eom, s)
        assert ct.dq[0] == pytest.approx(cf.dq[0], abs=1e-9)
