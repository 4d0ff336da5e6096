import math

import numpy as np
import pytest

from clmech.dynamics import IntegratorConfig, integrate, integrate_hamiltonian
from clmech.exprcore import parse
from clmech.hamiltonian import (
    DegenerateJacobian,
    HamiltonianField,
    InversionFailure,
    PhaseState,
    UnsupportedDimension,
    flow_field,
    invert_velocity,
    k_gradients,
    legendre_H,
    mixed_partial_diagnostic,
)
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom

PROBE = MechState(0.0, (1.0,), (1.0,))


def make_field(expr, omega0=1.0, params=None, kappa0=1.0):
    lagr = ComplexLagrangian(parse(expr), omega0, params=params or {})
    eom = derive_eom(lagr, PROBE)
    return HamiltonianField(lagr, eom, kappa0=kappa0)


OSC = make_field("0.5*m*qd^2 - 0.5*k*q^2", params={"m": 2.0, "k": 3.0})
DAMPED = make_field(
    "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2", params={"m": 1.0, "k": 1.0, "l0": 0.1}
)
BILINEAR = make_field("i*a0*q*qd", params={"a0": 1.0})


class TestConstruction:
    def test_dim_one_only(self):
        lagr = ComplexLagrangian(parse("0.5*(qd1^2 + qd2^2)"), 1.0, dim=2)
        eom = derive_eom(lagr, MechState(0.0, (0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(UnsupportedDimension):
            HamiltonianField(lagr, eom)

    def test_kappa0_must_be_finite_nonzero(self):
        with pytest.raises(ValueError):
            make_field("0.5*qd^2", kappa0=0.0)

    def test_phase_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseState(0.0, math.inf, 0.0)


class TestInversion:
    def test_linear_momentum(self):
        assert OSC.invert(0.0, 0.3, 1.0) == pytest.approx(0.5)  # p = 2 qd

    def test_nonlinear_momentum(self):
        field = make_field("0.5*qd^2 + 0.25*qd^4")
        assert field.invert(0.0, 0.0, 2.0) == pytest.approx(1.0)  # qd + qd^3 = 2

    def test_round_trip(self):
        for p in (-1.5, 0.0, 2.5):
            qd = DAMPED.invert(0.0, 0.4, p)
            assert DAMPED.momentum(0.0, 0.4, qd) == pytest.approx(p, abs=1e-11)

    def test_out_of_range_momentum_fails(self):
        # f = qd/(1+qd^2) never exceeds 1/2 in magnitude
        lagr = ComplexLagrangian(parse("0.5*ln(1+qd^2)"), 1.0)
        eom = derive_eom(lagr, MechState(0.0, (0.0,), (0.0,)))
        field = HamiltonianField(lagr, eom)
        with pytest.raises(InversionFailure):
            field.invert(0.0, 0.0, 2.0)

    def test_vanishing_slope_fails(self):
        # f = qd^3/3 is regular at the probe (A = qd^2 = 1) but flat at qd = 0
        field = make_field("qd^4/12")
        with pytest.raises(InversionFailure):
            field.invert(0.0, 0.0, 1.0, guess=0.0)

    def test_free_function_alias(self):
        assert invert_velocity(OSC, 0.3, 1.0, 0.0) == OSC.invert(0.0, 0.3, 1.0)


class TestHamiltonianValue:
    def test_oscillator_energy(self):
        # H = p^2/(2m) + k q^2/2
        assert legendre_H(OSC, 1.0, 2.0, 0.0) == pytest.approx(2.0**2 / 4 + 1.5)

    def test_gradients_match_finite_differences(self):
        for q, p in [(0.5, 1.0), (-0.8, 0.3), (1.2, -2.0)]:
            qd = DAMPED.invert(0.0, q, p)
            dh_q, dh_p = DAMPED.h_gradients(0.0, q, p, qd)
            d = 1e-6
            fd_q = (DAMPED.hamiltonian(0.0, q + d, p) - DAMPED.hamiltonian(0.0, q - d, p)) / (2 * d)
            fd_p = (DAMPED.hamiltonian(0.0, q, p + d) - DAMPED.hamiltonian(0.0, q, p - d)) / (2 * d)
            assert dh_q == pytest.approx(fd_q, abs=1e-8)
            assert dh_p == pytest.approx(fd_p, abs=1e-8)

    def test_degenerate_jacobian_surfaces(self):
        field = make_field("qd^3/3")
        with pytest.raises(DegenerateJacobian):
            field.h_gradients(0.0, 0.0, 0.0, 0.0)


class TestFlow:
    def test_flow_reproduces_lagrangian_law(self):
        # (dq/dt, dp/dt) must equal (qd, g) for any regular Lagrangian
        from clmech.lagrangian import force

        for field in (OSC, DAMPED, BILINEAR):
            for q, p in [(0.5, 1.0), (-0.8, 0.3), (1.2, -2.0)]:
                qd_dot, p_dot = field.flow(0.0, q, p)
                qd = field.invert(0.0, q, p)
                assert qd_dot == pytest.approx(qd, abs=1e-12)
                g = force(field.eom, MechState(0.0, (q,), (qd,)))[0]
                assert p_dot == pytest.approx(g, abs=1e-12)

    def test_kappa0_drops_out_bitwise(self):
        fields = [
            make_field(
                "0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2",
                params={"m": 1.0, "k": 1.0, "l0": 0.1},
                kappa0=k0,
            )
            for k0 in (0.5, 1.0, 2.0)
        ]
        for q, p in [(0.5, 1.0), (-0.8, 0.3)]:
            flows = [f.flow(0.0, q, p) for f in fields]
            assert flows[0] == flows[1] == flows[2]

    def test_mixed_partials_commute(self):
        for field in (OSC, DAMPED, BILINEAR):
            assert mixed_partial_diagnostic(field, 0.6, 0.9, 0.0) < 1e-8

    def test_flow_field_free_function(self):
        s = PhaseState(0.0, 0.5, 1.0)
        assert flow_field(OSC, s) == OSC.flow(0.0, 0.5, 1.0)

    def test_k_gradients_vanish_for_real_lagrangian(self):
        dk_q, dk_p = k_gradients(OSC, 0.7, -0.4, 0.0)
        assert dk_q == 0.0
        assert dk_p == 0.0


class TestPhaseIntegration:
    def test_matches_lagrangian_trajectory(self):
        cfg = IntegratorConfig(1e-3, 0.0, 5.0)
        init = MechState(0.0, (1.0,), (0.0,))
        traj_l = integrate(DAMPED.eom, init, cfg)
        p0 = DAMPED.momentum(0.0, 1.0, 0.0)
        traj_h = integrate_hamiltonian(DAMPED, PhaseState(0.0, 1.0, p0), cfg)
        assert float(np.abs(traj_l.q[:, 0] - traj_h.q[:, 0]).max()) < 1e-9
        assert traj_h.kind == "hamiltonian"

    def test_oscillator_cosine(self):
        cfg = IntegratorConfig(1e-3, 0.0, 3.0)
        field = make_field("0.5*qd^2 - 0.5*q^2")
        traj = integrate_hamiltonian(field, PhaseState(0.0, 1.0, 0.0), cfg)
        assert traj.q[-1, 0] == pytest.approx(math.cos(3.0), abs=1e-10)
        # p column equals qd for unit mass
        np.testing.assert_allclose(traj.p[:, 0], traj.qd[:, 0], atol=1e-12)

    def test_inversion_residual_column(self):
        cfg = IntegratorConfig(1e-2, 0.0, 1.0)
        traj = integrate_hamiltonian(DAMPED, PhaseState(0.0, 1.0, 0.5), cfg)
        assert float(traj.el_residual.max()) < 1e-10
