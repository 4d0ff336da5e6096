import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.dynamics import IntegratorConfig, integrate, sampled_path
from clmech.exprcore import parse
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom, force, wirtinger
from clmech.variational import (
    BadSampling,
    LengthMismatch,
    VariationField,
    action,
    charge_series,
    expanded_integrand,
    first_variation,
    fit_loglog_slope,
    noether_charge,
    pair,
    real_inner,
)

TWO_PI = 2.0 * math.pi
PROBE = MechState(0.0, (1.0,), (1.0,))

OSC = ComplexLagrangian(parse("0.5*m*qd^2 - 0.5*k*q^2"), 1.0, params={"m": 1.0, "k": 1.0})
FREE = ComplexLagrangian(parse("0.5*m*qd^2"), 1.0, params={"m": 1.0})
DAMPED = ComplexLagrangian(
    parse("0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2"),
    1.0,
    params={"m": 1.0, "k": 1.0, "l0": 0.1},
)

finite = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)
cplx = st.builds(complex, finite, finite)


class TestPairings:
    def test_conjugated_inner_is_positive_definite(self):
        assert real_inner((1j,), (1j,)) == 1.0
        assert real_inner((3 + 4j,), (3 + 4j,)) == 25.0

    def test_plain_pairing(self):
        assert pair((1j,), (1j,)) == -1.0
        assert pair((1.0,), (1j,)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            real_inner((1.0,), (1.0, 2.0))
        with pytest.raises(LengthMismatch):
            pair((1.0,), ())

    @given(cplx, cplx)
    @settings(max_examples=50)
    def test_pair_is_inner_of_conjugate(self, a, b):
        assert pair((a,), (b,)) == pytest.approx(real_inner((a,), (b.conjugate(),)))

    @given(cplx, cplx, cplx)
    @settings(max_examples=50)
    def test_inner_additive(self, a, b, c):
        lhs = real_inner((a + b,), (c,))
        assert lhs == pytest.approx(real_inner((a,), (c,)) + real_inner((b,), (c,)), abs=1e-9)


class TestAction:
    def test_free_particle_closed_form(self):
        eom = derive_eom(FREE, PROBE)
        traj = integrate(eom, MechState(0.0, (0.0,), (1.0,)), IntegratorConfig(0.01, 0.0, 1.0))
        assert action(FREE, traj).real == pytest.approx(0.5, abs=1e-12)

    def test_oscillator_vanishes_over_a_period(self):
        eom = derive_eom(OSC, PROBE)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(TWO_PI / 2000, 0.0, TWO_PI))
        assert abs(action(OSC, traj)) < 1e-11

    def test_complex_value(self):
        # imaginary part integrates M = 0.5 l0 qd^2 > 0 along a moving solution
        eom = derive_eom(DAMPED, PROBE)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.01, 0.0, 2.0))
        assert action(DAMPED, traj).imag > 0.0

    def test_even_sample_count_rejected(self):
        eom = derive_eom(FREE, PROBE)
        traj = integrate(eom, MechState(0.0, (0.0,), (1.0,)), IntegratorConfig(1.0 / 3, 0.0, 1.0))
        assert traj.n_samples == 4
        with pytest.raises(BadSampling):
            action(FREE, traj)


class TestVariationField:
    def test_pinned_endpoints_exactly_zero(self):
        var = VariationField(0.0, 2.0, 1e-3)
        assert var.eta(0.0) == 0.0
        assert var.eta(2.0) == 0.0
        assert var.eta(-5.0) == 0.0 and var.eta(7.0) == 0.0

    def test_interior_shape(self):
        var = VariationField(0.0, 2.0, 1.0, mode=1)
        assert var.eta(1.0) == pytest.approx(1.0)
        assert var.eta_dot(0.0) == pytest.approx(math.pi / 2)

    def test_higher_mode_nodes(self):
        var = VariationField(0.0, 1.0, 1.0, mode=2)
        assert var.eta(0.5) == pytest.approx(0.0, abs=1e-15)


class TestFirstVariation:
    def test_solution_is_second_order_stationary(self):
        eom = derive_eom(OSC, PROBE)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.005, 0.0, 5.0))
        eps = (1e-2, 1e-3, 1e-4)
        vals = [
            abs(first_variation(OSC, traj, VariationField(0.0, 5.0, e)).real) for e in eps
        ]
        assert fit_loglog_slope(eps, vals) == pytest.approx(2.0, abs=0.05)

    def test_non_solution_is_first_order_sensitive(self):
        eom = derive_eom(OSC, PROBE)
        traj = sampled_path(
            eom,
            lambda t: np.array([1.0 + t * t]),
            lambda t: np.array([2 * t]),
            IntegratorConfig(0.005, 0.0, 5.0),
        )
        eps = (1e-2, 1e-3, 1e-4)
        vals = [
            abs(first_variation(OSC, traj, VariationField(0.0, 5.0, e)).real) for e in eps
        ]
        assert fit_loglog_slope(eps, vals) == pytest.approx(1.0, abs=0.05)

    def test_pure_imaginary_lagrangian_stationary_for_all_paths(self):
        # w0^2 m = k makes the real bracket a total derivative of q dq
        lagr = ComplexLagrangian(
            parse("0.5*i*(m*qd^2 - k*q^2)"), 1.0, params={"m": 1.0, "k": 1.0}
        )
        eom = derive_eom(lagr, PROBE, closure_mass=(-1.0,))
        arbitrary = sampled_path(
            eom,
            lambda t: np.array([np.sin(3 * t) + t]),
            lambda t: np.array([3 * np.cos(3 * t) + 1]),
            IntegratorConfig(0.002, 0.0, 1.0),
        )
        val = first_variation(lagr, arbitrary, VariationField(0.0, 1.0, 1e-2)).real
        assert abs(val) < 1e-12

    def test_integrand_matches_wirtinger_pairing(self):
        # Re[bracket] = 2 Re[dL/dw * dw] pointwise, the identity the
        # variation formula rests on
        s = MechState(0.3, (0.7,), (-0.4,))
        dq, dqd = 0.02, -0.05
        dw = (dqd + 1j * 1.0 * dq) / math.sqrt(2)
        got = expanded_integrand(DAMPED, s, (dq,), (dqd,))
        assert got.real == pytest.approx(2.0 * pair((wirtinger(DAMPED, s),), (dw,)), abs=1e-14)


class TestNoether:
    def test_free_particle_momentum_exact(self):
        eom = derive_eom(FREE, PROBE)
        traj = integrate(eom, MechState(0.0, (0.0,), (1.3,)), IntegratorConfig(0.01, 0.0, 10.0))
        series = charge_series(eom, traj, (1.0,))
        assert float(np.abs(series - 1.3).max()) == 0.0

    def test_oscillator_charge_drifts(self):
        eom = derive_eom(OSC, PROBE)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.01, 0.0, 5.0))
        series = charge_series(eom, traj, (1.0,))
        assert float(np.abs(series - series[0]).max()) > 0.5

    def test_zero_force_mixed_lagrangian_conserves(self):
        # L + iM built so the force map cancels: g = c w0 qd - w0 c qd = 0
        lagr = ComplexLagrangian(
            parse("0.5*m*qd^2 + c*w*q*qd + 0.5*i*c*qd^2"),
            2.0,
            params={"m": 1.0, "c": 0.5, "w": 2.0},
        )
        eom = derive_eom(lagr, PROBE)
        assert eom.is_regular
        for s in (PROBE, MechState(0.4, (-0.3,), (1.7,))):
            assert force(eom, s)[0] == 0.0
        traj = integrate(eom, MechState(0.0, (0.5,), (1.0,)), IntegratorConfig(0.001, 0.0, 5.0))
        series = charge_series(eom, traj, (1.0,))
        # f = m qd + c w0 q is linear, so RK4 carries it exactly
        assert float(np.abs(series - series[0]).max()) < 1e-12

    def test_charge_accepts_callable_direction(self):
        eom = derive_eom(FREE, PROBE)
        s = MechState(0.0, (2.0,), (1.5,))
        assert noether_charge(eom, s, lambda q, t: (2.0,)) == pytest.approx(3.0)

    def test_direction_length_checked(self):
        eom = derive_eom(FREE, PROBE)
        with pytest.raises(LengthMismatch):
            noether_charge(eom, PROBE, (1.0, 2.0))


class TestSlopeFit:
    def test_exact_powers(self):
        xs = (1e-2, 1e-3, 1e-4)
        assert fit_loglog_slope(xs, [x**2 for x in xs]) == pytest.approx(2.0)
        assert fit_loglog_slope(xs, [5 * x for x in xs]) == pytest.approx(1.0)
