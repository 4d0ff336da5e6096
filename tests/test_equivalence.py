import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    Ffunction,
    GaugeDependsOnVelocity,
    LagrangianPair,
    eom_equivalent,
    gauge_add,
    integrability_residual,
)
from clmech.exprcore import Const, Sym, parse
from clmech.lagrangian import ComplexLagrangian
from clmech.sampling import sample_states

OSC = ComplexLagrangian(parse("0.5*m*qd^2 - 0.5*k*q^2"), 1.0, params={"m": 1.0, "k": 1.0})
IMAG_OSC = ComplexLagrangian(parse("0.5*i*(m*qd^2 - k*q^2)"), 1.0, params={"m": 1.0, "k": 1.0})
SAMPLES = sample_states(1, 256)

small = st.floats(min_value=-2, max_value=2, allow_nan=False, allow_infinity=False)


def verdict_of(base, partner, samples=SAMPLES):
    return eom_equivalent(LagrangianPair(base, partner), samples)


class TestGauge:
    def test_real_quadratic_gauge_is_equivalent(self):
        rep = verdict_of(OSC, gauge_add(OSC, Sym("q") * Sym("q")))
        assert rep.verdict == EQUIVALENT
        assert rep.max_residual < 1e-9 * rep.scale
        assert rep.n_skipped == 0

    def test_cross_check_runs_for_regular_pairs(self):
        rep = verdict_of(OSC, gauge_add(OSC, Sym("q") * Sym("t")))
        assert rep.accel_cross_max is not None
        assert rep.accel_cross_max < 1e-9 * rep.scale

    def test_one_acceleration_per_system_and_sample(self, monkeypatch):
        # doubling the Lagrangian keeps the equations of motion but gives
        # F = m qd, so the residual needs the first system's acceleration
        # and the cross-check reuses it
        import clmech.equivalence as equivalence

        calls = []
        real_accel = equivalence._accel

        def counting(maps, *args):
            calls.append(maps)
            return real_accel(maps, *args)

        monkeypatch.setattr(equivalence, "_accel", counting)
        double = ComplexLagrangian(parse("m*qd^2 - k*q^2"), 1.0, params={"m": 1.0, "k": 1.0})
        rep = verdict_of(OSC, double, SAMPLES[:8])
        assert rep.verdict == EQUIVALENT and rep.accel_cross_max is not None
        assert len(calls) == 2 * 8

    def test_gauge_over_degenerate_base(self):
        rep = verdict_of(IMAG_OSC, gauge_add(IMAG_OSC, Sym("q") * Sym("q")))
        assert rep.verdict == EQUIVALENT
        assert rep.n_skipped == 0

    def test_velocity_dependent_gauge_rejected(self):
        with pytest.raises(GaugeDependsOnVelocity):
            gauge_add(OSC, Sym("qd") * Sym("q"))

    def test_unknown_symbol_in_gauge_rejected(self):
        with pytest.raises(ValueError):
            gauge_add(OSC, Sym("zeta"))

    @given(small, small, small)
    @settings(max_examples=10, deadline=None)
    def test_any_polynomial_gauge_is_equivalent(self, a, b, c):
        q, t = Sym("q"), Sym("t")
        gauge = Const(a) * q * q + Const(b) * q * t + Const(c) * t * t
        rep = verdict_of(OSC, gauge_add(OSC, gauge), SAMPLES[:64])
        assert rep.verdict == EQUIVALENT


class TestGenuineChanges:
    def test_potential_shift_detected(self):
        altered = ComplexLagrangian(OSC.expr + Sym("q"), 1.0, params=OSC.params)
        rep = verdict_of(OSC, altered)
        assert rep.verdict == NOT_EQUIVALENT
        assert rep.max_residual == pytest.approx(1.0)

    def test_complex_gauge_changes_the_dynamics(self):
        # d/dt(i q) shifts M by qd, which feeds the force map
        rep = verdict_of(OSC, gauge_add(OSC, Const(1j) * Sym("q")))
        assert rep.verdict == NOT_EQUIVALENT
        assert rep.max_residual == pytest.approx(OSC.omega0)

    def test_imaginary_linear_shift_is_equivalent(self):
        # i q moves the momentum map by a constant, which the law cannot see
        altered = ComplexLagrangian(OSC.expr + Const(1j) * Sym("q"), 1.0, params=OSC.params)
        assert verdict_of(OSC, altered).verdict == EQUIVALENT


class TestCrossFamily:
    def test_oscillator_matches_imaginary_bilinear(self):
        # with a0 = m w0 both Lagrangians produce qdd = -w0^2 q
        bilinear = ComplexLagrangian(
            parse("i*a0*q*qd"), 1.0, params={"a0": 1.0, "m": 1.0, "k": 1.0}
        )
        base = ComplexLagrangian(
            parse("0.5*m*qd^2 - 0.5*k*q^2"), 1.0, params={"a0": 1.0, "m": 1.0, "k": 1.0}
        )
        rep = verdict_of(base, bilinear)
        assert rep.verdict == EQUIVALENT
        assert rep.max_residual == 0.0

    def test_inconclusive_when_acceleration_unavailable(self):
        # qd^3 makes the comparison need qdd, but the base is degenerate
        partner = ComplexLagrangian(
            IMAG_OSC.expr + Sym("qd") * Sym("qd") * Sym("qd"), 1.0, params=IMAG_OSC.params
        )
        rep = verdict_of(IMAG_OSC, partner)
        assert rep.verdict == INCONCLUSIVE
        assert rep.n_skipped == rep.n_samples


class TestPairValidation:
    def test_mismatched_omega0(self):
        other = ComplexLagrangian(OSC.expr, 2.0, params=OSC.params)
        with pytest.raises(ValueError):
            LagrangianPair(OSC, other)

    def test_mismatched_params(self):
        other = ComplexLagrangian(OSC.expr, 1.0, params={"m": 1.0, "k": 2.0})
        with pytest.raises(ValueError):
            LagrangianPair(OSC, other)


class TestIntegrability:
    def test_harmonic_f_solves_the_flat_condition(self):
        ffn = Ffunction(parse("sin(t)"), 1.0, 1, {})
        assert integrability_residual(ffn, Const(0.0), SAMPLES[:100]) < 1e-12

    def test_resonant_frequency_scales(self):
        ffn = Ffunction(parse("sin(2*t)"), 2.0, 1, {})
        assert integrability_residual(ffn, Const(0.0), SAMPLES[:100]) < 1e-12

    def test_quadratic_f_rejected(self):
        ffn = Ffunction(parse("t^2"), 1.0, 1, {})
        assert integrability_residual(ffn, Const(0.0), SAMPLES[:100]) > 1.0

    def test_quartic_potential_balances(self):
        # F = q^2 against Phi = q^4/12: both sides reduce to q^2
        ffn = Ffunction(parse("q^2"), 1.0, 1, {})
        phi = parse("q^4/12")
        assert integrability_residual(ffn, phi, SAMPLES[:100]) < 1e-12
