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
from clmech.corpus import corpus_scenario
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


COUPLED = {
    2: "0.5*m*(qd1^2 + qd2^2) - 0.5*k*(q1^2 + q2^2) + i*c*q1*qd2 + 0.1*q1*q2*qd1",
    3: "0.5*m*(qd1^2 + qd2^2 + qd3^2) + (0.2 + 0.3*i)*q1*q2*q3 - 0.5*k*q3^2*(1 + i*c*qd1)",
}


class TestPinnedReports:
    """Reports bit for bit (verdict, max_residual, scale, skips,
    accel_cross_max as float.hex): above one coordinate for complex
    coefficients under complex and real gauges, and at one coordinate for the
    suite's pairs on the bundled equivalence scenarios."""

    @pytest.mark.parametrize(
        "dim,gauge,expected",
        [
            (2, "(1 + 0.5*i)*q1*q2*t",
             ("not-equivalent", "0x1.adcf9e7b7b9bdp+1", "0x1.17ec27831a817p+2", 0, "0x1.3269ab2a9e7b4p+2")),
            (2, "i*c*q1^2 + sin(q2)*t",
             ("not-equivalent", "0x1.21d35928b7f97p+1", "0x1.ef3da1957d502p+1", 0, "0x1.4760b2f502d76p+0")),
            (2, "q1*q2*t + sin(q1)",
             ("equivalent", "0x1.0000000000000p-50", "0x1.48b84b01b11cap+2", 0, "0x1.6000000000000p-51")),
            (3, "(0.5 - i)*q1*q3 + q2^2*t",
             ("not-equivalent", "0x1.d56db9417ff06p+1", "0x1.3464e8ede51c6p+3", 0, "0x1.8799dc08fce14p+2")),
            (3, "i*c*cos(q1)*q2",
             ("not-equivalent", "0x1.1dc9a455135d9p+0", "0x1.c669b037aa299p+0", 0, "0x1.09f4401cb33e3p+0")),
            (3, "q1*q2*q3*t + exp(0.1*q2)",
             ("equivalent", "0x1.0000000000000p-49", "0x1.8dfb59bf82a67p+3", 0, "0x1.2000000000000p-50")),
        ],
    )
    def test_report_bits(self, dim, gauge, expected):
        base = ComplexLagrangian(parse(COUPLED[dim]), 1.7, dim, {"m": 1.3, "k": 0.7, "c": 0.4})
        rep = eom_equivalent(LagrangianPair(base, gauge_add(base, parse(gauge))), sample_states(dim, 64, 5))
        cross = None if rep.accel_cross_max is None else rep.accel_cross_max.hex()
        assert (rep.verdict, rep.max_residual.hex(), rep.scale.hex(), rep.n_skipped, cross) == expected

    @staticmethod
    def suite_pair(name, label):
        """The pair the equivalence suite builds for `label` on scenario `name`,
        or with `qd-cubed` a partner that needs an acceleration at every sample."""
        lagr = corpus_scenario(name).build_lagrangian()
        q = Sym("q")
        if label == "oscillator-pair":
            real_ho = ComplexLagrangian(parse("0.5*m*qd^2 - 0.5*k*q^2"), lagr.omega0, 1, lagr.params)
            return LagrangianPair(real_ho, ComplexLagrangian(parse("i*a0*q*qd"), lagr.omega0, 1, lagr.params))
        partner = {
            "gauge-quadratic": lambda: gauge_add(lagr, q * q),
            "potential-shift": lambda: ComplexLagrangian(lagr.expr + q, lagr.omega0, 1, lagr.params),
            "gauge-complex": lambda: gauge_add(lagr, Const(1j) * q),
            "qd-cubed": lambda: ComplexLagrangian(lagr.expr + parse("qd^3"), lagr.omega0, 1, lagr.params),
        }[label]()
        return LagrangianPair(lagr, partner)

    @pytest.mark.parametrize(
        "name,label,expected",
        [
            ("imaginary_ho", "gauge-quadratic",
             ("equivalent", "0x0.0p+0", "0x1.fdc6a4fb846e8p+1", 0, "0x1.0000000000000p-51")),
            ("imaginary_ho", "potential-shift",
             ("not-equivalent", "0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, "0x1.0000000000001p+0")),
            ("imaginary_ho", "gauge-complex",
             ("not-equivalent", "0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, "0x1.0000000000000p+0")),
            ("imaginary_ho", "oscillator-pair",
             ("equivalent", "0x0.0p+0", "0x1.0000000000000p+0", 0, "0x0.0p+0")),
            ("gauge_pair_oscillator", "gauge-quadratic",
             ("equivalent", "0x1.0000000000000p-51", "0x1.fdc6a4fb846e8p+1", 0, "0x1.0000000000000p-51")),
            ("gauge_pair_oscillator", "potential-shift",
             ("not-equivalent", "0x1.0000000000002p+0", "0x1.0000000000002p+0", 0, "0x1.5555555555558p-1")),
            ("gauge_pair_oscillator", "gauge-complex",
             ("not-equivalent", "0x1.199999999999ap+0", "0x1.199999999999ap+0", 0, "0x1.777777777777cp-1")),
            ("gauge_pair_imaginary", "gauge-quadratic",
             ("equivalent", "0x0.0p+0", "0x1.fdc6a4fb846e8p+1", 0, None)),
            ("gauge_pair_imaginary", "potential-shift",
             ("not-equivalent", "0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, None)),
            ("gauge_pair_imaginary", "gauge-complex",
             ("not-equivalent", "0x1.0000000000000p+0", "0x1.0000000000000p+0", 0, None)),
            ("gauge_pair_imaginary", "qd-cubed",
             ("inconclusive", "0x0.0p+0", "0x1.0000000000000p+0", 256, None)),
        ],
    )
    def test_dim1_report_bits(self, name, label, expected):
        # one coordinate, the suite's samples (seed 0xC0FFEE)
        rep = eom_equivalent(self.suite_pair(name, label), SAMPLES)
        cross = None if rep.accel_cross_max is None else rep.accel_cross_max.hex()
        assert (rep.verdict, rep.max_residual.hex(), rep.scale.hex(), rep.n_skipped, cross) == expected
