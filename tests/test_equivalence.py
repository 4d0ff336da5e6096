import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_exprcore import TERM_TEMPLATES

from clmech import suites
from clmech.equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    RESIDUAL_RTOL,
    SKIP_FRACTION_LIMIT,
    EquivalenceReport,
    Ffunction,
    GaugeDependsOnVelocity,
    LagrangianPair,
    eom_equivalent,
    gauge_add,
    integrability_residual,
)
from clmech.corpus import bundled_corpus, corpus_scenario
from clmech.exprcore import Const, Sym, parse, to_source
from clmech.lagrangian import (
    ComplexLagrangian,
    DegenerateWithoutClosure,
    SingularMass,
    _accel,
    derive_eom,
    solve_linear,
)
from clmech.solves import dot
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

    def test_one_lane_read_per_kernel(self, monkeypatch):
        # doubling the Lagrangian keeps the equations of motion but gives
        # F = m qd, so the residual needs the first system's acceleration
        # and the cross-check the second's: the difference maps and each
        # system are read once over all samples, whatever their count
        from clmech.lagrangian import _Maps

        calls = []
        real_columns = _Maps.columns

        def counting(maps, samples):
            calls.append(len(samples))
            return real_columns(maps, samples)

        monkeypatch.setattr(_Maps, "columns", counting)
        double = ComplexLagrangian(parse("m*qd^2 - k*q^2"), 1.0, params={"m": 1.0, "k": 1.0})
        rep = verdict_of(OSC, double, SAMPLES[:8])
        assert rep.verdict == EQUIVALENT and rep.accel_cross_max is not None
        assert calls == [8, 8, 8]

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


# --- the per-sample loop eom_equivalent ran before its array pass ------------


def _regular_or_none(lagr, probe):
    try:
        return derive_eom(lagr, probe)
    except DegenerateWithoutClosure:
        return None


def reference_eom_equivalent(pair, samples):
    """A frozen copy of the per-sample loop: one kernel call of the difference maps
    and at most one `_accel` per system at each sample, summed on floats."""
    if not samples:
        raise ValueError("at least one sample state is required")
    lagr = pair.first
    n = pair.dim
    maps = ComplexLagrangian(pair.second.expr - lagr.expr, lagr.omega0, n, lagr.params).maps
    eom1 = _regular_or_none(pair.first, samples[0])
    eom2 = _regular_or_none(pair.second, samples[0])
    max_residual = 0.0
    scale = 1.0
    n_skipped = 0
    cross_max = None
    for s in samples:
        _, g, c, d, e = maps(s.t, s.q, s.qd)
        d_qd = [dot(row, s.qd) for row in d]
        a1 = None
        c_max = max(abs(x) for row in c for x in row)
        if c_max > 1e-14 * max(1.0, max(abs(x) for row in d for x in row)):
            if eom1 is None:
                n_skipped += 1
                continue
            try:
                a1 = _accel(eom1.maps, s.t, s.q, s.qd)
            except SingularMass:
                n_skipped += 1
                continue
            c_a = [dot(row, a1) for row in c]
        else:
            c_a = [0.0] * n
        for a in range(n):
            residual = ((c_a[a] + d_qd[a]) + e[a]) - g[a]
            scale = max(scale, abs(c_a[a]), abs(d_qd[a]), abs(e[a]), abs(g[a]))
            max_residual = max(max_residual, abs(residual))
        if eom1 is not None and eom2 is not None:
            try:
                if a1 is None:
                    a1 = _accel(eom1.maps, s.t, s.q, s.qd)
                a2 = _accel(eom2.maps, s.t, s.q, s.qd)
            except SingularMass:
                pass
            else:
                gap = max(abs(x - y) for x, y in zip(a1, a2))
                cross_max = gap if cross_max is None else max(cross_max, gap)
    if n_skipped > SKIP_FRACTION_LIMIT * len(samples):
        return EquivalenceReport(INCONCLUSIVE, max_residual, scale, len(samples), n_skipped, cross_max)
    ok = max_residual <= RESIDUAL_RTOL * scale
    if cross_max is not None and cross_max > RESIDUAL_RTOL * scale:
        ok = False
    return EquivalenceReport(
        EQUIVALENT if ok else NOT_EQUIVALENT, max_residual, scale, len(samples), n_skipped, cross_max
    )


def outcome(run):
    """The report's repr, or the exception's type and text."""
    try:
        return repr(run())
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err).__name__, str(err)


def assert_same_report(pair, samples):
    got = outcome(lambda: eom_equivalent(pair, samples))
    assert got == outcome(lambda: reference_eom_equivalent(pair, samples))
    return got


def _suite_calls(seed):
    """(pair, samples) of every eom_equivalent call the equivalence suite makes on the corpus."""
    calls = []

    def record(pair, samples):
        calls.append((pair, samples))
        return eom_equivalent(pair, samples)

    for sc in bundled_corpus():
        if "equivalence" in sc.checks:
            old, suites.eom_equivalent = suites.eom_equivalent, record
            try:
                suites.equivalence_suite(suites.RunContext(sc), seed)
            finally:
                suites.eom_equivalent = old
    return calls


OSC_PARAMS = {"m": 1.0, "k": 1.0, "c": 0.0}


def _with_c(source, c, params=OSC_PARAMS):
    return ComplexLagrangian(parse(source), 1.0, params={**params, "c": c})


@pytest.mark.filterwarnings("error")
class TestReferenceParity:
    """`eom_equivalent` against the per-sample loop above: every report field by
    repr, or the same exception type and text; no warning may escape."""

    @pytest.mark.parametrize("seed", [0xC0FFEE, 9, 31])
    def test_corpus_suite_pairs(self, seed):
        calls = _suite_calls(seed)
        assert len(calls) == 10
        for pair, samples in calls:
            assert_same_report(pair, samples)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("gauge", ["q1*q2*t", "(1 + 0.5*i)*q1*q2*t + sin(q1)", "i*c*q1^2"])
    def test_gauge_pairs_above_one_coordinate(self, dim, gauge):
        base = ComplexLagrangian(parse(COUPLED[dim]), 1.7, dim, {"m": 1.3, "k": 0.7, "c": 0.4})
        pair = LagrangianPair(base, gauge_add(base, parse(gauge)))
        assert_same_report(pair, sample_states(dim, 64, 5))
        assert_same_report(pair, sample_states(dim, 256, 0xC0FFEE))

    @pytest.mark.parametrize("label", ["gauge-quadratic", "potential-shift", "gauge-complex", "qd-cubed"])
    def test_degenerate_base(self, label):
        pair = TestPinnedReports.suite_pair("gauge_pair_imaginary", label)
        assert_same_report(pair, SAMPLES)

    def test_singular_mass_at_one_sample(self):
        # the base mass (q - c)^2 is exactly zero at sample 7's q, where the
        # partner's extra qd^2 needs the base acceleration
        base = _with_c("0.5*(q - c)^2*qd^2 - 0.5*k*q^2", SAMPLES[7].q[0])
        partner = ComplexLagrangian(base.expr + parse("qd^2"), 1.0, params=base.params)
        got = assert_same_report(LagrangianPair(base, partner), SAMPLES)
        assert "n_skipped=1," in got and "verdict='not-equivalent'" in got

    def test_inconclusive_on_mostly_singular_samples(self):
        # a subnormal mass: b/a overflows at most samples, so the residual test fails
        base = _with_c("0.5*c*qd^2 - 0.5*k*q^2", 1e-310)
        partner = ComplexLagrangian(base.expr + parse("qd^2"), 1.0, params=base.params)
        got = assert_same_report(LagrangianPair(base, partner), SAMPLES)
        assert "verdict='inconclusive'" in got

    @pytest.mark.parametrize("term", ["q*ln(q + 1)", "sqrt(q + 1)*qd", "1/(q - c)"])
    def test_domain_error_in_the_difference_maps(self, term):
        base = _with_c("0.5*m*qd^2 - 0.5*k*q^2", SAMPLES[40].q[0])
        partner = ComplexLagrangian(base.expr + parse(term), 1.0, params=base.params)
        got = assert_same_report(LagrangianPair(base, partner), SAMPLES)
        assert got[0] == "DomainError"

    @pytest.mark.parametrize("partner_term", ["qd^2", "t*qd^2", "2*q*qd"])
    def test_domain_error_in_the_base_acceleration(self, partner_term):
        # the base force map takes ln(q + 1); the first sample has q > -1
        base = _with_c("0.5*m*qd^2 - q*ln(q + 1)", 0.0)
        assert SAMPLES[0].q[0] > -1
        partner = ComplexLagrangian(base.expr + parse(partner_term), 1.0, params=base.params)
        got = assert_same_report(LagrangianPair(base, partner), SAMPLES)
        assert got == ("DomainError", "ln of nonpositive real")

    def test_empty_samples(self):
        assert assert_same_report(LagrangianPair(OSC, OSC), [])[0] == "ValueError"


@pytest.fixture
def derived(monkeypatch):
    """The Lagrangians that `clmech.equivalence.derive_eom` is called on, in order."""
    from clmech import equivalence

    calls, real = [], equivalence.derive_eom
    monkeypatch.setattr(equivalence, "derive_eom", lambda lagr, *args: calls.append(lagr) or real(lagr, *args))
    return calls


def test_each_suite_derives_its_first_lagrangian_once(derived):
    # the pairs of one suite share their first system: 14 derives for the 12 distinct
    # Lagrangians of the three equivalence scenarios (the oscillator pair adds a first one)
    for sc in bundled_corpus():
        if "equivalence" in sc.checks:
            run = suites.RunContext(sc)
            lagr, start = run.derived[0], len(derived)
            suites.equivalence_suite(run, 0xC0FFEE)
            assert sum(x is lagr for x in derived[start:]) == 1
    assert len(derived) == 14


class TestSharedFirstSystem:
    """A first system is shared only with a call that passes the same Lagrangian and the
    same tuple of samples; every other call reads its own samples."""

    PAIR = LagrangianPair(OSC, ComplexLagrangian(OSC.expr + parse("q^3*qd^2"), 1.0, params=OSC.params))

    def test_a_mutated_sample_list(self):
        samples = list(SAMPLES[:64])
        first = assert_same_report(self.PAIR, samples)
        samples[:] = SAMPLES[64:128]
        assert assert_same_report(self.PAIR, samples) != first

    def test_a_new_tuple_in_place_of_a_freed_one(self):
        # a key held only by id() could match a new tuple at a freed one's address
        reports = {assert_same_report(self.PAIR, tuple(SAMPLES[k : k + 32])) for k in range(0, 256, 32)}
        assert len(reports) == 8

    def test_an_equal_but_distinct_tuple(self, derived):
        samples = tuple(SAMPLES[:64])
        first = assert_same_report(self.PAIR, samples)
        assert assert_same_report(self.PAIR, samples) == first
        assert sum(x is OSC for x in derived) == 1
        assert assert_same_report(self.PAIR, tuple(SAMPLES[:64])) == first
        assert sum(x is OSC for x in derived) == 2


_LANE_FLOAT = st.floats() | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1e-200, 1e200, 1.7e308]
)


@given(st.lists(st.tuples(_LANE_FLOAT, _LANE_FLOAT), min_size=1, max_size=40))
@example([(1e-200, 1e200), (1e-310, 1.0), (0.0, 1.0), (-0.0, math.nan), (math.nan, 0.0), (math.inf, 1.0)])
@settings(max_examples=200, deadline=None)
def test_one_coordinate_lane_pass_is_solve_linear(lanes):
    """At one coordinate `_accelerations` solves a x = b lane by lane: bitwise `solve_linear`'s x
    at each lane, NaN where it raises SingularMass, and the same mask of those lanes."""
    from types import SimpleNamespace

    from clmech.equivalence import _accelerations
    from clmech.lagrangian import _Maps

    a, b = (np.array(col) for col in zip(*lanes))
    zero = np.zeros_like(a)
    columns = np.array([zero, b, a, zero, zero])  # f, g = b, A = a, f_q, f_t: the right-hand side is b
    maps = SimpleNamespace(dim=1, columns=lambda samples: (columns, {}), split=lambda v: _Maps.split(maps, v))
    with np.errstate(all="ignore"):
        x, singular, errors = _accelerations(SimpleNamespace(maps=maps), [None] * len(lanes), [zero])
    want_x, want_singular = [], []
    for ak, bk in zip(a.tolist(), b.tolist()):
        try:
            want_x += solve_linear([[ak]], [bk])
            want_singular.append(False)
        except SingularMass:
            want_x.append(math.nan)
            want_singular.append(True)
    assert x.shape == (1, len(lanes)) and errors == {}
    assert x[0].view(np.uint64).tolist() == np.array(want_x).view(np.uint64).tolist()
    assert singular.tolist() == want_singular


_COEFF = st.floats(-2.0, 2.0, allow_nan=False).map(lambda x: round(x, 2))


@st.composite
def _drawn_pairs(draw):
    """A one-coordinate base of TERM_TEMPLATES terms with complex coefficients, and
    a partner that adds a gauge term or a further term."""
    names = dict(qa="q", qb="q", va="qd", vb="qd")
    terms = [
        f"({draw(_COEFF)!r} + {draw(_COEFF)!r}*i)*({draw(st.sampled_from(TERM_TEMPLATES)).format(**names)})"
        for _ in range(draw(st.integers(1, 3)))
    ]
    base = ComplexLagrangian(parse("0.5*qd^2 + " + " + ".join(terms)), draw(st.sampled_from([1.0, 0.7, 2.5])))
    if draw(st.booleans()):
        gauge = draw(st.sampled_from(["q*q*t", "sin(q)", "exp(-q^2/2)*t", "(1 + i)*q"]))
        return LagrangianPair(base, gauge_add(base, parse(gauge)))
    extra = draw(st.sampled_from(TERM_TEMPLATES)).format(**names)
    partner = ComplexLagrangian(base.expr + parse(f"{draw(_COEFF)!r}*({extra})"), base.omega0)
    return LagrangianPair(base, partner)


def _accel_slack(lagr, s) -> float:
    """How far b/A of the one-coordinate `lagr` at s moves when the kernel's values
    move by a few ulp of the terms of b = g - f_q qd - f_t and of A, to first order:
    8 ulp of the largest term (or of 1.0) times (1 + |b/A|), over |A|."""
    _, (g,), ((a,),), ((f_q,),), (f_t,) = lagr.maps(s.t, s.q, s.qd)
    terms = max(1.0, abs(a), abs(g), abs(f_q * s.qd[0]), abs(f_t))
    return 8 * 2.0**-52 * terms * (1.0 + abs((g - f_q * s.qd[0] - f_t) / a)) / abs(a)


def _gap_slack(pair, samples) -> float:
    """The most the cross-gap, a maximum over the samples where both systems solve,
    may move: the largest sum of the two systems' `_accel_slack` at one such sample."""
    slack = 0.0
    for s in samples:
        try:
            for lagr in (pair.first, pair.second):
                _accel(lagr.maps, s.t, s.q, s.qd)
        except SingularMass:
            continue
        slack = max(slack, _accel_slack(pair.first, s) + _accel_slack(pair.second, s))
    return slack


@given(_drawn_pairs(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_drawn_pairs_match_the_loop(pair, seed):
    """Without exp or ln the lanes are the scalar kernels bit for bit, and so is every
    report. With them, numpy's lanes may differ from libm's scalars by a few ulp, so the
    verdict, the sample and skip counts and any exception must be equal, max_residual
    and the scale within 1e-15 times the scale. The cross-gap is a difference of
    accelerations b/A, which moves with the ulps of b and A at each sample by its own
    conditioning: it must agree within `_gap_slack`, taken sample by sample, so a
    near-singular mass at one sample loosens the bound only by what that sample can move."""
    samples = sample_states(1, 64, seed)
    got = outcome(lambda: eom_equivalent(pair, samples))
    want = outcome(lambda: reference_eom_equivalent(pair, samples))
    if got == want:
        return
    sources = [to_source(x.expr) for x in (pair.first, pair.second)]
    assert any(fn in src for src in sources for fn in ("exp(", "ln(")), (got, want)
    assert isinstance(got, str) and isinstance(want, str), (got, want)
    new, old = eom_equivalent(pair, samples), reference_eom_equivalent(pair, samples)
    assert (new.verdict, new.n_samples, new.n_skipped) == (old.verdict, old.n_samples, old.n_skipped)
    assert (new.accel_cross_max is None) == (old.accel_cross_max is None)
    bound = 1e-15 * old.scale
    assert abs(new.scale - old.scale) <= bound
    assert abs(new.max_residual - old.max_residual) <= bound
    if old.accel_cross_max is not None:
        assert abs(new.accel_cross_max - old.accel_cross_max) <= _gap_slack(pair, samples)
