import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clmech.corpus import bundled_corpus
from clmech.exprcore import parse
from clmech.lagrangian import (
    ClosureConsistencyWarning,
    ClosureInconsistent,
    ComplexLagrangian,
    DegenerateWithoutClosure,
    MechState,
    SingularMass,
    UndeclaredSymbol,
    _eliminate,
    accel,
    closure_velocity,
    coordinate_names,
    derive_eom,
    force,
    momentum,
    solve_linear,
    to_complex_phase,
    velocity_names,
    wirtinger,
)

finite = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)

OSC = ComplexLagrangian(parse("0.5*m*qd^2 - 0.5*k*q^2"), 1.0, params={"m": 2.0, "k": 3.0})
BILINEAR = ComplexLagrangian(parse("i*a0*q*qd"), 1.0, params={"a0": 1.0})
IMAG_OSC = ComplexLagrangian(parse("0.5*i*(m*qd^2 - k*q^2)"), 1.0, params={"m": 1.0, "k": 1.0})
DAMPED = ComplexLagrangian(
    parse("0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2"),
    1.0,
    params={"m": 1.0, "k": 1.0, "l0": 0.1},
)

PROBE = MechState(0.0, (1.0,), (1.0,))


class TestNames:
    def test_dim_one_is_plain(self):
        assert coordinate_names(1) == ("q",)
        assert velocity_names(1) == ("qd",)

    def test_dim_two_is_indexed(self):
        assert coordinate_names(2) == ("q1", "q2")
        assert velocity_names(2) == ("qd1", "qd2")


class TestValidation:
    def test_zero_omega0_rejected(self):
        with pytest.raises(ValueError):
            ComplexLagrangian(parse("qd^2"), 0.0)

    def test_undeclared_symbol(self):
        with pytest.raises(UndeclaredSymbol):
            ComplexLagrangian(parse("0.5*m*qd^2"), 1.0)

    def test_reserved_param_name(self):
        with pytest.raises(ValueError):
            ComplexLagrangian(parse("qd^2"), 1.0, params={"qd": 1.0})

    def test_nonfinite_param(self):
        with pytest.raises(ValueError):
            ComplexLagrangian(parse("m*qd^2"), 1.0, params={"m": math.inf})

    def test_state_shape_must_match(self):
        with pytest.raises(ValueError):
            MechState(0.0, (1.0, 2.0), (1.0,))

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MechState(0.0, (math.nan,), (0.0,))


class TestRegular:
    def test_oscillator_classification(self):
        eom = derive_eom(OSC, PROBE)
        assert eom.is_regular
        assert eom.classification == "regular"

    def test_oscillator_maps(self):
        eom = derive_eom(OSC, PROBE)
        s = MechState(0.0, (0.5,), (-1.5,))
        assert momentum(eom, s)[0] == pytest.approx(2.0 * -1.5)
        assert force(eom, s)[0] == pytest.approx(-3.0 * 0.5)
        assert accel(eom, s)[0] == pytest.approx(-(3.0 / 2.0) * 0.5)

    def test_bilinear_imaginary_term_is_regular(self):
        # L = i a0 q qd gives f = (a0/w0) qd, a genuinely invertible mass
        eom = derive_eom(BILINEAR, PROBE)
        assert eom.is_regular
        s = MechState(0.0, (0.7,), (0.2,))
        assert momentum(eom, s)[0] == pytest.approx(0.2)
        assert accel(eom, s)[0] == pytest.approx(-0.7)  # qdd = -w0^2 q

    def test_two_dof(self):
        lagr = ComplexLagrangian(
            parse("0.5*m*(qd1^2 + qd2^2) - 0.5*k*(q1^2 + q2^2)"),
            1.0,
            dim=2,
            params={"m": 2.0, "k": 1.0},
        )
        eom = derive_eom(lagr, MechState(0.0, (1.0, -1.0), (0.0, 0.5)))
        s = MechState(0.0, (1.0, 2.0), (3.0, 4.0))
        np.testing.assert_allclose(momentum(eom, s), [6.0, 8.0])
        np.testing.assert_allclose(accel(eom, s), [-0.5, -1.0])

    def test_closure_mass_rejected_for_regular(self):
        with pytest.raises(ValueError):
            derive_eom(OSC, PROBE, closure_mass=(1.0,))


class TestDegenerate:
    def test_requires_closure_mass(self):
        with pytest.raises(DegenerateWithoutClosure):
            derive_eom(IMAG_OSC, PROBE)

    def test_closure_velocity(self):
        eom = derive_eom(IMAG_OSC, PROBE, closure_mass=(-1.0,))
        assert eom.classification == "degenerate"
        # f = -(k/w0) q; closure f = m_c qd with m_c = -1 gives qd = q
        assert closure_velocity(eom, 0.0, (2.0,))[0] == pytest.approx(2.0)

    def test_consistent_closure_passes_quietly(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eom = derive_eom(IMAG_OSC, PROBE, closure_mass=(-1.0,))
        assert eom.closure_consistency < 1e-9

    def test_inconsistent_closure_warns(self):
        lagr = ComplexLagrangian(
            parse("0.5*i*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2"),
            1.0,
            params={"m": 1.0, "k": 1.0, "l0": 0.1},
        )
        with pytest.warns(ClosureConsistencyWarning):
            eom = derive_eom(lagr, PROBE, closure_mass=(-1.1,))
        assert eom.closure_consistency == pytest.approx(1 / 11, rel=1e-6)

    def test_closure_without_real_root(self):
        # f = 1 + qd^2 never meets m_c qd with m_c = 1 along the reals
        lagr = ComplexLagrangian(parse("i*(q + q*qd^2)"), 1.0)
        with pytest.raises(ClosureInconsistent):
            eom = derive_eom(lagr, MechState(0.0, (0.0,), (0.0,)), closure_mass=(1.0,))
            closure_velocity(eom, 0.0, (0.0,))

    def test_accel_refuses_degenerate(self):
        eom = derive_eom(IMAG_OSC, PROBE, closure_mass=(-1.0,))
        with pytest.raises(ValueError):
            accel(eom, PROBE)


class TestSingularMass:
    def test_solve_linear_rejects_singular(self):
        with pytest.raises(SingularMass):
            solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_solve_linear_known_system(self):
        x = solve_linear(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
        np.testing.assert_allclose(x, [0.8, 1.4], atol=1e-14)

    def test_runtime_singularity(self):
        # A = 2 qd is fine at the probe but vanishes at qd = 0
        lagr = ComplexLagrangian(parse("qd^3/3"), 1.0)
        eom = derive_eom(lagr, MechState(0.0, (0.0,), (1.0,)))
        assert eom.is_regular
        with pytest.raises(SingularMass):
            accel(eom, MechState(0.0, (0.0,), (0.0,)))


class TestComplexPhase:
    @given(finite, finite, finite)
    @settings(max_examples=50)
    def test_w_definition(self, t, q, qd):
        ph = to_complex_phase(OSC, derive_eom(OSC, PROBE), MechState(t, (q,), (qd,)))
        assert ph.w[0] == pytest.approx((qd + 1j * q) / math.sqrt(2))

    @given(finite, finite, finite)
    @settings(max_examples=50)
    def test_dynamical_law_regular(self, t, q, qd):
        # u = i w0 dL/dw is the single complex equation the two maps encode
        eom = derive_eom(DAMPED, PROBE)
        s = MechState(t, (q,), (qd,))
        ph = to_complex_phase(DAMPED, eom, s)
        assert ph.u[0] == pytest.approx(1j * 1.0 * wirtinger(DAMPED, s), abs=1e-12)

    @given(finite, finite, finite)
    @settings(max_examples=50)
    def test_dynamical_law_degenerate(self, t, q, qd):
        eom = derive_eom(IMAG_OSC, PROBE, closure_mass=(-1.0,))
        s = MechState(t, (q,), (qd,))
        ph = to_complex_phase(IMAG_OSC, eom, s)
        assert ph.u[0] == pytest.approx(1j * wirtinger(IMAG_OSC, s), abs=1e-12)

    @given(finite, finite, finite)
    @settings(max_examples=50)
    def test_wirtinger_encodes_both_maps(self, t, q, qd):
        eom = derive_eom(DAMPED, PROBE)
        s = MechState(t, (q,), (qd,))
        z = math.sqrt(2) * wirtinger(DAMPED, s)
        assert z.real == pytest.approx(momentum(eom, s)[0], abs=1e-12)
        assert -1.0 * z.imag == pytest.approx(force(eom, s)[0], abs=1e-12)

    def test_wirtinger_oscillator_oracle(self):
        s = MechState(0.0, (0.5,), (-1.5,))
        # dL/dw = (L_qd - (i/w0) L_q)/sqrt(2) with L_qd = m qd, L_q = -k q
        expect = (2.0 * -1.5 - 1j * (-3.0 * 0.5)) / math.sqrt(2)
        assert wirtinger(OSC, s) == pytest.approx(expect)


class TestElimination:
    # classifications recorded before the determinant moved into the elimination
    BUNDLED = {
        "classical_oscillator": "regular",
        "damped_oscillator": "regular",
        "damped_oscillator_literal": "degenerate",
        "free_particle": "regular",
        "gauge_pair_imaginary": "degenerate",
        "gauge_pair_oscillator": "regular",
        "imaginary_ho": "regular",
        "inverted_oscillator": "degenerate",
    }

    def test_bundled_classification_unchanged(self):
        seen = {}
        for sc in bundled_corpus():
            eom = derive_eom(sc.build_lagrangian(), sc.probe_state(), closure_mass=sc.closure_mass)
            seen[sc.name] = eom.classification
        assert seen == self.BUNDLED

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 2.0], [2.0, 4.0]],
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
        ],
    )
    def test_singular_matrices(self, matrix):
        n = len(matrix)
        _, det = _eliminate([row[:] for row in matrix], [0.0] * n)
        scale = max(abs(v) for row in matrix for v in row)
        assert abs(det) <= 1e-10 * scale  # what derive_eom reads as degenerate
        with pytest.raises(SingularMass):
            solve_linear(matrix, [1.0] * n)

    @pytest.mark.parametrize(
        "expr,dim",
        [
            ("0.5*(qd1 + qd2)^2 - 0.5*q1^2", 2),
            ("0.5*(qd1 + qd2)^2 + 0.5*(qd2 + qd3)^2 - 0.5*q1^2", 3),
        ],
    )
    def test_singular_mass_matrix_is_degenerate(self, expr, dim):
        lagr = ComplexLagrangian(parse(expr), 1.0, dim=dim)
        with pytest.raises(DegenerateWithoutClosure):
            derive_eom(lagr, MechState(0.0, (0.5,) * dim, (1.0,) * dim))

    @given(st.lists(finite, min_size=9, max_size=9))
    @settings(max_examples=50)
    def test_determinant_from_pivots(self, entries):
        matrix = [entries[0:3], entries[3:6], entries[6:9]]
        _, det = _eliminate([row[:] for row in matrix], [0.0] * 3)
        assert det == pytest.approx(np.linalg.det(np.array(matrix)), rel=1e-9, abs=1e-9)
