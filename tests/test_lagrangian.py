import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clmech.corpus import bundled_corpus
from clmech.dynamics import CLOSURE, IntegratorConfig, integrate
from clmech.exprcore import parse
from clmech.lagrangian import (
    ClosureConsistencyWarning,
    ClosureInconsistent,
    ComplexLagrangian,
    DegenerateWithoutClosure,
    MechState,
    SingularMass,
    UndeclaredSymbol,
    _constant,
    _eliminate,
    _singular,
    _solve_plan,
    _solver,
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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_singular_newton_jacobian(self, dim):
        # f = qd^2/2 and closure mass 1: the Jacobian A - m = qd - 1 vanishes
        # at the guess qd = 1, where the residual 1/2 - 1 does not
        expr = " + ".join(f"{v}^3/6" for v in velocity_names(dim))
        lagr = ComplexLagrangian(parse(expr), 1.0, dim=dim)
        eom = derive_eom(lagr, MechState(0.0, (0.0,) * dim, (0.0,) * dim), closure_mass=(1.0,) * dim)
        with pytest.raises(ClosureInconsistent):
            closure_velocity(eom, 0.0, (0.0,) * dim, guess=(1.0,) + (0.0,) * (dim - 1))

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

    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
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
        pivots = _eliminate([row[:] for row in matrix], [0.0] * n)
        assert any(_singular(*step) for step in pivots)  # what derive_eom reads as degenerate
        with pytest.raises(SingularMass):
            solve_linear(matrix, [1.0] * n)

    @pytest.mark.parametrize("m", [1e-6, 1.0, 1e6])
    def test_classification_does_not_change_with_the_units(self, m):
        # |det A| = m^3 fell below 1e-10 * max|A| at m = 1e-6, although every
        # pivot ratio of A = m I is 1
        lagr = ComplexLagrangian(parse("0.5*m*(qd1^2 + qd2^2 + qd3^2)"), 1.0, dim=3, params={"m": m})
        s = MechState(0.0, (0.5,) * 3, (1.0,) * 3)
        eom = derive_eom(lagr, s)
        assert eom.is_regular
        assert accel(eom, s).tolist() == [0.0, 0.0, 0.0]

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

    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
    def test_constant_singular_mass_never_reaches_the_generated_step(self):
        # A folds to the constant [[1, 1], [1, 1]]: degenerate, so the step's
        # compile-time elimination never meets a singular pivot
        lagr = ComplexLagrangian(parse("0.5*(qd1 + qd2)^2 - 0.5*k*(q1^2 + q2^2)"), 1.0, dim=2, params={"k": 1.0})
        assert _constant(lagr.maps.A)
        init = MechState(0.0, (0.5, -0.3), (0.2, 0.1))
        with pytest.raises(DegenerateWithoutClosure):
            derive_eom(lagr, init)
        traj = integrate(derive_eom(lagr, init, closure_mass=(-1.0, -1.5)), init, IntegratorConfig(0.1, 0.0, 1.0))
        assert traj.kind == CLOSURE and np.isfinite(traj.q).all()

    def test_plan_leaves_an_infinite_eliminated_entry_to_solve_linear(self):
        # 1e308 - (-1)*1e308 overflows; a literal cannot carry it, so the step calls solve_linear
        assert _solve_plan([[1e308, 1e308], [-1e308, 1e308]], ["b1", "b2"], ["x1", "x2"]) is None

    def test_plan_refuses_a_singular_pivot(self):
        matrix = [[1.0, 2.0], [2.0, 4.0]]
        assert _solved(lambda: _solve_plan(matrix, ["b1", "b2"], ["x1", "x2"])) == _solved(
            lambda: solve_linear(matrix, [1.0, 1.0])
        )


def _solved(solve) -> bytes | str:
    """The bytes of a solve's solution, or the text of its SingularMass."""
    try:
        return np.array(solve()).tobytes()
    except SingularMass as err:
        return str(err)


ENTRY = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.25, 0.1, 1e-8, 7e5))


@given(
    matrix=st.integers(2, 4).flatmap(lambda n: st.lists(st.lists(ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)),
    rhs=st.lists(st.one_of(ENTRY, st.sampled_from((0.0, -0.0, math.inf, math.nan)), st.floats(-1e6, 1e6)), min_size=4, max_size=4),
)
@example(matrix=[[1.0, 1.0], [0.0, 1.0]], rhs=[-0.0, -0.0, 0.0, 0.0])  # -0.0 - (0 + 1.0*-0.0) is -0.0
@settings(max_examples=300, deadline=None)
def test_solve_plan_is_solve_linear(matrix, rhs):
    """The compile-time plan of a constant matrix against `solve_linear`: bitwise
    the same solution, or the same exception type and text."""
    n = len(matrix)
    b, x = [f"b{a}" for a in range(n)], [f"x{a}" for a in range(n)]
    want = _solved(lambda: solve_linear(matrix, rhs[:n]))
    try:
        plan = _solve_plan(matrix, b, x)
    except SingularMass as err:  # a singular pivot, fixed with the matrix
        assert str(err) == want
        return
    ns = {"__builtins__": {}, "abs": abs, "max": max, "SingularMass": SingularMass}
    exec(f"def solve({', '.join(b)}):\n{plan}\n    return [{', '.join(x)}]", ns)  # noqa: S102
    assert _solved(lambda: ns["solve"](*rhs[:n])) == want


@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
class TestClosureNewton:
    """The closure f(q, qd, t) = m*qd above one coordinate: the list Newton."""

    # f_a = -q_a, so m = -1 gives qd = q and q_a(t) = q_a(0) e^t
    LINEAR = ComplexLagrangian(parse("0.5*i*(qd1^2 + qd2^2 - q1^2 - q2^2)"), 1.0, dim=2)
    # f_a = (qd1 + qd2)^3 - q_a: a coupled cubic, so Newton iterates and the
    # Jacobian 3 s^2 [[1, 1], [1, 1]] + I is a full matrix
    CUBIC = ComplexLagrangian(
        parse("0.25*(qd1 + qd2)^4 + 0.5*i*(qd1^2 + qd2^2 - q1^2 - q2^2)"), 1.0, dim=2
    )
    START = MechState(0.0, (0.5, -0.25), (0.0, 0.0))

    def test_linear_closure_grows_exponentially(self):
        eom = derive_eom(self.LINEAR, self.START, closure_mass=(-1.0, -1.0))
        assert eom.classification == "degenerate"
        traj = integrate(eom, self.START, IntegratorConfig(1e-3, 0.0, 1.0))
        assert traj.kind == "closure"
        np.testing.assert_allclose(traj.q[-1], [0.5 * math.e, -0.25 * math.e], rtol=1e-12)
        np.testing.assert_allclose(traj.qd, traj.q, rtol=1e-12)
        np.testing.assert_allclose(traj.p, -traj.q, rtol=1e-12)

    @pytest.mark.parametrize("q,want", [((1.5, 1.5), (0.5, 0.5)), ((2.5, 0.5), (1.5, -0.5))])
    def test_coupled_cubic_closure(self, q, want):
        # s = qd1 + qd2 solves s + 2 s^3 = q1 + q2 = 3, so s = 1 and qd_a = q_a - 1
        eom = derive_eom(self.CUBIC, self.START, closure_mass=(-1.0, -1.0))
        qd = closure_velocity(eom, 0.0, q, guess=(0.0, 0.0))
        np.testing.assert_allclose(qd, want, rtol=0, atol=1e-12)

    def test_coupled_cubic_trajectory_keeps_the_closure(self):
        eom = derive_eom(self.CUBIC, self.START, closure_mass=(-1.0, -1.0))
        traj = integrate(eom, MechState(0.0, (1.5, 1.5), (0.0, 0.0)), IntegratorConfig(1e-2, 0.0, 0.5))
        assert float(traj.el_residual.max()) < 1e-11
        s = traj.qd.sum(axis=1)
        np.testing.assert_allclose(traj.p, s[:, None] ** 3 - traj.q, atol=1e-11)  # p = f
        np.testing.assert_allclose(traj.p, -traj.qd, atol=1e-11)  # p = m qd


def test_derive_compiles_only_the_closure_velocity_kernel(monkeypatch):
    # a regular derive classifies by the tree evaluator and compiles nothing; an
    # affine degenerate one compiles the closed form's n trees for its closure solves
    import clmech.lagrangian as lagrangian

    compiled = []
    real_compile = lagrangian.compile_expr

    def counting(trees, *args, **kwargs):
        compiled.append(len(trees))
        return real_compile(trees, *args, **kwargs)

    monkeypatch.setattr(lagrangian, "compile_expr", counting)
    derive_eom(ComplexLagrangian(parse("0.5*qd^2 - 0.5*q^2"), 1.0), PROBE)
    assert compiled == []
    for dim in (1, 2, 3):
        expr = " + ".join(f"0.5*i*({v}^2 - {q}^2)" for q, v in zip(coordinate_names(dim), velocity_names(dim)))
        lagr = ComplexLagrangian(parse(expr), 1.0, dim=dim)
        derive_eom(lagr, MechState(0.0, (0.5,) * dim, (0.0,) * dim), closure_mass=(-1.0,) * dim)
    assert compiled == [1, 2, 3]


@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
def test_affine_closures_run_no_newton():
    # derive, integrate and closure_velocity read the closed form: neither the
    # Newton kernel nor the generated solve `_solver(n)` is built or called
    for dim in (1, 2, 3, 4):
        coords, vels = coordinate_names(dim), velocity_names(dim)
        expr = " + ".join(f"0.5*i*({v}^2 - {q}^2) + 0.2*i*t*{q}" for q, v in zip(coords, vels))
        lagr = ComplexLagrangian(parse(expr), 1.0, dim=dim)
        init = MechState(0.0, (0.5,) * dim, (0.0,) * dim)
        solves = _solver.cache_info()
        eom = derive_eom(lagr, init, closure_mass=(-1.0,) * dim)
        traj = integrate(eom, init, IntegratorConfig(0.1, 0.0, 1.0))
        closure_velocity(eom, 0.3, (0.2,) * dim)
        assert "newton" not in lagr.maps.__dict__ and _solver.cache_info() == solves
        assert traj.kind == "closure" and float(traj.el_residual.max()) < 1e-15


@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
@pytest.mark.parametrize("dim", [1, 2])
def test_affine_closure_with_a_constant_momentum_map(dim):
    # f = 2 at every coordinate folds to a constant the step puts in: qd = (0 - 2)/(0 - 1.5)
    expr = " + ".join(f"i*2*{q} + 0.5*i*{v}^2" for q, v in zip(coordinate_names(dim), velocity_names(dim)))
    init = MechState(0.0, (1.0,) * dim, (0.0,) * dim)
    eom = derive_eom(ComplexLagrangian(parse(expr), 1.0, dim=dim), init, closure_mass=(1.5,) * dim)
    traj = integrate(eom, init, IntegratorConfig(0.1, 0.0, 1.0))
    np.testing.assert_allclose(traj.q[-1], [1.0 + 2.0 / 1.5] * dim, rtol=1e-15)
    assert (traj.qd == 2.0 / 1.5).all() and (traj.p == 2.0).all() and not traj.el_residual.any()
