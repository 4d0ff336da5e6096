"""The generated RK4 sample loops against the per-stage loops they replaced.

`_Maps.step`, `_Maps.closure_step` and `HamiltonianField.step` are each one
generated function per system that runs a whole trajectory: the blow-up test,
the column stores, and the kernel body, the linear solve and the generators'
arithmetic inlined, or, on the Newton paths, the calls of the damped Newton and
the partials kernel. The reference loops below are the earlier implementations:
one `kernel` call and one `_solve_scalar` per regular stage, one `_flow_at` per
Hamiltonian stage with `_generators` written out, and, for regular flows above
one coordinate and every closure, the list-state loop `_listed` with its own
`_rk4`, whose regular stages solve with a frozen copy of the partial-pivot
elimination. Their Newtons start where the loops' do: a closure's sample from
the last sample's qd (the initial qd at the first), its later stages from the
previous stage's slope, and every stage of a Hamiltonian step from the sample's
qd. Every column must be bitwise equal, and a failing run must fail with the
same exception type and text.
"""

import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clmech.dynamics import (
    CLOSURE,
    HAMILTONIAN,
    SECOND_ORDER,
    IntegratorConfig,
    StepBlowUp,
    Trajectory,
    _check_finite,
    _closure_terms,
    _el_terms,
    _grid,
    integrate,
    integrate_hamiltonian,
)
from clmech import codegen
from clmech.codegen import compile_expr
from clmech.exprcore import DomainError, parse
from clmech.hamiltonian import HamiltonianField, InversionFailure, PhaseState
from clmech.lagrangian import (
    ClosureInconsistent,
    ComplexLagrangian,
    DegenerateWithoutClosure,
    MechState,
    SingularMass,
    _singular,
    _newton_solver,
    _solver,
    derive_eom,
    solve_linear,
)


def _columns(n_rows: int) -> tuple[np.ndarray, ...]:
    return (*(np.empty((n_rows, 1)) for _ in range(3)), np.empty(n_rows))


def _solve_scalar(a: float, b: float) -> float:
    row_scale = abs(a)
    if _singular(a, row_scale):
        raise SingularMass(f"pivot {a!r} below 1e-13 of row scale {row_scale!r}")
    x = b / a
    residual = abs(a * x - b)
    if residual > 1e-10 * (1.0 + abs(b)):
        raise SingularMass(f"solve residual {residual!r} exceeds contract bound")
    return x


def reference_regular(eom, init: MechState, cfg: IntegratorConfig) -> Trajectory:
    """One coordinate on plain floats: one kernel call per RK4 stage."""
    t_grid, dt, n = _grid(cfg)
    kernel = eom.maps.kernel
    h2, h6 = dt / 2, dt / 6

    def accel(t: float, q: float, qd: float) -> float:
        _, g, a, f_q, f_t = kernel(t, q, qd)
        return _solve_scalar(a, g - (0.0 + f_q * qd) - f_t)

    q, qd = init.q[0], init.qd[0]
    q_out, qd_out, p_out, res_out = _columns(n + 1)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite((q, qd), t)
        f, g, a, f_q, f_t = kernel(t, q, qd)
        a1 = _solve_scalar(a, g - (0.0 + f_q * qd) - f_t)
        q_out[k], qd_out[k], p_out[k] = q, qd, f
        res_out[k] = abs(g - a * a1 - f_q * qd - f_t)
        if k < n:
            v2 = qd + h2 * a1
            a2 = accel(t + h2, q + h2 * qd, v2)
            v3 = qd + h2 * a2
            a3 = accel(t + h2, q + h2 * v2, v3)
            v4 = qd + dt * a3
            a4 = accel(t + dt, q + dt * v3, v4)
            q = q + h6 * (qd + 2 * v2 + 2 * v3 + v4)
            qd = qd + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
    return Trajectory(SECOND_ORDER, dt, t_grid, q_out, qd_out, p_out, res_out)


def _flow_at(field: HamiltonianField, t: float, q: float, p: float, guess: float):
    """(qd, f, qd_flow, pd_flow): `_values`, then the generators piece by piece."""
    qd, f, qd_q, qd_p, l_q, l_qd, m_q, m_qd = field._values(t, q, p, guess)
    slack = p - l_qd
    dh_q = -l_q + slack * qd_q
    dh_p = qd + slack * qd_p
    w0 = field.lagr.omega0
    k0 = field.kappa0
    mm_q = m_q + m_qd * qd_q
    mm_p = m_qd * qd_p
    dk_q = (qd_p * mm_q - qd_q * mm_p) / (k0 * w0)
    dk_p = k0 * (-(qd_q / w0) * mm_q + ((w0 + qd_q**2 / w0) / qd_p) * mm_p)
    return qd, f, dh_p - k0 * dk_q, -dh_q - dk_p / k0


def reference_hamiltonian(field: HamiltonianField, init: PhaseState, cfg: IntegratorConfig) -> Trajectory:
    """One `_flow_at` per stage; the last sample only inverts the momentum map."""
    inverse = None if field._qd is None else compile_expr(field._phase_trees[:2], ("t", "q", "p"), real=True)

    def invert(t: float, q: float, p: float, guess: float) -> tuple[float, float]:
        if inverse is None:
            return _newton_solver(1)(field.eom.maps.newton, InversionFailure, t, q, p, 0.0, float(guess))
        return inverse(t, q, p)

    t_grid, dt, n = _grid(cfg)
    h2, h6 = dt / 2, dt / 6
    guess = 0.0
    q, p = init.q, init.p
    q_out, qd_out, p_out, res_out = _columns(n + 1)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite((q, p), t)
        qd, f, *k1 = _flow_at(field, t, q, p, guess) if k < n else invert(t, q, p, guess)
        guess = qd
        q_out[k], qd_out[k], p_out[k] = q, qd, p
        res_out[k] = abs(f - p)
        if k < n:
            k1q, k1p = k1
            _, _, k2q, k2p = _flow_at(field, t + h2, q + h2 * k1q, p + h2 * k1p, guess)
            _, _, k3q, k3p = _flow_at(field, t + h2, q + h2 * k2q, p + h2 * k2p, guess)
            _, _, k4q, k4p = _flow_at(field, t + dt, q + dt * k3q, p + dt * k3p, guess)
            q = q + h6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            p = p + h6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return Trajectory(HAMILTONIAN, dt, t_grid, q_out, qd_out, p_out, res_out)


def outcome(run):
    """The run's columns as bytes, or its exception's type and text."""
    try:
        traj = run()
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)
    return [np.ascontiguousarray(c).tobytes() for c in (traj.t, traj.q, traj.qd, traj.p, traj.el_residual)]


def assert_same_regular(source: str, params: dict, init: MechState, cfg: IntegratorConfig):
    eom = derive_eom(ComplexLagrangian(parse(source), 1.0, params=params), init)
    assert "_h_not_real" in eom.maps.step.__code__.co_names  # the sqrt term keeps the guard
    got = outcome(lambda: integrate(eom, init, cfg))
    assert got == outcome(lambda: reference_regular(eom, init, cfg))
    return got


def assert_same_hamiltonian(field: HamiltonianField, init: PhaseState, cfg: IntegratorConfig):
    got = outcome(lambda: integrate_hamiltonian(field, init, cfg))
    assert got == outcome(lambda: reference_hamiltonian(field, init, cfg))
    return got


COEFFICIENT = st.floats(-1.0, 1.0).map(lambda x: round(x, 3))
REGULAR_TERMS = ("q*q", "q*qd", "t*q", "t*qd*qd", "cos(q)", "q*q*q")
AFFINE_TERMS = ("q*q", "q*qd", "t*q", "cos(q)", "exp(-q^2/2)", "q*q*q")


def _sum(terms) -> list[str]:
    return [f"({a!r} + {b!r}*i)*({tmpl})" for tmpl, a, b in terms]


@given(
    m=st.floats(0.5, 2.0),
    k=st.floats(-2.0, 2.0),
    root=st.tuples(COEFFICIENT, COEFFICIENT, st.floats(0.0, 1.5)),
    terms=st.lists(st.tuples(st.sampled_from(REGULAR_TERMS), COEFFICIENT, COEFFICIENT), max_size=3),
    q0=st.floats(-1.0, 1.0),
    qd0=st.floats(-2.0, 2.0),
    h=st.sampled_from((0.05, 0.1, 0.25)),
)
@settings(max_examples=80, deadline=None)
def test_regular_step_matches_the_stage_loop(m, k, root, terms, q0, qd0, h):
    a, b, shift = root
    assume(a or b)
    source = " + ".join(
        ["0.5*(m + 0.2*i)*qd^2", "-0.5*k*q^2", f"({a!r} + {b!r}*i)*sqrt(q + {shift!r})", *_sum(terms)]
    )
    init = MechState(0.0, (q0,), (qd0,))
    try:
        assert_same_regular(source, {"m": m, "k": k}, init, IntegratorConfig(h, 0.0, 2.0))
    except (DegenerateWithoutClosure, DomainError):  # no regular real system at the probe
        assume(False)


@given(
    kinetic=st.floats(0.5, 2.0),
    root=st.tuples(COEFFICIENT, st.floats(0.0, 1.5)),
    terms=st.lists(st.tuples(st.sampled_from(AFFINE_TERMS), COEFFICIENT, COEFFICIENT), max_size=3),
    quartic=st.sampled_from((0.0, 0.0, 0.25)),
    omega0=st.sampled_from((1.0, 0.7, -1.3)),
    kappa0=st.sampled_from((0.5, 1.0, 2.0)),
    q0=st.floats(-1.0, 1.0),
    p0=st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_hamiltonian_step_matches_the_flow_loop(kinetic, root, terms, quartic, omega0, kappa0, q0, p0):
    b, shift = root
    # an imaginary sqrt(q + shift) puts sqrt into f, so the step and its last-sample body are guarded
    source = " + ".join(
        [f"({kinetic!r} + 0.1*i)*qd*qd", f"{quartic!r}*qd^4", f"{b!r}*i*sqrt(q + {shift!r})", *_sum(terms)]
    )
    try:
        lagr = ComplexLagrangian(parse(source), omega0)
        field = HamiltonianField(lagr, derive_eom(lagr, MechState(0.0, (q0,), (1.0,))), kappa0=kappa0)
    except (DegenerateWithoutClosure, DomainError):
        assume(False)
    assert (field._qd is None) == bool(quartic)
    assert_same_hamiltonian(field, PhaseState(0.0, q0, p0), IntegratorConfig(0.1, 0.0, 2.0))


class TestErrorParity:
    def test_singular_mass_at_a_stage(self):
        # A = 1 - t vanishes at t = 1, the fourth stage of the step from t = 0.5
        source = "0.5*(1 - t)*qd^2 + 1e-3*sqrt(1 + q^2)"
        got = assert_same_regular(source, {}, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.5, 0.0, 2.0))
        assert got == (SingularMass, "pivot 0.0 below 1e-13 of row scale 0.0")

    def test_guarded_domain_error_names_the_stage_state(self):
        init = MechState(0.0, (0.5,), (-1.0,))
        got = assert_same_regular("0.5*qd^2 - sqrt(q)", {}, init, IntegratorConfig(0.1, 0.0, 2.0))
        assert got[0] is DomainError and got[1].startswith("real map 1 took the complex value")

    def test_step_blow_up(self):
        source = "0.5*qd^2 + q^4 + 1e-3*sqrt(1 + q^2)"
        got = assert_same_regular(source, {}, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.01, 0.0, 5.0))
        assert got[0] is StepBlowUp

    def test_guarded_domain_error_on_the_phase_flow(self):
        lagr = ComplexLagrangian(parse("0.5*qd^2 + 0.5*i*sqrt(q)"), 1.0)
        field = HamiltonianField(lagr, derive_eom(lagr, MechState(0.0, (1.0,), (1.0,))))
        got = assert_same_hamiltonian(field, PhaseState(0.0, 0.3, -1.0), IntegratorConfig(0.1, 0.0, 2.0))
        assert got[0] is DomainError

    def test_solve_residual_of_a_constant_ill_conditioned_mass(self):
        # A = [[1, 0.371], [1, 0.371000000003]] passes its pivot tests when the step is built, and
        # b = g = (-1.478, 1.664) misses the planned solve by 2.7e-5, beyond 1e-10*(1 + 1.664)
        source = "0.5*qd1^2 + 0.5*0.371000000003*qd2^2 + qd1*qd2 - 1.478*q1 + 1.664*q2 - 0.629*i*q1*qd2"
        init = MechState(0.0, (0.0, 0.0), (0.0, 0.0))
        got = assert_same_list_state(source, {}, init, IntegratorConfig(0.1, 0.0, 1.0))
        assert got == (SingularMass, "solve residual 2.734375000001954e-05 exceeds contract bound")
        assert not _solves_at_run_time(source, {}, init)


def same_regular(source: str, params: dict, init: MechState, cfg: IntegratorConfig):
    """`integrate` against `reference_regular` on any regular dim-1 system: the outcome, and the step."""
    eom = derive_eom(ComplexLagrangian(parse(source), 1.0, params=params), init)
    got = outcome(lambda: integrate(eom, init, cfg))
    assert got == outcome(lambda: reference_regular(eom, init, cfg))
    return got, eom.maps.step


def make_field(source: str, params: dict, init: MechState, kappa0: float = 1.0) -> HamiltonianField:
    lagr = ComplexLagrangian(parse(source), 1.0, params=params)
    return HamiltonianField(lagr, derive_eom(lagr, init), kappa0=kappa0)


# A folds to m in each; the t*q*qd and i*t*q^2 terms make df/dq and df/dt vary
CONSTANT_MASS_DIM1 = (
    "0.5*m*qd^2 - 0.5*k*q^2",
    "0.5*m*qd^2 - 0.5*k*q^2 + 0.5*i*l0*qd^2",
    "0.5*m*qd^2 - 0.5*k*q^2 + 0.3*t*q*qd + 0.2*i*t*q^2 + 0.1*i*cos(q)",
)
PARAMS = {"m": 1.0, "k": 1.0, "l0": 0.1}


class TestFoldedTails:
    """The steps whose tails fold on a constant mass or a vanishing M, against the stage loops."""

    @pytest.mark.parametrize("source", CONSTANT_MASS_DIM1)
    @pytest.mark.parametrize("q0, v0", [(0.0, 0.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
    def test_signed_zero_states(self, source, q0, v0):
        cfg = IntegratorConfig(0.25, 0.0, 2.0)
        init = MechState(0.0, (q0,), (v0,))
        got, _ = same_regular(source, PARAMS, init, cfg)
        assert isinstance(got, list)
        field = make_field(source, PARAMS, MechState(0.0, (1.0,), (1.0,)))
        assert field.step is not None
        assert isinstance(assert_same_hamiltonian(field, PhaseState(0.0, q0, v0), cfg), list)

    @pytest.mark.parametrize("m", [1.0, -1.0, 2.0, 0.5, 1.37])
    @pytest.mark.parametrize("source", CONSTANT_MASS_DIM1)
    def test_constant_masses(self, m, source):
        init, cfg = MechState(0.0, (0.7,), (-0.4,)), IntegratorConfig(0.1, 0.0, 3.0)
        got, step = same_regular(source, {**PARAMS, "m": m}, init, cfg)
        assert isinstance(got, list)
        # the pivot test is decided when the step is built; the residual test stays where it can fail
        assert ("SingularMass" in step.__code__.co_names) is (m in (0.5, 1.37))
        field = make_field(source, {**PARAMS, "m": m}, init, kappa0=1.3)
        assert isinstance(assert_same_hamiltonian(field, PhaseState(0.0, 0.7, -0.4), cfg), list)

    # the second mass tree is the bare symbol q, an argument that the solve's text reads as `a`
    @pytest.mark.parametrize("source", ["0.5*(2 + q^2)*qd^2 - 0.5*q^2", "0.5*qd*qd*q - 0.5*q*q"])
    def test_a_varying_mass_keeps_the_solve(self, source):
        got, step = same_regular(source, {}, MechState(0.0, (0.7,), (-0.4,)), IntegratorConfig(0.1, 0.0, 1.0))
        assert isinstance(got, list) and "SingularMass" in step.__code__.co_names

    def test_the_residual_test_of_a_constant_half_mass_fails(self):
        # b = -1e308 gives b/0.5 = -inf, and a*x - b = -inf: the solve's residual test raises
        got, _ = same_regular("0.25*qd^2 - 1e308*q", {}, MechState(0.0, (0.0,), (0.0,)), IntegratorConfig(0.1, 0.0, 1.0))
        assert got == (SingularMass, "solve residual inf exceeds contract bound")

    def test_a_stage_overflow_blows_up(self):
        # the third stage's q is about -1e198, so the products of g = -4e200 q^3 overflow to inf
        source, init, cfg = "0.5*qd^2 - 1e200*q*q*q*q", MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.1, 0.0, 1.0)
        got, _ = same_regular(source, {}, init, cfg)
        assert got == (StepBlowUp, "state magnitude exceeded 1e+12 at t=0.1")
        field = make_field(source, {}, init)
        assert assert_same_hamiltonian(field, PhaseState(0.0, 1.0, 0.0), cfg) == got

    def test_a_fast_path_raise_falls_back_to_the_helper_step(self):
        # g = 1 - 2e4*1e-300*exp(2e4*q) is 1.0 until the third stage puts q at 0.0625, where
        # exp overflows inline; the step built on the helpers raises the kernel's DomainError
        source, init, cfg = "0.5*qd^2 + q - 1e-300*exp(2e4*q)", MechState(0.0, (0.0,), (0.0,)), IntegratorConfig(0.5, 0.0, 2.0)
        got, step = same_regular(source, {}, init, cfg)
        assert got == (DomainError, "exp overflowed") and "_h_slow" in step.__code__.co_names
        field = make_field(source, {}, init)
        assert assert_same_hamiltonian(field, PhaseState(0.0, 0.0, 0.0), cfg) == got

    def test_the_oscillator_steps_hold_no_guard(self):
        source, init = "0.5*m*qd^2 - 0.5*k*q^2", MechState(0.0, (1.0,), (0.0,))
        steps = (same_regular(source, PARAMS, init, IntegratorConfig(0.1, 0.0, 1.0))[1], make_field(source, PARAMS, init).step)
        for step in steps:
            names = set(step.__code__.co_names) | set(step.__globals__.get("_f", step).__code__.co_names)
            assert not names & {"SingularMass", "DegenerateJacobian", "_h_not_real"}


@pytest.mark.parametrize(
    "source,probe,timed",
    [
        ("0.5*m*qd^2 - 0.5*k*q^2", MechState(0.0, (1.0,), (0.0,)), False),
        ("0.5*m*(qd1^2 + qd2^2 + qd3^2) + 0.2*qd1*qd3 - 0.5*k*(q1^2 + q2^2 + q3^2)", MechState(0.0, (1.0,) * 3, (0.0,) * 3), False),
        ("0.5*m*qd^2 - 0.5*k*q^2 + 0.3*t*q*qd", MechState(0.0, (1.0,), (0.0,)), True),
        ("0.5*m*(qd1^2 + qd2^2) - 0.5*k*(q1^2 + q2^2) + 0.2*i*t*q1*q2", MechState(0.0, (1.0,) * 2, (0.0,) * 2), True),
        ("0.5*m*qd^2 - sqrt(q)", MechState(0.0, (1.0,), (0.0,)), True),  # the guard names the state, t too
    ],
)
def test_a_stage_sets_t_only_where_it_is_read(source, probe, timed):
    eom = derive_eom(ComplexLagrangian(parse(source), 1.0, dim=len(probe.q), params=PARAMS), probe)
    assert ("t" in eom.maps.step.__code__.co_varnames) is timed


def test_invert_reads_the_last_sample_body():
    lagr = ComplexLagrangian(parse("0.5*m*qd^2 + 0.3*q*qd - 0.5*q^2"), 1.0, params={"m": 2.0})
    field = HamiltonianField(lagr, derive_eom(lagr, MechState(0.0, (1.0,), (1.0,))))
    inverse = compile_expr(field._phase_trees[:2], ("t", "q", "p"), real=True)
    for q, p in ((0.3, 1.0), (-1.2, 0.4), (math.pi, -2.0)):
        assert field.invert(0.0, q, p) == inverse(0.0, q, p)[0]


def _rk4(
    stage: Callable[[float, list[float], list[float]], list[float]],
    t: float,
    y: list[float],
    dt: float,
    k1: list[float],
) -> list[float]:
    """One RK4 step of a list state from its first-stage slope k1.

    `stage(t, y, k)` is the slope at (t, y); k, the previous stage's slope,
    seeds the closure's Newton solve.
    """
    h2 = dt / 2
    k2 = stage(t + h2, [a + h2 * b for a, b in zip(y, k1)], k1)
    k3 = stage(t + h2, [a + h2 * b for a, b in zip(y, k2)], k2)
    k4 = stage(t + dt, [a + dt * b for a, b in zip(y, k3)], k3)
    h6 = dt / 6
    return [
        a + h6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _listed(
    kind: str, sample: Callable, stage: Callable, y: list[float], dim: int, cfg: IntegratorConfig
) -> Trajectory:
    """The samples of a list state y whose first `dim` entries are q: `sample(t, y)` gives
    (qd, p, residual, slope) there, and the slope starts `_rk4`'s step with `stage`."""
    t_grid, dt, n = _grid(cfg)
    q_out, qd_out, p_out = (np.empty((n + 1, dim)) for _ in range(3))
    res_out = np.empty(n + 1)
    for k, t in enumerate(memoryview(t_grid)):
        _check_finite(y, t)
        qd, p_out[k], res_out[k], slope = sample(t, y)
        q_out[k], qd_out[k] = y[:dim], qd
        if k < n:
            y = _rk4(stage, t, y, dt, slope)
    return Trajectory(kind, dt, t_grid, q_out, qd_out, p_out, res_out)


def _dot(row, x) -> float:
    return sum(r * v for r, v in zip(row, x))


def test_float_sum_is_a_plain_left_fold():
    # `_dot`, `_el_terms` and `_solver(n)`'s back substitution add with `sum`, while the
    # generated steps and `_solve_plan` write `0 + ...`: they agree bit for bit only where
    # float `sum` is a left fold, as on CPython up to 3.11 (3.12 compensates for rounding)
    terms = (1e16, 1.0, -1e16)
    folded = 0
    for v in terms:
        folded = folded + v
    assert (sum(terms), folded) == (0.0, 0.0), (
        f"sum((1e16, 1.0, -1e16)) is {sum(terms)!r} and 0 + 1e16 + 1.0 + -1e16 is {folded!r}: "
        "this interpreter's float sum is not a left fold, so the bitwise claims and the byte goldens do not hold"
    )


def _eliminate(a: list[list[float]], x: list[float]) -> list[tuple[float, float]]:
    """Forward elimination with partial pivoting, in place, as `solve_linear` did
    before the generated step eliminated a constant mass matrix at compile time."""
    n = len(a)
    scale = [max(map(abs, row), default=0.0) for row in a]
    pivots = []
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        pivot = a[piv][k]
        pivots.append((pivot, scale[piv]))
        if pivot == 0.0:
            return pivots
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            x[k], x[piv] = x[piv], x[k]
            scale[k], scale[piv] = scale[piv], scale[k]
        top = a[k]
        for j in range(k + 1, n):
            row = a[j]
            m = row[k] / pivot
            if m != 0.0:
                for i in range(k, n):
                    row[i] -= m * top[i]
                x[j] -= m * x[k]
    return pivots


def _solve_linear(A, b) -> list[float]:
    """`solve_linear` above one coordinate, with both of its SingularMass checks."""
    a0 = [[float(v) for v in row] for row in A]
    b0 = [float(v) for v in b]
    a = [row[:] for row in a0]
    x = b0[:]
    for pivot, row_scale in _eliminate(a, x):
        if _singular(pivot, row_scale):
            raise SingularMass(f"pivot {pivot!r} below 1e-13 of row scale {row_scale!r}")
    n = len(x)
    out = [0.0] * n
    for k in range(n - 1, -1, -1):
        out[k] = (x[k] - _dot(a[k][k + 1 :], out[k + 1 :])) / a[k][k]
    residual = max((abs(_dot(row, out) - bk) for row, bk in zip(a0, b0)), default=0.0)
    if residual > 1e-10 * (1.0 + max(map(abs, b0), default=0.0)):
        raise SingularMass(f"solve residual {residual!r} exceeds contract bound")
    return out


def _solution(solve) -> bytes | tuple:
    """A solve's solution as bytes with every NaN made one NaN, or its exception's type and text.

    CPython 3.11 picks the NaN of `x + y` or `x * y` with two NaN operands one
    way in the generic float operations and the other in the specialised ones
    that warm bytecode switches to, so the same loop on the same input can
    return a NaN of either sign; every other bit is compared."""
    try:
        out = np.array(solve())
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)
    return np.where(np.isnan(out), np.nan, out).tobytes()


SOLVE_ENTRY = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-14, 1e300, 1e308, -1e308, math.inf, -math.inf, math.nan)),
    st.floats(-1e3, 1e3),
)


@given(
    system=st.integers(2, 4).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(SOLVE_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(SOLVE_ENTRY, min_size=n, max_size=n),
        )
    )
)
@example(system=([[1.0, 2.0, 0.5], [4.0, 1.0, 1.0], [2.0, 3.0, 5.0]], [1.0, 2.0, 3.0]))  # rows 1 and 2 swap at k = 0
@example(system=([[math.nan, 1.0], [1.0, 2.0]], [1.0, 1.0]))  # a NaN pivot is not singular: NaN throughout
@example(system=([[2.0, 1.0], [4.0, 2.0]], [1.0, 1.0]))  # 1 - 0.5*2 leaves an exactly zero pivot at k = 1
@example(system=([[1e308, 1e308], [-1e308, 1e308]], [1.0, 1.0]))  # 1e308 + 1e308 overflows; the residual check fails
@example(system=([[1.0, 1.0], [0.0, 1.0]], [-0.0, -0.0]))  # -0.0 - (0 + 1.0*-0.0) is -0.0
@example(system=([[0.1, 3.0], [7e5, 0.1]], [9.7e5, 1e6]))  # a residual of 1.16e-10 passes the full test alone
@example(system=([[1.0, 0.371], [1.0, 0.371000000003]], [-1.478, 1.664]))  # the residual 2.7e-5 raises
@settings(max_examples=400, deadline=None)
def test_generated_solve_is_the_elimination_loop(system):
    """`solve_linear`, now the generated `_solver(n)`, against the loop it replaced:
    the same solution bytes, or the same exception type and text."""
    matrix, rhs = system
    want = _solution(lambda: _solve_linear(matrix, rhs))
    assert _solution(lambda: solve_linear(matrix, rhs)) == want
    assert _solution(lambda: _solver(len(rhs))(*sum(matrix, []), *rhs)) == want


def _accel(maps, t: float, q: list[float], qd: list[float]):
    """(qdd, (f, g, A, f_q, f_t)): A qdd = g - (df/dq) qd - df/dt from one kernel call."""
    vals = maps(t, q, qd)
    _, g, A, f_q, f_t = vals
    return _solve_linear(A, [g[a] - _dot(f_q[a], qd) - f_t[a] for a in range(len(g))]), vals


def reference_list_regular(eom, init: MechState, cfg: IntegratorConfig) -> Trajectory:
    """A regular flow on the list state q + qd: one kernel call and one elimination per stage."""
    maps, n_dim = eom.maps, eom.dim

    def sample(t: float, y: list[float]):
        q, qd = y[:n_dim], y[n_dim:]
        qdd, vals = _accel(maps, t, q, qd)
        return qd, vals[0], max(_el_terms(vals, qd, qdd)), qd + qdd

    def deriv(t: float, y: list[float], _) -> list[float]:
        q, qd = y[:n_dim], y[n_dim:]
        return qd + _accel(maps, t, q, qd)[0]

    return _listed(SECOND_ORDER, sample, deriv, [*init.q, *init.qd], n_dim, cfg)


def reference_closure(eom, init: MechState, cfg: IntegratorConfig) -> Trajectory:
    """A closure on the list state q: one damped Newton per stage, seeded by the last slope."""
    maps, mass, guess, n_dim = eom.maps, eom.closure_mass, list(init.qd), eom.dim

    def solve(t: float, q: list[float], guess: list[float]) -> tuple[list[float], list[float]]:
        """(qd, f) with f = mass*qd, by the Newton from `guess`."""
        out = _newton_solver(n_dim)(maps.newton, ClosureInconsistent, t, *q, *(0.0,) * n_dim, *mass, *guess)
        return list(out[:n_dim]), list(out[n_dim:])

    def sample(t: float, q: list[float]):
        """qd with f = mass*qd, starting from the last sample's, and p = f there."""
        nonlocal guess
        guess, p = solve(t, q, guess)
        return guess, p, max(_closure_terms(p, mass, guess)), guess

    def vel(t: float, q: list[float], guess: list[float]) -> list[float]:
        return solve(t, q, guess)[0]

    return _listed(CLOSURE, sample, vel, list(init.q), eom.dim, cfg)


def _trajectory_columns(traj: Trajectory) -> tuple[np.ndarray, ...]:
    return traj.t, traj.q, traj.qd, traj.p, traj.el_residual


def assert_same_list_state(source: str, params: dict, init: MechState, cfg: IntegratorConfig, mass=None):
    """`integrate` against `_listed`: every column equal, or the same exception type and text."""
    lagr = ComplexLagrangian(parse(source), 1.0, dim=len(init.q), params=params)
    eom = derive_eom(lagr, init, mass)
    reference = reference_list_regular if mass is None else reference_closure
    runs = []
    for run in (integrate, reference):
        try:
            runs.append(run(eom, init, cfg))
        except Exception as err:  # noqa: BLE001 - the type and text are compared
            runs.append((type(err), str(err)))
    got, want = runs
    if isinstance(want, tuple):
        assert got == want
        return got
    assert got.kind == want.kind and got.h == want.h
    for a, b in zip(_trajectory_columns(got), _trajectory_columns(want)):
        assert np.array_equal(a, b) and a.tobytes() == b.tobytes()
    return got


LIST_REGULAR = {
    "coupled_dim2": (
        "0.5*m*(qd1^2 + qd2^2) - 0.5*k*(q1^2 + q2^2) + (0.3 + 0.2*i)*q1*qd2 + 0.1*cos(q1)*qd1^2 + 0.05*i*qd2^4",
        MechState(0.0, (0.5, -0.3), (0.2, 0.1)),
    ),
    "time_dependent_dim2": (
        "0.5*(1 + 0.1*t)*(qd1^2 + m*qd2^2) - k*q1*q2 + (0.2*t + 0.1*i)*q1*qd2 + 0.3*i*sin(q2)*qd1",
        MechState(0.0, (0.4, 0.7), (-0.5, 0.3)),
    ),
    "coupled_dim3": (
        "0.5*m*(qd1^2 + qd2^2 + qd3^2) - 0.5*k*(q1^2 + q2^2 + q3^2) + (0.3 + 0.2*i)*q1*qd2"
        " + 0.1*cos(q3)*qd1^2 + 0.05*i*qd3^4",
        MechState(0.0, (0.5, -0.3, 0.2), (0.2, 0.1, -0.4)),
    ),
    "varying_mass_dim3": (
        "0.5*(2 + cos(q1))*qd1^2 + 0.5*m*(qd2^2 + qd3^2) + 0.2*qd1*qd3 - k*(q1^2 + q2*q3) + 0.1*i*q2*qd3",
        MechState(0.0, (0.3, -0.6, 0.9), (0.1, 0.0, -0.2)),
    ),
}

LIST_CLOSURE = {
    "inverted_dim1": ("0.5*i*(m*qd^2 - k*q^2)", MechState(0.0, (1.0,), (1.0,)), (-1.0,)),
    "quartic_dim1": ("0.5*i*qd^2 - 0.5*i*k*q^2 + 0.1*qd^4 - 0.2*i*t*q", MechState(0.0, (0.5,), (0.0,)), (-1.1,)),
    "quartic_dim2": (
        "0.5*i*(qd1^2 + qd2^2) - 0.5*i*k*(q1^2 + q2^2) + 0.1*qd1^4 + 0.1*qd2^4 - 0.1*i*cos(q1)",
        MechState(0.0, (0.5, -0.3), (0.0, 0.0)),
        (-1.1, -0.9),
    ),
    "quartic_dim3": (
        "0.5*i*(qd1^2 + qd2^2 + qd3^2) - 0.5*i*k*(q1^2 + q2^2 + q3^2) + 0.1*(qd1^4 + qd2^4 + qd3^4)"
        " - 0.1*i*cos(q1)*q3",
        MechState(0.0, (0.5, -0.3, 0.2), (0.0, 0.0, 0.0)),
        (-1.1, -0.9, -1.0),
    ),
    # A = 3*qd^2 - 3 vanishes at the initial qd = +-1, where f = m*qd has three roots: the loop's Newton
    # starts from qd = +-1 and finds the outer one, near +-1.04; from 0 it would find the middle one, near -0.1
    "warm_root_dim1": ("0.5*i*(qd^2 - k*q^2) + 0.25*qd^4 - 1.5*qd^2 - 0.2*i*t*q", MechState(0.0, (0.1,), (1.0,)), (-2.0,)),
    "warm_root_dim2": (
        "0.5*i*(qd1^2 + qd2^2) - 0.5*i*k*(q1^2 + q2^2) + 0.25*(qd1^4 + qd2^4) - 1.5*(qd1^2 + qd2^2) - 0.1*i*cos(q1)",
        MechState(0.0, (0.1, -0.05), (1.0, -1.0)),
        (-2.0, -2.2),
    ),
}


# Mass matrices that fold to constants, which the step eliminates at compile time
CONSTANT_MASS = {
    # a 1 <-> 2 row swap at the first pivot, then a multiplier of exactly zero for row 3
    "swapped_dim3": (
        "0.05*qd1^2 + 0.8*qd1*qd2 + 0.5*qd2^2 + 0.3*qd2*qd3 + 0.5*qd3^2 - 0.5*k*(q1^2 + q2^2 + q3^2)"
        " + 0.2*i*q1*qd3",
        MechState(0.0, (0.5, -0.3, 0.2), (0.2, 0.1, -0.4)),
    ),
    # two blocks: the second rests at q = 0 with qd3 = -0.0, a zero that `x - 0.0*y`
    # turns to +0.0 where y < 0, so every skipped zero multiplier shows in its bytes
    "block_diagonal_dim4": (
        "0.05*qd1^2 + 0.8*qd1*qd2 + 0.5*qd2^2 + 0.5*qd3^2 + 0.3*qd3*qd4 + 0.5*m*qd4^2"
        " - 0.5*k*(q1^2 + q2^2 + q3^2 + q4^2) + (0.4 + 0.3*i)*q1*qd2",
        MechState(0.0, (0.5, -0.3, 0.0, 0.0), (0.2, 0.1, -0.0, 0.0)),
    ),
    # df/dq, df/dt and an explicitly time-dependent force are all nonzero
    "time_dependent_dim2": (
        "0.5*(qd1^2 + m*qd2^2) + 0.2*qd1*qd2 - 0.5*k*(q1^2 + q2^2) + 0.3*t*q1*qd2 + 0.4*q2*qd1"
        " + 0.2*sin(t)*q2 + 0.1*i*t*q1^2",
        MechState(0.0, (0.4, 0.7), (-0.5, 0.3)),
    ),
}


def _solves_at_run_time(source: str, params: dict, init: MechState) -> bool:
    """Whether the system's generated step calls the generated solve `_solver(n)`, or runs a compile-time plan."""
    eom = derive_eom(ComplexLagrangian(parse(source), 1.0, dim=len(init.q), params=params), init)
    return _solver(eom.dim).__name__ in eom.maps.step.__code__.co_names


@pytest.mark.parametrize("name", LIST_REGULAR)
def test_list_regular_step_matches_the_list_loop(name):
    source, init = LIST_REGULAR[name]
    traj = assert_same_list_state(source, {"m": 1.3, "k": 0.8}, init, IntegratorConfig(0.05, 0.0, 2.0))
    assert traj.kind == SECOND_ORDER and traj.dim == len(init.q)
    assert _solves_at_run_time(source, {"m": 1.3, "k": 0.8}, init)  # every A here varies


@pytest.mark.parametrize("name", CONSTANT_MASS)
def test_constant_mass_step_matches_the_list_loop(name):
    source, init = CONSTANT_MASS[name]
    traj = assert_same_list_state(source, {"m": 1.3, "k": 0.8}, init, IntegratorConfig(0.05, 0.0, 2.0))
    assert traj.kind == SECOND_ORDER and traj.dim == len(init.q)
    assert not _solves_at_run_time(source, {"m": 1.3, "k": 0.8}, init)
    if name == "block_diagonal_dim4":
        assert np.signbit(traj.qd[:, 2]).all() and not traj.q[:, 2:].any()


@pytest.mark.parametrize("name", LIST_CLOSURE)
@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
def test_closure_step_matches_the_list_loop(name):
    source, init, mass = LIST_CLOSURE[name]
    traj = assert_same_list_state(source, {"m": 1.0, "k": 1.0}, init, IntegratorConfig(0.05, 0.0, 2.0), mass)
    assert traj.kind == CLOSURE and traj.dim == len(init.q)


@given(
    quartic=st.floats(0.05, 0.5),
    mass=st.floats(-2.0, 2.0).filter(lambda m: abs(m) >= 0.1),
    k=st.floats(-1.0, 1.0),
    drift=COEFFICIENT,
    q0=st.floats(-1.0, 1.0),
    qd0=st.floats(-2.0, 2.0),
)
# f = m*qd is qd^3 - qd + 0.1 = 0 at the start, with roots near -1.05, 0.10 and 0.95: from qd = 1.2 the
# Newton finds 0.95, from 0 it would find 0.10
@example(quartic=0.25, mass=1.0, k=-1.0, drift=0.0, q0=0.1, qd0=1.2)
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
def test_closure_loop_starts_from_the_initial_velocity(quartic, mass, k, drift, q0, qd0):
    # A = 12*quartic*qd^2 vanishes at the probe's qd = 0; the run starts from qd0
    source = f"0.5*i*(qd^2 - k*q^2) + {quartic!r}*qd^4 + {drift!r}*i*t*q"
    try:
        eom = _derived(source, MechState(0.0, (q0,), (0.0,)), (mass,), {"k": k})
    except ClosureInconsistent:
        assume(False)
    assert eom.maps.closure(eom.closure_mass)[0] is None
    got, want = _both(eom, MechState(0.0, (q0,), (qd0,)), IntegratorConfig(0.1, 0.0, 2.0))
    assert got == want


class TestListErrorParity:
    def test_step_blow_up(self):
        source = "0.5*(qd1^2 + qd2^2) + q1^4 + q2^4 + 0.1*i*q1*qd2"
        got = assert_same_list_state(source, {}, MechState(0.0, (1.0, -0.5), (0.0, 0.2)), IntegratorConfig(0.01, 0.0, 5.0))
        assert got[0] is StepBlowUp

    def test_step_blow_up_with_a_constant_mass(self):
        source = "0.5*(qd1^2 + qd2^2 + qd3^2) + 0.2*qd1*qd3 + q1^4 + q2^4 + q3^4 + 0.1*i*q1*q2"
        init = MechState(0.0, (1.0, -0.5, 0.3), (0.0, 0.2, 0.0))
        got = assert_same_list_state(source, {}, init, IntegratorConfig(0.01, 0.0, 5.0))
        assert got[0] is StepBlowUp and not _solves_at_run_time(source, {}, init)

    def test_guarded_domain_error_at_the_third_stage(self):
        # q1 + h2*qd1 stays above 0, q1 + h2*(qd1 + h2*qdd1) does not: sqrt(q1) turns complex
        source = "0.5*(qd1^2 + qd2^2) + 0.2*qd1*qd2 - sqrt(q1) - 0.5*k*q2^2 + 0.1*i*q1*q2"
        init = MechState(0.0, (0.0500001, 0.3), (-1.0, 0.2))
        got = assert_same_list_state(source, {"k": 1.0}, init, IntegratorConfig(0.1, 0.0, 1.0))
        assert got[0] is DomainError and got[1].startswith("real map 2 took the complex value")
        assert " at t=0.05, q1=-" in got[1]  # stage 2 has t=0.05 too, but q1 = 1e-7
        assert not _solves_at_run_time(source, {"k": 1.0}, init)

    @pytest.mark.parametrize(
        "source,init,message",
        [
            # q1 = 0 keeps q2's force at exactly 1 for two stages, so q2 = -1.0625 + 0.25*(0.25*1.0)
            # is exactly -1 at the third: the inline division raises, and the helper step names it
            ("0.5*(qd1^2 + qd2^2) + q2 + 1e-3*q1/(q2 + 1)", MechState(0.0, (0.0, -1.0625), (0.0, 0.0)), "division by zero"),
            # q2 = 0 at the first two stages and 0.0625 at the third, where 2e4*q2 passes exp's 709.78
            ("0.5*(qd1^2 + qd2^2) + q2 + q1*exp(2e4*q2)", MechState(0.0, (0.0, 0.0), (0.0, 0.0)), "exp overflowed"),
        ],
    )
    def test_helper_domain_error_at_the_third_stage(self, source, init, message):
        got = assert_same_list_state(source, {}, init, IntegratorConfig(0.5, 0.0, 2.0))
        assert got == (DomainError, message)

    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
    def test_closure_step_blow_up(self):
        # f = -k*q = -qd makes qd = q, so q = e^t passes 1e12 near t = 27.63
        source, init = "0.5*i*(m*qd^2 - k*q^2)", MechState(0.0, (1.0,), (1.0,))
        got = assert_same_list_state(source, {"m": 1.0, "k": 1.0}, init, IntegratorConfig(0.05, 0.0, 30.0), (-1.0,))
        assert got == (StepBlowUp, "state magnitude exceeded 1e+12 at t=27.650000000000002")

    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
    def test_closure_inconsistent(self):
        # the root qd1 of 0.4*qd1^3 + q1 = 1.2*qd1 near 0 is gone once q1 passes 0.8
        source = "0.5*i*(qd1^2 + qd2^2) + 0.1*(qd1^4 + qd2^4) + 0.5*i*q1^2 - 0.5*i*k*q2^2"
        init = MechState(0.0, (0.5, -0.3), (0.0, 0.0))
        got = assert_same_list_state(source, {"k": 1.0}, init, IntegratorConfig(0.05, 0.0, 2.0), (1.2, -0.9))
        assert got[0] is ClosureInconsistent


def _derived(source: str, probe: MechState, mass=None, params=None):
    """The system of `source` derived at `probe`, so that a run can start where no derive could."""
    return derive_eom(ComplexLagrangian(parse(source), 1.0, dim=len(probe.q), params=params or {}), probe, mass)


def _both(eom, init: MechState, cfg: IntegratorConfig):
    """`integrate`'s outcome and its reference loop's: the stage loop at one coordinate, else `_listed`."""
    if eom.closure_mass is not None:
        reference = reference_closure
    else:
        reference = reference_regular if eom.dim == 1 else reference_list_regular
    return outcome(lambda: integrate(eom, init, cfg)), outcome(lambda: reference(eom, init, cfg))


TEN_STEPS = IntegratorConfig(1.0, 0.0, 10.0)
# (q0, v0, the t of the blow-up): beyond the limit at the first sample, or a speed that passes
# it at the last sample alone, which takes no step
BLOW_UPS = [(2e12, 0.0, "0.0"), (0.0, 1.05e11, "10.0")]
# g = 4e300 q^3 - (the product rule's sum for q*q*q*q): inf - inf, NaN, from q = 1e3, so the
# state after the first step is NaN, though never beyond the limit
NAN_FORCE = "1e300*q^4 - 1e300*q*q*q*q"


def _blown(at: str) -> tuple:
    return StepBlowUp, f"state magnitude exceeded 1e+12 at t={at}"


class TestSampleLoopBlowUps:
    """The generated loop's blow-up test against the reference loops' `_check_finite`, by type and text."""

    @pytest.mark.parametrize("q0, v0, at", BLOW_UPS)
    def test_float_states(self, q0, v0, at):
        eom = _derived("0.5*qd^2 + 1e-3*q", MechState(0.0, (1.0,), (1.0,)))
        assert _both(eom, MechState(0.0, (q0,), (v0,)), TEN_STEPS) == (_blown(at), _blown(at))
        field = make_field("0.5*qd^2 + 1e-3*q", {}, MechState(0.0, (1.0,), (1.0,)))
        assert field.step is not None
        assert assert_same_hamiltonian(field, PhaseState(0.0, q0, v0), TEN_STEPS) == _blown(at)

    @pytest.mark.parametrize("q0, v0, at", BLOW_UPS)
    def test_list_states(self, q0, v0, at):
        eom = _derived("0.5*(qd1^2 + qd2^2) + 1e-3*q1*q2", MechState(0.0, (1.0, 0.5), (1.0, 0.0)))
        assert _both(eom, MechState(0.0, (0.5, q0), (0.0, v0)), TEN_STEPS) == (_blown(at), _blown(at))

    def test_nan_states(self):
        eom = _derived(f"0.5*qd^2 + {NAN_FORCE}", MechState(0.0, (1.0,), (0.0,)))
        assert math.isnan(eom.maps.kernel(0.0, 1e3, 0.0)[1])
        assert _both(eom, MechState(0.0, (1e3,), (0.0,)), TEN_STEPS) == (_blown("1.0"), _blown("1.0"))
        field = make_field(f"0.5*qd^2 + {NAN_FORCE}", {}, MechState(0.0, (1.0,), (0.0,)))
        assert assert_same_hamiltonian(field, PhaseState(0.0, 1e3, 0.0), TEN_STEPS) == _blown("1.0")
        source = "0.5*(qd1^2 + qd2^2) + 1e-3*q1*q2 + " + NAN_FORCE.replace("q", "q2")
        eom = _derived(source, MechState(0.0, (0.5, 1.0), (0.0, 0.0)))
        assert _both(eom, MechState(0.0, (0.5, 1e3), (0.0, 0.0)), TEN_STEPS) == (_blown("1.0"), _blown("1.0"))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
    def test_closed_form_closures(self, dim):
        # qd = q, so q = e^t passes 1e12 at the grid's last sample, t = 27.65, and not before
        source = "0.5*i*(qd^2 - q^2)" if dim == 1 else "0.5*i*(qd1^2 + qd2^2 - q1^2 - q2^2)"
        probe, mass = MechState(0.0, (1.0,) * dim, (1.0,) * dim), (-1.0,) * dim
        eom = _derived(source, probe, mass)
        assert eom.maps.closure(mass)[0] is not None
        assert _both(eom, probe, IntegratorConfig(0.05, 0.0, 27.65)) == (_blown("27.65"), _blown("27.65"))
        # the closed form qd = -f(q, 0)/(0 - mass) is NaN from q1 = 1e3, where the Newton
        # reference stalls instead, so only the loop's own outcome is pinned
        source = f"i*(0.5*qd^2 + {NAN_FORCE})" if dim == 1 else f"i*(0.5*qd1^2 + 0.5*qd2^2 + q2 + {NAN_FORCE.replace('q', 'q1')})"
        eom = _derived(source, MechState(0.0, (1.0,) * dim, (0.0,) * dim), mass)
        assert eom.maps.closure(mass)[0] is not None
        init = MechState(0.0, (1e3,) + (1.0,) * (dim - 1), (0.0,) * dim)
        assert outcome(lambda: integrate(eom, init, TEN_STEPS)) == _blown("1.0")

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
    def test_newton_closures_on_a_nan_force(self, dim):
        # the same NaN force where A varies: the Newton's residual is NaN at the first sample, so its
        # line search stalls there, and no state goes NaN. The closed form above has no residual to
        # test: its NaN qd moves q, and the next sample's blow-up test stops the run
        if dim == 1:
            source = f"0.1*qd^4 + i*(0.5*qd^2 + {NAN_FORCE})"
        else:
            source = f"0.1*(qd1^4 + qd2^4) + i*(0.5*qd1^2 + 0.5*qd2^2 + q2 + {NAN_FORCE.replace('q', 'q1')})"
        mass = (-1.0,) * dim
        eom = _derived(source, MechState(0.0, (1.0,) * dim, (0.0,) * dim), mass)
        assert eom.maps.closure(mass)[0] is None
        init = MechState(0.0, (1e3,) + (1.0,) * (dim - 1), (0.0,) * dim)
        at = "q=[1000.0], p=[0.0]" if dim == 1 else "q=[1000.0, 1.0], p=[0.0, 0.0]"
        stalled = (ClosureInconsistent, f"Newton stalled at residual nan (t=0.0, {at})")
        assert _both(eom, init, TEN_STEPS) == (stalled, stalled)


NEWTON_FIELD = "0.25*qd^4 + 0.5*qd^2 + cos(q)"


def _newton_field() -> HamiltonianField:
    field = make_field(NEWTON_FIELD, {}, MechState(0.0, (1.0,), (1.0,)))
    assert field._qd is None
    return field


@pytest.mark.filterwarnings("ignore::clmech.lagrangian.ClosureConsistencyWarning")
class TestNewtonLoops:
    """The loops of the Newton closures and of the Newton field bind only kernels that `compile_expr`
    caches per system, so `_step`'s cache keys on the system, not on the derive."""

    @pytest.mark.parametrize("name", ["quartic_dim1", "quartic_dim2"])
    def test_two_derives_share_the_closure_loop(self, name):
        source, init, mass = LIST_CLOSURE[name]
        loops = [_derived(source, init, mass, {"k": 1.0}).maps.closure_step(mass) for _ in range(2)]
        assert loops[0] is loops[1]

    def test_two_fields_share_the_loop(self):
        assert _newton_field().step is _newton_field().step

    def test_rounds_leave_the_loop_cache_as_it_is(self):
        cfg = IntegratorConfig(0.1, 0.0, 1.0)

        def derive_and_integrate():
            for name in ("quartic_dim1", "quartic_dim2"):
                source, init, mass = LIST_CLOSURE[name]
                integrate(_derived(source, init, mass, {"k": 1.0}), init, cfg)
            integrate_hamiltonian(_newton_field(), PhaseState(0.0, 1.0, 0.2), cfg)

        derive_and_integrate()
        size = codegen._step.cache_info().currsize
        for _ in range(5):
            derive_and_integrate()
        assert codegen._step.cache_info().currsize == size

    def test_the_fields_last_sample_only_inverts(self, monkeypatch):
        field, calls = _newton_field(), []
        grads = field.step.__globals__["_grads"]
        monkeypatch.setitem(field.step.__globals__, "_grads", lambda *args: calls.append(args) or grads(*args))
        cfg = IntegratorConfig(0.1, 0.0, 1.0)
        assert isinstance(assert_same_hamiltonian(field, PhaseState(0.0, 1.0, 0.2), cfg), list)
        assert len(calls) == 4 * cfg.n_steps  # four stages a step, none at the last sample


def _counting_helper(loop, monkeypatch) -> list:
    """The t0 of each call the loop makes of its helper-built per-sample step."""
    calls, build = [], loop.__globals__["_h_slow"]

    def counted(*args):
        calls.append(args[0])
        return build()(*args)

    monkeypatch.setitem(loop.__globals__, "_h_slow", lambda: counted)
    return calls


class TestHelperFallback:
    """A sample whose inline operation raises is taken again, alone, on the helper-built step.

    No input makes an inline operation raise where its helper returns a value: the only
    candidate, `_domain_pow`'s branch for a ValueError, is not reached, since no float or
    complex power raises one. So the helper step raises too, and the tests pin that it runs
    once, at a sample after the first, with the reference loops' error."""

    def test_float_states(self, monkeypatch):
        # q = t^2/2 passes 709.78/2e4 near t = 0.27, where exp overflows inline
        source, init, cfg = "0.5*qd^2 + q - 1e-300*exp(2e4*q)", MechState(0.0, (0.0,), (0.0,)), IntegratorConfig(0.05, 0.0, 2.0)
        eom = _derived(source, init)
        calls = _counting_helper(eom.maps.step, monkeypatch)
        assert _both(eom, init, cfg) == ((DomainError, "exp overflowed"),) * 2
        assert len(calls) == 1 and calls[0] > 0.0
        field = make_field(source, {}, init)
        calls = _counting_helper(field.step, monkeypatch)
        assert assert_same_hamiltonian(field, PhaseState(0.0, 0.0, 0.0), cfg) == (DomainError, "exp overflowed")
        assert len(calls) == 1 and calls[0] > 0.0

    def test_list_states(self, monkeypatch):
        source = "0.5*(qd1^2 + qd2^2) + 0.2*qd1*qd2 + q1 - 1e-300*exp(2e4*q1) + 1e-3*q2"
        init, cfg = MechState(0.0, (0.0, 0.5), (0.0, 0.0)), IntegratorConfig(0.05, 0.0, 2.0)
        eom = _derived(source, init)
        calls = _counting_helper(eom.maps.step, monkeypatch)
        assert _both(eom, init, cfg) == ((DomainError, "exp overflowed"),) * 2
        assert len(calls) == 1 and calls[0] > 0.0

    def test_invert_falls_back_on_its_own(self):
        # f = qd + exp(q) is affine in qd; the sample head `_f` overflows exp inline at q = 800
        field = make_field("0.5*qd^2 + qd*exp(q)", {}, MechState(0.0, (0.0,), (1.0,)))
        assert field.step is not None and "_h_slow" in field.step.__globals__["_f"].__code__.co_names
        assert field.invert(0.0, 0.5, 2.0) == 2.0 - math.exp(0.5)
        with pytest.raises(DomainError, match="exp overflowed"):
            field.invert(0.0, 800.0, 1.0)
