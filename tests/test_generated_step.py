"""The generated RK4 steps against the per-stage loops they replaced.

`_Maps.step` and `HamiltonianField.step` inline the kernel body, the 1x1
solve and the generators' arithmetic into one function per system. The
reference loops below are the earlier implementations: one `kernel` call and
one `_solve_scalar` per regular stage, one `_flow_at` per Hamiltonian stage
with `_generators` written out. Every column must be bitwise equal, and a
failing run must fail with the same exception type and text.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clmech.dynamics import (
    HAMILTONIAN,
    SECOND_ORDER,
    IntegratorConfig,
    StepBlowUp,
    Trajectory,
    _check_finite,
    _grid,
    integrate,
    integrate_hamiltonian,
)
from clmech.exprcore import DomainError, compile_expr, parse
from clmech.hamiltonian import HamiltonianField, InversionFailure, PhaseState
from clmech.lagrangian import (
    ComplexLagrangian,
    DegenerateWithoutClosure,
    MechState,
    SingularMass,
    _singular,
    _solve_velocity_scalar,
    derive_eom,
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
            return _solve_velocity_scalar(field.eom.maps.newton, t, q, p, 0.0, float(guess), InversionFailure)
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
    assert (field.step is None) == bool(quartic)
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


def test_invert_reads_the_last_sample_body():
    lagr = ComplexLagrangian(parse("0.5*m*qd^2 + 0.3*q*qd - 0.5*q^2"), 1.0, params={"m": 2.0})
    field = HamiltonianField(lagr, derive_eom(lagr, MechState(0.0, (1.0,), (1.0,))))
    inverse = compile_expr(field._phase_trees[:2], ("t", "q", "p"), real=True)
    for q, p in ((0.3, 1.0), (-1.2, 0.4), (math.pi, -2.0)):
        assert field.invert(0.0, q, p) == inverse(0.0, q, p)[0]
