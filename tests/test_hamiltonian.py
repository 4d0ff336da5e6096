import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_exprcore import TERM_TEMPLATES

import clmech.hamiltonian as hamiltonian
import clmech.lagrangian as lagrangian
from clmech.cli import main
from clmech.corpus import bundled_corpus
from clmech.dynamics import IntegratorConfig, integrate, integrate_hamiltonian
from clmech.exprcore import DomainError, parse
from clmech.hamiltonian import (
    DegenerateJacobian,
    HamiltonianField,
    InversionFailure,
    PhaseState,
    UnsupportedDimension,
    _pieces,
    flow_field,
    invert_velocity,
    k_gradients,
    legendre_H,
    mixed_partial_diagnostic,
)
from clmech.lagrangian import ComplexLagrangian, MechState, _solve_velocity_scalar, derive_eom

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

    def test_constant_zero_slope_fails(self):
        # f = -q does not depend on qd (A = 0 everywhere): p = 1 has no inverse at q = 0.5
        lagr = ComplexLagrangian(parse("0.5*i*(qd^2 - q^2)"), 1.0)
        field = HamiltonianField(lagr, derive_eom(lagr, PROBE, closure_mass=(-1.0,)))
        with pytest.raises(InversionFailure):
            field.invert(0.0, 0.5, 1.0)
        with pytest.raises(InversionFailure):
            integrate_hamiltonian(field, PhaseState(0.0, 0.5, 1.0), IntegratorConfig(0.1, 0.0, 1.0))

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

    def test_complex_lagrangian_value_is_a_domain_error(self):
        # L = 0.5 qd^2 + sqrt(q) is complex at q = -1; H must not keep its real part
        field = make_field("0.5*qd^2 + sqrt(q)")
        assert legendre_H(field, 1.0, 2.0, 0.0) == pytest.approx(1.0)  # 2*2 - (2 + 1)
        with pytest.raises(DomainError, match=r"L took the complex value .* at t=0.0, q=-1.0, p=2.0"):
            legendre_H(field, -1.0, 2.0, 0.0)
        with pytest.raises(DomainError, match="q=-1.0"):
            field.flow(0.0, -1.0, 2.0)


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


def newton_reference(field, t, q, p):
    """(qd, f, dqd/dq, dqd/dp, dL/dq, dL/dqd, dM/dq, dM/dqd, qd_flow, pd_flow)
    by the Newton inversion and the (t, q, qd) partials kernel, whatever path
    the field itself takes."""
    qd, f = _solve_velocity_scalar(field.eom.maps.newton, t, q, p, 0.0, 0.0, InversionFailure)
    f_q, slope, *grads = field._grads(t, q, qd)
    values = (qd, f, -f_q / slope, 1.0 / slope, *grads)
    dh_q, dh_p, dk_q, dk_p = _pieces(p, values, field.kappa0, field.lagr.omega0)[:4]
    return *values, dh_p - field.kappa0 * dk_q, -dh_q - dk_p / field.kappa0


def assert_closed_form_matches_newton(field, states):
    assert field._qd is not None  # the closed-form path
    for t, q, p in states:
        # dqd/dq cancels out of the flow, so the values are compared too
        got = (*field._values(t, q, p, 0.0), *field.flow(t, q, p))
        want = newton_reference(field, t, q, p)
        scale = max(1.0, *map(abs, want))
        for x, y in zip(got, want, strict=True):
            assert abs(x - y) <= 1e-12 * scale, (t, q, p)
        assert field.invert(t, q, p) == got[0]


STATES = [(0.0, 0.5, 1.0), (0.7, -0.8, 0.3), (1.9, 1.2, -2.0)]
# the templates under which the tree of A = df/dqd holds no t, q or qd:
# sqrt(1 + qd^2) makes A depend on qd, so it takes Newton
AFFINE_TEMPLATES = [
    tmpl.format(qa="q", qb="q", va="qd", vb="qd")
    for tmpl in TERM_TEMPLATES
    if not tmpl.startswith("sqrt")
]
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED_HAMILTONIAN = [sc for sc in bundled_corpus() if "hamiltonian" in sc.checks]


class TestClosedFormPath:
    @pytest.mark.parametrize("sc", BUNDLED_HAMILTONIAN, ids=lambda sc: sc.name)
    def test_bundled_fields_match_newton(self, sc):
        lagr = sc.build_lagrangian()
        field = HamiltonianField(lagr, derive_eom(lagr, sc.probe_state()), sc.kappa0)
        assert_closed_form_matches_newton(field, STATES)

    # every drawn term moves A by at most 1 (|coefficient| <= 0.5, |omega0| >= 0.7),
    # so with at most four of them A >= 2*2.5 - 4 stays away from 0
    @given(
        kinetic=st.floats(2.5, 3.5),
        terms=st.lists(
            st.tuples(st.sampled_from(AFFINE_TEMPLATES), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
            max_size=4,
        ),
        omega0=st.sampled_from((1.0, 0.7, -1.3, 2.5)),
        kappa0=st.sampled_from((0.5, 1.0, 2.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_sums_match_newton(self, kinetic, terms, omega0, kappa0):
        drawn = [f"({a!r} + {b!r}*i)*({tmpl})" for tmpl, a, b in terms]
        source = " + ".join([f"({kinetic!r} + 0.1*i)*qd*qd", "0.3*t*q", *drawn])
        assert_closed_form_matches_newton(make_field(source, omega0, kappa0=kappa0), STATES)

    def test_a_mass_tree_with_a_coordinate_keeps_newton(self):
        field = make_field("0.5*(1 + 0.1*q^2)*qd^2 - 0.5*q^2")
        assert field._qd is None
        qd, f, qd_flow, pd_flow = field._flow_at(0.7, -0.8, 0.3, 0.0)
        want = newton_reference(field, 0.7, -0.8, 0.3)
        assert (qd, f, qd_flow, pd_flow) == (*want[:2], *want[-2:])

    def test_a_parameter_named_p_takes_the_closed_form(self):
        # the parameters are folded into f and A before the momentum p is put
        # in, so the parameter p is not read as the kernel's argument
        source = "0.5*p*qd^2 - 0.5*k*q^2 + 0.1*i*p*q^2"
        field = make_field(source, params={"p": 2.0, "k": 1.5})
        assert_closed_form_matches_newton(field, STATES)
        # f = p qd + 0.2 p q at p = 2: qd = (1 - 0.4*0.3)/2
        assert field.invert(0.0, 0.3, 1.0) == pytest.approx(0.44, abs=1e-15)
        renamed = make_field(source.replace("p", "m"), params={"m": 2.0, "k": 1.5})
        cfg = IntegratorConfig(0.01, 0.0, 1.0)
        got, want = (integrate_hamiltonian(f, PhaseState(0.0, 1.0, 0.2), cfg) for f in (field, renamed))
        assert (got.q.tolist(), got.p.tolist()) == (want.q.tolist(), want.p.tolist())

    def test_kernels_compiled_per_path(self, monkeypatch):
        compiled, steps = [], []
        for module in (hamiltonian, lagrangian):
            spied = module.compile_expr
            spy = lambda trees, *a, fn=spied, **k: compiled.append(trees) or fn(trees, *a, **k)  # noqa: E731
            monkeypatch.setattr(module, "compile_expr", spy)
        spied_step = hamiltonian.compile_step
        monkeypatch.setattr(hamiltonian, "compile_step", lambda trees, *a, **k: steps.append(trees) or spied_step(trees, *a, **k))
        cfg = IntegratorConfig(0.01, 0.0, 0.5)
        affine = make_field("0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2", params={"m": 1.0, "k": 1.0, "l0": 0.1})
        integrate_hamiltonian(affine, PhaseState(0.0, 1.0, 0.2), cfg)
        # one generated step runs every sample, the last one too, and no kernel compiles
        assert compiled == [] and steps == [affine._phase_trees]
        assert affine.invert(0.0, 1.0, 0.2) == 0.2 and compiled == [] and len(steps) == 1

        quartic = make_field("0.25*qd^4 + 0.5*qd^2 + cos(q)")
        assert quartic._qd is None
        integrate_hamiltonian(quartic, PhaseState(0.0, 1.0, 0.2), cfg)
        assert compiled == [quartic.eom.f + quartic.eom.A[0], quartic._partials] and steps == [affine._phase_trees, ()]

    @pytest.mark.parametrize("sc", BUNDLED_HAMILTONIAN, ids=lambda sc: sc.name)
    def test_check_on_an_affine_field_compiles_no_velocity_kernel(self, sc, monkeypatch, capsys):
        arguments = []
        spied = hamiltonian.compile_expr
        spy = lambda trees, args, *a, **k: arguments.append(args) or spied(trees, args, *a, **k)  # noqa: E731
        monkeypatch.setattr(hamiltonian, "compile_expr", spy)
        assert main(["check", "hamiltonian", str(SCENARIOS / f"{sc.name}.json")]) == 0
        assert ("t", "q", "p") in arguments
        assert ("t", "q", "qd") not in arguments
