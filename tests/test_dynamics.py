import math

import numpy as np
import pytest

from clmech.corpus import corpus_scenario
from clmech.dynamics import (
    CLOSURE,
    MAX_STEPS,
    SECOND_ORDER,
    IntegratorConfig,
    StepBlowUp,
    check_finite,
    integrate,
    sampled_path,
    to_csv,
)
from clmech.exprcore import DomainError, parse
from clmech.lagrangian import ComplexLagrangian, MechState, derive_eom, force

PROBE = MechState(0.0, (1.0,), (1.0,))


def oscillator(m=1.0, k=1.0):
    lagr = ComplexLagrangian(parse("0.5*m*qd^2 - 0.5*k*q^2"), 1.0, params={"m": m, "k": k})
    return lagr, derive_eom(lagr, PROBE)


class TestConfig:
    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.0, 0.0, 1.0)

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            IntegratorConfig(0.1, 2.0, 2.0)

    def test_rejects_excessive_step_count(self):
        with pytest.raises(ValueError):
            IntegratorConfig(1e-12, 0.0, 1e3)

    def test_step_bound_is_max_steps(self):
        # a plan is only checked, never allocated, so the bound costs nothing here
        assert IntegratorConfig(1.0, 0.0, float(MAX_STEPS)).n_steps == MAX_STEPS
        with pytest.raises(ValueError, match=f"plan exceeds {MAX_STEPS} steps"):
            IntegratorConfig(1.0, 0.0, MAX_STEPS + 1.0)

    @pytest.mark.parametrize(
        "plan",
        [(0.1, 0.0, math.nan), (math.inf, 0.0, 1.0), (math.nan, 0.0, 1.0), (0.1, -math.inf, 0.0), (0.1, 0.0, math.inf)],
        ids=str,
    )
    def test_rejects_nonfinite_plan(self, plan):
        with pytest.raises(ValueError, match="h, t_start and t_end must be finite"):
            IntegratorConfig(*plan)

    def test_step_snaps_to_span(self):
        cfg = IntegratorConfig(0.3, 0.0, 1.0)
        assert cfg.n_steps == 3
        assert cfg.dt == pytest.approx(1.0 / 3.0)

    def test_backward_span_gives_negative_dt(self):
        cfg = IntegratorConfig(0.1, 1.0, 0.0)
        assert cfg.dt == pytest.approx(-0.1)


class TestRegularIntegration:
    def test_oscillator_against_cosine(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(1e-3, 0.0, 10.0))
        assert traj.q[-1, 0] == pytest.approx(math.cos(10.0), abs=1e-10)
        assert traj.qd[-1, 0] == pytest.approx(-math.sin(10.0), abs=1e-10)
        assert traj.t[-1] == 10.0

    def test_damped_oscillator_against_closed_form(self):
        # real part gives m qdd = -k q - w0 l0 qd, a linearly damped oscillator
        lagr = ComplexLagrangian(
            parse("0.5*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2"),
            1.0,
            params={"m": 1.0, "k": 1.0, "l0": 0.1},
        )
        eom = derive_eom(lagr, PROBE)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(1e-3, 0.0, 10.0))
        gamma = 0.1
        wd = math.sqrt(1.0 - gamma**2 / 4.0)
        for idx in (1000, 5000, 10000):
            t = traj.t[idx]
            expect = math.exp(-gamma * t / 2) * (
                math.cos(wd * t) + (gamma / (2 * wd)) * math.sin(wd * t)
            )
            assert traj.q[idx, 0] == pytest.approx(expect, abs=1e-12)

    def test_fourth_order_convergence(self):
        _, eom = oscillator()
        errs = []
        for h in (2e-2, 1e-2):
            traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(h, 0.0, 5.0))
            errs.append(abs(traj.q[-1, 0] - math.cos(5.0)))
        assert errs[0] / errs[1] > 12.0  # halving h cuts the error ~16x

    def test_time_reversal(self):
        _, eom = oscillator()
        fwd = integrate(eom, MechState(0.0, (1.0,), (0.3,)), IntegratorConfig(1e-3, 0.0, 4.0))
        back = integrate(eom, fwd.final_state, IntegratorConfig(1e-3, 4.0, 0.0))
        assert back.q[-1, 0] == pytest.approx(1.0, abs=1e-9)
        assert back.qd[-1, 0] == pytest.approx(0.3, abs=1e-9)

    def test_el_residual_reported_small_on_solutions(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(1e-2, 0.0, 1.0))
        assert float(traj.el_residual.max()) < 1e-10

    def test_momentum_column(self):
        _, eom = oscillator(m=2.0)
        traj = integrate(eom, MechState(0.0, (1.0,), (0.5,)), IntegratorConfig(1e-2, 0.0, 1.0))
        np.testing.assert_allclose(traj.p[:, 0], 2.0 * traj.qd[:, 0], atol=1e-14)

    def test_blowup_detection(self):
        lagr = ComplexLagrangian(parse("0.5*qd^2 + 0.5*k*q^2"), 1.0, params={"k": 4.0})
        eom = derive_eom(lagr, PROBE)
        with pytest.raises(StepBlowUp):
            integrate(eom, MechState(0.0, (1.0,), (2.0,)), IntegratorConfig(1e-2, 0.0, 40.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1.0000001e12])
    def test_check_finite_rejects_nonfinite_and_huge(self, bad):
        with pytest.raises(StepBlowUp, match="t=0.5"):
            check_finite((0.0, bad), 0.5)

    def test_check_finite_accepts_the_limit(self):
        check_finite((1e12, -1e12), 0.5)


class TestClosureIntegration:
    def test_growth_branch_hits_exponential(self):
        lagr = ComplexLagrangian(
            parse("0.5*i*(m*qd^2 - k*q^2)"), 1.0, params={"m": 1.0, "k": 1.0}
        )
        eom = derive_eom(lagr, PROBE, closure_mass=(-1.0,))
        traj = integrate(eom, MechState(0.0, (1.0,), (1.0,)), IntegratorConfig(1e-3, 0.0, 1.0))
        assert traj.q[-1, 0] == pytest.approx(math.e, rel=1e-12)
        assert traj.kind == "closure"

    def test_closure_residual_small(self):
        lagr = ComplexLagrangian(
            parse("0.5*i*(m*qd^2 - k*q^2)"), 1.0, params={"m": 1.0, "k": 1.0}
        )
        eom = derive_eom(lagr, PROBE, closure_mass=(-1.0,))
        traj = integrate(eom, MechState(0.0, (1.0,), (1.0,)), IntegratorConfig(1e-3, 0.0, 1.0))
        assert float(traj.el_residual.max()) < 1e-10


class TestTrajectoryAccess:
    def test_state_round_trip(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.1, 0.0, 1.0))
        s = traj.state(3)
        assert s.t == traj.t[3]
        assert s.q[0] == traj.q[3, 0]
        assert traj.n_samples == 11
        assert traj.dim == 1

    def test_final_state(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.1, 0.0, 1.0))
        assert traj.final_state.t == 1.0


class TestSampledPath:
    def test_solution_path_has_small_residual(self):
        _, eom = oscillator()
        traj = sampled_path(
            eom,
            lambda t: np.array([np.cos(t)]),
            lambda t: np.array([-np.sin(t)]),
            IntegratorConfig(1e-2, 0.0, 2.0),
        )
        assert float(traj.el_residual.max()) < 1e-6
        assert traj.kind == SECOND_ORDER

    def test_degenerate_path_is_a_closure_path(self):
        # the residual column holds the closure residual, so the kind says so
        sc = corpus_scenario("inverted_oscillator")
        eom = derive_eom(sc.build_lagrangian(), sc.probe_state(), closure_mass=sc.closure_mass)
        traj = sampled_path(
            eom,
            lambda t: np.array([1.0 + t * t]),
            lambda t: np.array([2 * t]),
            IntegratorConfig(1e-2, 0.0, 1.0),
        )
        assert traj.kind == CLOSURE

    @pytest.mark.parametrize("name,qd_calls", [("classical_oscillator", 3), ("inverted_oscillator", 1)])
    def test_path_functions_run_once_per_column(self, name, qd_calls):
        # q on the grid; qd on the grid and, on a regular system, at t +- delta
        sc = corpus_scenario(name)
        eom = derive_eom(sc.build_lagrangian(), sc.probe_state(), closure_mass=sc.closure_mass)
        columns = {"q": [], "qd": []}

        def counted(key, fn):
            def wrapped(t):
                columns[key].append(t.shape)
                return fn(t)

            return wrapped

        sampled_path(
            eom,
            counted("q", lambda t: np.array([1.0 + t * t])),
            counted("qd", lambda t: np.array([2 * t])),
            IntegratorConfig(1e-2, 0.0, 1.0),
        )
        assert columns == {"q": [(101,)], "qd": [(101,)] * qd_calls}

    def test_non_solution_path_flagged(self):
        _, eom = oscillator()
        traj = sampled_path(
            eom,
            lambda t: np.array([t * t]),
            lambda t: np.array([2 * t]),
            IntegratorConfig(1e-2, 0.0, 2.0),
        )
        assert float(traj.el_residual.max()) > 1.0


class TestCsv:
    def test_header_and_shape(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.0,)), IntegratorConfig(0.25, 0.0, 1.0))
        lines = to_csv(traj).splitlines()
        assert lines[0] == "t,q_1,qd_1,p_1,el_residual"
        assert len(lines) == 1 + traj.n_samples

    def test_values_round_trip_exactly(self):
        _, eom = oscillator()
        traj = integrate(eom, MechState(0.0, (1.0,), (0.5,)), IntegratorConfig(0.125, 0.0, 1.0))
        row = to_csv(traj).splitlines()[3].split(",")
        assert float(row[0]) == traj.t[2]
        assert float(row[1]) == traj.q[2, 0]
        assert float(row[2]) == traj.qd[2, 0]
        assert float(row[3]) == traj.p[2, 0]

    def test_two_dof_header(self):
        lagr = ComplexLagrangian(
            parse("0.5*(qd1^2 + qd2^2) - 0.5*(q1^2 + q2^2)"), 1.0, dim=2
        )
        eom = derive_eom(lagr, MechState(0.0, (1.0, 0.0), (0.0, 1.0)))
        traj = integrate(eom, MechState(0.0, (1.0, 0.0), (0.0, 1.0)), IntegratorConfig(0.1, 0.0, 0.5))
        assert to_csv(traj).splitlines()[0] == "t,q_1,q_2,qd_1,qd_2,p_1,p_2,el_residual"


class TestDomain:
    def test_complex_force_fails_loudly(self):
        # g = 0.5/sqrt(q) is imaginary at q = -1; its real part must not be
        # taken as a zero force
        lagr = ComplexLagrangian(parse("0.5*qd^2 + sqrt(q)"), 1.0)
        start = MechState(0.0, (-1.0,), (0.0,))
        eom = derive_eom(lagr, start)
        with pytest.raises(DomainError):
            force(eom, start)
        with pytest.raises(DomainError):
            integrate(eom, start, IntegratorConfig(0.01, 0.0, 1.0))
