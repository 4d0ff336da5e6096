import copy
import hashlib
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import clmech
from clmech.cli import main
from clmech.corpus import CORPUS_DICTS, bundled_corpus, corpus_scenario
from clmech.dynamics import StepBlowUp, integrate
from clmech.equivalence import GaugeDependsOnVelocity
from clmech.exprcore import (
    DomainError,
    ExprError,
    ExprSyntaxError,
    UnboundSymbol,
    UnknownFunction,
)
from clmech.hamiltonian import DegenerateJacobian, InversionFailure, UnsupportedDimension
from clmech.lagrangian import (
    ClosureConsistencyWarning,
    ClosureInconsistent,
    DegenerateWithoutClosure,
    InvalidParameter,
    MechState,
    SingularMass,
    UndeclaredSymbol,
    UnneededClosureMass,
    derive_eom,
)
from clmech.lanes import _LaneFailure
from clmech.scenario import Scenario, ScenarioError
from clmech.variational import BadSampling, LengthMismatch
from clmech.suites import even_step_config

BASE = {
    "schema_version": 1,
    "name": "osc",
    "lagrangian": "0.5*m*qd^2 - 0.5*k*q^2",
    "omega0": 1.0,
    "dim": 1,
    "params": {"m": 1.0, "k": 1.0},
    "initial": {"q": [1.0], "qd": [0.0]},
    "integrator": {"h": 0.01, "t_start": 0.0, "t_end": 1.0},
    "checks": ["noether"],
}


def variant(**changes):
    raw = copy.deepcopy(BASE)
    raw.update(changes)
    return raw


class TestSchema:
    def test_valid_dict_loads(self):
        sc = Scenario.from_dict(BASE)
        assert sc.name == "osc"
        assert sc.h == 0.01
        assert sc.checks == ("noether",)

    def test_round_trip(self):
        sc = Scenario.from_dict(BASE)
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_corpus_round_trips(self):
        for sc in bundled_corpus():
            assert Scenario.from_dict(sc.to_dict()) == sc

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda r: r.update(extra=1), "extra"),
            (lambda r: r.pop("omega0"), "omega0"),
            (lambda r: r["integrator"].update(tol=1e-6), "integrator.tol"),
            (lambda r: r["integrator"].pop("h"), "integrator.h"),
            (lambda r: r["initial"].update(v=[0.0]), "initial"),
            (lambda r: r.update(schema_version=2), "schema_version"),
        ],
    )
    def test_unknown_or_missing_fields_are_named(self, mutate, needle):
        raw = copy.deepcopy(BASE)
        mutate(raw)
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict(raw)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda r: r.update(omega0=True),
            lambda r: r.update(omega0="1.0"),
            lambda r: r.update(omega0=0.0),
            lambda r: r.update(dim=0),
            lambda r: r["integrator"].update(h=-0.1),
            lambda r: r["integrator"].update(t_end=0.0),
            lambda r: r["initial"].update(q=[1.0, 2.0]),
            lambda r: r["params"].update(m=True),
            lambda r: r["params"].update(t=1.0),
            lambda r: r["params"].update(i=1.0),
            lambda r: r["params"].update(q=1.0),
            lambda r: r["params"].update({"m x": 1.0}),
            lambda r: r["integrator"].update(h=1e-9, t_end=10.0),
        ],
    )
    def test_bad_values_rejected(self, mutate):
        raw = copy.deepcopy(BASE)
        mutate(raw)
        with pytest.raises(ScenarioError):
            Scenario.from_dict(raw)

    def test_unknown_check_name(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(variant(checks=["vibes"]))

    def test_duplicate_check_name(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(variant(checks=["noether", "noether"]))

    def test_expression_symbols_validated(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(variant(lagrangian="0.5*mass*qd^2"))

    def test_expression_syntax_validated(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(variant(lagrangian="0.5*qd^"))

    def test_momentum_initial_form(self):
        sc = Scenario.from_dict(variant(initial={"q": [1.0], "p": [0.5]}))
        assert sc.initial_p == (0.5,)
        assert sc.initial_qd is None

    def test_scenario_keeps_its_validated_lagrangian(self, scenario_file):
        sc = Scenario.load(scenario_file(BASE))
        assert sc.build_lagrangian() is sc.build_lagrangian()
        assert sc == Scenario.from_dict(sc.to_dict())

    def test_load_and_derive_parse_the_lagrangian_once(self, scenario_file, monkeypatch, capsys):
        parses = []
        original = clmech.scenario.parse

        def counted(source):
            parses.append(source)
            return original(source)

        monkeypatch.setattr(clmech.scenario, "parse", counted)
        assert main(["derive", scenario_file(BASE)]) == 0
        assert parses == [BASE["lagrangian"]]

    def test_momentum_and_velocity_exclusive(self):
        with pytest.raises(ScenarioError):
            Scenario.from_dict(variant(initial={"q": [1.0], "qd": [0.0], "p": [0.5]}))

    def test_load_reports_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            Scenario.load(path)

    def test_corpus_names(self):
        assert len(CORPUS_DICTS) == 8
        assert corpus_scenario("free_particle").name == "free_particle"
        with pytest.raises(KeyError):
            corpus_scenario("absent")


@pytest.fixture
def scenario_file(tmp_path):
    def write(raw, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(raw), encoding="utf-8")
        return str(path)

    return write


class TestCliSimulate:
    def test_csv_to_stdout(self, scenario_file, capsys):
        assert main(["simulate", scenario_file(BASE)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "t,q_1,qd_1,p_1,el_residual"
        assert len(lines) == 102

    def test_output_file_and_determinism(self, scenario_file, tmp_path):
        src = scenario_file(BASE)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", src, "-o", str(a)]) == 0
        assert main(["simulate", src, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_momentum_initial_runs_phase_integration(self, scenario_file, capsys):
        raw = variant(initial={"q": [1.0], "p": [0.0]})
        assert main(["simulate", scenario_file(raw)]) == 0
        first = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(first[3]) == 0.0  # p column starts at the given momentum

    def test_schema_error_exits_1(self, scenario_file, capsys):
        code = main(["simulate", scenario_file(variant(extra=1))])
        assert code == 1
        assert "extra" in capsys.readouterr().err

    def test_complex_force_exits_2(self, scenario_file, capsys):
        raw = variant(lagrangian="0.5*qd^2 + sqrt(q)", params={}, initial={"q": [-1.0], "qd": [0.0]})
        # sqrt can be complex at real arguments, so the map kernel keeps the
        # check of every value's imaginary part, and the error is the guard's
        assert "_h_not_real" in Scenario.from_dict(raw).build_lagrangian().maps.kernel.__code__.co_names
        assert main(["simulate", scenario_file(raw)]) == 2
        message = "error: DomainError: real map 1 took the complex value -0.5j at t=0.0, q=-1.0, qd=0.0\n"
        assert capsys.readouterr().err == message

    def test_high_power_of_a_call_simulates(self, scenario_file, capsys):
        raw = variant(lagrangian="0.5*qd^2 - sin(q)^102", params={}, initial={"q": [-1.0], "qd": [0.0]})
        assert main(["simulate", scenario_file(raw)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 102

    def test_closure_warning_is_one_stderr_line(self, capsys):
        assert main(["simulate", str(SCENARIOS / "damped_oscillator_literal.json")]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: closure flow violates") and err.count("\n") == 1

    def test_runtime_error_exits_2(self, scenario_file, capsys):
        raw = variant(lagrangian="0.5*i*(m*qd^2 - k*q^2)")  # degenerate, no closure
        assert main(["simulate", scenario_file(raw)]) == 2
        assert "closure" in capsys.readouterr().err.lower()


class TestCliDerive:
    def test_reports_structure(self, scenario_file, capsys):
        assert main(["derive", scenario_file(BASE)]) == 0
        out = capsys.readouterr().out
        assert "classification: regular" in out
        assert "momentum[0]:" in out

    def test_reports_closure_consistency(self, scenario_file, capsys):
        raw = variant(
            lagrangian="0.5*i*(m*qd^2 - k*q^2) + 0.5*i*l0*qd^2",
            params={"m": 1.0, "k": 1.0, "l0": 0.1},
            closure_mass=[-1.1],
        )
        assert main(["derive", scenario_file(raw)]) == 0
        out = capsys.readouterr().out
        assert "classification: degenerate" in out
        assert "closure-consistency: 0.09" in out
        assert "warning:" in out

    def test_prints_the_real_maps(self, capsys):
        # L and M are split by structure, so the maps of m*qd carry no conjugate
        assert main(["derive", str(SCENARIOS / "damped_oscillator.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "momentum[0]: (0.5 * (m * (2.0 * qd)))" in lines
        assert "mass[0][0]: (0.5 * (m * 2.0))" in lines


class TestCliCheck:
    def test_single_suite_passes(self, scenario_file, capsys):
        assert main(["check", "noether", scenario_file(BASE)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("RESULT pass max_residual=")

    def test_all_runs_declared_suites(self, scenario_file, capsys):
        raw = variant(checks=["noether", "geometry"])
        assert main(["check", "all", scenario_file(raw)]) == 0
        out = capsys.readouterr().out
        assert "## suite noether" in out
        assert "## suite geometry" in out
        assert "## suite variation" not in out

    def test_classical_collapse_when_m_is_a_negative_zero(self, scenario_file, capsys):
        # the Neg of the kinetic term leaves M = Const(-0.0), zero by value
        raw = variant(lagrangian="-(0.5*m*qd^2) - 0.5*k*q^2", checks=["geometry"])
        assert main(["check", "geometry", scenario_file(raw)]) == 0
        assert "[PASS] geometry.classical-collapse value=" in capsys.readouterr().out

    def test_detector_failure_exits_3(self, scenario_file, capsys):
        # a horizon this short cannot accumulate the drift the detector demands
        raw = copy.deepcopy(BASE)
        raw["integrator"] = {"h": 1e-4, "t_start": 0.0, "t_end": 1e-3}
        assert main(["check", "noether", scenario_file(raw)]) == 3
        assert "RESULT fail" in capsys.readouterr().out.splitlines()[-1]

    def test_report_file_matches_stdout(self, scenario_file, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(["check", "noether", scenario_file(BASE), "-o", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_seed_is_reported(self, scenario_file, capsys):
        assert main(["check", "geometry", scenario_file(BASE), "--seed", "0x123"]) == 0
        assert "# seed: 0x123" in capsys.readouterr().out

    def test_bad_seed_names_the_seed_converter(self, scenario_file, capsys):
        with pytest.raises(SystemExit) as bad:
            main(["check", "all", scenario_file(BASE), "--seed", "abc"])
        err = capsys.readouterr().err
        assert bad.value.code == 2
        assert err.startswith("usage: clmech check [-h] [-o OUTPUT] [--seed SEED]\n")
        assert err.endswith("clmech check: error: argument --seed: invalid seed value: 'abc'\n")

    def test_reports_are_deterministic(self, scenario_file, capsys):
        src = scenario_file(BASE)
        main(["check", "all", src])
        first = capsys.readouterr().out
        main(["check", "all", src])
        assert capsys.readouterr().out == first

    def test_consecutive_calls_parse_independently(self, scenario_file, capsys):
        # one parser serves every `main` call in a process; no argument of one call leaks into the next
        from clmech.cli import _build_parser
        from clmech.sampling import DEFAULT_SEED

        src = scenario_file(BASE)
        assert main(["derive", src]) == 0
        assert capsys.readouterr().out.startswith("scenario: osc\n")
        assert main(["check", "noether", src, "--seed", "0x10"]) == 0
        assert "# seed: 0x10\n" in capsys.readouterr().out
        assert main(["check", "noether", src]) == 0
        assert f"# seed: {DEFAULT_SEED:#x}\n" in capsys.readouterr().out
        with pytest.raises(SystemExit) as bad:
            main(["check", "nonesuch", src])
        assert bad.value.code == 2 and "invalid choice: 'nonesuch'" in capsys.readouterr().err
        assert main(["derive", src]) == 0 and _build_parser() is _build_parser()


class TestCliContract:
    @pytest.mark.parametrize("argv", [["derive"], ["simulate"], ["check", "all"]])
    def test_closure_mass_on_regular_scenario_exits_1(self, argv, scenario_file, capsys):
        raw = corpus_scenario("classical_oscillator").to_dict()
        raw["closure_mass"] = [1.0]
        assert main([*argv, scenario_file(raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "closure_mass" in err

    @pytest.mark.parametrize("argv", [["derive"], ["simulate"], ["check", "all"]])
    @pytest.mark.parametrize(
        "mutate,field",
        [
            (lambda r: r["params"].update(t=1.0), "params.t"),
            (lambda r: r["integrator"].update(h=1e-9, t_end=10.0), "integrator.h"),
        ],
    )
    def test_bad_parameter_name_or_plan_exits_1(self, argv, mutate, field, scenario_file, capsys):
        raw = copy.deepcopy(BASE)
        mutate(raw)
        assert main([*argv, scenario_file(raw)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: scenario field '{field}': ") and err.count("\n") == 1

    def test_trajectory_leaving_the_lagrangian_domain_exits_2(self, scenario_file, capsys):
        # the maps (m*qd and -k/q) never evaluate ln, so the run crosses
        # q = 0; the action along the trajectory must stop there
        raw = variant(
            lagrangian="0.5*m*qd^2 - k*ln(q)",
            initial={"q": [1.0], "qd": [-3.0]},
            checks=["variation"],
        )
        assert main(["check", "all", scenario_file(raw)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ln of nonpositive real at t=")
        assert err.count("\n") == 1
        sc = Scenario.from_dict(raw)
        eom = derive_eom(sc.build_lagrangian(), sc.probe_state())
        traj = integrate(eom, MechState(0.0, (1.0,), (-3.0,)), even_step_config(sc))
        k = int(np.flatnonzero(traj.q[:, 0] <= 0.0)[0])
        assert f" at t={float(traj.t[k])!r}, q={float(traj.q[k, 0])!r}, " in err


    @pytest.mark.parametrize(
        "argv", [["simulate"], *(["check", s] for s in ("hamiltonian", "noether", "variation", "all"))], ids=" ".join
    )
    def test_infinite_inverted_velocity_exits_2(self, argv, scenario_file, capsys):
        # the Legendre inversion qd = p/m overflows to inf: the initial state fails as a sample does
        raw = variant(
            lagrangian="0.5*m*qd^2",
            params={"m": 1e-300},
            initial={"q": [0.0], "p": [1e300]},
            checks=["hamiltonian", "noether", "variation"],
        )
        assert main([*argv, scenario_file(raw)]) == 2
        assert capsys.readouterr().err == "error: StepBlowUp: state magnitude exceeded 1e+12 at t=0.0\n"

    def test_an_infinite_initial_momentum_exits_2(self, scenario_file, capsys):
        # 1/omega0 overflows, and inf * dM/dq = inf * 0 makes the initial momentum NaN
        raw = corpus_scenario("classical_oscillator").to_dict()
        raw["omega0"] = 5e-324
        assert main(["check", "hamiltonian", scenario_file(raw)]) == 2
        assert capsys.readouterr().err == "error: StepBlowUp: state magnitude exceeded 1e+12 at t=0.0\n"

    @pytest.mark.parametrize(
        "argv,lagrangian,code,start",
        [
            (["derive"], "(" * 200 + "q" + ")" * 200, 1, "error: scenario field 'lagrangian': maximum recursion depth"),
            (["check", "all"], "-" * 2000 + "q", 1, "error: scenario field 'lagrangian': maximum recursion depth"),
            (["derive"], " + ".join(["q"] * 3000), 1, "error: scenario field 'lagrangian': maximum recursion depth"),
            (["derive"], "0.5*qd^2 + q" + "^q" * 300, 2, "error: RecursionError: maximum recursion depth"),
            (["check", "all"], "0.5*qd^2 + " + " + ".join(["q"] * 400), 2, "error: SyntaxError: too many nested parentheses"),
        ],
        ids=["parentheses", "negations", "sum", "powers", "sum-compiled"],
    )
    def test_a_too_deep_expression_leaves_one_line(self, argv, lagrangian, code, start, scenario_file, capsys):
        # the parser and the tree walks recurse once per level, and CPython's parser of the
        # generated source allows 200 nested parentheses
        assert main([*argv, scenario_file(variant(lagrangian=lagrangian, params={}, checks=["variation"]))]) == code
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1

    def test_infinite_force_at_a_sampled_state_exits_2(self, scenario_file, capsys):
        # g = -4c*q^3 overflows to -inf at sampled states far enough from q = 0
        raw = variant(lagrangian="0.5*qd^2 - c*q^4", params={"c": 1e308}, initial={"q": [0.001], "qd": [0.0]})
        assert main(["check", "geometry", scenario_file(raw)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: one-form coefficients are not finite at t=")
        assert err.count("\n") == 1

    def test_overflow_exits_2(self, scenario_file, capsys):
        # the force exp(q) overflows at q = 800
        raw = variant(lagrangian="0.5*m*qd^2 - exp(q)", initial={"q": [800.0], "qd": [0.0]})
        assert main(["simulate", scenario_file(raw)]) == 2
        err = capsys.readouterr().err
        assert err == "error: DomainError: exp overflowed\n"

    @pytest.mark.parametrize("argv", [["simulate"], ["check", "hamiltonian"]], ids=" ".join)
    @pytest.mark.parametrize("quartic", ["", " + 0.01*qd^4"], ids=["affine", "newton"])
    def test_a_phase_flow_tail_overflow_exits_2(self, argv, quartic, scenario_file, capsys):
        # dqd/dq = -1e160, and the flow's (dqd/dq)^2 overflows at the first stage, in the step's tail
        raw = variant(
            lagrangian=f"0.5*qd^2{quartic} + 1e160*q*qd",
            params={},
            initial={"q": [0.0], "p": [0.0]},
            integrator={"h": 0.1, "t_start": 0.0, "t_end": 1.0},
            checks=["hamiltonian"],
        )
        assert main([*argv, scenario_file(raw)]) == 2
        assert capsys.readouterr().err == "error: DomainError: power overflowed\n"

    def test_an_off_trajectory_flow_overflow_exits_2(self, scenario_file, capsys):
        # q = 0 is a fixed point, where dqd/dq = 1.34e297*1e-143 squares to below the largest float;
        # the mixed-partial diagnostic's k_gradients at q +- 1e-5 square it past that, on floats
        raw = variant(
            lagrangian="0.5*qd^2 + 0.5*1.3407794522134667e+297*(q - 1e-143)^2*qd",
            params={},
            initial={"q": [0.0], "p": [67038972610.67333]},
            integrator={"h": 0.1, "t_start": 0.0, "t_end": 1.0},
            checks=["hamiltonian"],
        )
        path = scenario_file(raw)
        assert main(["check", "hamiltonian", path]) == 2
        assert capsys.readouterr().err == "error: DomainError: power overflowed\n"
        assert main(["simulate", path]) == 0

    def test_sin_of_an_infinite_argument_exits_2(self, scenario_file, capsys):
        # q^30 overflows to inf at the finite state q = 1e11, and cmath rejects sin(inf)
        raw = variant(lagrangian=f"0.5*qd^2 - cos({'*'.join(['q'] * 30)})", initial={"q": [1e11], "qd": [0.0]})
        assert main(["simulate", scenario_file(raw)]) == 2
        assert capsys.readouterr().err == "error: DomainError: sin of an infinite argument\n"

    @pytest.mark.parametrize(
        "case", ["missing-scenario", "directory-scenario", "utf16-bom-scenario", "simulate-output", "check-output"]
    )
    def test_file_errors_leave_one_line(self, case, scenario_file, tmp_path, capsys):
        good = scenario_file(BASE)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xff\xfe{}")
        unwritable = str(tmp_path / "absent" / "out.txt")
        unreadable = "error: scenario field '(file)': cannot read: "
        argv, code, start = {
            "missing-scenario": (["derive", str(tmp_path / "absent.json")], 1, unreadable + "[Errno 2]"),
            "directory-scenario": (["derive", str(tmp_path)], 1, unreadable + "[Errno 21]"),
            "utf16-bom-scenario": (["derive", str(bom)], 1, unreadable + "'utf-8' codec"),
            "simulate-output": (["simulate", good, "-o", unwritable], 2, "error: FileNotFoundError: "),
            "check-output": (["check", "noether", good, "-o", unwritable], 2, "error: FileNotFoundError: "),
        }[case]
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err.startswith(start) and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""  # an -o path is opened before the run

    def test_derive_keeps_an_overflowing_constant(self, scenario_file, capsys):
        raw = variant(lagrangian="0.5*m*qd^2 - exp(1000)*q")
        assert main(["derive", scenario_file(raw)]) == 0
        assert "force[0]: (-exp(1000.0))" in capsys.readouterr().out.splitlines()


def _exception_classes() -> set[type]:
    """Every exception class defined in a clmech module."""
    found = set()
    for info in pkgutil.iter_modules(clmech.__path__):
        module = importlib.import_module(f"clmech.{info.name}")
        found |= {
            c
            for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, BaseException) and c.__module__ == module.__name__
        }
    return found


# class -> (subcommand, scenario changes that raise it, exit code, start of
# the one line on stderr)
TRIGGERED = {
    ScenarioError: (["derive"], dict(extra=1), 1, "error: scenario field 'scenario.extra': unknown field"),
    ExprSyntaxError: (["derive"], dict(lagrangian="0.5*qd^"), 1, "error: scenario field 'lagrangian': syntax error"),
    UnknownFunction: (["derive"], dict(lagrangian="sinh(q)"), 1, "error: scenario field 'lagrangian': unknown function"),
    UndeclaredSymbol: (["derive"], dict(lagrangian="0.5*mass*qd^2"), 1, "error: scenario field 'lagrangian': undeclared"),
    InvalidParameter: (["derive"], dict(params={"t": 1.0}), 1, "error: scenario field 'params.t': invalid or reserved"),
    UnneededClosureMass: (["derive"], dict(closure_mass=[1.0]), 1, "error: scenario field 'closure_mass': closure mass"),
    DomainError: (
        ["simulate"],
        dict(lagrangian="0.5*qd^2 + sqrt(q)", params={}, initial={"q": [-1.0], "qd": [0.0]}),
        2,
        "error: DomainError: ",
    ),
    SingularMass: (
        ["simulate"],
        dict(lagrangian="0.5*(1 - t)*qd^2", params={}, integrator={"h": 0.01, "t_start": 0.0, "t_end": 2.0}),
        2,
        "error: SingularMass: ",
    ),
    DegenerateWithoutClosure: (["simulate"], dict(lagrangian="0.5*i*(m*qd^2 - k*q^2)"), 2, "error: DegenerateWithoutClosure: "),
    ClosureInconsistent: (
        # f = (q - 1)*qd^2 + q = qd has no root once q(q - 1) > 1/4
        ["simulate"],
        dict(lagrangian="(q - 1)*qd^3/3 + q*qd", params={}, initial={"q": [1.0], "qd": [1.0]}, closure_mass=[1.0]),
        2,
        "error: ClosureInconsistent: ",
    ),
    StepBlowUp: (
        ["simulate"],
        dict(lagrangian="0.5*qd^2 + q^3", params={}, integrator={"h": 0.01, "t_start": 0.0, "t_end": 10.0}),
        2,
        "error: StepBlowUp: ",
    ),
    InversionFailure: (  # p = sin(qd) has no root at p = 2
        ["simulate"],
        dict(lagrangian="-cos(qd)", params={}, initial={"q": [1.0], "p": [2.0]}),
        2,
        "error: InversionFailure: ",
    ),
    DegenerateJacobian: (  # f = 3*qd^2 is p = 0 at the start, where df/dqd = 0
        ["simulate"],
        dict(lagrangian="qd^3 - q^2", params={}, initial={"q": [1.0], "p": [0.0]}, closure_mass=[1.0]),
        2,
        "error: DegenerateJacobian: ",
    ),
    UnsupportedDimension: (
        ["simulate"],
        dict(lagrangian="0.5*qd1^2 + 0.5*qd2^2", params={}, dim=2, initial={"q": [1.0, 1.0], "p": [0.0, 0.0]}),
        2,
        "error: UnsupportedDimension: ",
    ),
}

# class -> why no scenario file can raise it out of the program
UNREACHABLE = {
    ExprError: "a base class; only its subclasses are raised",
    UnboundSymbol: "loading rejects a symbol that is neither state nor parameter, so every tree compiles",
    _LaneFailure: "the array kernel catches it and reruns the lanes through the scalar kernel's DomainError",
    ClosureConsistencyWarning: "a warning: derive and simulate report it on a 'warning:' line and the run goes on",
    BadSampling: "the suites integrate on even-step grids, an odd uniform sample count for Simpson's rule",
    LengthMismatch: "the suites pair vectors of one trajectory's dimension",
    GaugeDependsOnVelocity: "the equivalence suite adds only its own gauge terms in t and q",
}


def test_every_exception_class_is_audited():
    assert not set(TRIGGERED) & set(UNREACHABLE)
    assert _exception_classes() == set(TRIGGERED) | set(UNREACHABLE)


@pytest.mark.parametrize("cls", list(TRIGGERED), ids=lambda c: c.__name__)
def test_each_reachable_exception_leaves_through_its_exit_code(cls, scenario_file, capsys):
    argv, changes, code, start = TRIGGERED[cls]
    assert main([*argv, scenario_file(variant(**changes))]) == code
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1


# Affine closures (A folds to constants) solved in closed form: each failure
# keeps the type, exit code and point that the closure's Newton gave
AFFINE_CLOSURE_ERRORS = {
    # A = [[1, 0], [0, 0]] and m = (1, -1): A - diag(m) is singular, found at derive
    "singular": (
        dict(lagrangian="0.5*qd1^2 - 0.5*i*(q1^2 + q2^2)", params={}, dim=2, initial={"q": [0.5, -0.3], "qd": [0.0, 0.0]}),
        [1.0, -1.0],
        "error: ClosureInconsistent: ",
        "pivot 0.0 below 1e-13 of row scale 0.0\n",
    ),
    # qd = -1 + sqrt(q) from q = 0.01: the second stage's q = 0.01 + 0.05*(-0.9) is negative
    "domain": (
        dict(lagrangian="i*(q^1.5/1.5 - q)", params={}, initial={"q": [0.01], "qd": [0.0]}, integrator={"h": 0.1, "t_start": 0.0, "t_end": 1.0}),
        [1.0],
        "error: DomainError: ",
        " at t=0.05, q=-0.035, ",
    ),
    # qd = q, so q = e^t passes 1e12 near t = 27.63
    "blow_up": (
        dict(lagrangian="0.5*i*(m*qd^2 - k*q^2)", initial={"q": [1.0], "qd": [1.0]}, integrator={"h": 0.05, "t_start": 0.0, "t_end": 30.0}),
        [-1.0],
        "error: StepBlowUp: ",
        "state magnitude exceeded 1e+12 at t=27.650000000000002\n",
    ),
}


@pytest.mark.parametrize("name", AFFINE_CLOSURE_ERRORS)
def test_affine_closure_errors_leave_through_their_exit_code(name, scenario_file, capsys):
    changes, mass, start, needle = AFFINE_CLOSURE_ERRORS[name]
    assert main(["simulate", scenario_file(variant(**changes, closure_mass=mass))]) == 2
    err = capsys.readouterr().err
    assert err.startswith(start) and err.count("\n") == 1 and needle in err

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# SHA-256 of `clmech simulate` output for the bundled scenario files, recorded
# from the per-map evaluation that preceded the fused kernel; the affine
# closure's closed form re-captured damped_oscillator_literal's, whose qd it
# moved by one ulp at 265 samples, each to the correctly rounded q/1.1
SIMULATE_SHA256 = {
    "classical_oscillator": "1a426a974af2a88cd105c8baa6772fedc009f71879fb3554df3e307a2c8bcf6d",
    "damped_oscillator": "1b29878c9e82dd1a003e47b5ec0abf1a9025dfba78547df1f57dd16b5bcdf5ab",
    "damped_oscillator_literal": "ad76b3a764c7b115b09e8166d30baed95527a23b2c2d5d1b71a8928090efebb9",
    "free_particle": "8e409d914e7047216cb01a39222aebe0bb93d938ac7b478ea487585fd7ac960b",
    "gauge_pair_imaginary": "e63c8157753904dc14d5135fd198b6136023c9f968def44dee10952e03dcdc5b",
    "gauge_pair_oscillator": "059fbad4a6e94752d0b7dd88164148fb3742a7bd95439a86901ca97cdfe72e05",
    "imaginary_ho": "fffe1c22f243b64acbac07883b12e9289df2f49bbe1ad2b9d8aa86ab61cd419c",
    "inverted_oscillator": "68a42c2a2a8d8ba924afeb8955e8262f725a53d4a9d11eb9647dc638bad4fecd",
}


@pytest.mark.parametrize("name", sorted(SIMULATE_SHA256))
def test_simulate_csv_bytes_unchanged(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", str(SCENARIOS / f"{name}.json"), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SIMULATE_SHA256[name]


# SHA-256 of `clmech simulate` output for phase-space scenarios (initial `p`),
# which no bundled file has: a momentum map nonlinear in qd, inverted by
# Newton, and an affine one with M != 0 and an explicit t, inverted in closed
# form (recorded from the closed form; it moves the Newton CSV's qd and p by
# at most 2.4e-14 and 1.8e-13 relative, with q and t bitwise)
PHASE_SIMULATE_SHA256 = {
    "quartic": (
        dict(lagrangian="0.25*qd^4 + 0.5*qd^2 - 0.5*q^2 + 0.1*cos(q)", params={}, initial={"q": [0.5], "p": [0.8]}),
        "0e096a42c342edf38e634d83f7b89fc45b0c9873619476686ff4279acfaa2fda",
    ),
    "affine": (
        dict(
            lagrangian="0.5*m*qd^2 - 0.5*k*q^2 + 0.1*t*q + i*(0.2*q*qd + 0.05*t*q^2 + 0.3*l0*qd^2)",
            omega0=1.3,
            params={"m": 1.0, "k": 1.0, "l0": 0.5},
            initial={"q": [0.5], "p": [0.8]},
        ),
        "bf5fcc607ba55f8c58bfa00ecae76cc0702611e38d93a1910f4cf3c6fc1ff87c",
    ),
}


@pytest.mark.parametrize("name", sorted(PHASE_SIMULATE_SHA256))
def test_phase_simulate_csv_bytes_unchanged(name, scenario_file, tmp_path):
    changes, digest = PHASE_SIMULATE_SHA256[name]
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", scenario_file(variant(**changes)), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of `clmech simulate` output at two and three coordinates, where the
# regular flows run the generated list-state RK4 step and the closures the
# list-state step (no bundled file has dim 2 or 3): a regular system with a
# complex q1*qd2 coupling and a quartic velocity term in M, one whose mass
# matrix is constant, and a closure whose Newton iterates (f is cubic in qd);
# each row recorded before the step it pins was generated, but the closures',
# re-captured from the Newton's stop relative to max|A - diag(m)|, which moved
# their q, qd and p by at most 1.9e-13 relative, with t bitwise
LIST_SIMULATE_SHA256 = {
    "regular_dim2": (
        dict(
            lagrangian="0.5*m*(qd1^2 + qd2^2) - 0.5*k*(q1^2 + q2^2) + (0.3 + 0.2*i)*q1*qd2"
            " + 0.1*cos(q1)*qd1^2 + 0.05*i*qd2^4",
            dim=2,
            initial={"q": [0.5, -0.3], "qd": [0.2, 0.1]},
        ),
        "b6b3f757b7dc8c0d46dbe6a15c792b2b595b98f5358b9ef464f2269131098ebd",
    ),
    "closure_dim2": (
        dict(
            lagrangian="0.5*i*(qd1^2 + qd2^2) - 0.5*i*k*(q1^2 + q2^2) + 0.1*qd1^4 + 0.1*qd2^4 - 0.1*i*cos(q1)",
            dim=2,
            params={"k": 1.0},
            initial={"q": [0.5, -0.3], "qd": [0.0, 0.0]},
            closure_mass=[-1.1, -0.9],
        ),
        "c20610ba83eb432be263b04103d1d207ea3d2c797552f07db9b5e9f520ceae4b",
    ),
    "regular_dim3": (
        dict(
            lagrangian="0.5*m*(qd1^2 + qd2^2 + qd3^2) - 0.5*k*(q1^2 + q2^2 + q3^2) + (0.3 + 0.2*i)*q1*qd2"
            " + 0.1*cos(q3)*qd1^2 + 0.05*i*qd3^4",
            dim=3,
            initial={"q": [0.5, -0.3, 0.2], "qd": [0.2, 0.1, -0.4]},
        ),
        "92c18b5bd41e0b6e8875c755b95a1c83fdbf202ed2e01f74cd10bc2c50b61f58",
    ),
    "closure_dim3": (
        dict(
            lagrangian="0.5*i*(qd1^2 + qd2^2 + qd3^2) - 0.5*i*k*(q1^2 + q2^2 + q3^2)"
            " + 0.1*(qd1^4 + qd2^4 + qd3^4) - 0.1*i*cos(q1)*q3",
            dim=3,
            params={"k": 1.0},
            initial={"q": [0.5, -0.3, 0.2], "qd": [0.0, 0.0, 0.0]},
            closure_mass=[-1.1, -0.9, -1.0],
        ),
        "75a6f161c64fad21c11011c9dbee50e961f3fc2efdc9ada0c7ddbb31222e525c",
    ),
    # every folded A tree a constant; its elimination swaps rows 1 and 2 and skips a zero multiplier
    "regular_dim3_constant_mass": (
        dict(
            lagrangian="0.05*qd1^2 + 0.8*qd1*qd2 + 0.5*qd2^2 + 0.3*qd2*qd3 + 0.5*qd3^2"
            " - 0.5*k*(q1^2 + q2^2 + q3^2) + 0.2*i*q1*qd3",
            dim=3,
            initial={"q": [0.5, -0.3, 0.2], "qd": [0.2, 0.1, -0.4]},
        ),
        "973f664dbf583c1b3440eb0436954ddca0930c4032947723baafc33373824c50",
    ),
}


@pytest.mark.parametrize("name", sorted(LIST_SIMULATE_SHA256))
def test_list_simulate_csv_bytes_unchanged(name, scenario_file, tmp_path):
    changes, digest = LIST_SIMULATE_SHA256[name]
    out = tmp_path / f"{name}.csv"
    assert main(["simulate", scenario_file(variant(**changes)), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of `clmech check all --seed 1` reports for the bundled scenario
# files, recorded from the per-sample scalar passes that preceded the array
# kernel and the shared run context; damped_oscillator_literal's re-captured
# from the affine closure's closed form (its noether.force-map-max INFO value
# moved one ulp, toward the exact maximum of q)
CHECK_SHA256 = {
    "classical_oscillator": "fd4dc465c3e731c9f6b29f9d5a06be3ffea5211abfbf2cfcc3f460b087c43944",
    "damped_oscillator": "a6c4c33bc7ecb6ab8d0a92478785f302d84b04075c353984ab4179fec69e9853",
    "damped_oscillator_literal": "1dd3c89fd7aff37d9588b06dcc807ae436cf381181f86f3f2e40d197f73aeced",
    "free_particle": "406f12bf2c706182d201efbf06fd08c697a092f0fafcbd813d5bb6bf9828d8ec",
    "gauge_pair_imaginary": "b83a92f7c6a47120635e492ca26e892d090aed85127666415fd8e98831b30678",
    "gauge_pair_oscillator": "115b545f88fa412384ab11ca23713fbc44fce204baad87eac5fd1b5ff090d7b3",
    "imaginary_ho": "2cd676b77badab6cdb5151fb1edb642790ac9b4e83934557b9a50c3d3fb3dd92",
    "inverted_oscillator": "7ed3f238f16e151a44e9179ecbede07fbe7fc8b6960f7646ee77c5da2e6f88bf",
}


@pytest.mark.parametrize("name", sorted(CHECK_SHA256))
def test_check_report_bytes_unchanged(name, tmp_path, capsys):
    out = tmp_path / f"{name}.txt"
    argv = ["check", "all", str(SCENARIOS / f"{name}.json"), "--seed", "1", "-o", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CHECK_SHA256[name]


# SHA-256 of `clmech derive` output for the bundled scenario files, recorded
# from the structural Re/Im split; damped_oscillator_literal's re-captured from
# the affine closure's closed form (its closure consistency moved toward 1/11)
DERIVE_SHA256 = {
    "classical_oscillator": "6cdaf624b6b9a387911bad99ef5e999b8fe7f90362924a0da791f396e56ca455",
    "damped_oscillator": "f16643ff00fce4b94a0064aad2586c3a65f99285a6f082ca212afa726be41e09",
    "damped_oscillator_literal": "d88275d144aafa4510cbcff7b3ffa67984f45b50d160ef701f48c068c9780b70",
    "free_particle": "6c0957c9cca15784720cac57031d62a5c8e71b0364a4bafc1d44817cc1f07d4d",
    "gauge_pair_imaginary": "4ac1224468110308dadae45c2f1af3fae06232203e3ba317228e89ec5800d6d2",
    "gauge_pair_oscillator": "2c31193d70f2ae6dce300ba2b51b2b188f94db931e08c74740e46866060ff8dd",
    "imaginary_ho": "d062592d117c13b045006dea255ec1de0448df39b1f2be9a30707fd497f66b18",
    "inverted_oscillator": "91e54b201afe723577524f383e80e12ecdb9e8a557a2d93d4ba620f44ab53af3",
}


@pytest.mark.parametrize("name", sorted(DERIVE_SHA256))
def test_derive_report_bytes_unchanged(name, capsys):
    assert main(["derive", str(SCENARIOS / f"{name}.json")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DERIVE_SHA256[name]
