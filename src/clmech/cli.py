"""Command-line front end.

Subcommands:
  simulate  integrate a scenario and emit the trajectory as CSV
  derive    report the equation-of-motion structure of a scenario
  check     run verification suites and emit a pass/fail report

An `-o` file is opened, and truncated, after the scenario loads and before
the run, as a shell redirect would be: an unwritable path fails at once.

Exit codes: 0 success, 1 scenario file rejected or unreadable (including a
closure mass on a system that is regular at the probe), 2 runtime failure
during derivation or integration, or an output file that cannot be written,
3 a check suite asserted and failed.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from functools import cache

# derive_eom, HamiltonianField, integrate, integrate_hamiltonian: bound only for perfbench's tracer
from .dynamics import IntegratorConfig, StepBlowUp, integrate, integrate_hamiltonian, to_csv
from .exprcore import ExprError, to_source
from .hamiltonian import (
    DegenerateJacobian,
    HamiltonianField,
    InversionFailure,
    UnsupportedDimension,
)
from .lagrangian import (
    ClosureInconsistent,
    DegenerateWithoutClosure,
    SingularMass,
    UnneededClosureMass,
    derive_eom,
)
from .sampling import DEFAULT_SEED
from .scenario import SUITE_NAMES, Scenario, ScenarioError
from .suites import RunContext, format_report, run_suites
from .variational import BadSampling

RUNTIME_ERRORS = (
    SingularMass,
    DegenerateWithoutClosure,
    ClosureInconsistent,
    StepBlowUp,
    InversionFailure,
    DegenerateJacobian,
    UnsupportedDimension,
    BadSampling,
    ExprError,
    OSError,  # an output file that cannot be written
    RecursionError,  # a tree nested deeper than the tree walks' recursion allows,
    SyntaxError,  # or than the interpreter's parser allows in the generated source
)


@cache  # one parser a process: `main` parses into a new namespace each call
def _build_parser() -> argparse.ArgumentParser:
    def seed(text: str) -> int:  # argparse names the converter: "invalid seed value: 'abc'"
        return int(text, 0)

    parser = argparse.ArgumentParser(
        prog="clmech",
        description="complex-Lagrangian mechanics: integrate, derive, verify",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a scenario, emit CSV")
    p_sim.add_argument("scenario", help="path to a scenario JSON file")
    p_sim.add_argument("-o", "--output", help="CSV destination (default stdout)")

    p_der = sub.add_parser("derive", help="report the derived equations of motion")
    p_der.add_argument("scenario", help="path to a scenario JSON file")

    p_chk = sub.add_parser("check", help="run verification suites")
    p_chk.add_argument(
        "suite",
        choices=SUITE_NAMES + ("all",),
        help="suite name, or 'all' for the suites the scenario declares",
    )
    p_chk.add_argument("scenario", help="path to a scenario JSON file")
    p_chk.add_argument("-o", "--output", help="also write the report to this file")
    p_chk.add_argument(
        "--seed",
        type=seed,
        default=DEFAULT_SEED,
        help="sampling seed (default %(default)#x)",
    )
    return parser


def _simulate(sc: Scenario) -> str:
    run = RunContext(sc)
    cfg = IntegratorConfig(sc.h, sc.t_start, sc.t_end)
    traj = run.phase_trajectory(cfg) if sc.initial_p is not None else run.trajectory(cfg)
    for note in run.derived[2]:  # after the run: a failure leaves one line, its error
        print(f"warning: {note}", file=sys.stderr)
    return to_csv(traj)


def _derive_report(sc: Scenario) -> str:
    lagr, eom, notes = RunContext(sc).derived
    out = [
        f"scenario: {sc.name}",
        f"expression: {to_source(lagr.expr)}",
        f"omega0: {lagr.omega0:.17g}",
        f"dim: {lagr.dim}",
        f"classification: {eom.classification}",
    ]
    for a in range(lagr.dim):
        out.append(f"momentum[{a}]: {to_source(eom.f[a])}")
    for a in range(lagr.dim):
        out.append(f"force[{a}]: {to_source(eom.g[a])}")
    for a in range(lagr.dim):
        for b in range(lagr.dim):
            out.append(f"mass[{a}][{b}]: {to_source(eom.A[a][b])}")
    if eom.closure_mass is not None:
        masses = ", ".join(f"{m:.17g}" for m in eom.closure_mass)
        out.append(f"closure-mass: {masses}")
        out.append(f"closure-consistency: {eom.closure_consistency:.17g}")
    out += [f"warning: {note}" for note in notes]
    return "\n".join(out) + "\n"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = Scenario.load(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    output = getattr(args, "output", None)  # derive has no -o
    try:
        with open(output, "w", encoding="utf-8") if output else contextlib.nullcontext() as out:
            if args.command == "simulate":
                (out or sys.stdout).write(_simulate(sc))
                return 0
            if args.command == "derive":
                sys.stdout.write(_derive_report(sc))
                return 0
            names = sc.checks if args.suite == "all" else (args.suite,)
            results = run_suites(sc, names, seed=args.seed)
            report = format_report(results, args.seed)
            sys.stdout.write(report)
            if out:
                out.write(report)
            return 0 if all(r.passed for r in results) else 3
    except UnneededClosureMass as exc:
        print(f"error: {ScenarioError('closure_mass', str(exc))}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
