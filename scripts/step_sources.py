"""Print one digest of the generated RK4 sample-loop sources per state kind.

It builds the sample loops that `check all` over the bundled corpus builds,
then those of perfbench's `simulate` rounds (`gen.simulate_spec(seed, i)`,
each integrated as `clmech simulate` runs it) for each given seed, then
derives the closure of `sum qd_a^3` at one to four coordinates, whose mass
matrix varies, so each builds its damped Newton and linear solve. Every
source `codegen` compiles into a `_loop` is recorded; the helper kernels its
fallback calls are `compile_expr`'s, and are not. For each state kind, float
(one coordinate, or the phase state (q, p)) and list (more than one
coordinate), and apart for the loops that call a damped Newton (a closure or
a Legendre inversion where A varies) and those that do not, it prints the
number of distinct sources and one SHA-256 over them, sorted. A fifth line does the same for the generated
solvers those runs compile (`_solve_scalar`, `_solve_n` and `_newton_n`),
caught by an audit hook on `compile` installed before clmech is imported, so
it reads them wherever clmech builds them. Two revisions that print the same
line generate the same sources of that kind, byte for byte.

Usage:  python3 scripts/step_sources.py [--seeds 7 41]
        (`--seeds` with no value builds the corpus's steps only)
"""

import argparse
import builtins
import hashlib
import sys
from pathlib import Path

SOLVERS: set[str] = set()


def _record_solver(event: str, args: tuple) -> None:
    """Keep each generated solver source compiled from text."""
    if event == "compile" and isinstance(args[0], (str, bytes)):
        src = args[0] if isinstance(args[0], str) else args[0].decode()
        if src.startswith(("def _solve_", "def _newton_")):
            SOLVERS.add(src)


sys.addaudithook(_record_solver)

from clmech import ComplexLagrangian, MechState, codegen, derive_eom, parse  # noqa: E402 - after the hook
from clmech.corpus import bundled_corpus  # noqa: E402
from clmech.dynamics import IntegratorConfig  # noqa: E402
from clmech.lagrangian import velocity_names  # noqa: E402
from clmech.sampling import DEFAULT_SEED  # noqa: E402
from clmech.scenario import Scenario  # noqa: E402
from clmech.suites import RunContext, run_suites  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

SOURCES: set[str] = set()


def _recording_exec(src: str, ns: dict) -> None:
    """`exec`, as `codegen` calls it, keeping each loop source it runs."""
    if "def _loop(" in src:
        SOURCES.add(src)
    builtins.exec(src, ns)  # noqa: S102 - the generated source codegen was about to run


def _kind(src: str) -> tuple[str, str]:
    """A list-state loop takes the lists x0 and y0, a float-state one its own names. A
    Newton loop calls the generated damped Newton `_newton_n` (loops that called the two
    earlier Newton functions bound their kernel as `_newton`)."""
    return "list" if ", x0, y0, dt, h2, h6" in src else "float", "newton" if "_newton" in src else "no-newton"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 41])
    args = parser.parse_args()

    codegen.exec = _recording_exec  # a module global shadows the builtin in `codegen.compile_step` and `_compile`
    for sc in bundled_corpus():
        run_suites(sc, sc.checks, seed=DEFAULT_SEED)
    for seed in args.seeds:
        for index in range(len(gen.SIMULATE_ROUND)):
            sc = Scenario.from_dict(gen.simulate_spec(seed, index).scenario())
            run, cfg = RunContext(sc), IntegratorConfig(sc.h, sc.t_start, sc.t_end)
            if sc.initial_p is not None:
                run.phase_trajectory(cfg)
            else:
                run.trajectory(cfg)
    for n in range(1, 5):
        lagr = ComplexLagrangian(parse(" + ".join(f"{qd}^3" for qd in velocity_names(n))), 1.0, n)
        derive_eom(lagr, MechState(0.0, (0.0,) * n, (0.0,) * n), closure_mass=(1.0,) * n)
    for kind in (("float", "no-newton"), ("float", "newton"), ("list", "no-newton"), ("list", "newton")):
        sources = sorted(src for src in SOURCES if _kind(src) == kind)
        digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()
        print(f"{kind[0]:<6s} {kind[1]:<9s} {len(sources):>4d} {digest}")
    digest = hashlib.sha256("\0".join(sorted(SOLVERS)).encode()).hexdigest()
    print(f"{'solver':<16s} {len(SOLVERS):>4d} {digest}")


if __name__ == "__main__":
    main()
