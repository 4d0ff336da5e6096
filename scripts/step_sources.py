"""Print one digest of the generated RK4 sample-loop sources per state kind.

It builds the sample loops that `check all` over the bundled corpus builds,
then those of perfbench's `simulate` rounds (`gen.simulate_spec(seed, i)`,
each integrated as `clmech simulate` runs it) for each given seed. Every
source `exprcore` compiles into a `_loop` is recorded, and so is the per-sample
helper step `_step` that a raising sample falls back to, which it builds for
each loop that has one. For each state kind, float (one coordinate, or the
phase state (q, p)) and list (more than one coordinate), and apart for the
loops that call a damped Newton (a closure or a Legendre inversion where A
varies) and those that do not, it prints the number of distinct sources and
one SHA-256 over them, sorted. Two revisions that print the same line
generate the same loops and steps of that kind, byte for byte.

Usage:  python3 scripts/step_sources.py [--seeds 7 41]
        (`--seeds` with no value builds the corpus's steps only)
"""

import argparse
import builtins
import hashlib
import sys
from pathlib import Path

from clmech import exprcore
from clmech.corpus import bundled_corpus
from clmech.dynamics import IntegratorConfig
from clmech.sampling import DEFAULT_SEED
from clmech.scenario import Scenario
from clmech.suites import RunContext, run_suites

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

SOURCES: set[str] = set()
LOOPS: list[dict] = []


def _recording_exec(src: str, ns: dict) -> None:
    """`exec`, as `exprcore` calls it, keeping each loop and step source it runs and each loop's globals."""
    if "def _loop(" in src or "def _step(" in src:
        SOURCES.add(src)
    builtins.exec(src, ns)  # noqa: S102 - the generated source exprcore was about to run
    if "def _loop(" in src:
        LOOPS.append(ns)


def _kind(src: str) -> tuple[str, str]:
    """A list-state loop or step takes the lists x0 and y0, a float-state one its own names. A
    Newton loop calls `lagrangian._newton_solver(n)`'s `_newton_n` (loops that called the two
    earlier Newton functions bound their kernel as `_newton`)."""
    return "list" if ", x0, y0, dt, h2, h6" in src else "float", "newton" if "_newton" in src else "no-newton"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="*", default=[7, 41])
    args = parser.parse_args()

    exprcore.exec = _recording_exec  # a module global shadows the builtin in `exprcore._step`
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
    for ns in LOOPS:
        if "_h_slow" in ns:
            ns["_h_slow"]()  # builds, and so records, the loop's helper step
    for kind in (("float", "no-newton"), ("float", "newton"), ("list", "no-newton"), ("list", "newton")):
        sources = sorted(src for src in SOURCES if _kind(src) == kind)
        digest = hashlib.sha256("\0".join(sources).encode()).hexdigest()
        print(f"{kind[0]:<6s} {kind[1]:<9s} {len(sources):>4d} {digest}")


if __name__ == "__main__":
    main()
