"""Time the RK4 step per flow kind, dimension and shape over one `simulate` round,
or per bundled scenario with `--corpus`.

The round's scenarios are perfbench's generated round (`gen.simulate_spec`).
With `--corpus`, each bundled scenario's Lagrangian flow and, where it declares
the hamiltonian suite, its phase flow are integrated over its own grid, as
`check all` integrates them; the shape column then names the scenario. Each
integration runs through `RunContext` once ("first", which includes compiling
its step), then three more times, each from a fresh `RunContext` as every
command derives afresh ("warm", the best of the three). Deriving is not timed.
A row sums the steps and times of one category's scenarios.

Usage:  python3 scripts/step_timing.py [--seed 41] [--steps-scale 1.0] [--corpus]
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

from clmech.corpus import bundled_corpus
from clmech.dynamics import IntegratorConfig
from clmech.scenario import Scenario
from clmech.suites import RunContext

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402


def integration_seconds(sc: Scenario, cfg: IntegratorConfig, phase: bool) -> float:
    """Seconds of one integration of the scenario's phase flow if `phase`, else of its
    Lagrangian flow, from a fresh `RunContext`."""
    run = RunContext(sc)
    run.derived  # noqa: B018 - derive before the clock starts
    start = time.perf_counter()
    if phase:
        run.phase_trajectory(cfg)
    else:
        run.trajectory(cfg)
    return time.perf_counter() - start


def round_runs(seed: int, steps_scale: float):
    """(category, scenario, phase) for each scenario of a round, integrated as `clmech simulate` runs it."""
    for index in range(len(gen.SIMULATE_ROUND)):
        spec = gen.simulate_spec(seed, index, steps_scale)
        sc = Scenario.from_dict(spec.scenario())
        yield (spec.kind, spec.dim, "quadratic" if spec.linear else "nonlinear"), sc, sc.initial_p is not None


def corpus_runs():
    """(category, scenario, phase) for each integration of the bundled corpus over its own grid."""
    for sc in bundled_corpus():
        yield ("closure" if sc.closure_mass else "regular", sc.dim, sc.name), sc, False
        if "hamiltonian" in sc.checks:
            yield ("hamiltonian", sc.dim, sc.name), sc, True


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--steps-scale", type=float, default=1.0)
    parser.add_argument("--corpus", action="store_true", help="time the bundled scenarios instead of a round")
    args = parser.parse_args()

    runs = corpus_runs() if args.corpus else round_runs(args.seed, args.steps_scale)
    steps, first, warm = defaultdict(int), defaultdict(float), defaultdict(float)
    for category, sc, phase in runs:
        cfg = IntegratorConfig(sc.h, sc.t_start, sc.t_end)
        steps[category] += cfg.n_steps
        first[category] += integration_seconds(sc, cfg, phase)
        warm[category] += min(integration_seconds(sc, cfg, phase) for _ in range(3))
    width = max(10, *(len(shape) for _, _, shape in steps))
    print(f"{'kind':<12s} {'dim':>3s} {'shape':<{width}s} {'steps':>6s} {'first us/step':>14s} {'warm us/step':>13s}")
    for (kind, dim, shape), n in steps.items():
        key = (kind, dim, shape)
        us = first[key] / n * 1e6, warm[key] / n * 1e6
        print(f"{kind:<12s} {dim:>3d} {shape:<{width}s} {n:>6d} {us[0]:>14.1f} {us[1]:>13.1f}")


if __name__ == "__main__":
    main()
