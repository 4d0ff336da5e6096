"""Time the RK4 step per flow kind, dimension and shape over one `simulate` round.

The scenarios are perfbench's generated round (`gen.simulate_spec`). Each is
integrated through `RunContext` once ("first", which includes compiling its
step), then three more times, each from a fresh `RunContext` as every
`simulate` command derives afresh ("warm", the best of the three). Deriving
is not timed. A row sums the steps and times of one category's scenarios.

Usage:  python3 scripts/step_timing.py [--seed 41] [--steps-scale 1.0]
"""

import argparse
import sys
import time
from collections import defaultdict
from pathlib import Path

from clmech.dynamics import IntegratorConfig
from clmech.scenario import Scenario
from clmech.suites import RunContext

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402


def integration_seconds(sc: Scenario, cfg: IntegratorConfig) -> float:
    """Seconds of one integration of the scenario, as `clmech simulate` runs it."""
    run = RunContext(sc)
    run.derived  # noqa: B018 - derive before the clock starts
    start = time.perf_counter()
    if sc.initial_p is not None:
        run.phase_trajectory(cfg)
    else:
        run.trajectory(cfg)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--steps-scale", type=float, default=1.0)
    args = parser.parse_args()

    steps, first, warm = defaultdict(int), defaultdict(float), defaultdict(float)
    for index in range(len(gen.SIMULATE_ROUND)):
        spec = gen.simulate_spec(args.seed, index, args.steps_scale)
        sc = Scenario.from_dict(spec.scenario())
        cfg = IntegratorConfig(sc.h, sc.t_start, sc.t_end)
        category = (spec.kind, spec.dim, "quadratic" if spec.linear else "nonlinear")
        steps[category] += cfg.n_steps
        first[category] += integration_seconds(sc, cfg)
        warm[category] += min(integration_seconds(sc, cfg) for _ in range(3))
    print(f"{'kind':<12s} {'dim':>3s} {'shape':<10s} {'steps':>6s} {'first us/step':>14s} {'warm us/step':>13s}")
    for (kind, dim, shape), n in steps.items():
        key = (kind, dim, shape)
        print(f"{kind:<12s} {dim:>3d} {shape:<10s} {n:>6d} {first[key] / n * 1e6:>14.1f} {warm[key] / n * 1e6:>13.1f}")


if __name__ == "__main__":
    main()
