"""Tabulate |Re dS| against perturbation amplitude for a corpus scenario.

On a solution the column should fall off quadratically (slope ~2); on the
parabolic control path linearly (slope ~1). The tuned pure-imaginary cases
sit at the quadrature floor for both, which is the point of including them.

Usage:  python3 scripts/variation_slope_study.py [scenario-name]
"""

import math
import sys

import numpy as np

from clmech.corpus import corpus_scenario
from clmech.dynamics import sampled_path
from clmech.suites import RunContext, even_step_config
from clmech.variational import VariationField, action, first_variation, fit_loglog_slope

EPS = tuple(10.0**-k for k in range(1, 7))


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "damped_oscillator"
    sc = corpus_scenario(name)
    run = RunContext(sc)
    lagr, eom, notes = run.derived
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    cfg = even_step_config(sc)
    solution = run.trajectory(cfg)
    control = sampled_path(
        eom,
        lambda t: np.array([sc.initial_q[0] + (t - sc.t_start) ** 2]),
        lambda t: np.array([2.0 * (t - sc.t_start)]),
        cfg,
    )
    print(f"scenario {name}: S = {action(lagr, solution):.6g}")
    print(f"{'eps':>10s} {'|Re dS| solution':>18s} {'|Re dS| control':>18s}")
    sol_vals, ctl_vals = [], []
    for eps in EPS:
        var = VariationField(sc.t_start, sc.t_end, eps)
        sol_vals.append(abs(first_variation(lagr, solution, var).real))
        ctl_vals.append(abs(first_variation(lagr, control, var).real))
        print(f"{eps:10.0e} {sol_vals[-1]:18.6e} {ctl_vals[-1]:18.6e}")
    if min(sol_vals) > 0:
        print(f"solution slope {fit_loglog_slope(EPS, sol_vals):.4f}")
    if min(ctl_vals) > 0:
        print(f"control  slope {fit_loglog_slope(EPS, ctl_vals):.4f}")


if __name__ == "__main__":
    main()
