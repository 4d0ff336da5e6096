"""Check suites: executable verification of the engine's identities per scenario.

Each suite runs deterministic numeric checks against a scenario and returns a
SuiteResult of CheckLines. Lines assert an upper bound, a lower bound, a
range, or merely report a value; the rendered report carries a machine
trailer `RESULT pass|fail max_residual=<value>` where max_residual is the
largest value among upper-bound assertions (the residual-like quantities).

Sample states come from the documented LCG scheme (see `sampling`) so two
runs with the same seed are byte-identical.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property

import numpy as np

from .codegen import compile_expr  # noqa: F401 - unused, but perfbench's tracer wraps it here
from .dynamics import IntegratorConfig, Trajectory, check_finite, integrate, integrate_hamiltonian, sampled_path
from .equivalence import (
    EQUIVALENT,
    NOT_EQUIVALENT,
    RESIDUAL_RTOL,
    LagrangianPair,
    Ffunction,
    eom_equivalent,
    gauge_add,
    integrability_residual,
)
from .exprcore import Call, Const, Sym, diff, evaluate, parse
from .geometry import lie_theta, lie_theta_cartan, lie_values, pairing_values
from .hamiltonian import HamiltonianField, PhaseState, mixed_partial_diagnostic, pieces
from .lagrangian import (
    ComplexLagrangian,
    EomSystem,
    MechState,
    derive_eom,
    momentum,
)
from .lanes import lane_blocks
from .records import field, record
from .sampling import DEFAULT_SEED, sample_states
from .scenario import Scenario
from .variational import (
    VariationField,
    action,
    charge_series,
    first_variation,
    fit_loglog_slope,
)

EPS_LADDER = (1e-2, 1e-3, 1e-4)
SOLUTION_SLOPE = (1.9, 2.1)
CONTROL_SLOPE = (0.9, 1.1)
STATIONARY_FLOOR_RTOL = 1e-11


@record(frozen=True)
class CheckLine:
    """One asserted or reported quantity.

    kind 'le': passes iff value <= hi.  kind 'ge': passes iff value >= lo.
    kind 'range': passes iff lo <= value <= hi.  kind 'report': informational.
    """

    label: str
    kind: str
    value: float
    lo: float | None = None
    hi: float | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.kind == "report":
            return True
        if self.kind == "le":
            return self.value <= self.hi
        if self.kind == "ge":
            return self.value >= self.lo
        if self.kind == "range":
            return self.lo <= self.value <= self.hi
        raise ValueError(f"unknown check kind {self.kind!r}")

    def render(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.kind == "report":
            tag = "INFO"
        bound = {
            "le": lambda: f" bound<={self.hi:.17g}",
            "ge": lambda: f" bound>={self.lo:.17g}",
            "range": lambda: f" range=[{self.lo:.17g},{self.hi:.17g}]",
            "report": lambda: "",
        }[self.kind]()
        note = f"  # {self.note}" if self.note else ""
        return f"[{tag}] {self.label} value={self.value:.17g}{bound}{note}"


@record(frozen=True)
class SuiteResult:
    suite: str
    scenario: str
    lines: tuple[CheckLine, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    @property
    def max_residual(self) -> float:
        vals = [ln.value for ln in self.lines if ln.kind == "le"]
        return max(vals) if vals else 0.0


class RunContext:
    """What the commands and suites share on one scenario: one derive, one
    phase-space field, one initial state and one trajectory per distinct
    integration grid.

    The derive's warnings become notes, attached to every suite's result.
    """

    def __init__(self, sc: Scenario) -> None:
        self.sc = sc
        self._trajectories: dict[tuple[float, int, float], Trajectory] = {}

    @cached_property
    def derived(self) -> tuple[ComplexLagrangian, EomSystem, tuple[str, ...]]:
        """The Lagrangian, its derived system and the derive's warnings."""
        sc = self.sc
        lagr = sc.build_lagrangian()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            eom = derive_eom(lagr, sc.probe_state(), closure_mass=sc.closure_mass)
        return lagr, eom, tuple(str(w.message) for w in caught)

    @cached_property
    def field(self) -> HamiltonianField:
        """The phase-space field at the scenario's kappa0."""
        lagr, eom, _ = self.derived
        return HamiltonianField(lagr, eom, kappa0=self.sc.kappa0)

    @cached_property
    def initial(self) -> MechState:
        sc = self.sc
        if sc.initial_qd is not None:
            return MechState(sc.t_start, sc.initial_q, sc.initial_qd)
        qd = self.field.invert(sc.t_start, sc.initial_q[0], sc.initial_p[0])
        check_finite((*sc.initial_q, qd), sc.t_start)  # as the integration's first sample would
        return MechState(sc.t_start, sc.initial_q, (qd,))

    def trajectory(self, cfg: IntegratorConfig) -> Trajectory:
        """The integrated flow from the initial state over `cfg`'s grid."""
        key = (cfg.t_start, cfg.n_steps, cfg.dt)
        if key not in self._trajectories:
            self._trajectories[key] = integrate(self.derived[1], self.initial, cfg)
        return self._trajectories[key]

    def phase_trajectory(self, cfg: IntegratorConfig) -> Trajectory:
        """The phase-space flow over `cfg`'s grid from the scenario's p, or
        else from the momentum of the initial state."""
        sc = self.sc
        p0 = sc.initial_p[0] if sc.initial_p is not None else float(momentum(self.derived[1], self.initial)[0])
        field = self.field  # built first, so its errors come first
        check_finite((sc.initial_q[0], p0), sc.t_start)  # as `initial` does, before PhaseState refuses a NaN
        return integrate_hamiltonian(field, PhaseState(sc.t_start, sc.initial_q[0], p0), cfg)


def even_step_config(sc: Scenario) -> IntegratorConfig:
    """Snap to an even step count so the sample count is odd (Simpson)."""
    span = sc.t_end - sc.t_start
    n = max(2, round(span / sc.h))
    if n % 2 == 1:
        n += 1
    return IntegratorConfig(h=span / n, t_start=sc.t_start, t_end=sc.t_end)


def variation_suite(run: RunContext, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Stationarity of Re S on solutions; sensitivity on a non-solution path.

    Nothing is sampled, so `seed` is ignored. `run` holds the scenario and
    shares the derive and the trajectories with other suites on it.
    """
    sc = run.sc
    lagr, eom, notes = run.derived
    cfg = even_step_config(sc)
    traj = run.trajectory(cfg)
    s_val = action(lagr, traj)
    floor = STATIONARY_FLOOR_RTOL * (1.0 + abs(s_val))
    lines: list[CheckLine] = [
        CheckLine("variation.action-magnitude", "report", abs(s_val)),
        CheckLine("variation.el-residual-max", "report", float(traj.el_residual.max())),
    ]

    def ladder(trajectory: Trajectory, mode: int) -> list[float]:
        out = []
        for eps in EPS_LADDER:
            var = VariationField(sc.t_start, sc.t_end, eps, mode=mode)
            out.append(abs(first_variation(lagr, trajectory, var).real))
        return out

    sol_vals = ladder(traj, mode=1)
    if max(sol_vals) <= floor:
        lines.append(
            CheckLine(
                "variation.solution-stationary-floor",
                "le",
                max(sol_vals),
                hi=floor,
                note="Re dS below quadrature floor at every amplitude; "
                "slope fit not applicable",
            )
        )
    else:
        slope = fit_loglog_slope(EPS_LADDER, sol_vals)
        lines.append(
            CheckLine(
                "variation.solution-slope-mode-1",
                "range",
                slope,
                lo=SOLUTION_SLOPE[0],
                hi=SOLUTION_SLOPE[1],
                note="log-log slope of |Re dS| vs eps on the solution",
            )
        )
    for mode in (2, 3, 4, 5):
        var = VariationField(sc.t_start, sc.t_end, EPS_LADDER[1], mode=mode)
        lines.append(
            CheckLine(
                f"variation.solution-re-ds-mode-{mode}",
                "report",
                abs(first_variation(lagr, traj, var).real),
                note=f"eps={EPS_LADDER[1]:g}",
            )
        )

    # deliberately non-stationary path: q = q0 + (t - t0)^2
    def q_fn(t: float) -> list[float]:
        return [x + (t - sc.t_start) ** 2 for x in sc.initial_q]

    def qd_fn(t: float) -> list[float]:
        return [2.0 * (t - sc.t_start)] * sc.dim

    control = sampled_path(eom, q_fn, qd_fn, cfg)
    ctl_vals = ladder(control, mode=1)
    if max(ctl_vals) <= floor:
        lines.append(
            CheckLine(
                "variation.control-at-floor",
                "report",
                max(ctl_vals),
                note="Re dS vanishes for every path of this Lagrangian "
                "(total-derivative bracket); control not applicable",
            )
        )
    else:
        slope = fit_loglog_slope(EPS_LADDER, ctl_vals)
        lines.append(
            CheckLine(
                "variation.control-slope-mode-1",
                "range",
                slope,
                lo=CONTROL_SLOPE[0],
                hi=CONTROL_SLOPE[1],
                note="log-log slope of |Re dS| vs eps on a non-solution path",
            )
        )
    return SuiteResult("variation", sc.name, tuple(lines), notes)


def noether_suite(run: RunContext, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Charge conservation iff the force map vanishes along the run.

    Nothing is sampled, so `seed` is ignored; `run` as for variation_suite.
    """
    sc = run.sc
    _, eom, notes = run.derived
    traj = run.trajectory(IntegratorConfig(sc.h, sc.t_start, sc.t_end))
    dq = (1.0,) * sc.dim
    series = charge_series(eom, traj, dq)
    g_max = 0.0
    for lanes in lane_blocks(traj.n_samples):
        g = eom.maps.split(eom.maps.lanes(*traj.columns(lanes)))[1]
        g_max = max(g_max, *(float(np.abs(x).max()) for x in g))
    drift = float(np.abs(series - series[0]).max())
    scale = max(1.0, abs(float(series[0])))
    lines = [
        CheckLine("noether.charge-initial", "report", float(series[0])),
        CheckLine("noether.force-map-max", "report", g_max),
    ]
    if g_max <= 1e-10:
        lines.append(
            CheckLine(
                "noether.conserved-drift",
                "le",
                drift,
                hi=1e-8 * scale,
                note="force map vanishes along the run; charge must hold",
            )
        )
    elif g_max > 1e-3:
        lines.append(
            CheckLine(
                "noether.nonconserved-drift",
                "ge",
                drift,
                lo=0.1 * scale,
                note="force map is sizable; the detector must see the drift",
            )
        )
    else:
        lines.append(
            CheckLine(
                "noether.drift",
                "report",
                drift,
                note="force map in the gray zone; no assertion",
            )
        )
    return SuiteResult("noether", sc.name, tuple(lines), notes)


def equivalence_suite(run: RunContext, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Gauge pairs must read equivalent; genuine changes must not."""
    sc = run.sc
    lagr, _, notes = run.derived
    samples = tuple(sample_states(sc.dim, 256, seed))  # a tuple, so its pairs share the first system
    q_sym = Sym(lagr.coords[0])
    lines: list[CheckLine] = []

    def expect(label: str, partner: ComplexLagrangian, equivalent: bool) -> None:
        rep = eom_equivalent(LagrangianPair(lagr, partner), samples)
        note = f"verdict={rep.verdict} residual={rep.max_residual:.3g} skips={rep.n_skipped}"
        if equivalent:
            # the verdict already folds in residual, skip fraction and the
            # acceleration cross-check; an inconclusive read must fail here
            value = rep.max_residual if rep.verdict == EQUIVALENT else math.inf
            lines.append(CheckLine(label, "le", value, hi=RESIDUAL_RTOL * rep.scale, note=note))
        else:
            value = rep.max_residual if rep.verdict == NOT_EQUIVALENT else -math.inf
            lines.append(
                CheckLine(label, "ge", value, lo=1e-6, note=note + " (expected not-equivalent)")
            )

    expect("equivalence.gauge-quadratic", gauge_add(lagr, q_sym * q_sym), True)
    expect(
        "equivalence.potential-shift",
        ComplexLagrangian(lagr.expr + q_sym, lagr.omega0, lagr.dim, lagr.params),
        False,
    )
    expect("equivalence.gauge-complex", gauge_add(lagr, Const(1j) * q_sym), False)

    p = sc.params
    if {"a0", "m", "k"} <= set(p) and p["a0"] == p["m"] * sc.omega0 and sc.dim == 1:
        real_ho = ComplexLagrangian(
            parse("0.5*m*qd^2 - 0.5*k*q^2"), sc.omega0, 1, p
        )
        bilinear = ComplexLagrangian(parse("i*a0*q*qd"), sc.omega0, 1, p)
        rep = eom_equivalent(LagrangianPair(real_ho, bilinear), samples)
        lines.append(
            CheckLine(
                "equivalence.oscillator-pair",
                "le",
                rep.max_residual,
                hi=RESIDUAL_RTOL * rep.scale,
                note=f"verdict={rep.verdict}",
            )
        )

    w0 = sc.omega0
    harmonic = Ffunction(Call("sin", Const(w0) * Sym("t")), w0, 1, sc.params)
    lines.append(
        CheckLine(
            "equivalence.integrability-harmonic",
            "le",
            integrability_residual(harmonic, Const(0.0), samples[:100]),
            hi=1e-12,
            note="F = sin(omega0 t) solves the Phi = 0 condition",
        )
    )
    quadratic = Ffunction(Sym("t") * Sym("t"), w0, 1, sc.params)
    lines.append(
        CheckLine(
            "equivalence.integrability-reject",
            "ge",
            integrability_residual(quadratic, Const(0.0), samples[:100]),
            lo=1.0,
            note="F = t^2 must fail the Phi = 0 condition",
        )
    )
    return SuiteResult("equivalence", sc.name, tuple(lines), notes)


def geometry_suite(run: RunContext, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Lie derivative of Theta equals the pairing form; classical collapse."""
    sc = run.sc
    lagr, eom, notes = run.derived
    states = sample_states(sc.dim, 100, seed)
    # the coefficients of both sides, (g, f) and (dq, dqd), with no `OneForm` built
    lies = lie_values(eom, states)
    worst = 0.0
    for s, (g, f) in zip(states, lies):
        dq, dqd = pairing_values(lagr, s)
        for a in range(sc.dim):
            worst = max(worst, abs(g[a] - dq[a]), abs(f[a] - dqd[a]))
    lines = [
        CheckLine(
            "geometry.lie-vs-pairing",
            "le",
            worst,
            hi=1e-10,
            note="componentwise over 100 seeded states",
        )
    ]

    if isinstance(lagr.M_expr, Const) and lagr.M_expr.value == 0:  # either sign of zero
        # dL/dq_a then dL/dqd_a through the tree evaluator: compiled, they
        # would be the very kernel that gave the Lie derivative
        grads = [diff(lagr.L_expr, x) for x in lagr.coords + lagr.vels]
        collapse = 0.0
        for s, (g, f) in zip(states, lies):
            b = lagr.bindings(s)
            dl = [evaluate(e, b).real for e in grads]
            for a in range(sc.dim):
                collapse = max(collapse, abs(g[a] - dl[a]), abs(f[a] - dl[sc.dim + a]))
        lines.append(
            CheckLine(
                "geometry.classical-collapse",
                "le",
                collapse,
                hi=1e-12,
                note="M = 0: Lie derivative equals the gradient one-form of L",
            )
        )

    if eom.is_regular:
        cartan_worst = 0.0
        for s in sample_states(sc.dim, 10, seed + 1):
            ct = lie_theta_cartan(lagr, eom, s)
            cf = lie_theta(lagr, eom, s)
            for a in range(sc.dim):
                cartan_worst = max(
                    cartan_worst, abs(ct.dq[a] - cf.dq[a]), abs(ct.dqd[a] - cf.dqd[a])
                )
        lines.append(
            CheckLine(
                "geometry.cartan-cross-check",
                "le",
                cartan_worst,
                hi=1e-9,
                note="df/dt differenced along integrated flow arcs, 10 states",
            )
        )
    return SuiteResult("geometry", sc.name, tuple(lines), notes)


def hamiltonian_suite(run: RunContext, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Phase-space flow against the Lagrangian flow; kappa0 invariance.

    Nothing is sampled, so `seed` is ignored; `run` as for variation_suite.
    """
    sc = run.sc
    lagr, eom, notes = run.derived
    field_ = run.field
    cfg = IntegratorConfig(sc.h, sc.t_start, sc.t_end)
    traj_l = run.trajectory(cfg)
    traj_h = run.phase_trajectory(cfg)
    agreement = float(np.abs(traj_l.q[:, 0] - traj_h.q[:, 0]).max())
    lines = [
        CheckLine(
            "hamiltonian.trajectory-agreement",
            "le",
            agreement,
            hi=1e-6,
            note="max |q_Lagrangian - q_Hamiltonian| over the horizon",
        ),
        CheckLine(
            "hamiltonian.inversion-residual-max",
            "report",
            float(traj_h.el_residual.max()),
        ),
    ]

    idx = np.linspace(0, traj_h.n_samples - 1, 10).astype(int)
    kappa_worst = 0.0
    fd_worst = 0.0
    mixed_worst = 0.0
    for k in idx:
        t = float(traj_h.t[k])
        q = float(traj_h.q[k, 0])
        p = float(traj_h.p[k, 0])
        # the values the flow integrates do not depend on kappa0: one field's give each kappa0's flow
        values = field_._values(t, q, p, 0.0)
        flows = [pieces(p, values, k0, lagr.omega0)[4:] for k0 in (0.5, 1.0, 2.0)]
        for fl in flows[1:]:
            kappa_worst = max(
                kappa_worst, abs(fl[0] - flows[0][0]), abs(fl[1] - flows[0][1])
            )
        # those values against differences of the inverter
        qd, _, qd_q, qd_p = values[:4]
        delta = 1e-6 * (1.0 + abs(q) + abs(p))
        fd_p = (field_.invert(t, q, p + delta, qd) - field_.invert(t, q, p - delta, qd)) / (2 * delta)
        fd_q = (field_.invert(t, q + delta, p, qd) - field_.invert(t, q - delta, p, qd)) / (2 * delta)
        fd_worst = max(
            fd_worst,
            abs(fd_p - qd_p) / max(1.0, abs(qd_p)),
            abs(fd_q - qd_q) / max(1.0, abs(qd_q)),
        )
        mixed_worst = max(mixed_worst, mixed_partial_diagnostic(field_, q, p, t))
    lines.append(
        CheckLine(
            "hamiltonian.kappa0-invariance",
            "le",
            kappa_worst,
            hi=1e-12,
            note="flow compared across kappa0 in {0.5, 1, 2}",
        )
    )
    lines.append(
        CheckLine(
            "hamiltonian.implicit-partials-fd",
            "le",
            fd_worst,
            hi=1e-6,
            note="dqd/dq, dqd/dp vs central differences of the inverter",
        )
    )
    lines.append(
        CheckLine(
            "hamiltonian.k-mixed-partial-diagnostic",
            "report",
            mixed_worst,
            note="|d2K/dqdp - d2K/dpdq| by finite differences; reported only",
        )
    )
    return SuiteResult("hamiltonian", sc.name, tuple(lines), notes)


SUITE_FUNCTIONS = {
    "variation": variation_suite,
    "noether": noether_suite,
    "equivalence": equivalence_suite,
    "geometry": geometry_suite,
    "hamiltonian": hamiltonian_suite,
}


def run_suites(
    sc: Scenario, names: tuple[str, ...], seed: int = DEFAULT_SEED
) -> list[SuiteResult]:
    """The named suites in order, sharing one RunContext. Their array passes give IEEE
    infinities and NaNs, as the floats of one sample do, which the checks then judge."""
    run = RunContext(sc)
    with np.errstate(all="ignore"):
        return [SUITE_FUNCTIONS[name](run, seed) for name in names]


def format_report(results: list[SuiteResult], seed: int) -> str:
    """Plain-text report with the machine-readable RESULT trailer."""
    out = ["# complex-lagrangian check report", f"# seed: {seed:#x}"]
    worst = 0.0
    ok = True
    for res in results:
        out.append(f"## suite {res.suite} on scenario {res.scenario}")
        for note in res.notes:
            out.append(f"# note: {note}")
        for line in res.lines:
            out.append(line.render())
        worst = max(worst, res.max_residual)
        ok = ok and res.passed
    out.append(f"RESULT {'pass' if ok else 'fail'} max_residual={worst:.17g}")
    return "\n".join(out) + "\n"
