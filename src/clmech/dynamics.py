"""Fixed-step RK4 integration of the three flow kinds, with diagnostics.

Regular systems integrate the first-order form (q, qd) -> (qd, accel).
Degenerate systems integrate q -> closure velocity (first order). Hamiltonian
fields integrate (q, p) from the phase-space flow. Every trajectory records a
per-sample Euler-Lagrange residual in the form appropriate to its kind:

    second-order:  max_a |g_a - (A qdd + (df/dq) qd + df/dt)_a|
    closure:       max_a |f_a - m_a qd_a|
    hamiltonian:   |p - f(q, qd(q, p, t), t)|

The requested step h is snapped to h_eff = span / round(span / h) so the grid
lands exactly on t_end; callers that need an odd sample count for Simpson
quadrature re-plan n themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .exprcore import lane_blocks
from .lagrangian import (
    DEGENERATE,
    ClosureInconsistent,
    EomSystem,
    MechState,
    _accel,
    _dot,
    _solve_scalar,
    _solve_velocity,
)

if TYPE_CHECKING:  # pragma: no cover
    from .hamiltonian import HamiltonianField, PhaseState

BLOWUP_LIMIT = 1e12
MAX_STEPS = 10_000_000

SECOND_ORDER = "second-order"
CLOSURE = "closure"
HAMILTONIAN = "hamiltonian"


class StepBlowUp(Exception):
    """A state component exceeded 1e12 in magnitude (or went non-finite)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 plan over [t_start, t_end], at most MAX_STEPS steps.

    t_end < t_start integrates backward (the step is negated internally).
    """

    h: float
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not self.h > 0:
            raise ValueError("h must be positive")
        if self.t_end == self.t_start:
            raise ValueError("t_end must differ from t_start")
        if abs(self.t_end - self.t_start) / self.h > MAX_STEPS:
            raise ValueError(f"plan exceeds {MAX_STEPS} steps")

    @property
    def n_steps(self) -> int:
        """Step count after snapping h onto the span."""
        return max(1, round(abs(self.t_end - self.t_start) / self.h))

    @property
    def dt(self) -> float:
        """Signed effective step; n_steps of these reach t_end exactly."""
        return (self.t_end - self.t_start) / self.n_steps


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled flow with per-sample momenta and EL residuals."""

    kind: str
    h: float
    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    p: np.ndarray
    el_residual: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def dim(self) -> int:
        return self.q.shape[1]

    def state(self, idx: int) -> MechState:
        return MechState(self.t[idx], tuple(self.q[idx]), tuple(self.qd[idx]))

    @property
    def final_state(self) -> MechState:
        return self.state(self.n_samples - 1)

    def columns(self, lanes: slice) -> tuple[np.ndarray, ...]:
        """t, q_1..q_n and qd_1..qd_n over the samples in `lanes`: the
        arguments of an array map kernel, one sample per lane."""
        return (self.t[lanes], *self.q[lanes].T, *self.qd[lanes].T)


def _check_finite(y: Sequence[float], t: float) -> None:
    for v in y:
        if not abs(v) <= BLOWUP_LIMIT:  # also true for nan
            raise StepBlowUp(f"state magnitude exceeded {BLOWUP_LIMIT:g} at t={t!r}")


def _grid(cfg: IntegratorConfig) -> tuple[np.ndarray, float, int]:
    n = cfg.n_steps
    dt = cfg.dt
    t = cfg.t_start + dt * np.arange(n + 1)
    t[-1] = cfg.t_end  # exact endpoint
    return t, dt, n


def _columns(n_rows: int, dim: int) -> tuple[np.ndarray, ...]:
    """Empty q, qd, p (n_rows x dim) and el_residual columns, filled per sample."""
    return (*(np.empty((n_rows, dim)) for _ in range(3)), np.empty(n_rows))


def _el_terms(vals, qd: Sequence, qdd: Sequence) -> list:
    """|g_a - (A qdd + (df/dq) qd + df/dt)_a| for each a from the map values,
    at one sample or lane-wise; the EL residual is their maximum."""
    _, g, A, f_q, f_t = vals
    return [abs(g[a] - _dot(A[a], qdd) - _dot(f_q[a], qd) - f_t[a]) for a in range(len(g))]


def _closure_terms(p: Sequence, mass: Sequence[float], qd: Sequence) -> list:
    """|p_a - m_a qd_a| for each a; the closure residual is their maximum."""
    return [abs(pa - m * v) for pa, m, v in zip(p, mass, qd)]


def integrate(eom: EomSystem, init: MechState, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of a regular (second-order) or degenerate (closure) system."""
    if len(init.q) != eom.dim:
        raise ValueError(f"init has {len(init.q)} coordinates, expected {eom.dim}")
    if eom.classification == DEGENERATE:
        return _integrate_closure(eom, init, cfg)
    if eom.dim == 1:
        return _integrate_regular_scalar(eom, init, cfg)
    return _integrate_regular(eom, init, cfg)


def _integrate_regular_scalar(
    eom: EomSystem, init: MechState, cfg: IntegratorConfig
) -> Trajectory:
    """One coordinate on plain floats: one kernel call per RK4 stage."""
    t_grid, dt, n = _grid(cfg)
    kernel = eom.maps.kernel
    h2, h6 = dt / 2, dt / 6

    def accel(t: float, q: float, qd: float) -> float:
        _, g, a, f_q, f_t = kernel(t, q, qd)
        # 0.0 + x: the sign of a zero product as in a one-term dot product
        return _solve_scalar(a, g - (0.0 + f_q * qd) - f_t)

    q, qd = init.q[0], init.qd[0]
    q_out, qd_out, p_out, res_out = _columns(n + 1, 1)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite((q, qd), t)
        # stage 1 also gives the sample's momentum and residual
        f, g, a, f_q, f_t = kernel(t, q, qd)
        a1 = _solve_scalar(a, g - (0.0 + f_q * qd) - f_t)
        q_out[k], qd_out[k], p_out[k] = q, qd, f
        res_out[k] = abs(g - a * a1 - f_q * qd - f_t)
        if k < n:
            v2 = qd + h2 * a1
            a2 = accel(t + h2, q + h2 * qd, v2)
            v3 = qd + h2 * a2
            a3 = accel(t + h2, q + h2 * v2, v3)
            v4 = qd + dt * a3
            a4 = accel(t + dt, q + dt * v3, v4)
            q = q + h6 * (qd + 2 * v2 + 2 * v3 + v4)
            qd = qd + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
    return Trajectory(SECOND_ORDER, dt, t_grid, q_out, qd_out, p_out, res_out)


def _rk4(
    stage: Callable[[float, list[float], list[float]], list[float]],
    t: float,
    y: list[float],
    dt: float,
    k1: list[float],
) -> list[float]:
    """One RK4 step of a list state from its first-stage slope k1.

    `stage(t, y, k)` is the slope at (t, y); k, the previous stage's slope,
    seeds the closure's Newton solve.
    """
    h2 = dt / 2
    k2 = stage(t + h2, [a + h2 * b for a, b in zip(y, k1)], k1)
    k3 = stage(t + h2, [a + h2 * b for a, b in zip(y, k2)], k2)
    k4 = stage(t + dt, [a + dt * b for a, b in zip(y, k3)], k3)
    h6 = dt / 6
    return [
        a + h6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    ]


def _integrate_regular(
    eom: EomSystem, init: MechState, cfg: IntegratorConfig
) -> Trajectory:
    t_grid, dt, n = _grid(cfg)
    maps = eom.maps
    n_dim = eom.dim

    def deriv(t: float, y: list[float], _) -> list[float]:
        q, qd = y[:n_dim], y[n_dim:]
        return qd + _accel(maps, t, q, qd)[0]

    y = [*init.q, *init.qd]
    q_out, qd_out, p_out, res_out = _columns(n + 1, n_dim)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite(y, t)
        q, qd = y[:n_dim], y[n_dim:]
        qdd, vals = _accel(maps, t, q, qd)
        q_out[k], qd_out[k], p_out[k] = q, qd, vals[0]
        res_out[k] = max(_el_terms(vals, qd, qdd))
        if k < n:
            y = _rk4(deriv, t, y, dt, qd + qdd)
    return Trajectory(SECOND_ORDER, dt, t_grid, q_out, qd_out, p_out, res_out)


def _integrate_closure(
    eom: EomSystem, init: MechState, cfg: IntegratorConfig
) -> Trajectory:
    t_grid, dt, n = _grid(cfg)
    maps = eom.maps
    mass = eom.closure_mass
    zero = (0.0,) * eom.dim

    def solve(t: float, q: list[float], guess: list[float]) -> tuple[list[float], list[float]]:
        """qd with f = mass*qd, and p = f there."""
        return _solve_velocity(maps, t, q, zero, mass, guess, ClosureInconsistent)

    def vel(t: float, q: list[float], guess: list[float]) -> list[float]:
        return solve(t, q, guess)[0]

    q = list(init.q)
    guess = list(init.qd)
    q_out, qd_out, p_out, res_out = _columns(n + 1, eom.dim)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite(q, t)
        qd, p = solve(t, q, guess)
        guess = qd
        q_out[k], qd_out[k], p_out[k] = q, qd, p
        res_out[k] = max(_closure_terms(p, mass, qd))
        if k < n:
            q = _rk4(vel, t, q, dt, qd)
    return Trajectory(CLOSURE, dt, t_grid, q_out, qd_out, p_out, res_out)


def integrate_hamiltonian(
    field: "HamiltonianField", init: "PhaseState", cfg: IntegratorConfig
) -> Trajectory:
    """RK4 trajectory of the phase-space flow (q, p) of a single-DOF field.

    The qd column is filled by inverting the momentum map at each sample, so
    the CSV schema is identical across flow kinds; a stage is one `_flow_at` call.
    """
    t_grid, dt, n = _grid(cfg)
    h2, h6 = dt / 2, dt / 6
    guess = 0.0  # Newton guess threaded from the last inversion
    q, p = init.q, init.p
    q_out, qd_out, p_out, res_out = _columns(n + 1, 1)
    for k in range(n + 1):
        t = float(t_grid[k])
        _check_finite((q, p), t)
        # stage 1 is at the sample itself; the last sample needs no slope
        qd, f, *k1 = field._flow_at(t, q, p, guess) if k < n else field._invert(t, q, p, guess)
        guess = qd
        q_out[k], qd_out[k], p_out[k] = q, qd, p
        res_out[k] = abs(f - p)
        if k < n:
            k1q, k1p = k1
            _, _, k2q, k2p = field._flow_at(t + h2, q + h2 * k1q, p + h2 * k1p, guess)
            _, _, k3q, k3p = field._flow_at(t + h2, q + h2 * k2q, p + h2 * k2p, guess)
            _, _, k4q, k4p = field._flow_at(t + dt, q + dt * k3q, p + dt * k3p, guess)
            q = q + h6 * (k1q + 2 * k2q + 2 * k3q + k4q)
            p = p + h6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return Trajectory(HAMILTONIAN, dt, t_grid, q_out, qd_out, p_out, res_out)


def sampled_path(
    eom: EomSystem,
    q_fn: Callable[[float], Sequence[float]],
    qd_fn: Callable[[float], Sequence[float]],
    cfg: IntegratorConfig,
) -> Trajectory:
    """Trajectory built from a user-supplied path instead of integration.

    Residuals are computed honestly against the path (qdd by central
    difference of qd_fn), so a non-solution path reports a large residual; on
    a degenerate system it is the closure residual and the kind is CLOSURE.
    Used to probe the action functional off the solution manifold.
    """
    t_grid, dt, n = _grid(cfg)
    n_dim = eom.dim
    delta = 1e-6 * max(1.0, abs(dt) * n)

    def path(fn: Callable[[float], Sequence[float]], shift: float = 0.0) -> np.ndarray:
        """fn at each grid time moved by `shift`, one row per sample."""
        out = np.empty((n + 1, n_dim))
        for k in range(n + 1):
            t = float(t_grid[k])
            out[k] = fn(t + shift if shift else t)
        return out

    q_out, qd_out = path(q_fn), path(qd_fn)
    p_out, res_out = np.empty((n + 1, n_dim)), np.empty(n + 1)
    degenerate = eom.classification == DEGENERATE
    if not degenerate:
        qdd_out = (path(qd_fn, delta) - path(qd_fn, -delta)) / (2 * delta)
    for lanes in lane_blocks(n + 1):
        qd = list(qd_out[lanes].T)
        vals = eom.maps.split(eom.maps.lanes(t_grid[lanes], *q_out[lanes].T, *qd))
        p_out[lanes] = np.transpose(vals[0])
        if degenerate:
            terms = _closure_terms(vals[0], eom.closure_mass, qd)
        else:
            terms = _el_terms(vals, qd, list(qdd_out[lanes].T))
        res_out[lanes] = np.max(terms, axis=0)
    kind = CLOSURE if degenerate else SECOND_ORDER
    return Trajectory(kind, dt, t_grid, q_out, qd_out, p_out, res_out)


def to_csv(traj: Trajectory) -> str:
    """CSV export: t,q_1..q_N,qd_1..qd_N,p_1..p_N,el_residual (17 sig digits)."""
    n_dim = traj.dim
    cols = (
        ["t"]
        + [f"q_{a}" for a in range(1, n_dim + 1)]
        + [f"qd_{a}" for a in range(1, n_dim + 1)]
        + [f"p_{a}" for a in range(1, n_dim + 1)]
        + ["el_residual"]
    )
    lines = [",".join(cols)]
    for k in range(traj.n_samples):
        row = (
            [traj.t[k]]
            + list(traj.q[k])
            + list(traj.qd[k])
            + list(traj.p[k])
            + [traj.el_residual[k]]
        )
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
