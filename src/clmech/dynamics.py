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

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .codegen import BLOWUP_LIMIT
from .lagrangian import DEGENERATE, EomSystem, MechState
from .lanes import lane_blocks
from .records import record
from .solves import dot

if TYPE_CHECKING:  # pragma: no cover
    from .hamiltonian import HamiltonianField, PhaseState

MAX_STEPS = 10_000_000

SECOND_ORDER = "second-order"
CLOSURE = "closure"
HAMILTONIAN = "hamiltonian"


class StepBlowUp(Exception):
    """A state component exceeded 1e12 in magnitude (or went non-finite)."""


@record(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 plan over [t_start, t_end], at most MAX_STEPS steps.

    t_end < t_start integrates backward (the step is negated internally).
    """

    h: float
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.h, self.t_start, self.t_end))):
            raise ValueError("h, t_start and t_end must be finite")
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


@record(frozen=True, eq=False)
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


def check_finite(y: Sequence[float], t: float) -> None:
    for v in y:
        if not abs(v) <= BLOWUP_LIMIT:  # also true for nan
            raise StepBlowUp(f"state magnitude exceeded {BLOWUP_LIMIT:g} at t={t!r}")


def _grid(cfg: IntegratorConfig) -> tuple[np.ndarray, float, int]:
    n = cfg.n_steps
    dt = cfg.dt
    t = cfg.t_start + dt * np.arange(n + 1)
    t[-1] = cfg.t_end  # exact endpoint
    return t, dt, n


def _el_terms(vals, qd: Sequence, qdd: Sequence) -> list:
    """|g_a - (A qdd + (df/dq) qd + df/dt)_a| for each a from the map values,
    at one sample or lane-wise; the EL residual is their maximum."""
    _, g, A, f_q, f_t = vals
    return [abs(g[a] - dot(A[a], qdd) - dot(f_q[a], qd) - f_t[a]) for a in range(len(g))]


def _closure_terms(p: Sequence, mass: Sequence[float], qd: Sequence) -> list:
    """|p_a - m_a qd_a| for each a; the closure residual is their maximum."""
    return [abs(pa - m * v) for pa, m, v in zip(p, mass, qd)]


def integrate(eom: EomSystem, init: MechState, cfg: IntegratorConfig) -> Trajectory:
    """RK4 trajectory of a regular (second-order) or degenerate (closure) system."""
    if len(init.q) != eom.dim:
        raise ValueError(f"init has {len(init.q)} coordinates, expected {eom.dim}")
    x, y = (init.q[0], init.qd[0]) if eom.dim == 1 else (list(init.q), list(init.qd))
    if eom.classification != DEGENERATE:
        return _sampled(SECOND_ORDER, eom.maps.step, x, y, cfg)
    # a closure's p stays 0; its Newton, where A varies, starts from init.qd
    zero = 0.0 if eom.dim == 1 else [0.0] * eom.dim
    return _sampled(CLOSURE, eom.maps.closure_step(eom.closure_mass), x, zero, cfg, y)


def _sampled(kind: str, loop: Callable, x, y, cfg: IntegratorConfig, s0=0.0) -> Trajectory:
    """The trajectory of `codegen.compile_step`'s sample loop from (x, y) and the warm start s0:
    x is q; y is qd (regular), p (Hamiltonian) or p = 0 (closure); s0 is the first sample's
    Newton guess, init.qd on a closure whose A varies, 0.0 on a Hamiltonian field, else unread."""
    t_grid, dt, n = _grid(cfg)
    shape = n + 1 if isinstance(x, float) else (n + 1, len(x))
    cols, grid = [np.empty(shape), np.empty(shape), np.empty(shape), np.empty(n + 1)], memoryview(t_grid)
    k = loop(grid, x, y, dt, dt / 2, dt / 6, *map(memoryview, cols), n, s0)
    if k is not None:  # sample k's state failed the blow-up test
        raise StepBlowUp(f"state magnitude exceeded {BLOWUP_LIMIT:g} at t={grid[k]!r}")
    q, qd, p = (col.reshape(n + 1, -1) for col in cols[:3])
    return Trajectory(kind, dt, t_grid, q, qd, p, cols[3])


def integrate_hamiltonian(
    field: "HamiltonianField", init: "PhaseState", cfg: IntegratorConfig
) -> Trajectory:
    """RK4 trajectory of the phase-space flow (q, p) of a single-DOF field.

    The qd column is filled by inverting the momentum map at each sample, so
    the CSV schema is identical across flow kinds.
    """
    return _sampled(HAMILTONIAN, field.step, init.q, init.p, cfg)


def sampled_path(
    eom: EomSystem,
    q_fn: Callable[[np.ndarray], np.ndarray],
    qd_fn: Callable[[np.ndarray], np.ndarray],
    cfg: IntegratorConfig,
) -> Trajectory:
    """Trajectory built from a user-supplied path instead of integration.

    The path functions map the float64 time column to one row per coordinate,
    shape (dim, n) or anything that broadcasts to it; qdd is the central
    difference of qd_fn at t +- delta. Residuals are computed honestly against
    the path, so a non-solution path reports a large residual; on a degenerate
    system it is the closure residual and the kind is CLOSURE. Used to probe
    the action functional off the solution manifold.
    """
    t_grid, dt, n = _grid(cfg)
    n_dim = eom.dim
    delta = 1e-6 * max(1.0, abs(dt) * n)

    def path(fn: Callable[[np.ndarray], np.ndarray], t: np.ndarray) -> np.ndarray:
        """fn on the time column t, one row per sample."""
        return np.broadcast_to(np.asarray(fn(t), dtype=float), (n_dim, n + 1)).T.copy()

    q_out, qd_out = path(q_fn, t_grid), path(qd_fn, t_grid)
    p_out, res_out = np.empty((n + 1, n_dim)), np.empty(n + 1)
    degenerate = eom.classification == DEGENERATE
    if not degenerate:
        qdd_out = (path(qd_fn, t_grid + delta) - path(qd_fn, t_grid - delta)) / (2 * delta)
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
    names = (f"{x}_{a}" for x in ("q", "qd", "p") for a in range(1, traj.dim + 1))
    lines = [",".join(["t", *names, "el_residual"])]
    cols = (traj.t, *traj.q.T, *traj.qd.T, *traj.p.T, traj.el_residual)
    row = ",".join(["%.17g"] * len(cols))  # one format per row; the digits are str.format's "{:.17g}"
    lines += [row % values for values in zip(*(c.tolist() for c in cols))]
    return "\n".join(lines) + "\n"
