"""Complex action, its first variation, the real inner product, and Noether charge.

The action is S = integral of eval(Lagr) over a uniformly sampled trajectory
(composite Simpson). Its first variation under a perturbation (dq, dqd) =
(eps*eta, eps*etad) is integrated from the component expansion

    Re dLagr = (dL/dq - omega0 dM/dqd) dq + (dL/dqd + (1/omega0) dM/dq) dqd
             = g dq + f dqd
    Im dLagr = (dM/dq + omega0 dL/dqd) dq + (dM/dqd - (1/omega0) dL/dq) dqd
             = omega0 f dq - (g/omega0) dqd

with f and g the momentum and force maps (`ComplexLagrangian.maps`). The
real bracket, integrated by parts, is exactly the generalized
Euler-Lagrange residual times dq: Re dS vanishes to first order on solutions
(stationarity), so |Re dS| scales as eps^2 there and as eps off solutions.
The maps are evaluated at the perturbed configuration
(q + dq, qd + dqd); evaluating them on the base path instead would make the
first-order quadrature identically zero on solutions and destroy the eps^2
signature the slope test relies on.

Two pairings coexist: the positive-definite real_inner(z, v) = sum Re[z conj(v)]
and the non-conjugated pair(z, v) = sum Re[z v] = real_inner(z, conj(v)).
The expanded Re dLagr above equals 2 * pair(dLagr/dw, dw) pointwise with
dw = (dqd + i omega0 dq)/sqrt(2); only the non-conjugated pairing makes the
stationarity theorem hold, so both are exposed and that identity is asserted.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .codegen import compile_expr
from .dynamics import Trajectory
# perfbench's tracer wraps `compile_expr` and `diff` by name in this module,
# so `diff` stays bound although nothing here calls it
from .exprcore import diff  # noqa: F401
from .lagrangian import ComplexLagrangian, EomSystem, MechState, momentum
from .lanes import lane_blocks
from .records import record


class BadSampling(Exception):
    """Trajectory grid unusable for Simpson quadrature (even count/non-uniform)."""


class LengthMismatch(Exception):
    """Vectors of different lengths fed to an inner product."""


def _uniform_h(traj: Trajectory) -> float:
    n = traj.n_samples
    if n < 3 or n % 2 == 0:
        raise BadSampling(f"Simpson needs an odd sample count >= 3, got {n}")
    gaps = np.diff(traj.t)
    h = gaps[0]
    if np.abs(gaps - h).max() > 1e-9 * abs(h):
        raise BadSampling("samples are not uniformly spaced")
    return float(h)


def _simpson(values: np.ndarray, h: float) -> complex:
    acc = values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    return complex(acc * h / 3.0)


def action(lagr: ComplexLagrangian, traj: Trajectory) -> complex:
    """S = integral of the complex Lagrangian along the trajectory (Simpson)."""
    h = _uniform_h(traj)
    args = ("t",) + lagr.coords + lagr.vels
    fn = compile_expr(lagr.expr, args, lagr.params, vectorized=True)
    vals = np.empty(traj.n_samples, dtype=complex)
    for lanes in lane_blocks(traj.n_samples):
        vals[lanes] = fn(*traj.columns(lanes))
    return _simpson(vals, h)


@record(frozen=True)
class VariationField:
    """Half-sine perturbation profile eta(t) = sin(mode*pi*(t-t0)/(t1-t0)).

    eta is exactly zero at (and outside) the endpoints; the same scalar
    profile multiplies every coordinate. amplitude is the eps in dq = eps*eta.
    """

    t_start: float
    t_end: float
    amplitude: float
    mode: int = 1

    def __post_init__(self) -> None:
        if self.t_end == self.t_start:
            raise ValueError("degenerate time window")
        if self.mode < 1:
            raise ValueError("mode must be a positive integer")

    def eta(self, t):
        """eta at a time, or lane-wise at an array of times."""
        s = (t - self.t_start) / (self.t_end - self.t_start)
        inside = np.sin(self.mode * math.pi * s)
        return np.where((s <= 0.0) | (s >= 1.0), 0.0, inside)[()]

    def eta_dot(self, t):
        s = (t - self.t_start) / (self.t_end - self.t_start)
        rate = self.mode * math.pi / (self.t_end - self.t_start)
        return rate * np.cos(self.mode * math.pi * s)


def _expanded(w0: float, f: Sequence, g: Sequence, dq: Sequence, dqd: Sequence) -> tuple:
    """Re and Im dLagr from the maps f and g, at one state or lane-wise."""
    re_acc = 0.0
    im_acc = 0.0
    for a in range(len(dq)):
        re_acc += g[a] * dq[a] + f[a] * dqd[a]
        im_acc += w0 * f[a] * dq[a] - g[a] / w0 * dqd[a]
    return re_acc, im_acc


def first_variation(
    lagr: ComplexLagrangian, traj: Trajectory, var: VariationField
) -> complex:
    """dS for the perturbation dq = eps*eta: Simpson over the expanded integrand.

    Re dS is O(eps^2) when traj solves the equations of motion and Theta(eps)
    otherwise; the caller fits the log-log slope over a ladder of amplitudes.
    """
    h = _uniform_h(traj)
    maps = lagr.maps
    eps = var.amplitude
    n = lagr.dim
    vals = np.empty(traj.n_samples, dtype=complex)
    for lanes in lane_blocks(traj.n_samples):
        t = traj.t[lanes]
        dq = eps * var.eta(t)
        dqd = eps * var.eta_dot(t)
        moved = maps.lanes(t, *(x + dq for x in traj.q[lanes].T), *(v + dqd for v in traj.qd[lanes].T))
        f, g = maps.split(moved)[:2]
        vals.real[lanes], vals.imag[lanes] = _expanded(lagr.omega0, f, g, (dq,) * n, (dqd,) * n)
    return _simpson(vals, h)


def expanded_integrand(
    lagr: ComplexLagrangian, s: MechState, dq: Sequence[float], dqd: Sequence[float]
) -> complex:
    """The component-expansion dLagr at a single state, for identity checks."""
    f, g = lagr.maps(s.t, s.q, s.qd)[:2]
    return complex(*_expanded(lagr.omega0, f, g, dq, dqd))


def real_inner(z: Sequence[complex], v: Sequence[complex]) -> float:
    """Positive-definite pairing (z, v) = sum_a Re[z_a * conj(v_a)]."""
    if len(z) != len(v):
        raise LengthMismatch(f"lengths {len(z)} and {len(v)}")
    return float(sum((complex(a) * complex(b).conjugate()).real for a, b in zip(z, v)))


def pair(z: Sequence[complex], v: Sequence[complex]) -> float:
    """Non-conjugated pairing sum_a Re[z_a * v_a] = real_inner(z, conj(v))."""
    if len(z) != len(v):
        raise LengthMismatch(f"lengths {len(z)} and {len(v)}")
    return float(sum((complex(a) * complex(b)).real for a, b in zip(z, v)))


DqField = Sequence[float] | Callable[[np.ndarray, float], Sequence[float]]


def _dq_at(dq: DqField, q: np.ndarray, t: float, dim: int) -> np.ndarray:
    vec = dq(q, t) if callable(dq) else dq
    out = np.asarray(vec, dtype=float)
    if out.shape != (dim,):
        raise LengthMismatch(f"dq has shape {out.shape}, expected ({dim},)")
    return out


def noether_charge(eom: EomSystem, s: MechState, dq: DqField) -> float:
    """Gamma = momentum(eom, s) . dq; conserved along the flow iff the force
    map vanishes in the dq direction."""
    vec = _dq_at(dq, np.array(s.q), s.t, eom.dim)
    return float(momentum(eom, s) @ vec)


def charge_series(eom: EomSystem, traj: Trajectory, dq: Sequence[float]) -> np.ndarray:
    """Gamma at every trajectory sample along a constant direction dq, using
    the recorded momenta."""
    return traj.p @ _dq_at(dq, None, None, eom.dim)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log|y| against log x (scaling-exponent fit)."""
    lx = np.log(np.abs(np.asarray(xs, dtype=float)))
    ly = np.log(np.abs(np.asarray(ys, dtype=float)))
    return float(np.polyfit(lx, ly, 1)[0])
