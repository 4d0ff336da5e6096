"""When do two complex Lagrangians generate the same equations of motion?

For a pair with differences dL = L2 - L1 and dM = M2 - M1, define per
coordinate

    F_a = d(dL)/dqd_a + (1/omega0) d(dM)/dq_a.

The two momentum maps then differ by F, so the force maps must absorb its
total time derivative: the pair is equivalent iff

    sum_b (dF_a/dqd_b) qdd_b + sum_b (dF_a/dq_b) qd_b + dF_a/dt
        - d(dL)/dq_a + omega0 d(dM)/dqd_a  =  0

identically, with qdd supplied by the first system's dynamics. That is the
generalized Euler-Lagrange law A qdd + f_q qd + f_t - g = 0 of the difference
Lagrangian, so the residual reads the derived maps of its `ComplexLagrangian`,
of which F is the momentum map. Equivalence is decided by evaluating this
residual at stratified sample states, not by symbolic proof. When the qdd
coefficient dF_a/dqd_b vanishes at a sample the acceleration is not needed
there, which keeps pairs over degenerate base systems checkable; otherwise
samples where the base system cannot produce an acceleration are skipped and
too many skips yield an inconclusive verdict.

A time-harmonic scalar F with (d^2/dt^2 + omega0^2) F = (d^2/dq^2 +
omega0^2 d^2/dqd^2) Phi characterizes the residual families; the module only
checks that integrability residual, it never constructs Phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .codegen import compile_expr
from .exprcore import (
    Const,
    Expr,
    Sym,
    diff,
    free_symbols,
    simplify,
)
from .lagrangian import (
    ComplexLagrangian,
    DegenerateWithoutClosure,
    EomSystem,
    MechState,
    SingularMass,
    _dot,
    derive_eom,
    solve_linear,
)

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not-equivalent"
INCONCLUSIVE = "inconclusive"

SKIP_FRACTION_LIMIT = 0.2
RESIDUAL_RTOL = 1e-9


class GaugeDependsOnVelocity(Exception):
    """Gauge terms must be functions of (q, t) only."""


@dataclass(frozen=True)
class LagrangianPair:
    """Two Lagrangians over the same coordinates, frequency, and parameters."""

    first: ComplexLagrangian
    second: ComplexLagrangian

    def __post_init__(self) -> None:
        a, b = self.first, self.second
        if a.omega0 != b.omega0:
            raise ValueError("pair members must share omega0")
        if a.dim != b.dim:
            raise ValueError("pair members must share dim")
        if a.params != b.params:
            raise ValueError("pair members must share the parameter space")

    @property
    def dim(self) -> int:
        return self.first.dim


@dataclass(frozen=True)
class Ffunction:
    """The momentum-map difference F = d(dL)/dqd + (1/omega0) d(dM)/dq."""

    expr: Expr
    omega0: float
    dim: int
    params: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class EquivalenceReport:
    verdict: str
    max_residual: float
    scale: float
    n_samples: int
    n_skipped: int
    accel_cross_max: float | None


def _regular_or_none(lagr: ComplexLagrangian, probe: MechState) -> EomSystem | None:
    """The regular system of `lagr`, or None for a degenerate one."""
    try:
        return derive_eom(lagr, probe)
    except DegenerateWithoutClosure:
        return None


def _lane_max(cols) -> np.ndarray:
    """Python's `max` of the columns, lane by lane: a later value replaces only a greater one."""
    return reduce(lambda out, x: np.where(x > out, x, out), cols)


def _fold_max(start: float, values: np.ndarray) -> float:
    """Python's `max(start, *values)` for values without -0.0: the largest one above `start`, or `start`."""
    above = values[values > start]
    return float(above.max()) if above.size else start


def _accelerations(eom: EomSystem | None, samples: Sequence[MechState], qd: list[np.ndarray]):
    """`_accel`'s acceleration at each sample (a row per coordinate), the mask of samples where
    it raises SingularMass (all of them without a system), and the kernel's DomainErrors by
    sample: `solve_linear` per sample on the floats read from the lanes."""
    n, count = len(qd), len(samples)
    if eom is None:
        return np.full((n, count), np.nan), np.ones(count, bool), {}
    vals, errors = eom.maps.columns(samples)
    _, g, A, f_q, f_t = eom.maps.split(vals)
    b = [g[a] - _dot(f_q[a], qd) - f_t[a] for a in range(n)]
    x, singular = [], []
    for rows, rhs in zip(np.transpose(A, (2, 0, 1)).tolist(), np.transpose(b).tolist()):
        try:
            x.append(solve_linear(rows, rhs))
            singular.append(False)
        except SingularMass:
            x.append([math.nan] * n)
            singular.append(True)
    return np.array(x).T, np.array(singular), errors


def eom_equivalent(pair: LagrangianPair, samples: Sequence[MechState]) -> EquivalenceReport:
    """Sampled verdict on whether the pair shares equations of motion.

    Residuals are compared against RESIDUAL_RTOL times a scale built from the
    largest constituent term seen, so a zero residual from large cancelling
    terms still counts as zero. When both systems are regular the two
    acceleration fields are also compared directly and must agree.

    Each kernel is read once over all samples (`_Maps.columns`) and the
    arithmetic runs lane by lane in the order it has sample by sample; a
    DomainError is the one a sample-by-sample pass would meet first.
    """
    if not samples:
        raise ValueError("at least one sample state is required")
    lagr = pair.first
    n = pair.dim
    # g, c = A, d = f_q and e = f_t of the difference Lagrangian
    maps = ComplexLagrangian(pair.second.expr - lagr.expr, lagr.omega0, n, lagr.params).maps

    eom1 = _regular_or_none(pair.first, samples[0])
    eom2 = _regular_or_none(pair.second, samples[0])
    both = eom1 is not None and eom2 is not None
    vals, errors = maps.columns(samples)
    _, g, c, d, e = maps.split(vals)
    qd = [np.array(v) for v in zip(*(s.qd for s in samples))]

    with np.errstate(all="ignore"):  # IEEE results, as the floats of one sample give
        a1, singular1, errors1 = _accelerations(eom1, samples, qd)
        a2, singular2, errors2 = _accelerations(eom2 if both else None, samples, qd)
        # a sample needs the acceleration where c is not negligible against d, and is skipped without it
        c_max, d_max = (_lane_max(np.abs(x) for row in m for x in row) for m in (c, d))
        need = c_max > 1e-14 * _lane_max((1.0, d_max))
        for k in sorted({*errors, *errors1, *errors2}):
            # a sample reads the difference maps, the first system where it needs or cross-checks
            # its acceleration, and the second where the first solved
            reads = (errors, True), (errors1, need[k] or both), (errors2, not singular1[k])
            if err := next((errs[k] for errs, read in reads if read and k in errs), None):
                raise err
        used = ~(need & singular1)
        c_a = [np.where(need, _dot(row, a1), 0.0) for row in c]
        d_qd = [_dot(row, qd) for row in d]
        residual = [((c_a[a] + d_qd[a]) + e[a]) - g[a] for a in range(n)]
        max_residual = _fold_max(0.0, np.abs(residual)[:, used])
        scale = _fold_max(1.0, np.abs([*c_a, *d_qd, *e, *g])[:, used])
        gaps = _lane_max(np.abs(x - y) for x, y in zip(a1, a2))[~(singular1 | singular2)]
    cross_max = _fold_max(float(gaps[0]), gaps[1:]) if gaps.size else None
    n_skipped = len(samples) - int(used.sum())

    bound = RESIDUAL_RTOL * scale
    ok = max_residual <= bound and not (cross_max is not None and cross_max > bound)
    verdict = INCONCLUSIVE if n_skipped > SKIP_FRACTION_LIMIT * len(samples) else EQUIVALENT if ok else NOT_EQUIVALENT
    return EquivalenceReport(verdict, max_residual, scale, len(samples), n_skipped, cross_max)


def gauge_add(lagr: ComplexLagrangian, gauge: Expr) -> ComplexLagrangian:
    """Lagr + d(gauge)/dt for gauge(q, t); the classic equivalence move.

    The total derivative is built symbolically: d(gauge)/dt = d(gauge)/dt_partial
    + sum_a d(gauge)/dq_a * qd_a. A gauge term touching a velocity would smuggle
    qdd into the Lagrangian, which the framework does not admit.
    """
    loose = free_symbols(gauge) - ({"t"} | set(lagr.coords) | set(lagr.params))
    if loose & set(lagr.vels):
        raise GaugeDependsOnVelocity(
            f"gauge term depends on velocities: {sorted(loose & set(lagr.vels))}"
        )
    if loose:
        raise ValueError(f"gauge term has undeclared symbols: {sorted(loose)}")
    total = diff(gauge, "t")
    for a in range(lagr.dim):
        total = total + diff(gauge, lagr.coords[a]) * Sym(lagr.vels[a])
    return ComplexLagrangian(
        expr=simplify(lagr.expr + total),
        omega0=lagr.omega0,
        dim=lagr.dim,
        params=lagr.params,
    )


def integrability_residual(
    ffn: Ffunction, phi: Expr, samples: Sequence[MechState]
) -> float:
    """max over samples of |(d2/dt2 + w0^2) F - (d2/dq2 + w0^2 d2/dqd2) Phi|.

    Scalar (single-coordinate) form; F and Phi live in (t, q, qd).
    """
    if ffn.dim != 1:
        raise ValueError("integrability residual is defined for dim=1")
    w0sq = Const(ffn.omega0**2)
    lhs = simplify(diff(diff(ffn.expr, "t"), "t") + w0sq * ffn.expr)
    rhs = simplify(
        diff(diff(phi, "q"), "q") + w0sq * diff(diff(phi, "qd"), "qd")
    )
    args = ("t", "q", "qd")
    sides = compile_expr((lhs, rhs), args, ffn.params)
    worst = 0.0
    for s in samples:
        lhs_val, rhs_val = sides(s.t, s.q[0], s.qd[0])
        worst = max(worst, abs(lhs_val - rhs_val))
    return worst
