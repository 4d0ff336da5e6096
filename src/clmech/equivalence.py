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
Lagrangian, so the residual reads its derived maps (`lagrangian._Maps`), of
which F is the momentum map. Equivalence is decided by evaluating this
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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .exprcore import (
    Const,
    Expr,
    Sym,
    compile_expr,
    diff,
    free_symbols,
    simplify,
    split,
)
from .lagrangian import (
    ComplexLagrangian,
    DegenerateWithoutClosure,
    EomSystem,
    MechState,
    SingularMass,
    derive_eom,
    _accel,
    _Maps,
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

    @cached_property
    def delta_L(self) -> Expr:
        return split(self.second.expr - self.first.expr)[0]

    @cached_property
    def delta_M(self) -> Expr:
        return split(self.second.expr - self.first.expr)[1]


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

    @property
    def is_equivalent(self) -> bool:
        return self.verdict == EQUIVALENT


def _regular_or_none(lagr: ComplexLagrangian, probe: MechState) -> EomSystem | None:
    try:
        eom = derive_eom(lagr, probe)
    except (DegenerateWithoutClosure, SingularMass):
        return None
    return eom


def eom_equivalent(
    pair: LagrangianPair, samples: Sequence[MechState]
) -> EquivalenceReport:
    """Sampled verdict on whether the pair shares equations of motion.

    Residuals are compared against RESIDUAL_RTOL times a scale built from the
    largest constituent term seen, so a zero residual from large cancelling
    terms still counts as zero. When both systems are regular the two
    acceleration fields are also compared directly and must agree.
    """
    if not samples:
        raise ValueError("at least one sample state is required")
    lagr = pair.first
    n = pair.dim
    # c = A, d = f_q, e = f_t and tail = -g of the difference
    maps = _Maps(pair.delta_L, pair.delta_M, lagr.omega0, n, lagr.params)

    eom1 = _regular_or_none(pair.first, samples[0])
    eom2 = _regular_or_none(pair.second, samples[0])

    max_residual = 0.0
    scale = 1.0
    n_skipped = 0
    cross_max: float | None = None

    for s in samples:
        _, g, c, d, e = maps(s.t, s.q, s.qd)
        qd = np.array(s.qd)
        c_mat, d_mat, e_vec, tail_vec = np.array(c), np.array(d), np.array(e), -np.array(g)

        needs_accel = np.abs(c_mat).max() > 1e-14 * max(1.0, np.abs(d_mat).max())
        a1 = None  # the first system's acceleration, once computed
        if needs_accel:
            if eom1 is None or not eom1.is_regular:
                n_skipped += 1
                continue
            try:
                a1 = _accel(eom1.maps, s.t, s.q, s.qd)[0]
            except SingularMass:
                n_skipped += 1
                continue
            accel_term = c_mat @ np.array(a1)
        else:
            accel_term = np.zeros(n)

        residual = accel_term + d_mat @ qd + e_vec + tail_vec
        pieces_seen = [accel_term, d_mat @ qd, e_vec, tail_vec]
        scale = max(scale, *(float(np.abs(p).max(initial=0.0)) for p in pieces_seen))
        max_residual = max(max_residual, float(np.abs(residual).max()))

        if eom1 is not None and eom2 is not None and eom1.is_regular and eom2.is_regular:
            try:
                if a1 is None:
                    a1 = _accel(eom1.maps, s.t, s.q, s.qd)[0]
                a2 = _accel(eom2.maps, s.t, s.q, s.qd)[0]
            except SingularMass:
                pass
            else:
                gap = max(abs(x - y) for x, y in zip(a1, a2))
                cross_max = gap if cross_max is None else max(cross_max, gap)

    if n_skipped > SKIP_FRACTION_LIMIT * len(samples):
        return EquivalenceReport(
            INCONCLUSIVE, max_residual, scale, len(samples), n_skipped, cross_max
        )
    ok = max_residual <= RESIDUAL_RTOL * scale
    if cross_max is not None and cross_max > RESIDUAL_RTOL * scale:
        ok = False
    verdict = EQUIVALENT if ok else NOT_EQUIVALENT
    return EquivalenceReport(
        verdict, max_residual, scale, len(samples), n_skipped, cross_max
    )


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
