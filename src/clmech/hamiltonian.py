"""Phase-space form of the dynamics: H, the K gradients, and the flow field.

For a single coordinate, invert the momentum map p = f(q, qd, t) by Newton
iteration, then build

    H(q, p, t) = p qd(q, p, t) - L(q, qd(q, p, t), t)

with exact implicit-function partials dqd/dp = 1/(df/dqd) and
dqd/dq = -(df/dq)/(df/dqd). The chain rule through the inverse map gives

    dH/dp = qd + (p - dL/dqd) dqd/dp
    dH/dq = -dL/dq + (p - dL/dqd) dqd/dq

where p - dL/dqd = (1/omega0) dM/dq on the constraint, so these do NOT
collapse to the classical (qd, -dL/dq) unless M is q-independent. The second
generator K enters only through its gradients, reconstructed from the
transformed map MM(q, p, t) = M(q, qd(q, p, t), t):

    dK/dq = (1/(kappa0 omega0)) [ (dqd/dp) dMM/dq - (dqd/dq) dMM/dp ]
    dK/dp = kappa0 [ -(1/omega0)(dqd/dq) dMM/dq
                     + ((omega0 + (dqd/dq)^2/omega0)/(dqd/dp)) dMM/dp ]

and the flow is qd_flow = dH/dp - kappa0 dK/dq, pd_flow = -dH/dq -
(1/kappa0) dK/dp. Algebraically the kappa0 factors cancel and the flow equals
(qd(q, p, t), g(q, qd, t)), which is what makes the phase trajectories agree
with the Lagrangian-side ones; the module still computes each (la-style)
piece separately so the cancellation is observed, not assumed. K itself is
never constructed: whether its mixed partials commute is reported as a
finite-difference diagnostic, not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exprcore import compile_expr, diff, evaluate
from .lagrangian import ComplexLagrangian, EomSystem, MechState, _solve_velocity_scalar


class InversionFailure(Exception):
    """Newton could not solve p = f(q, qd, t) for qd."""


class DegenerateJacobian(Exception):
    """df/dqd vanished where a K gradient was requested."""


class UnsupportedDimension(Exception):
    """The phase-space construction is single-coordinate only."""


@dataclass(frozen=True)
class PhaseState:
    """A (t, q, p) point of the single-coordinate phase space."""

    t: float
    q: float
    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "p", float(self.p))
        if not all(math.isfinite(x) for x in (self.t, self.q, self.p)):
            raise ValueError("phase state entries must be finite")


@dataclass(frozen=True, eq=False)
class HamiltonianField:
    """Compiled phase-space field for a regular single-coordinate system;
    it inverts p = f with the derived maps' Newton (closure mass 0)."""

    lagr: ComplexLagrangian
    eom: EomSystem
    kappa0: float = 1.0

    def __post_init__(self) -> None:
        if self.lagr.dim != 1:
            raise UnsupportedDimension(
                f"phase-space construction needs dim=1, got {self.lagr.dim}"
            )
        if self.kappa0 == 0 or not math.isfinite(self.kappa0):
            raise ValueError("kappa0 must be a nonzero finite real")
        L, M = self.lagr.L_expr, self.lagr.M_expr
        partials = (self.eom.f_q[0][0], self.eom.A[0][0])
        partials += tuple(diff(e, x) for e in (L, M) for x in ("q", "qd"))
        grads = compile_expr(partials, ("t", "q", "qd"), self.lagr.params, real=True)
        object.__setattr__(self, "_grads", grads)
        object.__setattr__(self, "_newton", self.eom.maps.newton)  # (f, df/dqd)

    def momentum(self, t: float, q: float, qd: float) -> float:
        return self._newton(t, q, qd)[0]

    def invert(self, t: float, q: float, p: float, guess: float = 0.0) -> float:
        """Solve p = f(q, qd, t) for qd by damped Newton from `guess`."""
        # not through `_invert`: this runs at every RK4 stage of the flow
        return _solve_velocity_scalar(self._newton, t, q, p, 0.0, float(guess), InversionFailure)[0]

    def _invert(self, t: float, q: float, p: float, guess: float) -> tuple[float, float]:
        """(qd, f(q, qd, t)) at the converged qd."""
        return _solve_velocity_scalar(self._newton, t, q, p, 0.0, float(guess), InversionFailure)

    def _derivatives(self, t: float, q: float, qd: float) -> tuple[float, ...]:
        """(dqd/dq, dqd/dp, dL/dq, dL/dqd, dM/dq, dM/dqd); the first two from
        the implicit-function theorem."""
        f_q, slope, l_q, l_qd, m_q, m_qd = self._grads(t, q, qd)
        if slope == 0.0:
            raise DegenerateJacobian(f"df/dqd = 0 at (t={t!r}, q={q!r}, qd={qd!r})")
        return -f_q / slope, 1.0 / slope, l_q, l_qd, m_q, m_qd

    def hamiltonian(self, t: float, q: float, p: float, guess: float = 0.0) -> float:
        qd = self.invert(t, q, p, guess)
        at = {**self.lagr.params, "t": t, "q": q, "qd": qd}
        return p * qd - evaluate(self.lagr.L_expr, at).real

    def _gradients(
        self, t: float, q: float, p: float, qd: float
    ) -> tuple[float, float, float, float]:
        """(dH/dq, dH/dp, dK/dq, dK/dp) at an already-inverted qd."""
        qd_q, qd_p, l_q, l_qd, m_q, m_qd = self._derivatives(t, q, qd)
        slack = p - l_qd
        dh_q = -l_q + slack * qd_q
        dh_p = qd + slack * qd_p
        w0 = self.lagr.omega0
        k0 = self.kappa0
        mm_q = m_q + m_qd * qd_q  # d/dq of M(q, qd(q,p,t), t)
        mm_p = m_qd * qd_p
        dk_q = (qd_p * mm_q - qd_q * mm_p) / (k0 * w0)
        dk_p = k0 * (-(qd_q / w0) * mm_q + ((w0 + qd_q**2 / w0) / qd_p) * mm_p)
        return dh_q, dh_p, dk_q, dk_p

    def h_gradients(
        self, t: float, q: float, p: float, qd: float
    ) -> tuple[float, float]:
        """(dH/dq, dH/dp) at an already-inverted qd."""
        dh_q, dh_p, _, _ = self._gradients(t, q, p, qd)
        return dh_q, dh_p

    def k_gradients(
        self, t: float, q: float, p: float, qd: float
    ) -> tuple[float, float]:
        """(dK/dq, dK/dp) at an already-inverted qd."""
        _, _, dk_q, dk_p = self._gradients(t, q, p, qd)
        return dk_q, dk_p

    def flow(
        self, t: float, q: float, p: float, guess: float = 0.0
    ) -> tuple[float, float]:
        """(qd_flow, pd_flow) from the two-generator equations of motion."""
        return self._flow_at(t, q, p, self.invert(t, q, p, guess))

    def _flow_at(self, t: float, q: float, p: float, qd: float) -> tuple[float, float]:
        dh_q, dh_p, dk_q, dk_p = self._gradients(t, q, p, qd)
        return dh_p - self.kappa0 * dk_q, -dh_q - dk_p / self.kappa0


def invert_velocity(
    field: HamiltonianField, q: float, p: float, t: float, guess: float = 0.0
) -> float:
    """qd with f(q, qd, t) = p; Newton tolerance 1e-12, at most 50 steps."""
    return field.invert(t, q, p, guess)


def legendre_H(field: HamiltonianField, q: float, p: float, t: float) -> float:
    """H = p qd - L at the inverted velocity."""
    return field.hamiltonian(t, q, p)


def k_gradients(
    field: HamiltonianField, q: float, p: float, t: float
) -> tuple[float, float]:
    """(dK/dq, dK/dp) reconstructed from the transformed M map."""
    qd = field.invert(t, q, p)
    return field.k_gradients(t, q, p, qd)


def flow_field(field: HamiltonianField, s: PhaseState) -> tuple[float, float]:
    """The phase-space velocity (qd_flow, pd_flow) at s."""
    return field.flow(s.t, s.q, s.p)


def mixed_partial_diagnostic(field: HamiltonianField, q: float, p: float, t: float) -> float:
    """|d(dK/dq)/dp - d(dK/dp)/dq| by central differences of step 1e-5;
    reported, not asserted.

    A commuting pair is evidence that a single scalar K generates both
    gradients near (q, p); the construction itself never builds K.
    """
    delta = 1e-5
    kq_pp = k_gradients(field, q, p + delta, t)[0]
    kq_pm = k_gradients(field, q, p - delta, t)[0]
    kp_qp = k_gradients(field, q + delta, p, t)[1]
    kp_qm = k_gradients(field, q - delta, p, t)[1]
    return abs((kq_pp - kq_pm) / (2 * delta) - (kp_qp - kp_qm) / (2 * delta))
