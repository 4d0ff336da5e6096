"""Phase-space form of the dynamics: H, the K gradients, and the flow field.

For a single coordinate, invert the momentum map p = f(q, qd, t), then build

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

When A = df/dqd folds to a nonzero constant, qd = (p - f(q, 0, t))/A is a
tree (`lagrangian.affine_inverse`, the closure's (p - f)/(A - m) at m = 0; Arnold,
Mathematical Methods of Classical Mechanics, sec. 14), and the flow is one
kernel call of (t, q, p).
Any other f is inverted by the closure's damped Newton at m = 0 (`solves.newton_solver(1)`),
its partials by a second kernel.
Either way the field's RK4 sample loop is one generated function (`codegen.compile_step`):
its stages run the one kernel's body, or call the Newton and the partials kernel, and then
`pieces`' flow as the same folded trees.
"""

from __future__ import annotations

import math
from functools import cached_property

from .codegen import compile_expr, compile_step
from .exprcore import Call, DomainError, Sym, diff, evaluate, subs
from .lagrangian import ComplexLagrangian, EomSystem, affine_inverse
from .records import record
from .solves import newton_solver


class InversionFailure(Exception):
    """Newton could not solve p = f(q, qd, t) for qd."""


class DegenerateJacobian(Exception):
    """df/dqd vanished where a K gradient was requested."""


class UnsupportedDimension(Exception):
    """The phase-space construction is single-coordinate only."""


@record(frozen=True)
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


def _degenerate(t: float, q: float, qd: float):
    """Raise DegenerateJacobian, df/dqd having vanished at (t, q, qd)."""
    raise DegenerateJacobian(f"df/dqd = 0 at (t={t!r}, q={q!r}, qd={qd!r})")


def pieces(p, values, kappa0, omega0):
    """(dH/dq, dH/dp, dK/dq, dK/dp, qd_flow, pd_flow) from `_values`' values, each piece computed
    separately (the kappa0 factors are not cancelled): the one formula, run on floats by
    `_gradients`, `_flow_at` and the hamiltonian suite's kappa0 sweep, and on trees by `step`."""
    qd, _, qd_q, qd_p, l_q, l_qd, m_q, m_qd = values
    slack = p - l_qd
    dh_q, dh_p = -l_q + slack * qd_q, qd + slack * qd_p
    mm_q, mm_p = m_q + m_qd * qd_q, m_qd * qd_p  # d/dq and d/dp of M(q, qd(q, p, t), t)
    dk_q = (qd_p * mm_q - qd_q * mm_p) / (kappa0 * omega0)
    dk_p = kappa0 * (-(qd_q / omega0) * mm_q + ((omega0 + qd_q**2 / omega0) / qd_p) * mm_p)
    return dh_q, dh_p, dk_q, dk_p, dh_p - kappa0 * dk_q, -dh_q - dk_p / kappa0


@record(frozen=True, eq=False)
class HamiltonianField:
    """Compiled phase-space field for a regular single-coordinate system; `_f` is f with the
    parameters folded in, `_qd` the inverse tree qd(t, q, p) if A folds to a nonzero constant.
    `step` is `codegen.compile_step`'s RK4 sample loop of (q, p) giving qd, p and |f - p|. With
    `_qd`, its stages are one kernel body of (t, q, p), and its last sample calls `_qd_f`, the kernel
    of (qd, f) alone, which serves `invert` too; without, each stage runs `_values`' Newton path as text."""

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
        # the parameters are folded in first, so none is read as the momentum
        f, a = subs((self.eom.f[0], self.eom.A[0][0]), self.lagr.params)
        object.__setattr__(self, "_f", f)
        inverse = affine_inverse((f,), ((a,),), ("p",), (0.0,)) if self.eom.is_regular else None
        object.__setattr__(self, "_qd", inverse and inverse[0])

    @cached_property
    def _partials(self) -> tuple:
        """The trees of (df/dq, A, dL/dq, dL/dqd, dM/dq, dM/dqd) in (t, q, qd), parameters folded."""
        L, M = self.lagr.L_expr, self.lagr.M_expr
        trees = (self.eom.f_q[0][0], self.eom.A[0][0], *(diff(e, x) for e in (L, M) for x in ("q", "qd")))
        return subs(trees, self.lagr.params)

    @cached_property
    def _grads(self):
        """The Newton path's partials at (t, q, qd)."""
        return compile_expr(self._partials, ("t", "q", "qd"), real=True)

    @cached_property
    def _phase_trees(self) -> tuple:
        """(qd, f, *`_partials`) in (t, q, p), qd put in as the inverse tree."""
        return subs((Sym("qd"), self._f, *self._partials), {"qd": self._qd})

    @cached_property
    def _qd_f(self):
        """The closed-form inverse's (qd, f) at (t, q, p)."""
        return compile_expr(self._phase_trees[:2], ("t", "q", "p"), real=True)

    @cached_property
    def _phase(self):
        return compile_expr(self._phase_trees, ("t", "q", "p"), real=True)

    @cached_property
    def step(self):
        outs, args = ("qd", "f", "f_q", "slope", "l_q", "l_qd", "m_q", "m_qd"), ("t", "q", "p")
        qd, f, f_q, slope, *partials = map(Sym, outs)
        flow = pieces(Sym("p"), (qd, f, -f_q / slope, 1.0 / slope, *partials), self.kappa0, self.lagr.omega0)[4:]
        tail, sample = ((("kx", "ky"), flow),), (("s0", "s1", "s2"), (qd, Sym("p"), Call("abs", f - Sym("p"))))
        if self._qd is not None:  # the slope is A, a nonzero constant here, so `_values`' test of it is never written
            last, names = "    qd, f = _qd_f(t0, q0, p0)", (("_qd_f", self._qd_f),)
            return compile_step(self._phase_trees, args, outs, tail, sample, last, names)
        # `_values`' Newton path as text, each stage's Newton from s0, the sample's qd once stage 1 has set it
        invert = "    qd, f = _newton_1(_kernel, InversionFailure, t, q, p, 0.0, s0)"
        grads = f"    {', '.join(outs[2:])} = _grads(t, q, qd)\n    if slope == 0.0:\n        _degenerate(t, q, qd)"
        names = (("_kernel", self.eom.maps.newton), ("_grads", self._grads), ("_degenerate", _degenerate))
        names += (("_newton_1", newton_solver(1)), ("InversionFailure", InversionFailure))
        return compile_step((), args, (), (f"{invert}\n{grads}", *tail), sample, invert, names)  # the last sample only inverts

    def momentum(self, t: float, q: float, qd: float) -> float:
        return self.eom.maps.newton(t, q, qd)[0]

    def invert(self, t: float, q: float, p: float, guess: float = 0.0) -> float:
        """Solve p = f(q, qd, t) for qd: the closed form, else Newton from `guess`."""
        return (self._invert(t, q, p, guess) if self._qd is None else self._qd_f(t, q, p))[0]

    def _invert(self, t: float, q: float, p: float, guess: float) -> tuple[float, float]:
        """(qd, f(q, qd, t)) at the qd Newton finds on (f, df/dqd)."""
        return newton_solver(1)(self.eom.maps.newton, InversionFailure, t, q, p, 0.0, float(guess))

    def _values(self, t: float, q: float, p: float, guess: float) -> tuple[float, ...]:
        """(qd, f, dqd/dq, dqd/dp, dL/dq, dL/dqd, dM/dq, dM/dqd) at (t, q, p):
        one phase-kernel call when the momentum map is affine, else Newton
        from `guess` and `_grads`; dqd/dq and dqd/dp by the implicit-function
        theorem."""
        if self._qd is None:
            qd, f = self._invert(t, q, p, guess)
            f_q, slope, l_q, l_qd, m_q, m_qd = self._grads(t, q, qd)
        else:
            qd, f, f_q, slope, l_q, l_qd, m_q, m_qd = self._phase(t, q, p)
        if slope == 0.0:
            _degenerate(t, q, qd)
        return qd, f, -f_q / slope, 1.0 / slope, l_q, l_qd, m_q, m_qd

    def hamiltonian(self, t: float, q: float, p: float, guess: float = 0.0) -> float:
        qd = self.invert(t, q, p, guess)
        at = {**self.lagr.params, "t": t, "q": q, "qd": qd}
        L = evaluate(self.lagr.L_expr, at)
        if L.imag:
            raise DomainError(f"L took the complex value {L!r} at t={t!r}, q={q!r}, p={p!r}")
        return p * qd - L.real

    def _gradients(self, t: float, q: float, p: float, guess: float) -> tuple[float, float, float, float]:
        """(dH/dq, dH/dp, dK/dq, dK/dp) at (t, q, p)."""
        return pieces(p, self._values(t, q, p, guess), self.kappa0, self.lagr.omega0)[:4]

    def h_gradients(self, t: float, q: float, p: float, guess: float = 0.0) -> tuple[float, float]:
        """(dH/dq, dH/dp); a Newton inversion starts from `guess`."""
        dh_q, dh_p, _, _ = self._gradients(t, q, p, guess)
        return dh_q, dh_p

    def k_gradients(self, t: float, q: float, p: float, guess: float = 0.0) -> tuple[float, float]:
        """(dK/dq, dK/dp); a Newton inversion starts from `guess`."""
        _, _, dk_q, dk_p = self._gradients(t, q, p, guess)
        return dk_q, dk_p

    def flow(self, t: float, q: float, p: float, guess: float = 0.0) -> tuple[float, float]:
        """(qd_flow, pd_flow) from the two-generator equations of motion."""
        return self._flow_at(t, q, p, guess)[2:]

    def _flow_at(self, t: float, q: float, p: float, guess: float) -> tuple[float, float, float, float]:
        """(qd, f, qd_flow, pd_flow) at (t, q, p)."""
        values = self._values(t, q, p, guess)
        _, _, _, _, qd_flow, pd_flow = pieces(p, values, self.kappa0, self.lagr.omega0)
        return values[0], values[1], qd_flow, pd_flow


def invert_velocity(
    field: HamiltonianField, q: float, p: float, t: float, guess: float = 0.0
) -> float:
    """qd with f(q, qd, t) = p: the closed form for an affine f, else the damped Newton
    from `guess`, which stops once its next step would move qd by about NEWTON_TOL relative
    and raises InversionFailure after NEWTON_MAX_ITER steps."""
    return field.invert(t, q, p, guess)


def legendre_H(field: HamiltonianField, q: float, p: float, t: float) -> float:
    """H = p qd - L at the inverted velocity."""
    return field.hamiltonian(t, q, p)


def k_gradients(
    field: HamiltonianField, q: float, p: float, t: float
) -> tuple[float, float]:
    """(dK/dq, dK/dp) reconstructed from the transformed M map."""
    return field.k_gradients(t, q, p)


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
