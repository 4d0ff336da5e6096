"""The Lagrangian one-form, its Lie derivative along the flow, and the pairing form.

Theta_L has dq-coefficients equal to the momentum map f and zero
dqd-coefficients. Its Lie derivative along the dynamical field (qd, qdd) is

    L_Delta Theta = (df/dt) dq + f dqd = g dq + f dqd

using the equation of motion df/dt = g, so the closed form needs no
acceleration and is well-defined for closure flows too. The same coefficients
arise from the non-conjugated pairing 2 Re[sqrt(2) dLagr/dw * dw] with
dw = (dqd + i omega0 dq)/sqrt(2):

    dq-coefficient  = -omega0 Im[sqrt(2) dLagr/dw] = g
    dqd-coefficient =         Re[sqrt(2) dLagr/dw] = f

That equality is the module's central identity; it is asserted numerically at
sampled states rather than assumed. As an independent check, lie_theta_cartan
recomputes df/dt by differencing f at seven flow points read off one
integrated arc each way, which requires a flow the integrator can produce and
agrees with the closed form to ~1e-10 on regular systems.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import IntegratorConfig, integrate
from .exprcore import DomainError
from .lagrangian import ComplexLagrangian, EomSystem, MechState, momentum
from .records import record

# 6th-order central first-derivative stencil on offsets -3..3, divided by 60*delta
_STENCIL = (-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0)
# the stencil's spacing in flow time, and the RK4 steps per spacing
CARTAN_DELTA = 0.03
CARTAN_SUBSTEPS = 8


@record(frozen=True)
class OneForm:
    """Coefficients over the (dq_a, dqd_a) basis at a fixed state."""

    dq: tuple[float, ...]
    dqd: tuple[float, ...]
    state: MechState

    def __post_init__(self) -> None:
        object.__setattr__(self, "dq", tuple(map(float, self.dq)))
        object.__setattr__(self, "dqd", tuple(map(float, self.dqd)))
        if not all(map(math.isfinite, self.dq + self.dqd)):
            raise ValueError("one-form coefficients must be finite")
        if len(self.dq) != len(self.dqd):
            raise ValueError("coefficient vectors must have equal length")


def _form(dq, dqd, s: MechState) -> OneForm:
    """The form at s; coefficients that are not finite put s outside the maps' domain."""
    return OneForm(*_finite(dq, dqd, s), s)


def _finite(dq, dqd, s: MechState) -> tuple:
    """(dq, dqd), or `_form`'s DomainError."""
    if not all(map(math.isfinite, (*dq, *dqd))):
        raise DomainError(f"one-form coefficients are not finite at t={s.t!r}, q={s.q!r}, qd={s.qd!r}")
    return dq, dqd


def theta(lagr: ComplexLagrangian, eom: EomSystem, s: MechState) -> OneForm:
    """Theta_L = f_a dq^a."""
    return _form(momentum(eom, s), (0.0,) * lagr.dim, s)


def lie_theta(lagr: ComplexLagrangian, eom: EomSystem, s: MechState) -> OneForm:
    """Closed-form Lie derivative of Theta along the flow: g_a dq^a + f_a dqd^a."""
    f, g, *_ = eom.maps(s.t, s.q, s.qd)
    return _form(g, f, s)


def lie_values(eom: EomSystem, states: list[MechState]) -> list[tuple]:
    """The coefficients of `lie_theta` at each state from one `lanes` read
    (`_Maps.columns`), raising where the state loop first would."""
    vals, errors = eom.maps.columns(states)
    f, g, *_ = eom.maps.split(vals)
    first = min(errors, default=len(states))
    values = [_finite(*v) for v in zip(np.transpose(g).tolist(), np.transpose(f).tolist(), states[:first])]
    if errors:
        raise errors[first]
    return values


def pairing_values(lagr: ComplexLagrangian, s: MechState) -> tuple:
    """The coefficients of `rhs_pairing_form` at s, from one call of the complex kernel: each
    coordinate's sqrt(2) * `wirtinger`, formed as `wirtinger` forms it."""
    d, n, rt2 = lagr._wirtinger(s.t, *s.q, *s.qd), lagr.dim, math.sqrt(2.0)
    z = [rt2 * ((d[a] - (1j / lagr.omega0) * d[n + a]) / rt2) for a in range(n)]
    return _finite([-lagr.omega0 * x.imag for x in z], [x.real for x in z], s)


def rhs_pairing_form(lagr: ComplexLagrangian, s: MechState) -> OneForm:
    """The pairing side: coefficients of 2 Re[sqrt(2) dLagr/dw_a * dw_a]."""
    return OneForm(*pairing_values(lagr, s), s)


def lie_theta_cartan(lagr: ComplexLagrangian, eom: EomSystem, s: MechState) -> OneForm:
    """Lie derivative with df/dt taken numerically along integrated flow arcs.

    Seven flow points at t + j*delta (j = -3..3, delta = CARTAN_DELTA) feed a
    6th-order stencil. They are read off one RK4 integration each way from s
    to t +- 3*delta, CARTAN_SUBSTEPS steps per delta of flow time: point j is
    the momentum the arc recorded at sample |j|*CARTAN_SUBSTEPS. Stencil
    truncation is O(delta^6), a few 1e-11 at unit frequencies, and roundoff
    through the 60*delta divisor stays near 1e-14, so the total sits
    comfortably inside the 1e-9 cross-check budget for desk-scale parameters.
    """
    delta = CARTAN_DELTA
    back, ahead = (
        integrate(eom, s, IntegratorConfig(delta / CARTAN_SUBSTEPS, s.t, s.t + 3 * d))
        for d in (-delta, delta)
    )
    fdot = np.zeros(lagr.dim)
    for j, w in zip(range(-3, 4), _STENCIL):
        if w:
            fdot += w * (ahead if j > 0 else back).p[abs(j) * CARTAN_SUBSTEPS]
    fdot /= 60.0 * delta
    return _form(fdot, momentum(eom, s), s)
