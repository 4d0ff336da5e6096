"""The derived maps against sympy, an oracle that shares no code with clmech.

sympy splits 𝔏 into L and M over real symbols and builds the README's maps

    f_a = dL/dqd_a + (1/omega0) dM/dq_a     g_a = dL/dq_a - omega0 dM/dqd_a
    A_ab = df_a/dqd_b    f_q[a][b] = df_a/dq_b    f_t[a] = df_a/dt

which must agree with `lagr.maps.kernel` to 1e-12 relative at seeded states.
So must `wirtinger`, against sympy's own complex derivatives of 𝔏.
"""

import cmath
import math
import random
import warnings

import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_exprcore import TERM_TEMPLATES  # noqa: E402

from clmech.corpus import bundled_corpus  # noqa: E402
from clmech.exprcore import parse  # noqa: E402
from clmech.hamiltonian import HamiltonianField, invert_velocity  # noqa: E402
from clmech.lagrangian import (  # noqa: E402
    ClosureConsistencyWarning,
    ComplexLagrangian,
    MechState,
    closure_velocity,
    coordinate_names,
    derive_eom,
    velocity_names,
    wirtinger,
)

RTOL = 1e-12


def _symbols(lagr: ComplexLagrangian):
    t = sympy.Symbol("t", real=True)
    q = [sympy.Symbol(name, real=True) for name in lagr.coords]
    qd = [sympy.Symbol(name, real=True) for name in lagr.vels]
    params = [sympy.Symbol(name, real=True) for name in lagr.params]
    return t, q, qd, params


def _L_and_M(source: str, lagr: ComplexLagrangian):
    t, q, qd, params = _symbols(lagr)
    names = {s.name: s for s in (t, *q, *qd, *params)}
    names.update(i=sympy.I, ln=sympy.log)
    expr = sympy.sympify(source.replace("^", "**"), locals=names)
    return expr.as_real_imag()


def _sympy_maps(source: str, lagr: ComplexLagrangian):
    """The flat (f, g, A, f_q, f_t) of the kernel, as a float function of
    (t, *q, *qd, *params)."""
    t, q, qd, params = _symbols(lagr)
    L, M = _L_and_M(source, lagr)
    w0 = sympy.Float(lagr.omega0)
    n = lagr.dim
    f = [sympy.diff(L, qd[a]) + sympy.diff(M, q[a]) / w0 for a in range(n)]
    g = [sympy.diff(L, q[a]) - w0 * sympy.diff(M, qd[a]) for a in range(n)]
    A = [sympy.diff(f[a], qd[b]) for a in range(n) for b in range(n)]
    f_q = [sympy.diff(f[a], q[b]) for a in range(n) for b in range(n)]
    f_t = [sympy.diff(f[a], t) for a in range(n)]
    return sympy.lambdify([t, *q, *qd, *params], f + g + A + f_q + f_t, modules="math")


def _states(dim: int, seed: int, count: int = 6):
    rng = random.Random(seed)
    for _ in range(count):
        t = rng.uniform(0.0, 2.0)
        yield t, [rng.uniform(-2.0, 2.0) for _ in range(dim)], [rng.uniform(-2.0, 2.0) for _ in range(dim)]


def _assert_maps_agree(source: str, lagr: ComplexLagrangian, seed: int) -> None:
    want_at = _sympy_maps(source, lagr)
    kernel = lagr.maps.kernel
    for t, q, qd in _states(lagr.dim, seed):
        got = kernel(t, *q, *qd)
        want = [float(v) for v in want_at(t, *q, *qd, *lagr.params.values())]
        scale = max(1.0, *map(abs, want))
        for k, (x, y) in enumerate(zip(got, want)):
            assert math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * scale), (
                f"{source}: map entry {k} is {x!r}, sympy gives {y!r} at t={t}, q={q}, qd={qd}"
            )


BUNDLED = [(sc.name, sc) for sc in bundled_corpus()]


@pytest.mark.parametrize("name, sc", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_bundled_maps_match_sympy(name, sc):
    _assert_maps_agree(sc.lagrangian, sc.build_lagrangian(), seed=len(name))


@pytest.mark.parametrize("name, sc", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_quadratic_inversion_matches_sympy_solve(name, sc):
    lagr = sc.build_lagrangian()
    if sc.closure_mass is not None:
        pytest.skip("degenerate: no Legendre inversion")
    t, (q,), (qd,), params = _symbols(lagr)
    L, M = _L_and_M(sc.lagrangian, lagr)
    p = sympy.Symbol("p", real=True)
    f = sympy.diff(L, qd) + sympy.diff(M, q) / sympy.Float(lagr.omega0)
    (solution,) = sympy.solve(sympy.Eq(f, p), qd)
    want_at = sympy.lambdify([t, q, p, *params], solution, modules="math")
    field = HamiltonianField(lagr, derive_eom(lagr, sc.probe_state()))
    for t0, (q0,), (p0,) in _states(1, seed=len(name)):
        want = float(want_at(t0, q0, p0, *lagr.params.values()))
        got = invert_velocity(field, q0, p0, t0)
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL), (name, t0, q0, p0)


_PART = st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def _lagrangians(draw, max_dim=3):
    """(source, dim, omega0): a sum of complex coefficients times terms."""
    dim = draw(st.integers(1, max_dim))
    index = st.integers(0, dim - 1)
    coords, vels = coordinate_names(dim), velocity_names(dim)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        a, b = draw(index), draw(index)
        names = dict(qa=coords[a], qb=coords[b], va=vels[a], vb=vels[b])
        template = draw(st.sampled_from(TERM_TEMPLATES))
        re, im = draw(_PART), draw(_PART)
        terms.append(f"({re!r} + {im!r}*i)*({template.format(**names)})")
    omega0 = draw(st.sampled_from([1.0, 0.7, -1.3, 2.5]))
    return " + ".join(terms), dim, omega0


@given(_lagrangians(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_generated_maps_match_sympy(drawn, seed):
    source, dim, omega0 = drawn
    _assert_maps_agree(source, ComplexLagrangian(parse(source), omega0, dim), seed)


def _assert_wirtinger_agrees(source: str, lagr: ComplexLagrangian, seed: int) -> None:
    """`wirtinger` at each coordinate against (d𝔏/dqd_a - (i/omega0) d𝔏/dq_a)/sqrt(2) from
    sympy's derivatives of the complex 𝔏, each split into its real and imaginary parts."""
    t, q, qd, params = _symbols(lagr)
    names = {s.name: s for s in (t, *q, *qd, *params)}
    names.update(i=sympy.I, ln=sympy.log)
    expr = sympy.sympify(source.replace("^", "**"), locals=names)
    w0 = sympy.Float(lagr.omega0)
    parts = []
    for a in range(lagr.dim):
        w = (sympy.diff(expr, qd[a]) - sympy.I / w0 * sympy.diff(expr, q[a])) / sympy.sqrt(2)
        parts += w.as_real_imag()
    want_at = sympy.lambdify([t, *q, *qd, *params], parts, modules="math")
    for t0, q0, qd0 in _states(lagr.dim, seed):
        vals = [float(v) for v in want_at(t0, *q0, *qd0, *lagr.params.values())]
        state = MechState(t0, q0, qd0)
        for a in range(lagr.dim):
            got, want = wirtinger(lagr, state, a), complex(vals[2 * a], vals[2 * a + 1])
            assert cmath.isclose(got, want, rel_tol=RTOL, abs_tol=RTOL * max(1.0, abs(want))), (
                f"{source}: wirtinger {a} is {got!r}, sympy gives {want!r} at t={t0}, q={q0}, qd={qd0}"
            )


@pytest.mark.parametrize("name, sc", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_bundled_wirtinger_matches_sympy(name, sc):
    _assert_wirtinger_agrees(sc.lagrangian, sc.build_lagrangian(), seed=len(name))


@given(_lagrangians(max_dim=1), st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_generated_wirtinger_matches_sympy(drawn, seed):
    source, dim, omega0 = drawn
    _assert_wirtinger_agrees(source, ComplexLagrangian(parse(source), omega0, dim), seed)


REGULAR = [(name, sc) for name, sc in BUNDLED if sc.closure_mass is None]


def _sympy_phase(source: str, lagr: ComplexLagrangian):
    """(dH/dq, dH/dp, dK/dq, dK/dp, qd_flow, pd_flow, p, g) as a float function of
    (t, q, qd, kappa0, *params), from sympy's own partials of L and M at p = f(t, q, qd):
    the implicit partials dqd/dp = 1/(df/dqd) and dqd/dq = -(df/dq)/(df/dqd), then the
    generator formulas of the `hamiltonian` module docstring."""
    t, (q,), (qd,), params = _symbols(lagr)
    kappa0 = sympy.Symbol("kappa0", real=True)
    L, M = _L_and_M(source, lagr)
    w0 = sympy.Float(lagr.omega0)
    p = sympy.diff(L, qd) + sympy.diff(M, q) / w0
    g = sympy.diff(L, q) - w0 * sympy.diff(M, qd)
    qd_p, qd_q = 1 / sympy.diff(p, qd), -sympy.diff(p, q) / sympy.diff(p, qd)
    slack = p - sympy.diff(L, qd)
    dh_q, dh_p = -sympy.diff(L, q) + slack * qd_q, qd + slack * qd_p
    mm_q, mm_p = sympy.diff(M, q) + sympy.diff(M, qd) * qd_q, sympy.diff(M, qd) * qd_p
    dk_q = (qd_p * mm_q - qd_q * mm_p) / (kappa0 * w0)
    dk_p = kappa0 * (-(qd_q / w0) * mm_q + ((w0 + qd_q**2 / w0) / qd_p) * mm_p)
    pieces = [dh_q, dh_p, dk_q, dk_p, dh_p - kappa0 * dk_q, -dh_q - dk_p / kappa0, p, g]
    return sympy.lambdify([t, q, qd, kappa0, *params], pieces, modules="math")


@pytest.mark.parametrize("omega0", [0.7, 1.0, 2.5])
@pytest.mark.parametrize("name, sc", REGULAR, ids=[name for name, _ in REGULAR])
def test_phase_pieces_match_sympy(name, sc, omega0):
    """`h_gradients`, `k_gradients` and `flow` against sympy, and the flow against (qd, g):
    the kappa0 factors cancel, which the field computes piece by piece."""
    lagr = ComplexLagrangian(parse(sc.lagrangian), omega0, params=sc.params)
    want_at = _sympy_phase(sc.lagrangian, lagr)
    eom = derive_eom(lagr, sc.probe_state())
    for kappa0 in (0.8, 1.0, 1.3):
        field = HamiltonianField(lagr, eom, kappa0)
        for t0, (q0,), (qd0,) in _states(1, seed=len(name)):
            dh_q, dh_p, dk_q, dk_p, qd_flow, pd_flow, p0, g = map(
                float, want_at(t0, q0, qd0, kappa0, *lagr.params.values())
            )
            got = (*field.h_gradients(t0, q0, p0), *field.k_gradients(t0, q0, p0), *field.flow(t0, q0, p0))
            want = (dh_q, dh_p, dk_q, dk_p, qd_flow, pd_flow)
            scale = max(1.0, *map(abs, want))
            for k, (x, y) in enumerate(zip(got, want)):
                assert math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * scale), (name, kappa0, k, t0, q0, qd0)
            for x, y in zip(got[4:], (qd0, g)):
                assert math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * scale), (name, kappa0, t0, q0, qd0)


# Affine closures above one coordinate: A folds to a constant singular matrix
# (real qd terms and imaginary q*qd terms only with constant coefficients), and
# A - diag(m) is invertible, so f = m*qd is a linear system for qd.
AFFINE_CLOSURES = {
    "dim2": (
        "0.5*qd1^2 + i*(0.3*q1*qd2 - 0.5*k*(q1^2 + q2^2) + 0.2*t*q2 - 0.1*cos(q1)*q2)",
        {"k": 1.0},
        (-1.1, -0.9),
    ),
    "dim3": (
        "0.5*qd1^2 + 0.4*qd1*qd3 + 0.2*q2*qd1 + i*(0.3*q1*qd2 - 0.2*q3*qd1 - 0.5*k*(q1^2 + q2^2 + q3^2)"
        " + 0.2*t*q2 - 0.1*cos(q1)*q3 + 0.1*exp(-q2^2/2))",
        {"k": 1.0},
        (-1.1, -0.9, 1.3),
    ),
}
CLOSURES = [(sc.name, sc.lagrangian, sc.params, sc.omega0, sc.closure_mass) for sc in bundled_corpus() if sc.closure_mass]
CLOSURES += [(name, source, params, 1.0, mass) for name, (source, params, mass) in AFFINE_CLOSURES.items()]
_U = 2.0**-52


def _sympy_closure(source: str, lagr: ComplexLagrangian, mass):
    """sympy solves f = m*qd, linear in qd, for v(t, q). Returns v as a function
    of (t, *q, *params), and (qdd, g) as a function of (t, *q, *c, *params), both
    in mpmath: on the line phi(s) = v(t + s, q + s*c), which
    `_closure_consistency`'s central difference samples with c the closure
    velocity at the probe, qdd = phi'(0) = dv/dt + (dv/dq) c, and g is the force
    map at (t, q, c)."""
    t, q, qd, params = _symbols(lagr)
    L, M = _L_and_M(source, lagr)
    w0 = sympy.Float(lagr.omega0)
    n = lagr.dim
    f = [sympy.diff(L, qd[a]) + sympy.diff(M, q[a]) / w0 for a in range(n)]
    g = [sympy.diff(L, q[a]) - w0 * sympy.diff(M, qd[a]) for a in range(n)]
    (solution,) = sympy.solve([sympy.Eq(f[a], sympy.Float(mass[a]) * qd[a]) for a in range(n)], qd, dict=True, simplify=False)
    v = [solution[x] for x in qd]
    qdd = [sympy.diff(e, t) + sum(qd[b] * sympy.diff(e, q[b]) for b in range(n)) for e in v]
    v_at = sympy.lambdify([t, *q, *params], v, modules="mpmath")
    return v_at, sympy.lambdify([t, *q, *qd, *params], [qdd, g], modules="mpmath")


def _assert_closure_agrees(source: str, lagr: ComplexLagrangian, mass, seed: int) -> None:
    """`closure_velocity` against sympy's solution of f = m*qd at seeded states,
    and `closure_consistency` at each as a probe against its value from sympy's
    exact qdd along the flow through it (all of sympy's values in 40-digit
    mpmath), within the error of the 1e-6 central difference that
    `_closure_consistency` takes: the truncation (delta^2/6)|phi'''(0)|, with
    phi''' from mpmath's differentiation of sympy's v along the line, plus the
    errors of its two velocities against v at the unrounded points of the line
    over 2*delta and the rounding of the quotient."""
    v_at, line_at = _sympy_closure(source, lagr, mass)
    values = list(lagr.params.values())
    for t0, q0, qd0 in _states(lagr.dim, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClosureConsistencyWarning)
            eom = derive_eom(lagr, MechState(t0, q0, qd0), mass)
        got = closure_velocity(eom, t0, q0)
        with mpmath.workdps(40):
            want = [float(x) for x in v_at(t0, *q0, *values)]
        for a, (x, y) in enumerate(zip(got, want)):
            assert math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * max(1.0, abs(y))), (
                f"{source}: closure velocity {a} is {x!r}, sympy gives {y!r} at t={t0}, q={q0}"
            )
        # the line through the probe, as `_closure_consistency` takes it from the velocity there
        with mpmath.workdps(40):
            qdd, g = ([float(x) for x in column] for column in line_at(t0, *q0, *got, *values))
            phi = lambda s, a: v_at(t0 + s, *(x + s * w for x, w in zip(q0, got)), *values)[a]  # noqa: E731
            phi3 = [float(mpmath.diff(lambda s: phi(s, a), 0, 3)) for a in range(lagr.dim)]
        delta = 1e-6 * (1.0 + max(map(abs, got)))
        errors = []
        for h in (delta, -delta):
            point = [x + h * w for x, w in zip(q0, got)]
            with mpmath.workdps(40):
                exact = v_at(mpmath.mpf(t0) + h, *(mpmath.mpf(x) + mpmath.mpf(h) * w for x, w in zip(q0, got)), *values)
                velocity = closure_velocity(eom, t0 + h, point, got)
                errors.append([float(abs(mpmath.mpf(x) - y)) for x, y in zip(velocity, exact)])
        fd_error = [
            delta**2 / 6 * abs(d3) + (e_plus + e_minus) / (2 * delta) + 4 * _U * abs(x)
            for d3, e_plus, e_minus, x in zip(phi3, *errors, qdd)
        ]
        scale = max(1.0, *map(abs, g))
        want = max(abs(m * x - y) for m, x, y in zip(mass, qdd, g)) / scale
        bound = max(abs(m) * e for m, e in zip(mass, fd_error)) / scale + 8 * _U  # the last term rounds g
        assert abs(eom.closure_consistency - want) <= bound, (
            f"{source}: closure consistency {eom.closure_consistency!r}, sympy gives {want!r} (bound {bound:.3g})"
        )


@pytest.mark.parametrize("name, source, params, omega0, mass", CLOSURES, ids=[c[0] for c in CLOSURES])
def test_affine_closure_matches_sympy(name, source, params, omega0, mass):
    lagr = ComplexLagrangian(parse(source), omega0, dim=len(mass), params=params)
    _assert_closure_agrees(source, lagr, mass, seed=len(name))


@st.composite
def _degenerate_lagrangians(draw):
    """(source, omega0, mass): a one-coordinate sum of TERM_TEMPLATES terms whose
    momentum map does not read qd (A = 0): a term in qd alone gets an imaginary
    coefficient, q*qd a real one, every other term a complex one."""
    names = dict(qa="q", qb="q", va="qd", vb="qd")
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        template = draw(st.sampled_from(TERM_TEMPLATES))
        re, im = draw(_PART), draw(_PART)
        if "{v" in template:
            re, im = (re, 0.0) if template.startswith("{qa}") else (0.0, im)
        terms.append(f"({re!r} + {im!r}*i)*({template.format(**names)})")
    mass = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return " + ".join(terms), draw(st.sampled_from([1.0, 0.7, -1.3, 2.5])), (mass,)


@given(_degenerate_lagrangians(), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_generated_affine_closure_matches_sympy(drawn, seed):
    source, omega0, mass = drawn
    _assert_closure_agrees(source, ComplexLagrangian(parse(source), omega0), mass, seed)
