"""Dynamics of a complex Lagrangian L + iM over real coordinates.

The derivative with respect to the complex phase variable
w = (qd + i*omega0*q)/sqrt(2) is (d/dqd - (i/omega0) d/dq)/sqrt(2). Writing
the dynamical law u = i*omega0 * dLagr/dw in components gives two real maps:

    momentum map  f_a = dL/dqd_a + (1/omega0) dM/dq_a      (p = f)
    force map     g_a = dL/dq_a  - omega0     dM/dqd_a     (pd = g)

The compatibility condition d/dt f = g is the generalized Euler-Lagrange
equation. Expanding the total derivative yields the mass matrix
A_ab = df_a/dqd_b; if A is invertible the system is second-order (regular),
with qdd solving A qdd = g - (df/dq) qd - df/dt. If A is singular the system
is closed to first order by the point-particle identification f = m_c * qd
(closure mass m_c is user-supplied per coordinate; its sign selects the branch
of the flow): where A folds to constants, f is affine in qd and the closure is
qd = (0 - f(t, q, 0))/(A - m_c), a tree (`affine_inverse`, which with m_c = 0
also inverts an affine momentum map for the phase-space form, `hamiltonian`);
where A varies, it is solved by the one damped Newton for f = p + m_c*qd
(`solves.newton_solver`), which with m_c = 0 and a given p inverts any other
momentum map. Its stop is relative to the scale of A - m_c, so a change of the
unit of action moves no iterate. The solves themselves live in `solves`.
"""

from __future__ import annotations

import math
import re
import warnings
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .codegen import compile_expr, compile_step
from .exprcore import (
    Call,
    Const,
    DomainError,
    Expr,
    Sym,
    ZERO,
    diff,
    evaluate,
    free_symbols,
    simplify,
    split,
    subs,
)
from .records import field, record
from .solves import SOLVE_SCALAR, SingularMass, dot, eliminate, newton_solver, pivot_message, singular
from .solves import SOLVE_SCALAR_RESIDUAL, solve_linear, solve_plan, solver

REGULAR = "regular"
DEGENERATE = "degenerate"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class DegenerateWithoutClosure(Exception):
    """The mass matrix is singular at the probe and no closure mass was given."""


class ClosureInconsistent(Exception):
    """The algebraic closure f(q, qd, t) = m*qd has no solution at the state."""


class UndeclaredSymbol(Exception):
    """The Lagrangian references a symbol that is neither state nor parameter."""


class InvalidParameter(ValueError):
    """A parameter name is not an identifier, or is i, t or a state name."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"invalid or reserved parameter name '{name}'")


class UnneededClosureMass(ValueError):
    """A closure mass was given for a system that is regular at the probe."""


class ClosureConsistencyWarning(UserWarning):
    """Degenerate closure does not reproduce the force map along its own flow."""


def coordinate_names(dim: int) -> tuple[str, ...]:
    return ("q",) if dim == 1 else tuple(f"q{a}" for a in range(1, dim + 1))


def velocity_names(dim: int) -> tuple[str, ...]:
    return ("qd",) if dim == 1 else tuple(f"qd{a}" for a in range(1, dim + 1))


@record(frozen=True)
class MechState:
    """A (t, q, qd) sample of configuration-velocity space."""

    t: float
    q: tuple[float, ...]
    qd: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "q", tuple(float(x) for x in self.q))
        object.__setattr__(self, "qd", tuple(float(x) for x in self.qd))
        entries = (self.t, *self.q, *self.qd)
        if not all(math.isfinite(x) for x in entries):
            raise ValueError(f"state entries must be finite, got {entries}")
        if len(self.q) != len(self.qd):
            raise ValueError("q and qd must have equal length")


@record(frozen=True)
class ComplexPhase:
    """w = (qd + i*omega0*q)/sqrt(2) and u = (pd + i*omega0*p)/sqrt(2)."""

    w: tuple[complex, ...]
    u: tuple[complex, ...]


@record(frozen=True)
class ComplexLagrangian:
    """An expression in {t, q_a, qd_a, params} plus the frequency constant omega0.

    The real part of the expression is L, the imaginary part is M. omega0
    must be nonzero (it divides in the phase variable and the momentum map).
    """

    expr: Expr
    omega0: float
    dim: int = 1
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega0", float(self.omega0))
        object.__setattr__(self, "params", dict(self.params))
        if self.omega0 == 0 or not math.isfinite(self.omega0):
            raise ValueError("omega0 must be a nonzero finite real")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        reserved = {"i", "t", *self.coords, *self.vels}
        for name, value in self.params.items():
            if not _IDENT.match(name) or name in reserved:
                raise InvalidParameter(name)
            if not math.isfinite(float(value)):
                raise ValueError(f"parameter '{name}' must be finite")
        allowed = reserved | set(self.params)
        loose = free_symbols(self.expr) - allowed
        if loose:
            raise UndeclaredSymbol(
                f"undeclared symbols in Lagrangian: {', '.join(sorted(loose))}"
            )

    @property
    def coords(self) -> tuple[str, ...]:
        return coordinate_names(self.dim)

    @property
    def vels(self) -> tuple[str, ...]:
        return velocity_names(self.dim)

    @cached_property
    def L_expr(self) -> Expr:
        return split(self.expr)[0]

    @cached_property
    def M_expr(self) -> Expr:
        return split(self.expr)[1]

    @cached_property
    def maps(self) -> _Maps:
        """The derived maps f, g, A, f_q, f_t and their kernels."""
        return _Maps(self)

    @cached_property
    def _wirtinger(self) -> Callable[..., tuple[complex, ...]]:
        """The complex kernel of every dLagr/dqd_a, then every dLagr/dq_a, built from
        the expression itself, not from `split`'s L and M."""
        trees = tuple(diff(self.expr, x) for x in self.vels + self.coords)
        return compile_expr(trees, ("t", *self.coords, *self.vels), self.params)

    def bindings(self, s: MechState) -> dict[str, float]:
        b = dict(self.params)
        b["t"] = s.t
        for name, value in zip(self.coords, s.q):
            b[name] = value
        for name, value in zip(self.vels, s.qd):
            b[name] = value
        return b


class _Maps:
    """The derived maps of L + iM, as trees and as compiled kernels.

        f_a = dL/dqd_a + (1/omega0) dM/dq_a     g_a = dL/dq_a - omega0 dM/dqd_a
        A_ab = df_a/dqd_b    f_q[a][b] = df_a/dq_b    f_t[a] = df_a/dt

    Each kernel takes the arguments (t, *q, *qd) and returns its maps as one
    flat tuple of floats (matrices row-major), computing shared
    subexpressions once: `kernel` returns (f, g, A, f_q, f_t) and `newton`
    (f, A), all the velocity solve needs. The maps are real trees built from
    `split`'s L and M, compiled with the parameters folded in; only a kernel
    whose trees can turn complex (sqrt of a coordinate, say) checks for an
    imaginary part and raises DomainError. Kernels compile on first use, so
    a derive that only classifies never compiles one.

    `lanes` is `kernel` over arrays of samples (`compile_expr`'s `vectorized`
    mode), for passes over whole trajectories; `columns` reads it at a list of
    sample states, as the scalar kernel would sample by sample. `step` is `codegen.compile_step`'s
    RK4 sample loop of (q, qd) giving qd, p and the EL residual, on floats at one
    coordinate and on lists above. There a mass matrix that folds to constants
    is eliminated at compile time (`solves.solve_plan`); one that varies is solved at
    each stage by the generated `solves.solver(n)` on the stage's locals. `closure`
    solves the closure at a mass, and `closure_step` is its RK4 sample loop: the
    closed form where A folds to constants, else the damped Newton `newton_solver(n)`
    at each stage.
    Built only by `ComplexLagrangian.maps`; `equivalence` reads the maps of a
    pair's difference Lagrangian, whose Euler-Lagrange law is its residual.
    """

    def __init__(self, lagr: ComplexLagrangian) -> None:
        self.dim = n = lagr.dim
        L, M = lagr.L_expr, lagr.M_expr
        inv_w0, w0 = Const(1.0 / lagr.omega0), Const(lagr.omega0)
        coords, vels = coordinate_names(n), velocity_names(n)
        self.f = tuple(simplify(diff(L, vels[a]) + inv_w0 * diff(M, coords[a])) for a in range(n))
        self.g = tuple(simplify(diff(L, coords[a]) - w0 * diff(M, vels[a])) for a in range(n))
        self.A = tuple(tuple(diff(self.f[a], vels[b]) for b in range(n)) for a in range(n))
        self.f_q = tuple(tuple(diff(self.f[a], coords[b]) for b in range(n)) for a in range(n))
        self.f_t = tuple(diff(self.f[a], "t") for a in range(n))
        self._args = ("t",) + coords + vels
        self._params = lagr.params
        self._momenta, self._closures = tuple("p" + x[1:] for x in coords), {}

    def _compile(self, trees: tuple[Expr, ...], vectorized: bool = False) -> Callable:
        return compile_expr(trees, self._args, self._params, real=True, vectorized=vectorized)

    @property
    def _all(self) -> tuple[Expr, ...]:
        return self.f + self.g + sum(self.A, ()) + sum(self.f_q, ()) + self.f_t

    @cached_property
    def kernel(self) -> Callable[..., tuple[float, ...]]:
        return self._compile(self._all)

    @cached_property
    def lanes(self) -> Callable[..., tuple[np.ndarray, ...]]:
        return self._compile(self._all, vectorized=True)

    @cached_property
    def newton(self) -> Callable[..., tuple[float, ...]]:
        return self._compile(self.f + sum(self.A, ()))

    @cached_property
    def step(self) -> Callable[..., int | None]:
        trees, names = subs(self._all, self._params), (("SingularMass", SingularMass),)
        if self.dim == 1:
            # slope (qd, b/a) by `SOLVE_SCALAR`'s arithmetic; a constant `a` decides its pivot test here, and
            # its residual test where |a| is a power of two >= 1: there a*(b/a) - b is 0, NaN or below 2^-51
            outs, m, slope = ("f", "g", "a", "f_q", "f_t"), trees[2], "\n    kx, ky = qd, x"
            (f, g, a, f_q, f_t), qd = map(Sym, outs), Sym("qd")
            b = g - (0.0 + f_q * qd) - f_t  # 0.0 + f_q qd: the sign of a zero product as in a one-term dot product
            sample = (("s0", "s1", "s2"), (qd, f, Call("abs", g - a * Sym("ky") - f_q * qd - f_t)))
            if not _constant(((m,),)) or singular(m.value.real, abs(m.value.real)):
                tail = ((("b",), (b,)), SOLVE_SCALAR + slope)
            elif math.frexp(abs(m.value.real))[0] == 0.5 and abs(m.value.real) >= 1.0:
                tail = ((("kx", "ky"), (qd, b / a)),)
            else:
                tail = ((("a", "b", "x"), (a, b, b / a)), SOLVE_SCALAR_RESIDUAL + slope)
            return compile_step(trees, self._args, outs, tail, sample, names=names)
        n, join = self.dim, ", ".join
        idx, qd = range(1, n + 1), self._args[n + 1 :]
        f, g, f_t, w, b, ky = ([f"{m}{a}" for a in idx] for m in ("f", "g", "ft", "w", "b", "ky_"))
        A, f_q = ([[f"{m}{a}_{c}" for c in idx] for a in idx] for m in ("a", "fq"))
        outs = (*f, *g, *sum(A, []), *sum(f_q, []), *f_t)
        written = _written(outs, trees)
        dot_text = lambda row, v: f"(0.0 + {' + '.join(f'{written(x)} * {y}' for x, y in zip(row, v))})"  # noqa: E731 - `dot`'s order
        # `_accel`'s right-hand side g - (df/dq) qd - df/dt as trees, so the step folds the constants in,
        # its dot product kept for the EL terms
        w_trees = tuple(sum((Sym(x) * Sym(v) for x, v in zip(row, qd)), ZERO) for row in f_q)
        tail = [(tuple(w), w_trees), (tuple(b), tuple(Sym(x) - Sym(y) - Sym(z) for x, y, z in zip(g, w, f_t)))]
        mass = [trees[2 * n + a * n : 2 * n + (a + 1) * n] for a in range(n)]
        plan = solve_plan([[e.value.real for e in row] for row in mass], b, ky) if _constant(mass) else None
        if plan is None:
            solve = solver(n)
            plan = (f"    {join(ky)} = {solve.__name__}({join(map(written, sum(A, [])))}, {join(b)})",)
            names += ((solve.__name__, solve),)
        tail += [*plan, f"    {join(f'kx_{a}' for a in idx)} = {join(qd)}"]
        # `_el_terms`, g - A qdd - (df/dq) qd - df/dt row by row; the residual is their maximum
        terms = join(f"abs({written(x)} - {dot_text(row, ky)} - {y} - {written(z)})" for x, row, y, z in zip(g, A, w, f_t))
        sample = f"[{join(qd)}], [{join(map(written, f))}], max({terms})"
        return compile_step(trees, self._args, outs, tuple(tail), f"    s0, s1, s2 = {sample}", names=names)

    def closure(self, mass: tuple[float, ...]) -> tuple:
        """(qd, velocity) of the closure f = mass*qd. Where A folds to constants, qd is the trees of
        `affine_inverse` with the momenta p (0 here) as arguments and velocity(t, q, guess) one small
        kernel of them; else qd is None and velocity the damped Newton `newton_solver(n)` at p = 0,
        from the guess. Cached per mass."""
        if mass not in self._closures:
            n, trees, p = self.dim, subs(self.f + sum(self.A, ()), self._params), self._momenta
            qd = affine_inverse(trees[:n], [trees[n + a * n : n + (a + 1) * n] for a in range(n)], p, mass)
            kernel, zeros = qd and compile_expr(qd, ("t", *self._args[1 : n + 1], *p), real=True), (0.0,) * n
            newton = lambda t, q, guess: list(newton_solver(n)(  # noqa: E731
                self.newton, ClosureInconsistent, t, *q, *zeros, *mass, *map(float, guess))[:n])
            self._closures[mass] = qd, (lambda t, q, _: list(kernel(t, *q, *zeros))) if qd else newton
        return self._closures[mass]

    def closure_step(self, mass: tuple[float, ...]) -> Callable[..., int | None]:
        """`compile_step`'s RK4 sample loop of (q, p) on the closure: q's slope is qd, p stays 0, and
        the sample is qd, f and the residual max |f_a - mass_a qd_a|. Where A folds to constants, qd
        and f are the closed form's trees; else each stage solves for them by the damped Newton
        `newton_solver(n)` at p = 0, the sample's from the loop's s0, the last sample's qd, and each
        later stage's from the previous stage's slope. The loop binds the kernel `newton`, cached per
        system, and the Newton, cached per dimension."""
        n, join, qd = self.dim, ", ".join, self.closure(mass)[0]
        coords, vels, at = self._args[1 : n + 1], self._args[n + 1 :], [""] if n == 1 else range(1, n + 1)
        fs, kx, args = [f"f{a}" for a in at], [f"kx{a and f'_{a}'}" for a in at], ("t", *coords, *self._momenta)
        tail = (((*kx, *(f"ky{a and f'_{a}'}" for a in at)), (*map(Sym, vels), *(ZERO,) * n)),)
        trees = () if qd is None else qd + subs(subs(self.f, self._params), dict(zip(vels, qd)))
        if n == 1:  # a piece of trees, so a constant f is put in as the tail's are
            sample = (("s0", "s1", "s2"), (Sym("qd"), Sym("f"), Call("abs", Sym("f") - mass[0] * Sym("qd"))))
        else:
            written = _written((*vels, *fs), trees)
            terms = join(f"abs({written(f)} - {m!r} * {written(x)})" for f, m, x in zip(fs, mass, vels))
            sample = f"    s0, s1, s2 = [{join(map(written, vels))}], [{join(map(written, fs))}], max({terms})"
        if qd is not None:
            return compile_step(trees, args, (*vels, *fs), tail, sample)
        newton, point = newton_solver(n), join((*coords, *("0.0",) * n, *map(repr, mass), *kx))  # (q, p = 0, mass, guess)
        solve = f"    {join(vels)}, {join(fs)} = {newton.__name__}(_kernel, ClosureInconsistent, t, {point})"
        names = ((newton.__name__, newton), ("_kernel", self.newton), ("ClosureInconsistent", ClosureInconsistent))
        return compile_step((), args, (), (solve, *tail), sample, names=names, start=f"    {join(kx)} = s0\n")

    def split(self, v: Sequence):
        """(f, g, A, f_q, f_t) from the kernel's flat values; matrices as rows."""
        n = self.dim
        rows = lambda at: [v[at + a * n : at + (a + 1) * n] for a in range(n)]  # noqa: E731
        return v[:n], v[n : 2 * n], rows(2 * n), rows(2 * n + n * n), v[-n:]

    def __call__(self, t: float, q: Sequence[float], qd: Sequence[float]):
        """(f, g, A, f_q, f_t) at (t, q, qd); matrices as tuples of rows."""
        return self.split(self.kernel(t, *q, *qd))

    def columns(self, samples: Sequence[MechState]) -> tuple[np.ndarray, dict[int, DomainError]]:
        """The kernel's flat values at the samples, one row per value, from one `lanes` call,
        and the DomainError of each sample where the kernel fails, by index. Where a lane
        fails, the scalar kernel runs sample by sample, so each error is the one its call
        raises, and a failing sample's column is NaN."""
        points = [(s.t, *s.q, *s.qd) for s in samples]
        try:
            return np.array(self.lanes(*map(np.array, zip(*points)))), {}
        except DomainError:
            out, errors = np.full((len(self._all), len(points)), np.nan), {}
        for k, point in enumerate(points):
            try:
                out[:, k] = self.kernel(*point)
            except DomainError as err:
                errors[k] = err
        return out, errors


@record(frozen=True, eq=False)
class EomSystem:
    """Derived dynamics: symbolic maps, classification, optional closure."""

    lagrangian: ComplexLagrangian
    f: tuple[Expr, ...]
    g: tuple[Expr, ...]
    A: tuple[tuple[Expr, ...], ...]
    f_q: tuple[tuple[Expr, ...], ...]
    f_t: tuple[Expr, ...]
    classification: str
    closure_mass: tuple[float, ...] | None
    probe: MechState
    closure_consistency: float | None
    maps: _Maps = field(repr=False)

    @property
    def dim(self) -> int:
        return self.lagrangian.dim

    @property
    def is_regular(self) -> bool:
        return self.classification == REGULAR


def _constant(rows: Sequence[Sequence[Expr]]) -> bool:
    """Whether every tree of the matrix is a real finite constant."""
    return all(isinstance(e, Const) and not e.value.imag and math.isfinite(e.value.real) for row in rows for e in row)


def _written(outs: Sequence[str], trees: Sequence[Expr]) -> Callable[[str], str]:
    """How a text piece of `compile_step` names an out: by its literal where its tree is a real
    finite constant, which the step puts into its trees and assigns only where a guard reads it,
    else by its name."""
    values = {o: repr(e.value.real) for o, e in zip(outs, trees) if _constant(((e,),))}
    return lambda name: values.get(name, name)


def affine_inverse(
    f: Sequence[Expr], A: Sequence[Sequence[Expr]], p: Sequence[str], mass: Sequence[float]
) -> tuple[Expr, ...] | None:
    """The trees of qd = (p - f(t, q, 0))/(A - diag(mass)) where the mass matrix A folds to
    constants (a quadratic form's Legendre transform; Arnold, Mathematical Methods of Classical
    Mechanics, sec. 14): the phase-space inverse (mass 0) and the closure (p = 0). A - diag(mass)
    is eliminated by `eliminate`, as `solve_plan` does, and back-substituted, both on trees;
    ClosureInconsistent where it is `singular`. None where A varies."""
    if not _constant(A):
        return None
    n, vels = len(f), velocity_names(len(f))
    a = [[e.value.real - (m if i == j else 0.0) for j, e in enumerate(row)] for i, (row, m) in enumerate(zip(A, mass))]
    x, qd = [simplify(Sym(v) - e) for v, e in zip(p, subs(tuple(f), dict.fromkeys(vels, 0.0)))], [ZERO] * n
    for pivot, row_scale in eliminate(a, x):
        if singular(pivot, row_scale):
            raise ClosureInconsistent(f"A - diag(m) is singular: {pivot_message(repr(pivot), repr(row_scale))}")
    for k in range(n - 1, -1, -1):
        qd[k] = simplify((x[k] - sum((a[k][i] * qd[i] for i in range(k + 1, n)), ZERO)) / a[k][k])
    return tuple(qd)


def _closure_consistency(
    lagr: ComplexLagrangian, mass: Sequence[float], probe: MechState
) -> float:
    """Relative residual of m*qdd = g along the closure flow at the probe.

    The closure u = m*wd implies both p = m*qd (solved) and pd = m*qdd; the
    latter must agree with the force map for the first-order flow to satisfy
    the Euler-Lagrange compatibility condition. The force map is read once,
    through the tree evaluator, so only the kernel `_Maps.closure` solves with
    is compiled.
    """
    maps, t, q = lagr.maps, probe.t, probe.q
    solve = maps.closure(mass)[1]
    qd = solve(t, q, probe.qd)
    delta = 1e-6 * (1.0 + max(map(abs, qd)))
    qd_plus = solve(t + delta, [x + delta * v for x, v in zip(q, qd)], qd)
    qd_minus = solve(t - delta, [x - delta * v for x, v in zip(q, qd)], qd)
    qdd = [(a - b) / (2.0 * delta) for a, b in zip(qd_plus, qd_minus)]
    at = lagr.bindings(MechState(t, q, qd))
    g = [evaluate(e, at) for e in maps.g]
    if any(v.imag for v in g):
        raise DomainError(f"force map {g!r} is not real at the probe")
    g = [v.real for v in g]
    worst = max(abs(m * a - b) for m, a, b in zip(mass, qdd, g))
    return worst / max(1.0, max(map(abs, g)))


def derive_eom(
    lagr: ComplexLagrangian,
    probe: MechState,
    closure_mass: Sequence[float] | None = None,
) -> EomSystem:
    """Classify the Lagrangian's derived maps (`lagr.maps`) at the probe state.

    Regular iff no pivot of the partial-pivot elimination of A(probe) is
    `singular`, the test `solve_linear` applies.
    Degenerate systems require a closure mass (any nonzero real per
    coordinate; the sign selects the flow branch) and are checked for
    closure consistency at the probe, warning when m*qdd deviates from the
    force map by more than 1e-9 relative.
    """
    n = lagr.dim
    if len(probe.q) != n:
        raise ValueError(f"probe has {len(probe.q)} coordinates, expected {n}")
    maps = lagr.maps
    at_probe = lagr.bindings(probe)
    a_probe = [[evaluate(e, at_probe) for e in row] for row in maps.A]
    if any(v.imag for row in a_probe for v in row):
        raise DomainError(f"mass matrix {a_probe!r} is not real at the probe")
    a_probe = [[v.real for v in row] for row in a_probe]
    regular = not any(singular(*step) for step in eliminate(a_probe, [0.0] * n))

    mass = consistency = None
    if regular and closure_mass is not None:
        raise UnneededClosureMass("closure mass supplied but the system is regular at the probe")
    if not regular:
        if closure_mass is None:
            raise DegenerateWithoutClosure(
                "mass matrix is singular at the probe; supply a closure mass"
            )
        mass = tuple(float(m) for m in closure_mass)
        if len(mass) != n:
            raise ValueError(f"closure_mass has length {len(mass)}, expected {n}")
        if any(m == 0.0 or not math.isfinite(m) for m in mass):
            raise ValueError("closure_mass entries must be nonzero finite reals")
        consistency = _closure_consistency(lagr, mass, probe)
        if consistency > 1e-9:
            warnings.warn(
                f"closure flow violates d(f)/dt = g by {consistency:.3g} relative "
                "(the Lagrangian's parameters do not satisfy the constraint the "
                "closure imposes)",
                ClosureConsistencyWarning,
                stacklevel=2,
            )
    return EomSystem(
        lagrangian=lagr, f=maps.f, g=maps.g, A=maps.A, f_q=maps.f_q, f_t=maps.f_t,
        classification=REGULAR if regular else DEGENERATE, closure_mass=mass, probe=probe,
        closure_consistency=consistency, maps=maps,
    )


def momentum(eom: EomSystem, s: MechState) -> np.ndarray:
    """p_a = f_a(q, qd, t); the classical dL/dqd when M vanishes."""
    return np.array(eom.maps.kernel(s.t, *s.q, *s.qd)[: eom.dim])


def force(eom: EomSystem, s: MechState) -> np.ndarray:
    """pd_a = g_a(q, qd, t); the classical dL/dq when M vanishes."""
    return np.array(eom.maps.kernel(s.t, *s.q, *s.qd)[eom.dim : 2 * eom.dim])


def accel(eom: EomSystem, s: MechState) -> np.ndarray:
    """qdd solving A qdd = g - (df/dq) qd - df/dt by partial-pivot elimination."""
    if not eom.is_regular:
        raise ValueError("accel requires a regular system; this one is degenerate")
    return np.array(_accel(eom.maps, s.t, s.q, s.qd))


def _accel(maps: _Maps, t: float, q: Sequence[float], qd: Sequence[float]) -> list[float]:
    """qdd solving A qdd = g - (df/dq) qd - df/dt from the maps at (t, q, qd)."""
    _, g, A, f_q, f_t = maps(t, q, qd)
    return solve_linear(A, [g[a] - dot(f_q[a], qd) - f_t[a] for a in range(len(g))])


def closure_velocity(eom: EomSystem, t: float, q, guess=None) -> np.ndarray:
    """First-order closure velocity: qd solving f(q, qd, t) = m_c * qd."""
    if eom.closure_mass is None:
        raise ValueError("closure_velocity requires a degenerate system with a mass")
    if guess is None:
        guess = eom.probe.qd
    return np.array(eom.maps.closure(eom.closure_mass)[1](t, q, guess))


def wirtingers(lagr: ComplexLagrangian, s: MechState) -> list[complex]:
    """Every coordinate's dLagr/dw_a = (1/sqrt(2)) [dLagr/dqd_a - (i/omega0) dLagr/dq_a] at s,
    from one call of the Lagrangian's compiled complex kernel of the derivatives."""
    d, n = lagr._wirtinger(s.t, *s.q, *s.qd), lagr.dim
    return [(d[a] - (1j / lagr.omega0) * d[n + a]) / math.sqrt(2.0) for a in range(n)]


def wirtinger(lagr: ComplexLagrangian, s: MechState, a: int = 0) -> complex:
    """`wirtingers` at coordinate `a`, 0-based."""
    return wirtingers(lagr, s)[a]


def to_complex_phase(
    lagr: ComplexLagrangian, eom: EomSystem, s: MechState
) -> ComplexPhase:
    """Phase variables w and u at s, with pd taken from the force map."""
    w0 = lagr.omega0
    rt2 = math.sqrt(2.0)
    p = momentum(eom, s)
    pd = force(eom, s)
    w = tuple((s.qd[a] + 1j * w0 * s.q[a]) / rt2 for a in range(lagr.dim))
    u = tuple((pd[a] + 1j * w0 * p[a]) / rt2 for a in range(lagr.dim))
    return ComplexPhase(w=w, u=u)
