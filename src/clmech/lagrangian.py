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
qd = (0 - f(t, q, 0))/(A - m_c), a tree (`_inverse`, which with m_c = 0 also
inverts an affine momentum map for the phase-space form, `hamiltonian`); where
A varies, it is solved by the one damped Newton for f = p + m_c*qd
(`_newton_solver`), which with m_c = 0 and a given p inverts any other momentum
map. Its stop is relative to the scale of A - m_c, so a change of the unit of
action moves no iterate.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from textwrap import indent
from typing import Callable, Mapping, Sequence

import numpy as np

from .codegen import _codegen, _fold, compile_expr, compile_step
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

REGULAR = "regular"
DEGENERATE = "degenerate"

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_HALVINGS = 25
_PIVOT_RATIO, _SOLVE_RESIDUAL = 1e-13, 1e-10  # the solves' singular pivot ratio and relative residual bound

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class SingularMass(Exception):
    """Mass matrix (or a Newton Jacobian) lost rank at the requested state."""


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ComplexPhase:
    """w = (qd + i*omega0*q)/sqrt(2) and u = (pd + i*omega0*p)/sqrt(2)."""

    w: tuple[complex, ...]
    u: tuple[complex, ...]


@dataclass(frozen=True)
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
    is eliminated at compile time (`_solve_plan`); one that varies is solved at
    each stage by the generated `_solver(n)` on the stage's locals. `closure`
    solves the closure at a mass, and `closure_step` is its RK4 sample loop: the
    closed form where A folds to constants, else the damped Newton `_newton_solver(n)`
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
            # slope (qd, b/a) by `_solve_scalar`'s arithmetic; a constant `a` decides its pivot test here, and
            # its residual test where |a| is a power of two >= 1: there a*(b/a) - b is 0, NaN or below 2^-51
            outs, m, slope = ("f", "g", "a", "f_q", "f_t"), trees[2], "\n    kx, ky = qd, x"
            (f, g, a, f_q, f_t), qd = map(Sym, outs), Sym("qd")
            b = g - (0.0 + f_q * qd) - f_t  # 0.0 + f_q qd: the sign of a zero product as in a one-term dot product
            sample = (("s0", "s1", "s2"), (qd, f, Call("abs", g - a * Sym("ky") - f_q * qd - f_t)))
            if not _constant(((m,),)) or _singular(m.value.real, abs(m.value.real)):
                tail = ((("b",), (b,)), _SOLVE_SCALAR + slope)
            elif math.frexp(abs(m.value.real))[0] == 0.5 and abs(m.value.real) >= 1.0:
                tail = ((("kx", "ky"), (qd, b / a)),)
            else:
                tail = ((("a", "b", "x"), (a, b, b / a)), _SOLVE_SCALAR.partition("x = b / a\n")[2] + slope)
            return compile_step(trees, self._args, outs, tail, sample, names=names)
        n, join = self.dim, ", ".join
        idx, qd = range(1, n + 1), self._args[n + 1 :]
        f, g, f_t, w, b, ky = ([f"{m}{a}" for a in idx] for m in ("f", "g", "ft", "w", "b", "ky_"))
        A, f_q = ([[f"{m}{a}_{c}" for c in idx] for a in idx] for m in ("a", "fq"))
        outs = (*f, *g, *sum(A, []), *sum(f_q, []), *f_t)
        written = _written(outs, trees)
        dot = lambda row, v: f"(0 + {' + '.join(f'{written(x)} * {y}' for x, y in zip(row, v))})"  # noqa: E731 - `_dot`'s order
        # `_accel`'s right-hand side g - (df/dq) qd - df/dt as trees, so the step folds the constants in,
        # its dot product kept for the EL terms
        w_trees = tuple(sum((Sym(x) * Sym(v) for x, v in zip(row, qd)), ZERO) for row in f_q)
        tail = [(tuple(w), w_trees), (tuple(b), tuple(Sym(x) - Sym(y) - Sym(z) for x, y, z in zip(g, w, f_t)))]
        mass = [trees[2 * n + a * n : 2 * n + (a + 1) * n] for a in range(n)]
        plan = _solve_plan([[e.value.real for e in row] for row in mass], b, ky) if _constant(mass) else None
        if plan is None:
            solve = _solver(n)
            plan = f"    {join(ky)} = {solve.__name__}({join(map(written, sum(A, [])))}, {join(b)})"
            names += ((solve.__name__, solve),)
        tail += [plan, f"    {join(f'kx_{a}' for a in idx)} = {join(qd)}"]
        # `_el_terms`, g - A qdd - (df/dq) qd - df/dt row by row; the residual is their maximum
        terms = join(f"abs({written(x)} - {dot(row, ky)} - {y} - {written(z)})" for x, row, y, z in zip(g, A, w, f_t))
        sample = f"[{join(qd)}], [{join(map(written, f))}], max({terms})"
        return compile_step(trees, self._args, outs, tuple(tail), f"    s0, s1, s2 = {sample}", names=names)

    def closure(self, mass: tuple[float, ...]) -> tuple:
        """(qd, velocity) of the closure f = mass*qd. Where A folds to constants, qd is the trees of
        `_inverse` with the momenta p (0 here) as arguments and velocity(t, q, guess) one small
        kernel of them; else qd is None and velocity the damped Newton `_newton_solver(n)` at p = 0,
        from the guess. Cached per mass."""
        if mass not in self._closures:
            n, trees, p = self.dim, subs(self.f + sum(self.A, ()), self._params), self._momenta
            qd = _inverse(trees[:n], [trees[n + a * n : n + (a + 1) * n] for a in range(n)], p, mass)
            kernel, zeros = qd and compile_expr(qd, ("t", *self._args[1 : n + 1], *p), real=True), (0.0,) * n
            newton = lambda t, q, guess: list(_newton_solver(n)(  # noqa: E731
                self.newton, ClosureInconsistent, t, *q, *zeros, *mass, *map(float, guess))[:n])
            self._closures[mass] = qd, (lambda t, q, _: list(kernel(t, *q, *zeros))) if qd else newton
        return self._closures[mass]

    def closure_step(self, mass: tuple[float, ...]) -> Callable[..., int | None]:
        """`compile_step`'s RK4 sample loop of (q, p) on the closure: q's slope is qd, p stays 0, and
        the sample is qd, f and the residual max |f_a - mass_a qd_a|. Where A folds to constants, qd
        and f are the closed form's trees; else each stage solves for them by the damped Newton
        `_newton_solver(n)` at p = 0, the sample's from the loop's s0, the last sample's qd, and each
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
        newton, point = _newton_solver(n), join((*coords, *("0.0",) * n, *map(repr, mass), *kx))  # (q, p = 0, mass, guess)
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


@dataclass(frozen=True, eq=False)
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


def _dot(row: Sequence[float], x: Sequence[float]) -> float:
    return sum(r * v for r, v in zip(row, x))


def _singular(pivot: float, row_scale: float) -> bool:
    """The one singularity rule, of the solves and of the classification: a
    pivot at most _PIVOT_RATIO times the entry scale its row had before elimination.
    A ratio, so the verdict does not change with the units. `_SOLVE_SCALAR` inlines it."""
    return row_scale == 0.0 or abs(pivot) <= _PIVOT_RATIO * row_scale


def _eliminate(a: list[list[float]], x: list) -> list[tuple[float, float]]:
    """Forward elimination with partial pivoting, in place on `a` and `x`.

    Returns each step's pivot with the entry scale its row had before
    elimination. Stops after an exactly zero pivot. `x` holds floats, or
    trees, which its operations build.
    """
    n = len(a)
    scale = [max(map(abs, row), default=0.0) for row in a]
    pivots = []
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(a[i][k]))
        pivot = a[piv][k]
        pivots.append((pivot, scale[piv]))
        if pivot == 0.0:
            return pivots
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            x[k], x[piv] = x[piv], x[k]
            scale[k], scale[piv] = scale[piv], scale[k]
        top = a[k]
        for j in range(k + 1, n):
            row = a[j]
            m = row[k] / pivot
            if m != 0.0:
                for i in range(k, n):
                    row[i] -= m * top[i]
                x[j] -= m * x[k]
    return pivots


def solve_linear(A: Sequence[Sequence[float]], b: Sequence[float]) -> list[float]:
    """Gaussian elimination with partial pivoting: `_solve_scalar` at one
    coordinate and the generated `_solver(n)` above.

    Raises SingularMass when a pivot is `_singular` (the matrix is, or has
    drifted, singular), or when the solution misses the system by more than
    _SOLVE_RESIDUAL relative.
    """
    if len(b) == 1:
        return [_solve_scalar(float(A[0][0]), float(b[0]))]
    return _solver(len(b))(*[float(v) for row in A for v in row], *map(float, b))


def _back_substitution(
    a: list[list[str]], x: list[str], out: list[str], a0: list[list[str]], b: list[str], dot: Callable[[list[str]], str]
) -> list[str]:
    """Source lines setting `out` from the eliminated rows `a` and right-hand side
    `x`, then checking the residual of the system (a0, b); each entry is a name or
    a literal, and `dot` writes the sum of a list of products in `_dot`'s order.

    The residual's entries r1..rn go into locals, and the test of max|r| against
    _SOLVE_RESIDUAL * (1 + max|b|), a bound never below _SOLVE_RESIDUAL, runs only
    where one chained comparison (false for NaN) finds an entry beyond
    +-_SOLVE_RESIDUAL: it raises where the test alone would (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., 2002, sec. 9)."""
    n, join, lines = len(b), ", ".join, []
    for k in range(n - 1, -1, -1):
        back = [f"{a[k][i]} * {out[i]}" for i in range(k + 1, n)]
        lines.append(f"    {out[k]} = ({x[k]} - {f'({dot(back)})' if back else 0}) / {a[k][k]}")
    r = [f"r{k}" for k in range(1, n + 1)]
    lines += [f"    {rk} = {dot([f'{v} * {o}' for v, o in zip(row, out)])} - {bk}" for rk, row, bk in zip(r, a0, b)]
    lines.append(f"    if not ({' and '.join(f'{-_SOLVE_RESIDUAL!r} <= {rk} <= {_SOLVE_RESIDUAL!r}' for rk in r)}):")
    lines.append(f"        r = max({join(f'abs({rk})' for rk in r)})")
    lines.append(f"        if r > {_SOLVE_RESIDUAL!r} * (1.0 + max({join(f'abs({bk})' for bk in b)})):")
    lines.append('            raise SingularMass(f"solve residual {r!r} exceeds contract bound")')
    return lines


@lru_cache(maxsize=None)
def _solver(n: int) -> Callable[..., list[float]]:
    """`solve_linear` for n > 1: one straight-line function `_solve_n(a1_1, .., an_n,
    b1, .., bn)` of the row-major matrix and the right-hand side, built once per n.

    It keeps `_eliminate`'s arithmetic bit for bit, and raises SingularMass at a
    `_singular` pivot with `_solve_plan`'s text (but for the sign of a NaN, which the
    loop's own runs do not keep either): `max` of `abs` for the row scales, `max`'s
    first maximum for the pivot (a later entry replaces it only when greater, so a
    NaN stays), one swap of whole rows, and no update where `m == 0.0`. A pivot is
    checked as it is found: the first `_singular` one raises either way, since no
    float operation of a later step raises. `_eliminate`'s stop at a zero pivot is
    never reached: a zero pivot is `_singular` unless its row scale is NaN, which
    only a row with a NaN first entry has, and such a row is either the first
    pivot, a NaN, or all NaN once eliminated. The back substitution and its
    residual test are `_back_substitution`'s, whose full test runs only where an
    entry of the residual is beyond +-_SOLVE_RESIDUAL.
    """
    idx, join = range(1, n + 1), ", ".join
    a0, b = [[f"a{r}_{c}" for c in idx] for r in idx], [f"b{r}" for r in idx]
    a, x, s = [[f"e{r}_{c}" for c in idx] for r in idx], [f"x{r}" for r in idx], [f"s{r}" for r in idx]
    lines = [f"    {join(sum(a, []))} = {join(sum(a0, []))}", f"    {join(x)} = {join(b)}"]
    lines += [f"    {s[r]} = max({join(f'abs({v})' for v in a0[r])})" for r in range(n)]
    for k in range(n):
        if k < n - 1:  # the pivot row, then one swap of rows k and i > k
            lines.append(f"    c, i = abs({a[k][k]}), {k}")
            lines += [f"    w = abs({a[j][k]})\n    if w > c: c, i = w, {j}" for j in range(k + 1, n)]
            for j in range(k + 1, n):
                top, row = [*a[k][k:], x[k], s[k]], [*a[j][k:], x[j], s[j]]
                lines.append(f"    {'if' if j == k + 1 else 'elif'} i == {j}: {join(top + row)} = {join(row + top)}")
        p, row_scale = a[k][k], s[k]
        lines.append(f"    if {row_scale} == 0.0 or abs({p}) <= {_PIVOT_RATIO!r} * {row_scale}:")
        lines.append(f'        raise SingularMass(f"pivot {{{p}!r}} below {_PIVOT_RATIO!r} of row scale {{{row_scale}!r}}")')
        for j in range(k + 1, n):
            # column k of row j is never read again, so it is not updated
            lines.append(f"    m = {a[j][k]} / {p}\n    if m != 0.0:")
            lines += [f"        {a[j][i]} = {a[j][i]} - m * {a[k][i]}" for i in range(k + 1, n)]
            lines.append(f"        {x[j]} = {x[j]} - m * {x[k]}")
    # `sum` itself adds, as `_dot` does: warm bytecode specialises `+` on floats,
    # and that returns the other NaN of two than `sum` and a cold `+` do
    out = [f"o{r}" for r in idx]
    lines += _back_substitution(a, x, out, a0, b, lambda terms: f"sum(({join(terms)},))")
    src = f"def _solve_{n}({join(sum(a0, []))}, {join(b)}):\n" + "\n".join(lines) + f"\n    return [{join(out)}]\n"
    ns = {"__builtins__": {}, "abs": abs, "max": max, "sum": sum, "SingularMass": SingularMass}
    exec(src, ns)  # noqa: S102 - generated from the dimension alone
    return ns[f"_solve_{n}"]


def _constant(rows: Sequence[Sequence[Expr]]) -> bool:
    """Whether every tree of the matrix is a real finite constant."""
    return all(isinstance(e, Const) and not e.value.imag and math.isfinite(e.value.real) for row in rows for e in row)


def _written(outs: Sequence[str], trees: Sequence[Expr]) -> Callable[[str], str]:
    """How a text piece of `compile_step` names an out: by its literal where its tree is a real
    finite constant, which the step puts into its trees and assigns only where a guard reads it,
    else by its name."""
    values = {o: repr(e.value.real) for o, e in zip(outs, trees) if _constant(((e,),))}
    return lambda name: values.get(name, name)


def _solve_plan(a0: list[list[float]], b: list[str], out: list[str]) -> str | None:
    """Source that sets the names `out` to `solve_linear(a0, b)` for the constant
    matrix a0 and the right-hand side named by `b`, bitwise, and raises where it does.

    `_eliminate` runs on a0 here, once, so the pivot verdict and the multipliers
    are fixed (Golub & Van Loan, Matrix Computations, 4th ed., sec. 3.4). The
    source holds only the operations on the right-hand side: the row swaps, each
    `x_j -= m*x_k` that `_eliminate` does not skip, made on trees and folded by
    `codegen._fold`, the back substitution with its pivots and `solve_linear`'s
    residual check. None if an eliminated entry is not finite, which a literal
    cannot carry.
    """
    a, x = [row[:] for row in a0], [Sym(name) for name in b]
    for pivot, row_scale in _eliminate(a, x):
        if _singular(pivot, row_scale):
            raise SingularMass(f"pivot {pivot!r} below {_PIVOT_RATIO!r} of row scale {row_scale!r}")
    if not all(math.isfinite(v) for row in a for v in row):
        return None
    rhs = [e.name if isinstance(e, Sym) else f"e{k}" for k, e in enumerate(x)]
    ops = [(name, _fold(e, {})) for name, e in zip(rhs, x) if not isinstance(e, Sym)]
    lhs, trees = f"{', '.join(name for name, _ in ops)} = ", tuple(e for _, e in ops)
    lines = _codegen(trees, tuple(b), len(ops) == 1, False, None, lhs, True)[0].split("\n")[1:-1] if ops else []
    a, a0 = ([[repr(v) for v in row] for row in m] for m in (a, a0))
    dot = lambda terms: f"0 + {' + '.join(terms)}"  # noqa: E731 - `_dot`'s order, as the step's other sums
    return "\n".join(lines + _back_substitution(a, rhs, out, a0, b, dot))


def _inverse(
    f: Sequence[Expr], A: Sequence[Sequence[Expr]], p: Sequence[str], mass: Sequence[float]
) -> tuple[Expr, ...] | None:
    """The trees of qd = (p - f(t, q, 0))/(A - diag(mass)) where the mass matrix A folds to
    constants (a quadratic form's Legendre transform; Arnold, Mathematical Methods of Classical
    Mechanics, sec. 14): the phase-space inverse (mass 0) and the closure (p = 0). A - diag(mass)
    is eliminated by `_eliminate`, as `_solve_plan` does, and back-substituted, both on trees;
    ClosureInconsistent where it is `_singular`. None where A varies."""
    if not _constant(A):
        return None
    n, vels = len(f), velocity_names(len(f))
    a = [[e.value.real - (m if i == j else 0.0) for j, e in enumerate(row)] for i, (row, m) in enumerate(zip(A, mass))]
    x, qd = [simplify(Sym(v) - e) for v, e in zip(p, subs(tuple(f), dict.fromkeys(vels, 0.0)))], [ZERO] * n
    for pivot, row_scale in _eliminate(a, x):
        if _singular(pivot, row_scale):
            msg = f"pivot {pivot!r} below {_PIVOT_RATIO!r} of row scale {row_scale!r}"
            raise ClosureInconsistent(f"A - diag(m) is singular: {msg}")
    for k in range(n - 1, -1, -1):
        qd[k] = simplify((x[k] - sum((a[k][i] * qd[i] for i in range(k + 1, n)), ZERO)) / a[k][k])
    return tuple(qd)


# `solve_linear` for a 1x1 system (a, b), with both of its SingularMass checks,
# bitwise what the elimination gives: one text, run by `_solve_scalar` and
# inlined at each stage of the generated RK4 step where `a` varies. As in
# `_back_substitution`, the residual test runs only where r is beyond its bound's floor
_SOLVE_SCALAR = f"""\
    s = abs(a)
    if s == 0.0 or s <= {_PIVOT_RATIO!r} * s:
        raise SingularMass(f"pivot {{a!r}} below {_PIVOT_RATIO!r} of row scale {{s!r}}")
    x = b / a
    r = a * x - b
    if not {-_SOLVE_RESIDUAL!r} <= r <= {_SOLVE_RESIDUAL!r}:
        r = abs(r)
        if r > {_SOLVE_RESIDUAL!r} * (1.0 + abs(b)):
            raise SingularMass(f"solve residual {{r!r}} exceeds contract bound")"""
exec(f"def _solve_scalar(a, b):\n{_SOLVE_SCALAR}\n    return x\n")  # noqa: S102 - a constant text


# `_newton_solver(n)`'s text; each name stands for one local per coordinate (a row-major matrix's
# per entry): the iterate v, f and A (a) there, the residual r; a trial's w, g, b and s
_NEWTON = """\
def _newton_{n}(_k, _error, t, {q}, {p}, {m}, {v}):
    {f}, {a} = _k(t, {q}, {v})
    {r} = {residual}
    norm = {norm_r}
    for _ in range({iterations}):
        {j} = {diagonal}
        scale = {scale}
        if norm <= {tol!r} * scale * (1.0 + {norm_v}) and isfinite(norm):
            return {v}, {f}
        try:
{solve}
        except SingularMass as err:
            raise _error(f"Newton Jacobian singular at t={{t!r}}: {{err}}") from err
        lam = 1.0
        for _ in range({halvings}):
            {w} = {trial}
            {g}, {b} = _k(t, {q}, {w})
            {s} = {trial_residual}
            trial = {norm_s}
            if trial < norm:
                break
            lam *= 0.5
        else:
            raise _error(f"Newton stalled at residual {{norm!r}} (t={{t!r}}, q={{[{q}]!r}}, p={{[{p}]!r}})")
        {v}, {f}, {a}, {r}, norm = {w}, {g}, {b}, {s}, trial
    raise _error(f"no convergence after {iterations} iterations, residual {{norm!r}}")
"""


@lru_cache(maxsize=None)
def _newton_solver(n: int) -> Callable[..., tuple[float, ...]]:
    """The one damped Newton for qd with f(t, q, qd) = p + m*qd: `_newton_n(kernel, error, t, q1..,
    p1.., m1.., qd1..)` -> (qd1.., f1..), straight-line on floats, built once per n, on the (f, A)
    kernel `_Maps.newton`. The closure passes p = 0, the Legendre inversion m = 0; each names its
    exception type `error`. From the guess, each step solves (A - diag(m)) d = r = f - (p + m*qd),
    by r/(A - m) with `_singular`'s test at one coordinate and by `_solver(n)` above, and halves d
    until max|r| falls (at most NEWTON_HALVINGS times). It converges where max|r| is finite and at
    most NEWTON_TOL * max|A - diag(m)| * (1 + max|qd|), where the next step would move qd by about
    NEWTON_TOL relative (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
    ch. 5), so an exact rescaling of f, A, p and m moves no iterate. A singular Jacobian, a stalled
    line search (a NaN residual stalls at once) or NEWTON_MAX_ITER steps raise `error`."""
    idx, join = range(1, n + 1), ", ".join
    names = {x: [f"{x}{a}" for a in idx] for x in "qpmvwfgrsdj"}
    names.update({x: [f"{x}{i}_{c}" for i in idx for c in idx] for x in "ab"})
    p, m, v, w, f, g, r, s, d, j, a = (names[x] for x in "pmvwfgrsdja")
    jac = [j[i] if i == c else a[i * n + c] for i in range(n) for c in range(n)]  # A - diag(m), row-major
    norm = lambda xs: f"abs({xs[0]})" if n == 1 else f"max({join(f'abs({x})' for x in xs)})"  # noqa: E731
    residual = lambda fs, vs: join(f"{x} - ({y} + {z} * {u})" for x, y, z, u in zip(fs, p, m, vs))  # noqa: E731
    solve = f"{join(d)} = _solve({join(jac + r)})"
    if n == 1:  # `_singular(j1, |j1|)`, raising `_solver`'s text
        pivot = f'raise SingularMass(f"pivot {{j1!r}} below {_PIVOT_RATIO!r} of row scale {{scale!r}}")'
        solve = f"if scale == 0.0 or scale <= {_PIVOT_RATIO!r} * scale:\n    {pivot}\nd1 = r1 / j1"
    src = _NEWTON.format(
        **{x: join(values) for x, values in names.items()}, n=n, tol=NEWTON_TOL, solve=indent(solve, " " * 12),
        iterations=NEWTON_MAX_ITER, halvings=NEWTON_HALVINGS, diagonal=join(f"{a[i * n + i]} - {m[i]}" for i in range(n)),
        residual=residual(f, v), trial_residual=residual(g, w), trial=join(f"{x} - lam * {y}" for x, y in zip(v, d)),
        norm_r=norm(r), norm_s=norm(s), norm_v=norm(v), scale=norm(jac),
    )
    ns = {"__builtins__": {}, "abs": abs, "max": max, "range": range, "isfinite": math.isfinite, "SingularMass": SingularMass}
    if n > 1:
        ns["_solve"] = _solver(n)
    exec(src, ns)  # noqa: S102 - generated from the dimension alone
    return ns[f"_newton_{n}"]


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
    `_singular`, the test `solve_linear` applies.
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
    regular = not any(_singular(*step) for step in _eliminate(a_probe, [0.0] * n))

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
    return solve_linear(A, [g[a] - _dot(f_q[a], qd) - f_t[a] for a in range(len(g))])


def closure_velocity(eom: EomSystem, t: float, q, guess=None) -> np.ndarray:
    """First-order closure velocity: qd solving f(q, qd, t) = m_c * qd."""
    if eom.closure_mass is None:
        raise ValueError("closure_velocity requires a degenerate system with a mass")
    if guess is None:
        guess = eom.probe.qd
    return np.array(eom.maps.closure(eom.closure_mass)[1](t, q, guess))


def wirtinger(lagr: ComplexLagrangian, s: MechState, a: int = 0) -> complex:
    """(1/sqrt(2)) [dLagr/dqd_a - (i/omega0) dLagr/dq_a] at s, read from the
    Lagrangian's compiled complex kernel of the two derivatives.

    Coordinate index `a` is 0-based.
    """
    d = lagr._wirtinger(s.t, *s.q, *s.qd)
    return (d[a] - (1j / lagr.omega0) * d[lagr.dim + a]) / math.sqrt(2.0)


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
