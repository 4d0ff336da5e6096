"""The solves: A x = b by partial-pivot elimination, and f(t, q, qd) = p + m*qd by a damped Newton.

`solve_linear` runs on floats: the text `SOLVE_SCALAR` at one coordinate, the generated `solver(n)`
above; `solve_plan` eliminates a constant matrix once for a generated step, and `newton_solver(n)`
is the one damped Newton. Each rule is written once: `singular` is the pivot verdict, `_pivot_test`
its text, raising SingularMass with `pivot_message`, and `_residual_test` the text of the residual
bound. The module imports no numpy; `singular` also takes float64 lanes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from textwrap import indent
from typing import Callable, Sequence

from .exprcore import Sym

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
NEWTON_HALVINGS = 25
PIVOT_RATIO, SOLVE_RESIDUAL = 1e-13, 1e-10  # the solves' singular pivot ratio and relative residual bound


class SingularMass(Exception):
    """Mass matrix (or a Newton Jacobian) lost rank at the requested state."""


def dot(row: Sequence[float], x: Sequence[float]) -> float:
    return sum(r * v for r, v in zip(row, x))


def singular(pivot: float, row_scale: float) -> bool:
    """The one singularity rule, of the solves and of the classification: a pivot at most
    PIVOT_RATIO times the entry scale its row had before elimination. A ratio, so the verdict
    does not change with the units. `_pivot_test` writes it as text; `|` lets float64 lanes take it."""
    return (row_scale == 0.0) | (abs(pivot) <= PIVOT_RATIO * row_scale)


def pivot_message(pivot: str, row_scale: str) -> str:
    """SingularMass's text at a `singular` pivot, from the pivot and its row scale as written:
    their reprs at run time, `{name!r}` fields of the generated solvers' f-strings."""
    return f"pivot {pivot} below {PIVOT_RATIO!r} of row scale {row_scale}"


def _norm(xs: Sequence[str]) -> str:
    """The text of max |x| over the names xs; `abs(x)` for one name."""
    return f"abs({xs[0]})" if len(xs) == 1 else f"max({', '.join(f'abs({x})' for x in xs)})"


def _pivot_test(pivot: str, size: str, row_scale: str) -> str:
    """The text of `singular(pivot, row_scale)` on locals, |pivot| written `size`, raising SingularMass."""
    message = pivot_message(f"{{{pivot}!r}}", f"{{{row_scale}!r}}")
    return f'if {row_scale} == 0.0 or {size} <= {PIVOT_RATIO!r} * {row_scale}:\n    raise SingularMass(f"{message}")'


def _residual_test(r: Sequence[str], b: Sequence[str]) -> str:
    """The text raising SingularMass where the residual entries r of the system with right-hand
    side b have max|r| > SOLVE_RESIDUAL * (1 + max|b|), a bound never below SOLVE_RESIDUAL, so the
    test runs only where one chained comparison (false for NaN) finds an entry beyond
    +-SOLVE_RESIDUAL: it raises where the test alone would (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., 2002, sec. 9)."""
    within = " and ".join(f"{-SOLVE_RESIDUAL!r} <= {x} <= {SOLVE_RESIDUAL!r}" for x in r)
    return f"""if not {within if len(r) == 1 else f'({within})'}:
    r = {_norm(r)}
    if r > {SOLVE_RESIDUAL!r} * (1.0 + {_norm(b)}):
        raise SingularMass(f"solve residual {{r!r}} exceeds contract bound")"""


def eliminate(a: list[list[float]], x: list) -> list[tuple[float, float]]:
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
    coordinate and the generated `solver(n)` above.

    Raises SingularMass when a pivot is `singular` (the matrix is, or has
    drifted, singular), or when the solution misses the system by more than
    SOLVE_RESIDUAL relative.
    """
    if len(b) == 1:
        return [_solve_scalar(float(A[0][0]), float(b[0]))]
    return solver(len(b))(*[float(v) for row in A for v in row], *map(float, b))


def _back_substitution(
    a: list[list[str]], x: list[str], out: list[str], a0: list[list[str]], b: list[str], sums: Callable[[list[str]], str]
) -> list[str]:
    """Source lines setting `out` from the eliminated rows `a` and right-hand side
    `x`, then checking the residual of the system (a0, b) by `_residual_test`; each
    entry is a name or a literal, and `sums` writes the sum of a list of products in
    `dot`'s order. The residual's entries r1..rn go into locals."""
    n = len(b)
    lines = []
    for k in range(n - 1, -1, -1):
        back = [f"{a[k][i]} * {out[i]}" for i in range(k + 1, n)]
        lines.append(f"    {out[k]} = ({x[k]} - {f'({sums(back)})' if back else '0.0'}) / {a[k][k]}")
    r = [f"r{k}" for k in range(1, n + 1)]
    lines += [f"    {rk} = {sums([f'{v} * {o}' for v, o in zip(row, out)])} - {bk}" for rk, row, bk in zip(r, a0, b)]
    return [*lines, indent(_residual_test(r, b), "    ")]


@lru_cache(maxsize=None)
def solver(n: int) -> Callable[..., list[float]]:
    """`solve_linear` for n > 1: one straight-line function `_solve_n(a1_1, .., an_n,
    b1, .., bn)` of the row-major matrix and the right-hand side, built once per n.

    It keeps `eliminate`'s arithmetic bit for bit, and raises SingularMass at a
    `singular` pivot with `_pivot_test` (but for the sign of a NaN, which the
    loop's own runs do not keep either): `max` of `abs` for the row scales, `max`'s
    first maximum for the pivot (a later entry replaces it only when greater, so a
    NaN stays), one swap of whole rows, and no update where `m == 0.0`. A pivot is
    checked as it is found: the first `singular` one raises either way, since no
    float operation of a later step raises. `eliminate`'s stop at a zero pivot is
    never reached: a zero pivot is `singular` unless its row scale is NaN, which
    only a row with a NaN first entry has, and such a row is either the first
    pivot, a NaN, or all NaN once eliminated. The back substitution and its
    residual test are `_back_substitution`'s.
    """
    idx, join = range(1, n + 1), ", ".join
    a0, b = [[f"a{r}_{c}" for c in idx] for r in idx], [f"b{r}" for r in idx]
    a, x, s = [[f"e{r}_{c}" for c in idx] for r in idx], [f"x{r}" for r in idx], [f"s{r}" for r in idx]
    lines = [f"    {join(sum(a, []))} = {join(sum(a0, []))}", f"    {join(x)} = {join(b)}"]
    lines += [f"    {s[r]} = {_norm(a0[r])}" for r in range(n)]
    for k in range(n):
        if k < n - 1:  # the pivot row, then one swap of rows k and i > k
            lines.append(f"    c, i = abs({a[k][k]}), {k}")
            lines += [f"    w = abs({a[j][k]})\n    if w > c: c, i = w, {j}" for j in range(k + 1, n)]
            for j in range(k + 1, n):
                top, row = [*a[k][k:], x[k], s[k]], [*a[j][k:], x[j], s[j]]
                lines.append(f"    {'if' if j == k + 1 else 'elif'} i == {j}: {join(top + row)} = {join(row + top)}")
        lines.append(indent(_pivot_test(a[k][k], f"abs({a[k][k]})", s[k]), "    "))
        for j in range(k + 1, n):
            # column k of row j is never read again, so it is not updated
            lines.append(f"    m = {a[j][k]} / {a[k][k]}\n    if m != 0.0:")
            lines += [f"        {a[j][i]} = {a[j][i]} - m * {a[k][i]}" for i in range(k + 1, n)]
            lines.append(f"        {x[j]} = {x[j]} - m * {x[k]}")
    # `sum` itself adds, as `dot` does: warm bytecode specialises `+` on floats,
    # and that returns the other NaN of two than `sum` and a cold `+` do
    out = [f"o{r}" for r in idx]
    lines += _back_substitution(a, x, out, a0, b, lambda terms: f"sum(({join(terms)},))")
    src = f"def _solve_{n}({join(sum(a0, []))}, {join(b)}):\n" + "\n".join(lines) + f"\n    return [{join(out)}]\n"
    ns = {"__builtins__": {}, "abs": abs, "max": max, "sum": sum, "SingularMass": SingularMass}
    exec(src, ns)  # noqa: S102 - generated from the dimension alone
    return ns[f"_solve_{n}"]


def solve_plan(a0: list[list[float]], b: list[str], out: list[str]) -> tuple | None:
    """`compile_step` pieces that set the names `out` to `solve_linear(a0, b)` for the
    constant matrix a0 and the right-hand side named by `b`, bitwise, and raise where it does.

    `eliminate` runs on a0 here, once, so the pivot verdict and the multipliers
    are fixed (Golub & Van Loan, Matrix Computations, 4th ed., sec. 3.4). The
    pieces hold only the operations on the right-hand side: the row swaps and each
    `x_j -= m*x_k` that `eliminate` does not skip, made on trees, as one (names,
    trees) pair, which the step folds; then the text of the back substitution with its
    pivots and `solve_linear`'s residual check. None if an eliminated entry is not
    finite, which a literal cannot carry.
    """
    a, x = [row[:] for row in a0], [Sym(name) for name in b]
    for pivot, row_scale in eliminate(a, x):
        if singular(pivot, row_scale):
            raise SingularMass(pivot_message(repr(pivot), repr(row_scale)))
    if not all(math.isfinite(v) for row in a for v in row):
        return None
    rhs = [e.name if isinstance(e, Sym) else f"e{k}" for k, e in enumerate(x)]
    ops = [(name, e) for name, e in zip(rhs, x) if not isinstance(e, Sym)]
    a, a0 = ([[repr(v) for v in row] for row in m] for m in (a, a0))
    sums = lambda terms: f"0.0 + {' + '.join(terms)}"  # noqa: E731 - `dot`'s order, as the step's other sums
    text = "\n".join(_back_substitution(a, rhs, out, a0, b, sums))
    return (tuple(zip(*ops)), text) if ops else (text,)


# `solve_linear` for a 1x1 system (a, b), with both of its SingularMass checks,
# bitwise what the elimination gives: one text, run by `_solve_scalar` and
# inlined at each stage of the generated RK4 step where `a` varies; its residual
# half alone where a constant `a` passed the pivot test when the step was built
SOLVE_SCALAR_RESIDUAL = indent(f"r = a * x - b\n{_residual_test(['r'], ['b'])}", "    ")
SOLVE_SCALAR = indent(f"s = abs(a)\n{_pivot_test('a', 's', 's')}\nx = b / a\n", "    ") + SOLVE_SCALAR_RESIDUAL
exec(f"def _solve_scalar(a, b):\n{SOLVE_SCALAR}\n    return x\n")  # noqa: S102 - a constant text


# `newton_solver(n)`'s text; each name stands for one local per coordinate (a row-major matrix's
# per entry): the iterate v, f and A (a) there, the residual r; a trial's w, g, b and s
_NEWTON = """\
def _newton_{n}(_k, _error, t, {q}, {p}, {m}, {v}):
    {f}, {a} = _k(t, {q}, {v})
    {r} = {residual}
    norm = {norm_r}
    for _ in range({iterations}):
        {j} = {diagonal}
        scale = {scale}
        if norm <= {tol!r} * scale * (1.0 + {norm_v}) and isfinite(norm) and isfinite(scale):
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
def newton_solver(n: int) -> Callable[..., tuple[float, ...]]:
    """The one damped Newton for qd with f(t, q, qd) = p + m*qd: `_newton_n(kernel, error, t, q1..,
    p1.., m1.., qd1..)` -> (qd1.., f1..), straight-line on floats, built once per n, on an (f, A)
    kernel such as `lagrangian`'s `_Maps.newton`. The closure passes p = 0, the Legendre inversion
    m = 0; each names its exception type `error`. From the guess, each step solves
    (A - diag(m)) d = r = f - (p + m*qd), by r/(A - m) with `_pivot_test` at one coordinate and by
    `solver(n)` above, and halves d until max|r| falls (at most NEWTON_HALVINGS times). It
    converges where max|r| and max|A - diag(m)| are finite and max|r| is at most NEWTON_TOL *
    max|A - diag(m)| * (1 + max|qd|), where the next step would move qd by about NEWTON_TOL relative
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 5), so an exact
    rescaling of f, A, p and m moves no iterate. A singular Jacobian, a stalled line search (a NaN
    residual stalls at once) or NEWTON_MAX_ITER steps raise `error`."""
    idx, join = range(1, n + 1), ", ".join
    names = {x: [f"{x}{a}" for a in idx] for x in "qpmvwfgrsdj"}
    names.update({x: [f"{x}{i}_{c}" for i in idx for c in idx] for x in "ab"})
    p, m, v, w, f, g, r, s, d, j, a = (names[x] for x in "pmvwfgrsdja")
    jac = [j[i] if i == c else a[i * n + c] for i in range(n) for c in range(n)]  # A - diag(m), row-major
    residual = lambda fs, vs: join(f"{x} - ({y} + {z} * {u})" for x, y, z, u in zip(fs, p, m, vs))  # noqa: E731
    solve = f"{join(d)} = _solve({join(jac + r)})" if n > 1 else f"{_pivot_test('j1', 'scale', 'scale')}\nd1 = r1 / j1"
    src = _NEWTON.format(
        **{x: join(values) for x, values in names.items()}, n=n, tol=NEWTON_TOL, solve=indent(solve, " " * 12),
        iterations=NEWTON_MAX_ITER, halvings=NEWTON_HALVINGS, diagonal=join(f"{a[i * n + i]} - {m[i]}" for i in range(n)),
        residual=residual(f, v), trial_residual=residual(g, w), trial=join(f"{x} - lam * {y}" for x, y in zip(v, d)),
        norm_r=_norm(r), norm_s=_norm(s), norm_v=_norm(v), scale=_norm(jac),
    )
    ns = {"__builtins__": {}, "abs": abs, "max": max, "range": range, "isfinite": math.isfinite, "SingularMass": SingularMass}
    if n > 1:
        ns["_solve"] = solver(n)
    exec(src, ns)  # noqa: S102 - generated from the dimension alone
    return ns[f"_newton_{n}"]
