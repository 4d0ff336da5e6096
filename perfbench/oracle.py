"""Checks of clmech's outputs against references that never import clmech.

- `derive`: sympy differentiates the generator's own term list into the
  momentum map f, force map g and mass matrix A. The printed
  `momentum[a]`/`force[a]`/`mass[a][b]` lines are evaluated by a small
  translator of their text into Python, at seeded states, and compared.
- `simulate`: the final CSV row is compared with `scipy.linalg.expm` of the
  flow matrix for quadratic Lagrangians and with `scipy.integrate.solve_ivp`
  for the rest.
- `check_corpus`: every suite's line tags and the `RESULT` trailer must match
  the stored expectation in `corpus_expected.json`.

Each check returns a list of mismatch messages; an empty list is a pass.
"""

from __future__ import annotations

import cmath
import json
import random
import re
from functools import lru_cache
from pathlib import Path

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from gen import CLOSURE, HAMILTONIAN, Spec, coord_names, vel_names

EXPECTED_CORPUS = Path(__file__).with_name("corpus_expected.json")

# agreement of printed maps with sympy (both are exact up to roundoff)
MAP_RTOL = 1e-9
# RK4 at h = 0.004 over at most 10 time units is accurate to ~1e-8
FINAL_ROW_RTOL = 1e-6

T = sp.Symbol("t", real=True)


def _template(name: str, q: list, v: list, idx: tuple[int, ...]):
    i0 = idx[0]
    i1 = idx[1] if len(idx) > 1 else i0
    return {
        "vv": lambda: v[i0] * v[i1],
        "qq": lambda: q[i0] * q[i1],
        "qv": lambda: q[i0] * v[i1],
        "v4": lambda: v[i0] ** 4,
        "cosq": lambda: sp.cos(q[i0]),
        "sinq": lambda: sp.sin(q[i0]),
        "expq": lambda: sp.exp(-q[i0] ** 2 / 2),
        "lnq": lambda: sp.log(1 + q[i0] ** 2),
        "sqrtv": lambda: sp.sqrt(1 + v[i0] ** 2),
        "tanhv": lambda: sp.tanh(v[i0]),
        "tq": lambda: T * q[i0],
        "costqq": lambda: sp.cos(T) * q[i0] ** 2,
    }[name]()


@lru_cache(maxsize=None)
def _term_partials(template: str, idx: tuple[int, ...], dim: int):
    """First and second partials of one term body, compiled by sympy.

    Cached per body: the maps are linear in the terms, so each distinct body
    is differentiated once however many Lagrangians share it.
    """
    q = [sp.Symbol(f"x{a}", real=True) for a in range(dim)]
    v = [sp.Symbol(f"y{a}", real=True) for a in range(dim)]
    body = _template(template, q, v, idx)
    gq = [sp.diff(body, x) for x in q]
    gv = [sp.diff(body, y) for y in v]
    parts = [
        gq,
        gv,
        [[sp.diff(e, y) for y in v] for e in gv],  # d2/dv dv
        [[sp.diff(e, y) for y in v] for e in gq],  # d2/dq dv
        [[sp.diff(e, x) for x in q] for e in gv],  # d2/dv dq
        [[sp.diff(e, x) for x in q] for e in gq],  # d2/dq dq
        [sp.diff(e, T) for e in gv],
        [sp.diff(e, T) for e in gq],
    ]
    zero_vv = all(e == 0 for row in parts[2] for e in row)
    zero_qv = all(e == 0 for row in parts[3] for e in row)
    return sp.lambdify([T, *q, *v], parts, "math"), zero_vv, zero_qv


class Maps:
    """Numeric f, g, A, df/dq, df/dt of a spec, derived by sympy.

    With L = sum Re(c) T and M = sum Im(c) T over the terms c*T:
    f_a = dL/dqd_a + dM/dq_a / omega0, g_a = dL/dq_a - omega0 dM/dqd_a,
    A_ab = df_a/dqd_b.
    """

    def __init__(self, spec: Spec) -> None:
        self.dim = spec.dim
        self.w0 = spec.omega0
        self._terms = []
        self.mass_identically_zero = True
        for term in spec.terms:
            fn, zero_vv, zero_qv = _term_partials(term.template, term.idx, spec.dim)
            re, im = term.coef.real, term.coef.imag
            self._terms.append((re, im, fn))
            if (re != 0 and not zero_vv) or (im != 0 and not zero_qv):
                self.mass_identically_zero = False

    def _sum(self, t: float, q, qd, pick):
        total = 0.0
        for re, im, fn in self._terms:
            total = total + pick(re, im, [np.asarray(p, dtype=float) for p in fn(t, *q, *qd)])
        return np.asarray(total, dtype=float)

    def f_g(self, t: float, q, qd) -> tuple[np.ndarray, np.ndarray]:
        w0 = self.w0
        f = self._sum(t, q, qd, lambda re, im, p: re * p[1] + im / w0 * p[0])
        g = self._sum(t, q, qd, lambda re, im, p: re * p[0] - w0 * im * p[1])
        return f, g

    def mass(self, t: float, q, qd) -> np.ndarray:
        w0 = self.w0
        return self._sum(t, q, qd, lambda re, im, p: re * p[2] + im / w0 * p[3])

    def accel(self, t: float, q, qd) -> np.ndarray:
        w0 = self.w0
        _, g = self.f_g(t, q, qd)
        fq = self._sum(t, q, qd, lambda re, im, p: re * p[4] + im / w0 * p[5])
        ft = self._sum(t, q, qd, lambda re, im, p: re * p[6] + im / w0 * p[7])
        rhs = g - fq @ np.asarray(qd, dtype=float) - ft
        return np.linalg.solve(self.mass(t, q, qd), rhs)


def classify(maps: Maps, t: float, q, qd) -> str:
    """Same rule as the scenario contract: regular iff A(probe) is invertible."""
    if maps.mass_identically_zero:
        return "degenerate"
    A = maps.mass(t, q, qd)
    scale = max(1.0, float(np.abs(A).max()))
    return "regular" if abs(np.linalg.det(A)) > 1e-9 * scale ** maps.dim else "degenerate"


# --- derive ----------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FUNCS = {
    "sin": cmath.sin,
    "cos": cmath.cos,
    "exp": cmath.exp,
    "ln": cmath.log,
    "sqrt": cmath.sqrt,
    "tanh": cmath.tanh,
}


def printed_to_python(text: str) -> str:
    """Translate clmech's printed expression syntax into a Python expression."""
    text = text.replace("^", "**")
    return _IDENT.sub(lambda m: "1j" if m.group(0) == "i" else m.group(0), text)


def eval_printed(text: str, bindings: dict[str, float]) -> complex:
    code = compile(printed_to_python(text), "<printed>", "eval")
    return complex(eval(code, {"__builtins__": {}}, {**_FUNCS, **bindings}))  # noqa: S307


def _parse_report(report: str) -> dict[str, str]:
    out = {}
    for line in report.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _close(got: complex, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * (1.0 + abs(want))


def check_derive(spec: Spec, report: str) -> list[str]:
    """Compare a `clmech derive` report with the sympy-derived maps."""
    maps = Maps(spec)
    lines = _parse_report(report)
    errors = []
    want_class = classify(maps, 0.0, spec.q0, spec.qd0)
    if want_class != spec.classification:
        errors.append(f"{spec.name}: generator meant {spec.classification}, sympy says {want_class}")
    if lines.get("classification") != want_class:
        errors.append(f"{spec.name}: classification {lines.get('classification')!r} != {want_class!r}")
    if want_class == "degenerate":
        masses = ", ".join(f"{m:.17g}" for m in spec.closure_mass)
        if lines.get("closure-mass") != masses:
            errors.append(f"{spec.name}: closure-mass {lines.get('closure-mass')!r} != {masses!r}")
    n = spec.dim
    rng = random.Random(f"oracle:{spec.name}")
    names = ("t",) + coord_names(n) + vel_names(n)
    for _ in range(3):
        point = [rng.uniform(0.0, 2.0)] + [rng.uniform(-1.5, 1.5) for _ in range(2 * n)]
        q, qd = point[1 : 1 + n], point[1 + n :]
        bindings = dict(zip(names, point), **spec.params)
        f, g = maps.f_g(point[0], q, qd)
        A = maps.mass(point[0], q, qd)
        want = {f"momentum[{a}]": f[a] for a in range(n)}
        want.update({f"force[{a}]": g[a] for a in range(n)})
        want.update({f"mass[{a}][{b}]": A[a, b] for a in range(n) for b in range(n)})
        for key, value in want.items():
            if key not in lines:
                errors.append(f"{spec.name}: no {key} line")
                continue
            got = eval_printed(lines[key], bindings)
            if not _close(got, value, MAP_RTOL):
                errors.append(f"{spec.name}: {key} = {got} at {point}, sympy {value}")
    return errors


# --- simulate ---------------------------------------------------------------


def _root(fn, guess: float) -> float:
    """Root of a strictly increasing scalar function, bracketed from `guess`."""
    lo, hi, step = guess - 1.0, guess + 1.0, 1.0
    while fn(lo) > 0:
        step *= 2
        lo -= step
    while fn(hi) < 0:
        step *= 2
        hi += step
    return brentq(fn, lo, hi, xtol=1e-15, rtol=1e-15)


def _closure_velocity(maps: Maps, mass: np.ndarray, t: float, q) -> np.ndarray:
    zero = np.zeros(maps.dim)
    if maps.mass_identically_zero:  # f does not depend on qd
        return maps.f_g(t, q, zero)[0] / mass
    # the generator only makes one-coordinate nonlinear closures, with
    # f - m qd strictly increasing in qd
    return np.array([_root(lambda x: maps.f_g(t, q, [x])[0][0] - mass[0] * x, 0.0)])


def _inverted_velocity(maps: Maps, t: float, q: float, p: float) -> float:
    return _root(lambda x: maps.f_g(t, [q], [x])[0][0] - p, 0.0)


def expected_final(spec: Spec) -> dict[str, np.ndarray]:
    """Reference (q, qd, p) at t_end for a simulate spec."""
    maps = Maps(spec)
    n = spec.dim
    if spec.kind == CLOSURE:
        mass = np.array(spec.closure_mass)

        def rhs(t, y):
            return _closure_velocity(maps, mass, t, y)

        y0 = np.array(spec.q0)
    elif spec.kind == HAMILTONIAN:

        def rhs(t, y):
            qd = _inverted_velocity(maps, t, y[0], y[1])
            return np.array([qd, maps.f_g(t, [y[0]], [qd])[1][0]])

        y0 = np.array([spec.q0[0], spec.p0[0]])
    else:

        def rhs(t, y):
            return np.concatenate((y[n:], maps.accel(t, y[:n], y[n:])))

        y0 = np.array(spec.q0 + spec.qd0)
    if spec.linear:
        # the flow is y' = J y: its columns are the flow at the unit vectors
        J = np.column_stack([rhs(0.0, e) for e in np.eye(len(y0))])
        y = expm(J * spec.t_end) @ y0
    else:
        sol = solve_ivp(rhs, (0.0, spec.t_end), y0, method="DOP853", rtol=1e-12, atol=1e-13)
        if not sol.success:
            raise RuntimeError(f"{spec.name}: reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    t = spec.t_end
    if spec.kind == CLOSURE:
        q = y
        qd = _closure_velocity(maps, np.array(spec.closure_mass), t, q)
        p = maps.f_g(t, q, qd)[0]
    elif spec.kind == HAMILTONIAN:
        q, p = y[:1], y[1:]
        qd = np.array([_inverted_velocity(maps, t, q[0], p[0])])
    else:
        q, qd = y[:n], y[n:]
        p = maps.f_g(t, q, qd)[0]
    return {"t": np.array([t]), "q": q, "qd": qd, "p": p}


def check_final_row(spec: Spec, last_row: str) -> list[str]:
    """Compare the last CSV row (t, q.., qd.., p.., el_residual) with the reference."""
    n = spec.dim
    values = [float(x) for x in last_row.split(",")]
    if len(values) != 3 * n + 2:
        return [f"{spec.name}: final row has {len(values)} columns, expected {3 * n + 2}"]
    got = {
        "t": values[:1],
        "q": values[1 : 1 + n],
        "qd": values[1 + n : 1 + 2 * n],
        "p": values[1 + 2 * n : 1 + 3 * n],
    }
    want = expected_final(spec)
    errors = []
    for key, ref in want.items():
        for a, (x, y) in enumerate(zip(got[key], ref)):
            if not _close(x, float(y), FINAL_ROW_RTOL):
                errors.append(f"{spec.name}: final {key}[{a}] = {x!r}, reference {float(y)!r}")
    return errors


# --- check_corpus -------------------------------------------------------------


def report_verdicts(report: str) -> dict:
    """Suite headers, per-line tags and the trailer of a `check` report."""
    suites = []
    trailer = None
    for line in report.splitlines():
        if line.startswith("## suite "):
            suites.append({"suite": line.split()[2], "lines": {}})
        elif line.startswith("[") and suites:
            tag, _, rest = line.partition("] ")
            suites[-1]["lines"][rest.split(" value=")[0]] = tag[1:]
        elif line.startswith("RESULT "):
            trailer = line.split()[1]
    return {"suites": suites, "result": trailer}


@lru_cache(maxsize=None)
def expected_corpus() -> dict:
    return json.loads(EXPECTED_CORPUS.read_text())


def check_corpus_report(scenario: str, report: str) -> list[str]:
    want = expected_corpus()[scenario]
    got = report_verdicts(report)
    if got == want:
        return []
    errors = []
    if got["result"] != want["result"]:
        errors.append(f"{scenario}: RESULT {got['result']!r}, expected {want['result']!r}")
    got_lines = {(s["suite"], label): tag for s in got["suites"] for label, tag in s["lines"].items()}
    want_lines = {(s["suite"], label): tag for s in want["suites"] for label, tag in s["lines"].items()}
    for key in sorted(set(got_lines) | set(want_lines)):
        if got_lines.get(key) != want_lines.get(key):
            errors.append(f"{scenario}: {key[0]} {key[1]} is {got_lines.get(key)}, expected {want_lines.get(key)}")
    return errors or [f"{scenario}: suite order differs from the expectation"]
