"""Seeded input generator for the `simulate` and `derive_cold` workloads.

clmech only ever sees the scenario files written here. The oracle sees the
`Spec` objects, which carry the same Lagrangian as a list of `Term`s, so it
can derive the maps without parsing clmech's expression language.

The same (workload, seed, index) always gives byte-identical files: every
draw comes from a `random.Random` seeded with a string, which Python hashes
with SHA-512, and every float is rounded before it is written.

Why each property varies:

- flow kind (regular, closure, Hamiltonian): each kind runs a different
  inner loop in `dynamics` -- `solve_linear` on the mass matrix, the closure
  Newton solve, or the momentum inversion -- so a speed-up of one must not
  hide a slow-down of another.
- dim (1 and 3 for `simulate`, 1-4 for `derive_cold`): dim 1 is the common
  case and the target of scalar fast paths; dim 3 keeps the general matrix
  path measured, so a fast path that slows dim > 1 shows up.
- nonlinearity (`qd^4`, `cos`, `tanh`, ...): quadratic Lagrangians give a
  constant mass matrix and a closure or inversion Newton solve that stops
  after one step; the non-quadratic terms make Newton iterate and make every
  map entry a real function of the state.
- call mix (`sin cos exp ln sqrt tanh`): each call has its own derivative
  rule, simplification and domain guard in `exprcore`.
- tree size (term count, dim, explicit `t`, complex coefficients): derive
  cost grows with the number of nodes, and complex coefficients make the
  real/imaginary split produce both `L` and `M`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# template -> DSL text; {q}/{v} are the coordinate/velocity names at the
# term's indices. The oracle holds its own sympy version of each template.
TEMPLATES = {
    "vv": "{v0}*{v1}",
    "qq": "{q0}*{q1}",
    "qv": "{q0}*{v1}",
    "v4": "{v0}^4",
    "cosq": "cos({q0})",
    "sinq": "sin({q0})",
    "expq": "exp(-0.5*{q0}^2)",
    "lnq": "ln(1 + {q0}^2)",
    "sqrtv": "sqrt(1 + {v0}^2)",
    "tanhv": "tanh({v0})",
    "tq": "t*{q0}",
    "costqq": "cos(t)*{q0}^2",
}

# templates whose only state dependence is on q (and t)
Q_ONLY = ("qq", "cosq", "sinq", "expq", "lnq", "tq", "costqq")
# templates that depend on qd alone
V_ONLY = ("vv", "v4", "sqrtv", "tanhv")
CALLS = ("cosq", "sinq", "expq", "lnq", "sqrtv", "tanhv")

REGULAR = "regular"
CLOSURE = "closure"
HAMILTONIAN = "hamiltonian"


def coord_names(dim: int) -> tuple[str, ...]:
    return ("q",) if dim == 1 else tuple(f"q{a}" for a in range(1, dim + 1))


def vel_names(dim: int) -> tuple[str, ...]:
    return ("qd",) if dim == 1 else tuple(f"qd{a}" for a in range(1, dim + 1))


@dataclass(frozen=True)
class Term:
    """coef * template(indices); a named parameter carries coef.real if set."""

    template: str
    idx: tuple[int, ...]
    coef: complex
    param: str | None = None

    def source(self, dim: int) -> str:
        qs, vs = coord_names(dim), vel_names(dim)
        i0 = self.idx[0]
        i1 = self.idx[1] if len(self.idx) > 1 else i0
        body = TEMPLATES[self.template].format(q0=qs[i0], q1=qs[i1], v0=vs[i0], v1=vs[i1])
        re = self.param if self.param else repr(self.coef.real)
        if self.coef.imag == 0:
            coef = re
        elif self.coef.real == 0 and not self.param:
            coef = f"({self.coef.imag!r}*i)"
        else:
            coef = f"({re} + {self.coef.imag!r}*i)"
        return f"{coef}*{body}"


@dataclass(frozen=True)
class Spec:
    """One generated scenario: what the oracle needs, plus the file contents."""

    name: str
    kind: str  # expected flow kind (regular / closure / hamiltonian)
    dim: int
    omega0: float
    terms: tuple[Term, ...]
    q0: tuple[float, ...]
    qd0: tuple[float, ...] | None
    p0: tuple[float, ...] | None
    closure_mass: tuple[float, ...] | None
    h: float
    t_end: float
    linear: bool  # quadratic Lagrangian without explicit t: the flow is y' = J y

    @property
    def classification(self) -> str:
        return "degenerate" if self.kind == CLOSURE else "regular"

    @property
    def params(self) -> dict[str, float]:
        return {t.param: t.coef.real for t in self.terms if t.param}

    def lagrangian(self) -> str:
        return " + ".join(t.source(self.dim) for t in self.terms)

    def scenario(self) -> dict:
        initial: dict = {"q": list(self.q0)}
        if self.p0 is not None:
            initial["p"] = list(self.p0)
        else:
            initial["qd"] = list(self.qd0)
        out = {
            "schema_version": 1,
            "name": self.name,
            "lagrangian": self.lagrangian(),
            "omega0": self.omega0,
            "dim": self.dim,
            "params": self.params,
            "initial": initial,
            "integrator": {"h": self.h, "t_start": 0.0, "t_end": self.t_end},
            "checks": [],
        }
        if self.closure_mass is not None:
            out["closure_mass"] = list(self.closure_mass)
        return out

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.json"
        path.write_text(json.dumps(self.scenario(), sort_keys=True, indent=1) + "\n")
        return path


def _u(rng: random.Random, lo: float, hi: float, digits: int = 3) -> float:
    return round(rng.uniform(lo, hi), digits)


# Functions that take a `shape` generator draw the tree's structure from it
# (signs, whether a coefficient is complex or a named parameter) and the
# numbers from `rng`.


def _signed(rng: random.Random, lo: float, hi: float, shape: random.Random) -> float:
    """A magnitude in [lo, hi] (lo > 0, so never 0) with a sign."""
    return _u(rng, lo, hi) * shape.choice((-1, 1))


def _cplx(rng: random.Random, re: float, im_scale: float, shape: random.Random) -> complex:
    im = _signed(rng, im_scale / 20, im_scale, shape)
    return complex(re, im if shape.random() < 0.7 else 0.0)


def _maybe_param(shape: random.Random, n: int, coef: complex) -> str | None:
    named = shape.random() < 0.3
    return f"c{n}" if named and coef.real != 0 else None


def _kinetic(rng: random.Random, dim: int, nonlinear: bool, shape: random.Random) -> list[Term]:
    """Diagonally dominant real mass: regular at every state the flows reach."""
    terms = []
    for a in range(dim):
        terms.append(Term("vv", (a, a), _cplx(rng, 0.5 * _u(rng, 0.8, 1.5), 0.2, shape)))
        if nonlinear:
            terms.append(Term("v4", (a,), complex(_u(rng, 0.01, 0.05), _signed(rng, 0.005, 0.05, shape))))
    for a in range(dim):
        for b in range(a + 1, dim):
            c = complex(_signed(rng, 0.005, 0.08, shape), _signed(rng, 0.005, 0.1, shape))
            terms.append(Term("vv", (a, b), c))
    return terms


def _potential(rng: random.Random, dim: int, nonlinear: bool, im_only: bool, shape: random.Random) -> list[Term]:
    """Restoring quadratic potential, optionally with bounded calls on top."""
    terms = []
    for a in range(dim):
        k = 0.5 * _u(rng, 0.5, 2.0)
        # an imaginary q^2 term adds -(2/omega0) Im(c) qd to the force
        # balance, so it damps or antidamps: keep it small next to k
        coef = complex(0.0, k) if im_only else _cplx(rng, -k, 0.05, shape)
        terms.append(Term("qq", (a, a), coef))
    for a in range(dim):
        for b in range(a + 1, dim):
            c = _signed(rng, 0.005, 0.1, shape)
            terms.append(Term("qq", (a, b), complex(0.0, c) if im_only else complex(c, 0.0)))
    if nonlinear:
        for a in range(dim):
            tmpl = shape.choice(("cosq", "expq", "lnq"))
            c = _u(rng, 0.05, 0.2)
            terms.append(Term(tmpl, (a,), _cplx(rng, c, 0.1, shape)))
    return terms


def _state(rng: random.Random, dim: int) -> tuple[float, ...]:
    return tuple(_u(rng, -1.0, 1.0) for _ in range(dim))


def _name_params(terms: list[Term], shape: random.Random) -> tuple[Term, ...]:
    out = []
    for n, t in enumerate(terms):
        out.append(Term(t.template, t.idx, t.coef, _maybe_param(shape, n, t.coef)))
    return tuple(out)


# The traffic mix of a simulate round.
#
# Recorded: RK4 steps per flow kind that `clmech check all` integrates over
# the eight bundled scenarios (every suite, `--seed` 1). The traced
# `check_corpus` run reports their sum as `dynamics.integrate_steps`; the
# counts per kind come from the same spans. The corpus is the only record
# of what users integrate, so the round gives each kind this share of steps.
CORPUS_STEPS = {REGULAR: 78_867, HAMILTONIAN: 26_783, CLOSURE: 3_000}
# Chosen, not recorded: every bundled scenario is dim 1 and quadratic, so
# the corpus cannot weigh dim 3 or non-quadratic terms, which the workload
# must still exercise. Within a kind, dim-1 quadratic keeps half of the
# steps, dim-1 non-quadratic a quarter and dim 3 a quarter (Hamiltonian
# flows are dim 1 only, so its dim-3 quarter stays with dim-1 quadratic).
WITHIN_KIND = {
    REGULAR: {(1, False): 0.5, (1, True): 0.25, (3, False): 0.125, (3, True): 0.125},
    CLOSURE: {(1, False): 0.5, (1, True): 0.25, (3, False): 0.25},
    HAMILTONIAN: {(1, False): 0.75, (1, True): 0.25},
}
# RK4 steps of one round: about 2.5 s on the baseline machine of the README,
# so a 15 s run holds several rounds.
SIMULATE_ROUND_STEPS = 6_000
SIMULATE_H = 0.004


def _categories() -> dict[tuple[str, int, bool], int]:
    """(kind, dim, nonlinear) -> RK4 steps; a round runs one scenario of each."""
    total = sum(CORPUS_STEPS.values())
    return {
        (kind, dim, nonlinear): round(SIMULATE_ROUND_STEPS * CORPUS_STEPS[kind] / total * share)
        for kind, shares in WITHIN_KIND.items()
        for (dim, nonlinear), share in shares.items()
    }


SIMULATE_CATEGORIES = _categories()

# A category's steps are split evenly over scenarios of at most this many
# steps. Most operations of a round then last about as long as each other,
# so the median and the 90th percentile fall inside a group of several
# operations of one category instead of on a single scenario whose latency
# the seed's numbers and the machine's noise move alone. The traffic mix
# (steps per category) is unchanged.
SIMULATE_CHUNK_STEPS = 300


def _round() -> tuple[tuple[tuple[str, int, bool], int], ...]:
    """((kind, dim, nonlinear), steps) of each scenario of a round."""
    out = []
    for category, steps in SIMULATE_CATEGORIES.items():
        n = -(-steps // SIMULATE_CHUNK_STEPS)
        out += [(category, steps // n + (i < steps % n)) for i in range(n)]
    return tuple(out)


SIMULATE_ROUND = _round()


def simulate_spec(seed: int, index: int, steps_scale: float = 1.0) -> Spec:
    """Scenario `index` of a simulate round; the round cycles with index.

    As for `derive_spec`, the tree's shape is a function of the category
    alone (every scenario of a category has the same tree) and the seed
    draws the numbers: coefficients and initial states.
    """
    category, round_steps = SIMULATE_ROUND[index % len(SIMULATE_ROUND)]
    kind, dim, nonlinear = category
    rng = random.Random(f"simulate:{seed}:{index}")
    shape = random.Random(f"simulate-shape:{list(SIMULATE_CATEGORIES).index(category)}")
    omega0 = _u(rng, 0.5, 2.0)
    q0 = _state(rng, dim)
    qd0 = p0 = mass = None
    if kind == CLOSURE:
        # imaginary kinetic term plus an imaginary potential: A = 0, and the
        # closure f = m qd is linear in qd (one Newton step) unless a real
        # qd^4 term makes f cubic in qd; qd0 = 0 keeps A(probe) singular.
        terms = [Term("vv", (a, a), complex(0.0, 0.5 * _u(rng, 0.5, 1.5))) for a in range(dim)]
        terms += _potential(rng, dim, False, im_only=True, shape=shape)
        if nonlinear:
            terms += [Term("v4", (a,), complex(_u(rng, 0.05, 0.2), 0.0)) for a in range(dim)]
            terms.append(Term("cosq", (0,), complex(0.0, -_u(rng, 0.05, 0.2))))
        qd0 = (0.0,) * dim
        # negative mass with a positive qd^4 coefficient keeps f - m qd
        # strictly increasing in qd, so the closure root is unique
        mass = tuple(-_u(rng, 0.8, 1.5) for _ in range(dim))
    else:
        terms = _kinetic(rng, dim, nonlinear and kind == HAMILTONIAN, shape)
        terms += _potential(rng, dim, nonlinear and kind == REGULAR, im_only=False, shape=shape)
        if nonlinear and kind == REGULAR:
            c = complex(_signed(rng, 0.01, 0.1, shape), _signed(rng, 0.01, 0.1, shape))
            terms.append(Term("tanhv", (0,), c))
            terms.append(Term("qv", (0, dim - 1), complex(0.0, _signed(rng, 0.02, 0.2, shape))))
        if nonlinear and kind == HAMILTONIAN:
            terms.append(Term("cosq", (0,), complex(_u(rng, 0.05, 0.2), 0.0)))
        if kind == HAMILTONIAN:
            p0 = (_u(rng, -1.0, 1.0),)
        else:
            qd0 = _state(rng, dim)
    steps = max(10, int(round_steps * steps_scale))
    tag = f"{kind}{dim}{'n' if nonlinear else 'q'}"
    return Spec(
        name=f"sim_{seed}_{index}_{tag}",
        kind=kind,
        dim=dim,
        omega0=omega0,
        terms=_name_params(terms, shape),
        q0=q0,
        qd0=qd0,
        p0=p0,
        closure_mass=mass,
        h=SIMULATE_H,
        t_end=round(SIMULATE_H * steps, 10),
        linear=not nonlinear,
    )


# The mix of a derive_cold batch of 100 Lagrangians. Every bundled scenario
# is dim 1, so dim 1 takes half of a batch; dims 2-4, which the corpus does
# not weigh, share the other half evenly (a choice). 3 of the 8 bundled
# scenarios are degenerate and carry a closure mass, so 3 of every 8 slots
# are degenerate (recorded).
DERIVE_DIMS = (1,) * 52 + (2,) * 16 + (3,) * 16 + (4,) * 16
DEGENERATE_SLOTS = (5, 6, 7)  # of every 8


def derive_spec(seed: int, index: int) -> Spec:
    """Lagrangian `index` of the derive_cold stream; never repeats for a seed.

    The shape -- dim, degenerate or not, term count, which templates, the
    coordinates each term uses, which coefficients are complex or named --
    is a function of `index % 100`, so every batch of 100 has the same trees
    and runs with different seeds measure comparable work; the seed draws
    the numbers: coefficients, omega0, the closure mass and the states.
    """
    rng = random.Random(f"derive:{seed}:{index}")
    slot = index % len(DERIVE_DIMS)
    shape = random.Random(f"derive-shape:{slot}")
    dim = DERIVE_DIMS[slot]
    degenerate = slot % 8 in DEGENERATE_SLOTS
    n_extra = 1 + (slot // 4) % (2 + dim)
    omega0 = _u(rng, 0.5, 2.0)
    terms: list[Term] = []
    if degenerate:
        # qd enters L at most linearly and M only through qd-only terms, so
        # f depends on q and t alone and A vanishes identically
        for a in range(dim):
            terms.append(Term(V_ONLY[(slot + a) % len(V_ONLY)], (a, a), complex(0.0, _u(rng, 0.2, 1.0))))
            terms.append(Term("qv", (a, shape.randrange(dim)), complex(_signed(rng, 0.05, 1.0, shape), 0.0)))
        for j in range(n_extra):
            tmpl = Q_ONLY[(3 * slot + j) % len(Q_ONLY)]
            idx = (shape.randrange(dim), shape.randrange(dim))
            terms.append(Term(tmpl, idx, _cplx(rng, _signed(rng, 0.05, 1.0, shape), 1.0, shape)))
        mass = tuple(_u(rng, 0.5, 2.0) * rng.choice((-1, 1)) for _ in range(dim))
    else:
        pool = Q_ONLY + CALLS
        terms += _kinetic(rng, dim, slot % 10 < 3, shape)
        for j in range(n_extra + 1):
            tmpl = pool[(7 * slot + j) % len(pool)]
            c = _cplx(rng, _signed(rng, 0.01, 0.15, shape), 0.15, shape)
            if tmpl in V_ONLY:
                # bounded curvature keeps the mass matrix diagonally dominant
                c = complex(abs(c.real) if tmpl == "sqrtv" else c.real * 0.5, c.imag)
            terms.append(Term(tmpl, (shape.randrange(dim), shape.randrange(dim)), c))
        mass = None
    return Spec(
        name=f"der_{seed}_{index}",
        kind=CLOSURE if degenerate else REGULAR,
        dim=dim,
        omega0=omega0,
        terms=_name_params(terms, shape),
        q0=_state(rng, dim),
        qd0=_state(rng, dim),
        p0=None,
        closure_mass=mass,
        h=0.01,
        t_end=1.0,
        linear=False,
    )
