"""Scenario files: strict JSON schema for simulations and check suites.

A scenario is the single configuration surface for the whole engine; every
knob a module consumes is representable here, and nothing else is accepted
(unknown fields are rejected so typos fail loudly instead of being ignored).
Schema, version 1:

    {
      "schema_version": 1,
      "name": "...",                      # nonempty string
      "lagrangian": "0.5*m*qd^2 - ...",   # expression text
      "omega0": 1.0,                      # nonzero real
      "dim": 1,                           # positive integer
      "params": {"m": 1.0},              # name -> finite real
      "initial": {"q": [...], "qd": [...]}   # or {"q": [...], "p": [...]}
      "integrator": {"h": 1e-3, "t_start": 0.0, "t_end": 10.0},
      "closure_mass": [-1.0],            # optional, per-coordinate, nonzero
      "kappa0": 1.0,                     # optional, nonzero
      "checks": ["variation", "noether"] # suite names
    }

Schema violations raise ScenarioError naming the offending field.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .dynamics import IntegratorConfig
from .exprcore import ExprError, parse
from .lagrangian import ComplexLagrangian, InvalidParameter, MechState, UndeclaredSymbol
from .records import field, record

SCHEMA_VERSION = 1
SUITE_NAMES = ("variation", "noether", "equivalence", "geometry", "hamiltonian")


class ScenarioError(Exception):
    """A scenario file violated the schema; `field` names the culprit."""

    def __init__(self, field: str, message: str) -> None:
        self.field = field
        super().__init__(f"scenario field '{field}': {message}")


def _real(field: str, value, *, nonzero: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(field, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ScenarioError(field, "must be finite")
    if nonzero and out == 0.0:
        raise ScenarioError(field, "must be nonzero")
    return out


def _real_vector(field: str, value, length: int, *, nonzero: bool = False):
    if not isinstance(value, list) or len(value) != length:
        raise ScenarioError(field, f"expected a list of {length} numbers")
    return tuple(_real(f"{field}[{k}]", v, nonzero=nonzero) for k, v in enumerate(value))


def _keys_exactly(field: str, obj, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ScenarioError(field, "expected an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioError(f"{field}.{sorted(missing)[0]}", "missing required field")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioError(f"{field}.{sorted(unknown)[0]}", "unknown field")


@record(frozen=True)
class Scenario:
    """A validated scenario; construct via from_dict or load. `lagr` is the
    Lagrangian that from_dict parsed to validate `lagrangian`."""

    name: str
    lagrangian: str
    omega0: float
    dim: int
    params: dict[str, float]
    initial_q: tuple[float, ...]
    initial_qd: tuple[float, ...] | None
    initial_p: tuple[float, ...] | None
    h: float
    t_start: float
    t_end: float
    closure_mass: tuple[float, ...] | None
    kappa0: float
    checks: tuple[str, ...]
    lagr: ComplexLagrangian = field(repr=False, compare=False)

    @staticmethod
    def from_dict(raw: dict) -> "Scenario":
        _keys_exactly(
            "scenario",
            raw,
            required={
                "schema_version",
                "name",
                "lagrangian",
                "omega0",
                "dim",
                "params",
                "initial",
                "integrator",
                "checks",
            },
            optional={"closure_mass", "kappa0"},
        )
        if raw["schema_version"] != SCHEMA_VERSION:
            raise ScenarioError(
                "schema_version", f"expected {SCHEMA_VERSION}, got {raw['schema_version']!r}"
            )
        name = raw["name"]
        if not isinstance(name, str) or not name:
            raise ScenarioError("name", "expected a nonempty string")
        source = raw["lagrangian"]
        if not isinstance(source, str):
            raise ScenarioError("lagrangian", "expected an expression string")
        omega0 = _real("omega0", raw["omega0"], nonzero=True)
        dim = raw["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ScenarioError("dim", f"expected a positive integer, got {dim!r}")
        if not isinstance(raw["params"], dict):
            raise ScenarioError("params", "expected an object of name -> number")
        params = {
            key: _real(f"params.{key}", value) for key, value in raw["params"].items()
        }

        initial = raw["initial"]
        if isinstance(initial, dict) and "p" in initial:
            _keys_exactly("initial", initial, required={"q", "p"})
            q = _real_vector("initial.q", initial["q"], dim)
            qd = None
            p = _real_vector("initial.p", initial["p"], dim)
        else:
            _keys_exactly("initial", initial, required={"q", "qd"})
            q = _real_vector("initial.q", initial["q"], dim)
            qd = _real_vector("initial.qd", initial["qd"], dim)
            p = None

        integ = raw["integrator"]
        _keys_exactly("integrator", integ, required={"h", "t_start", "t_end"})
        h = _real("integrator.h", integ["h"])
        t_start = _real("integrator.t_start", integ["t_start"])
        t_end = _real("integrator.t_end", integ["t_end"])
        if t_end <= t_start:
            raise ScenarioError("integrator.t_end", "must exceed t_start")
        try:  # with t_end > t_start, IntegratorConfig can reject only h: its sign or step count
            IntegratorConfig(h, t_start, t_end)
        except ValueError as err:
            raise ScenarioError("integrator.h", str(err)) from err

        closure_mass = None
        if "closure_mass" in raw:
            closure_mass = _real_vector("closure_mass", raw["closure_mass"], dim, nonzero=True)
        kappa0 = _real("kappa0", raw.get("kappa0", 1.0), nonzero=True)

        checks = raw["checks"]
        if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
            raise ScenarioError("checks", "expected a list of suite names")
        for c in checks:
            if c not in SUITE_NAMES:
                raise ScenarioError(
                    "checks", f"unknown suite {c!r}; valid: {', '.join(SUITE_NAMES)}"
                )
        if len(set(checks)) != len(checks):
            raise ScenarioError("checks", "duplicate suite names")

        # the expression must parse, and the Lagrangian accept its symbols
        try:
            lagr = ComplexLagrangian(parse(source), omega0, dim, params)
        except (ExprError, UndeclaredSymbol, RecursionError) as err:  # the parser recurses per nesting level
            raise ScenarioError("lagrangian", str(err)) from err
        except InvalidParameter as err:
            raise ScenarioError(f"params.{err.name}", str(err)) from err

        return Scenario(
            name=name,
            lagrangian=source,
            omega0=omega0,
            dim=dim,
            params=params,
            initial_q=q,
            initial_qd=qd,
            initial_p=p,
            h=h,
            t_start=t_start,
            t_end=t_end,
            closure_mass=closure_mass,
            kappa0=kappa0,
            checks=tuple(checks),
            lagr=lagr,
        )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form; optional fields appear only when set."""
        initial: dict = {"q": list(self.initial_q)}
        if self.initial_qd is not None:
            initial["qd"] = list(self.initial_qd)
        else:
            initial["p"] = list(self.initial_p)
        out = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "lagrangian": self.lagrangian,
            "omega0": self.omega0,
            "dim": self.dim,
            "params": dict(self.params),
            "initial": initial,
            "integrator": {"h": self.h, "t_start": self.t_start, "t_end": self.t_end},
            "checks": list(self.checks),
        }
        if self.closure_mass is not None:
            out["closure_mass"] = list(self.closure_mass)
        if self.kappa0 != 1.0:
            out["kappa0"] = self.kappa0
        return out

    @staticmethod
    def load(path: str | Path) -> "Scenario":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as err:
            raise ScenarioError("(file)", f"cannot read: {err}") from err
        except json.JSONDecodeError as err:
            raise ScenarioError("(file)", f"not valid JSON: {err}") from err
        if not isinstance(raw, dict):
            raise ScenarioError("(file)", "top level must be an object")
        return Scenario.from_dict(raw)

    def build_lagrangian(self) -> ComplexLagrangian:
        return self.lagr

    def probe_state(self) -> MechState:
        """Initial state for classification; p-initial scenarios probe at qd=0."""
        qd = self.initial_qd if self.initial_qd is not None else (0.0,) * self.dim
        return MechState(self.t_start, self.initial_q, qd)
