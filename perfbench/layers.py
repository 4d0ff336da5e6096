"""Per-layer metrics of a traced run.

`layers.json` beside this file names each metric's unit, the end-to-end
metric it should move and on which workload; this module computes the
values. Span metrics are per call and use self time unless the name says
`total`. The `lagrangian.*_us` and `hamiltonian.{invert_velocity,flow_field}_us`
metrics come from direct calls on replayed trajectory states (see
`workloads.replay`), because `dynamics` reaches the maps through private
helpers that no wrapper from outside the program can see.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import Aggregate, Span

LAYERS = json.loads(Path(__file__).with_name("layers.json").read_text())

SUITES = ("variation", "noether", "equivalence", "geometry", "hamiltonian")
KINDS = {"regular": "second-order", "closure": "closure", "hamiltonian": "hamiltonian"}
INTEGRATORS = ("dynamics.integrate", "dynamics.integrate_hamiltonian")


@dataclass
class PassTrace:
    """What one traced pass left behind."""

    spans: list[Span]
    agg: dict[str, Aggregate]
    diff_cache_hit_ratio: float | None
    derived_nodes: int | None
    replay: dict[str, float] = field(default_factory=dict)

    def calls(self, name: str) -> int:
        agg = self.agg.get(name)
        return agg.calls if agg else 0


def _per_call(name: str, scale: float, attr: str = "self") -> Callable[[PassTrace], float | None]:
    def metric(pt: PassTrace) -> float | None:
        agg = pt.agg.get(name)
        return getattr(agg, attr) / agg.calls * scale if agg else None

    return metric


def _rk4(kind: str) -> Callable[[PassTrace], float | None]:
    def metric(pt: PassTrace) -> float | None:
        runs = [s for s in pt.spans if s.name in INTEGRATORS and s.attrs.get("kind") == kind]
        steps = sum(s.attrs["steps"] for s in runs)
        return sum(s.duration for s in runs) / steps * 1e6 if steps else None

    return metric


def _to_csv_per_row(pt: PassTrace) -> float | None:
    runs = [s for s in pt.spans if s.name == "dynamics.to_csv"]
    rows = sum(s.attrs["rows"] for s in runs)
    return sum(s.duration for s in runs) / rows * 1e6 if rows else None


def _integrate_calls(pt: PassTrace) -> int | None:
    return sum(pt.calls(n) for n in INTEGRATORS) or None


def _integrate_steps(pt: PassTrace) -> int | None:
    return sum(s.attrs["steps"] for s in pt.spans if s.name in INTEGRATORS) or None


def _suite_derive_calls(pt: PassTrace) -> int | None:
    if not any(pt.calls(f"suites.{s}") for s in SUITES):
        return None  # no suite ran in this pass
    return sum(1 for s in pt.spans if s.name == "lagrangian.derive_eom" and s.site == "clmech.suites")


def _replay(name: str) -> Callable[[PassTrace], float | None]:
    return lambda pt: pt.replay.get(name)


METRICS: dict[str, Callable[[PassTrace], float | None]] = {
    "exprcore.parse_us": _per_call("exprcore.parse", 1e6),
    "exprcore.diff_ms": _per_call("exprcore.diff", 1e3),
    "exprcore.simplify_ms": _per_call("exprcore.simplify", 1e3),
    "exprcore.compile_ms": _per_call("exprcore.compile_expr", 1e3),
    "exprcore.derived_nodes": lambda pt: pt.derived_nodes,
    "exprcore.diff_cache_hit_ratio": lambda pt: pt.diff_cache_hit_ratio,
    "lagrangian.derive_eom_ms": _per_call("lagrangian.derive_eom", 1e3),
    "lagrangian.momentum_us": _replay("lagrangian.momentum_us"),
    "lagrangian.force_us": _replay("lagrangian.force_us"),
    "lagrangian.accel_us.dim1": _replay("lagrangian.accel_us.dim1"),
    "lagrangian.accel_us.dim3": _replay("lagrangian.accel_us.dim3"),
    "lagrangian.closure_velocity_us": _replay("lagrangian.closure_velocity_us"),
    "dynamics.rk4_us_per_step.regular": _rk4(KINDS["regular"]),
    "dynamics.rk4_us_per_step.closure": _rk4(KINDS["closure"]),
    "dynamics.rk4_us_per_step.hamiltonian": _rk4(KINDS["hamiltonian"]),
    "dynamics.to_csv_us_per_row": _to_csv_per_row,
    "dynamics.integrate_calls": _integrate_calls,
    "dynamics.integrate_steps": _integrate_steps,
    "dynamics.sampled_path_ms": _per_call("dynamics.sampled_path", 1e3),
    "hamiltonian.invert_velocity_us": _replay("hamiltonian.invert_velocity_us"),
    "hamiltonian.flow_field_us": _replay("hamiltonian.flow_field_us"),
    "hamiltonian.field_build_ms": _per_call("hamiltonian.HamiltonianField", 1e3),
    "variational.action_ms": _per_call("variational.action", 1e3),
    "variational.first_variation_ms": _per_call("variational.first_variation", 1e3),
    "variational.charge_series_ms": _per_call("variational.charge_series", 1e3),
    "equivalence.eom_equivalent_ms": _per_call("equivalence.eom_equivalent", 1e3),
    "equivalence.integrability_residual_ms": _per_call("equivalence.integrability_residual", 1e3),
    "geometry.lie_theta_us": _per_call("geometry.lie_theta", 1e6),
    "geometry.lie_theta_cartan_ms": _per_call("geometry.lie_theta_cartan", 1e3),
    "sampling.sample_states_ms": _per_call("sampling.sample_states", 1e3),
    **{f"suites.{s}_s.self": _per_call(f"suites.{s}", 1.0) for s in SUITES},
    **{f"suites.{s}_s.total": _per_call(f"suites.{s}", 1.0, "total") for s in SUITES},
    "suites.derive_calls": _suite_derive_calls,
    "scenario.load_ms": _per_call("scenario.load", 1e3),
    "cli.self_ms": _per_call("cli.main", 1e3),
}

# measured by the run itself, not from one pass's spans
RUN_METRICS = ("trace.overhead_s",)


def compute(own: PassTrace, probe: Callable[[], PassTrace]) -> tuple[dict[str, float], list[str]]:
    """Every metric from the workload's own pass; the ones it does not exercise
    come from the probe pass, which `probe()` runs on first use."""
    values: dict[str, float] = {}
    from_probe: list[str] = []
    probe_trace = None
    for name, metric in METRICS.items():
        value = metric(own)
        if value is None:
            probe_trace = probe_trace or probe()
            value = metric(probe_trace)
            from_probe.append(name)
        if value is None:
            raise RuntimeError(f"layer metric {name} was not exercised by the probe either")
        values[name] = value
    return values, from_probe
